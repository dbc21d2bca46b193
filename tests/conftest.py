"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import yaoyao

SRC = str(Path(yaoyao.__file__).resolve().parents[1])


@pytest.fixture
def run_cli():
    """run(argv, **env): ``python -m yaoyao.cli argv`` in a fresh process with
    env added to the environment (say OPENBLAS_NUM_THREADS, read only when
    numpy loads); asserts exit 0 and returns stdout."""

    def run(argv, **env):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "yaoyao.cli", *map(str, argv)],
                              env={**os.environ, **env, "PYTHONPATH": path},
                              capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
