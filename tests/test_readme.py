"""README's examples run as written."""

import json
import re
from pathlib import Path

from yaoyao import SolverConfig
from yaoyao.geometry import halfspace_contains_region

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, lang: str) -> str:
    """The first fenced block of a language after a heading."""
    start = README.index(heading)
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, start)
    return match.group(1)


def test_library_quick_start_runs():
    scope = {}
    exec(_block_after("## Library quick start", "python"), scope)
    # the comments hold: h holds the center, and the witness region lies in h
    assert scope["h"].value(scope["tree"].center) >= 0
    assert halfspace_contains_region(scope["h"], scope["regs"][scope["signs"]])


def test_solver_config_block_loads():
    doc = json.loads(_block_after("**Solver config JSON**", "json"))
    assert SolverConfig.from_json(doc) == SolverConfig()
