"""README's examples run as written."""

import re
import shlex
from pathlib import Path

from yaoyao.cli import build_parser
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


def test_command_line_block_parses():
    # optional parts in brackets are spelled out, comments dropped, and a
    # wrapped line joined to its command, so a flag the CLI lost fails here
    commands = []
    for line in _block_after("## Command line", "bash").splitlines():
        line = line.split("#")[0].replace("[", " ").replace("]", " ")
        if line.startswith("yaoyao "):
            commands.append(line)
        elif line.strip():
            commands[-1] += line
    assert [c.split()[1] for c in commands] == ["sample", "center", "verify", "plot"]
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])
