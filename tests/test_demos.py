"""Each demo script runs to completion against the package in ``src`` and
prints exactly its recorded output, ``demo_output/<script>.txt``; the python
blocks of the README run too."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from helpers import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = run_python(script, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{script.stem}.txt").read_text(encoding="utf-8")


def test_every_golden_has_a_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


def test_readme_python_blocks_run():
    """Every python block of README.md runs, in order, in one namespace."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
