"""Quick self-test of the benchmark harness on a tiny input set (about 10 s).

    python3 perfbench/selftest.py

Checks that a run prints every metric BENCHMARK.json names, traced and
untraced, that a deliberately wrong expected verdict is counted as a failed
operation, and that the fresh-interpreter setup probe works.  Exits 1 on
the first problem.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run

run.import_program()

import periform as P  # noqa: E402  (imported from the checkout by run.import_program)
from periform.certify import ISOLATED_EXTREME, NOT_EXTREME  # noqa: E402
from workloads import (  # noqa: E402
    Classic,
    Classics,
    ImproveWalk,
    SublatticeReps,
    as_form,
)

TINY = (
    Classics(cases=(
        Classic("E8", lambda: as_form(P.get("E8").form), Fraction(2),
                ISOLATED_EXTREME, 120),
        # A2 is perfect and eutactic: this expected verdict is wrong on purpose.
        Classic("A2", lambda: as_form(P.get("A", 2).form), Fraction(2),
                NOT_EXTREME),
    )),
    SublatticeReps(bases=(("A", (2,)),), max_index=2, e8_sample=()),
    ImproveWalk(per_shape=1, step_limit=3),
)
EXPECTED_FAILED = {"classics": 1, "sublattice-reps": 0, "improve-walk": 0}


def fail(msg: str) -> None:
    print(f"selftest: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    setup = run.measure_setup("improve-walk", 1)
    for trace in (0, 1):
        for wl in TINY:
            out = run.measure(wl, seed=1, seconds=0, trace=bool(trace), setup=setup)
            result, text = out["result"], "\n".join(out["summary"])
            if sorted(result["metrics"]) != sorted(names[trace]):
                fail(f"{wl.name} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(result['metrics']) ^ set(names[trace]))}")
            missing = [n for n in names[trace] + ["fail_frac"] if n not in text]
            if missing:
                fail(f"{wl.name} trace {trace}: summary does not print {missing}")
            expected = EXPECTED_FAILED[wl.name] * (1 + trace)  # traced runs repeat
            shown = (f"fail_frac {expected / result['attempted']:.6g} "
                     f"({expected}/{result['attempted']} operations)")
            counted = (result["failed"] == expected
                       and result["correct"] == (expected == 0)
                       and shown in " ".join(text.split()))
            if not counted:
                fail(f"{wl.name} trace {trace}: {result['failed']} failed, "
                     f"expected {expected} shown as {shown!r}")
            print(f"ok {wl.name} trace {trace}: {result['attempted']} operations, "
                  f"{result['failed']} failed")
    print("selftest ok")


if __name__ == "__main__":
    main()
