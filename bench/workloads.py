"""Benchmark inputs and the correctness gate.

A workload turns a seed into a list of operations; the child process runs
them against the engine and checks every answer with :func:`check`.  An
operation is a JSON list:

* ``["secant3_degree", d, method]``: the library call, answer an integer;
* ``["cli", arg, ...]``: ``trisecant.cli.main`` on that argument vector,
  answer its exit code and JSON stdout.
"""

from __future__ import annotations

import json
import random
from math import comb

WORKLOADS = ("sweep", "large-d", "verify")

# The paper's frozen spot values.  The gate's formula must reproduce them, or
# the benchmark refuses to load.
SPOT_VALUES = {8: 12, 9: 25, 10: 44, 12: 104}

# Full and smoke sizes.  The smoke sizes only serve the benchmark's own tests.
SWEEP_RANGE = {False: (8, 60), True: (8, 12)}
LARGE_D_CENTRES = {False: (100, 130, 160), True: (14, 17, 20)}
VERIFY_RANGE = {False: (8, 40), True: (8, 14)}


def expected_degree(d: int) -> int:
    """binom(d-2, 3) - 2(d-4), computed here and not by the engine."""
    return comb(d - 2, 3) - 2 * (d - 4)


for _d, _value in SPOT_VALUES.items():
    if expected_degree(_d) != _value:
        raise RuntimeError(f"gate formula disagrees with the spot value at d={_d}")


def build(workload: str, seed: int, methods: list[str], smoke: bool = False) -> list[list]:
    """The operations of one workload, fixed by ``seed``."""
    rng = random.Random(seed)
    if workload == "sweep":
        # Acceptance criterion 1: every d, every route, each computed once.
        lo, hi = SWEEP_RANGE[smoke]
        ops = [["secant3_degree", d, m] for d in range(lo, hi + 1) for m in methods]
    elif workload == "large-d":
        # One d within +-1 of each centre: the seed varies the inputs while the
        # total cost, which grows like d^2.5, moves by about 1 %.
        ops = [
            ["cli", "degree", "--d", str(c + rng.randint(-1, 1)), "--format", "json"]
            for c in LARGE_D_CENTRES[smoke]
        ]
    elif workload == "verify":
        # The default range in two calls split at a seeded d.  Each d is checked
        # once either way, and the d-independent checks run twice at every seed.
        lo, hi = VERIFY_RANGE[smoke]
        quarter = (hi - lo) // 4
        split = rng.randint(lo + quarter, hi - quarter - 1)
        ops = [
            ["cli", "verify", "--d-min", str(a), "--d-max", str(b), "--format", "json"]
            for a, b in ((lo, split), (split + 1, hi))
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def sizes(ops: list[list]) -> dict:
    """What a run computed, for the run record."""
    ds = set()
    for op in ops:
        if op[0] == "secant3_degree":
            ds.add(op[1])
        else:
            flags = ("--d", "--d-min", "--d-max")
            ds.update(int(op[i + 1]) for i, arg in enumerate(op) if arg in flags)
    return {"operations": len(ops), "d": sorted(ds)}


def check(op: list, answer) -> str | None:
    """None when ``answer`` is right for ``op``, else what is wrong with it."""
    if op[0] == "secant3_degree":
        d, want = op[1], expected_degree(op[1])
        return None if answer == want else f"d={d} {op[2]}: got {answer}, want {want}"
    code, stdout = answer
    if code != 0:
        return f"{' '.join(op[1:])}: exit code {code}"
    payload = json.loads(stdout)
    args = dict(zip(op[2::2], op[3::2]))
    if op[1] == "degree":
        d = int(args["--d"])
        if payload.get("d") != d or payload.get("degree") != expected_degree(d):
            return f"degree --d {d}: got {payload.get('degree')}, want {expected_degree(d)}"
        return None
    span = (int(args["--d-min"]), int(args["--d-max"]))
    checks = payload.get("checks") or []
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if payload.get("passed") is not True or failed or not checks:
        return f"verify {span}: failed checks {failed}"
    if (payload.get("d_min"), payload.get("d_max")) != span:
        return f"verify {span}: report covers {(payload.get('d_min'), payload.get('d_max'))}"
    return None
