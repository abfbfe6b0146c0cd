"""One cold measurement: a fresh interpreter imports the engine, runs a list
of operations, checks every answer and prints one JSON line.

Usage: python3 child.py SRC SPEC_JSON

SPEC_JSON holds ``ops`` (see workloads.py) and the flags ``setup_only``,
``trace`` and ``inject_wrong_degree``.  ``ready`` is the CLOCK_MONOTONIC
reading once ``trisecant`` and ``trisecant.cli`` are imported; the parent
subtracts its own reading from before the spawn to get the set-up time.

While the operations run, an interval timer interrupts them every
``SLICE_INTERVAL_S`` with a reference slice: fixed stdlib work of the
engine's kind (``Fraction`` arithmetic in a dict keyed by exponent pairs),
timed.  ``wall_s`` excludes the slices; ``wall_ref`` is ``wall_s`` over
their mean, the workload's time counted in slices.  On a shared 2-vCPU
Xeon VM the speed of the machine moved by up to 1.7x for minutes at a time,
and across ten seeds the quartile spread of raw seconds reached 0.45 of the
median.  The slices run on the same machine state as the operations they
interrupt, so the quotient keeps the engine's cost and drops most of the
drift.  In traced children the slices land inside spans and add about 2 %
to the span times.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import trisecant  # noqa: E402
import trisecant.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

SLICE_INTERVAL_S = 0.25
REFERENCE_TERMS = 1000


def reference_slice() -> float:
    """Seconds taken by the fixed reference work."""
    start = time.perf_counter()
    acc = {}
    for i in range(REFERENCE_TERMS):
        key = (i % 3, i % 50)
        acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
    if len(acc) != 150:  # keeps the work from being skipped or changed
        raise RuntimeError("reference slice computed the wrong thing")
    return time.perf_counter() - start


class Slices:
    """Reference slices taken on a wall-clock timer while the block runs."""

    def __init__(self) -> None:
        self.taken: list[float] = []

    def _take(self, signum, frame) -> None:
        self.taken.append(reference_slice())

    def __enter__(self) -> "Slices":
        self.taken.append(reference_slice())  # so that short blocks have one too
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run(op: list):
    if op[0] == "secant3_degree":
        return trisecant.secant3_degree(op[1], op[2])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = trisecant.cli.main(op[1:])
    return code, out.getvalue()


def inject_wrong_degree() -> None:
    """Fault injection for the benchmark's own tests: every degree is off by one."""
    original = trisecant.degree.secant3_degree

    def wrong(*args, **kwargs):
        return original(*args, **kwargs) + 1

    layers.replace_everywhere(original, wrong)


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    spec = json.loads(sys.argv[2])
    engine = Path(trisecant.__file__).resolve()
    if src not in engine.parents:
        print(f"error: imported trisecant from {engine}, not from {src}", file=sys.stderr)
        return 3
    record = {"ready": READY, "trisecant_file": str(engine), "methods": list(trisecant.METHODS)}
    if spec.get("setup_only"):
        print(json.dumps(record))
        return 0
    if spec.get("inject_wrong_degree"):
        inject_wrong_degree()
    tracer = None
    if spec.get("trace"):
        tracer = layers.Tracer()
        layers.install(tracer)
    failed, errors = 0, []
    with Slices() as timer:
        start = time.perf_counter()
        for op in spec["ops"]:
            try:
                problem = workloads.check(op, run(op))
            except Exception as err:  # an engine failure is a failed operation, not a crash
                problem = f"{op}: {type(err).__name__}: {err}"
            if problem is not None:
                failed += 1
                errors.append(problem)
    # Read after the timer is off, so every slice but the first lies inside.
    elapsed = time.perf_counter() - start
    record["wall_s"] = elapsed - sum(timer.taken[1:])
    record["wall_ref"] = record["wall_s"] / statistics.mean(timer.taken)
    record["slices"] = len(timer.taken)
    record["attempted"] = len(spec["ops"])
    record["failed"] = failed
    record["errors"] = errors[:5]
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["unwrapped"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
