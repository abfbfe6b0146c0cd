"""Command-line front end.

Three subcommands:

* ``degree``  compute the secant-variety degree for one curve degree d;
* ``table``   sweep a range of d and emit a CSV comparison table;
* ``verify``  run the internal consistency battery over a range of d.

The battery is the table ``CHECKS``.  Its per-d checks run in one pass over
d and share that d's intermediates through a :class:`Stage`.

Exit codes: 0 on success; 1 on a usage problem, which the parser alone
decides (bad flags, a d below 8, an empty range), or when the reader closes
stdout early (a broken pipe, no traceback); 2 when a check fails or the
engine raises one of ``INTERNAL_ERRORS`` (an internal inconsistency),
reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from . import porteous
from ._graded import _coefficient, _difference
from .degree import berzolari, class_degree, secant3_degree, verify_binomial_identities
from .porteous import METHODS, chern_coefficients, determinant_formula, porteous_class
from .riemann_roch import UpstreamClass, bundle_characters, poincare_character, pushforward_to_picard
from .ring import AmbientClass, RingMismatchError, ThetaPoly, _require_curve_degree

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VERIFY",
    "INTERNAL_ERRORS",
    "CHECKS",
    "CheckResult",
    "Stage",
    "VerifyReport",
    "UsageError",
    "build_parser",
    "run_degree",
    "run_table",
    "run_verify",
    "verify_checks",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# An internal inconsistency: a check's counterexample in verify, exit 2 in main.
INTERNAL_ERRORS = (ArithmeticError, LookupError, ValueError, RingMismatchError)


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _curve_degree(text: str) -> int:
    """Type of ``--d`` and ``--d-min``: an integer of at least 8."""
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if d < 8:
        raise argparse.ArgumentTypeError(f"must be at least 8, got {d}")
    return d


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: str | None = None
    elapsed_s: float = 0.0


class VerifyReport(NamedTuple):
    d_min: int
    d_max: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trisecant",
        description="Exact degree of the third secant variety of a genus-2 curve.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    degree = commands.add_parser("degree", help="compute the degree for one d")
    degree.add_argument("--d", type=_curve_degree, required=True, help="curve degree, at least 8")
    degree.add_argument(
        "--method",
        choices=METHODS + ("all",),
        default="all",
        help="determinant route; 'all' computes every route and compares",
    )
    degree.add_argument("--format", choices=("text", "json"), default="text")
    degree.add_argument(
        "--verbose",
        action="store_true",
        help="also report the intermediate classes of the pipeline",
    )

    table = commands.add_parser("table", help="tabulate degrees over a range of d")
    table.add_argument("--d-min", type=_curve_degree, required=True)
    table.add_argument("--d-max", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = commands.add_parser("verify", help="run the consistency battery")
    verify.add_argument("--d-min", type=_curve_degree, default=8)
    verify.add_argument("--d-max", type=int, default=40)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _intermediates(d: int) -> dict[str, str]:
    sections, residual = bundle_characters(d)
    entries = {"ch_sections": sections, "ch_residual": residual}
    entries.update((f"c_{i}", c) for i, c in enumerate(chern_coefficients(d), start=1))
    entries["secant_class"] = porteous_class(d)
    return {name: str(value) for name, value in entries.items()}


def run_degree(args: argparse.Namespace) -> int:
    d = args.d
    methods = METHODS if args.method == "all" else (args.method,)
    values = {method: secant3_degree(d, method=method) for method in methods}
    reference = berzolari(d)
    if len(set(values.values()) | {reference}) != 1:
        for method, value in values.items():
            print(f"{method}: {value}", file=sys.stderr)
        print(f"berzolari: {reference}", file=sys.stderr)
        print(f"error: degree methods disagree at d={d}", file=sys.stderr)
        return EXIT_VERIFY
    degree = values[methods[0]]
    intermediates = _intermediates(d) if args.verbose else {}
    if args.format == "json":
        payload = {"d": d, "degree": degree, "method": args.method, "intermediates": intermediates}
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        for name, value in intermediates.items():
            print(f"{name} = {value}")
        print(degree)
    return EXIT_OK


def run_table(args: argparse.Namespace) -> int:
    """CSV rows are written as each d finishes, so an internal error part-way
    leaves the finished rows on stdout; JSON is one document, written whole.
    Every CSV field is an int or a bare word, so none needs quoting."""
    keys = ("d", "degree_porteous", "degree_closed_form", "degree_berzolari", "match")
    if args.format == "csv":
        print(*keys, sep=",")
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        row = (d, secant3_degree(d, "segre"), secant3_degree(d, "closed-form"), berzolari(d))
        match = len(set(row[1:])) == 1
        rows.append(dict(zip(keys, row + (match,))))
        if args.format == "csv":
            print(*row, "true" if match else "false", sep=",", flush=True)
    if args.format == "json":
        sys.stdout.write(json.dumps(rows, separators=(",", ":")) + "\n")
    if all(row["match"] for row in rows):
        return EXIT_OK
    print("error: degree methods disagree somewhere in the table", file=sys.stderr)
    return EXIT_VERIFY


class Stage:
    """The intermediates of one d that several checks share: the integer
    columns of the series division, read through ``porteous`` so that a
    rebinding takes effect, and every route's class by its name in
    ``METHODS``, as ``degree`` computes it.  Each is built on first use, so
    its cost falls to the check that first reads it."""

    def __init__(self, d: int) -> None:
        self.d = d

    @cached_property
    def division(self) -> list[list]:
        return porteous._division_columns(self.d)

    @cached_property
    def routes(self) -> dict[str, AmbientClass]:
        return {method: porteous_class(self.d, method) for method in METHODS}


def _broken_law(values) -> tuple | None:
    """``(law, a, b, c)`` for the first triple of ``values``, read three at a time,
    that breaks distributivity, associativity or commutativity; ``a*b`` and
    ``b*c`` formed once."""
    values = iter(values)
    for a, b, c in zip(values, values, values):
        ab, bc = a * b, b * c
        if (a + b) * c != a * c + bc:
            return "distributivity", a, b, c
        if ab * c != a * bc:
            return "associativity", a, b, c
        if ab != b * a:
            return "commutativity", a, b, c
    return None


def check_ring_axioms(d_min: int, d_max: int) -> str | None:
    """Random distributivity, associativity and commutativity triples in both
    rings, plus the defining nilpotency relations and the last nonzero powers
    h^(d-2) and T^2, each one term with coefficient 1, which tell a generator
    from a multiple or a shift of it; the ambient ring is exercised on the
    first five d of the range.  Values are drawn from fixed pools, each pool
    in one call: the coefficients n/m, |n| <= 9, m <= 4, of 350 theta triples,
    three to a value; then at each d the grid keys of 120 ambient triples,
    four to a value, and as many coefficients, m <= 3."""
    rng = random.Random(271828)
    pool = [Fraction(n, m) for n in range(-9, 10) for m in range(1, 5)]
    coefficients = iter(rng.choices(pool, k=3 * 3 * 350))
    broken = _broken_law(map(ThetaPoly, coefficients, coefficients, coefficients))
    if broken:
        return "theta {}: {}; {}; {}".format(*broken)
    theta = ThetaPoly.theta()
    if not (theta ** 3).is_zero():
        return "T^3 != 0 in the theta ring"
    if list((theta ** 2).nonzero_terms()) != [(2, 0, 1)]:
        return "T^2 is not the term T^2 in the theta ring"

    pool = [Fraction(n, m) for n in range(-9, 10) for m in range(1, 4)]
    for d in range(d_min, min(d_max, d_min + 4) + 1):
        grid = [(a, b) for a in range(3) for b in range(d - 1)]
        terms = iter(zip(rng.choices(grid, k=4 * 3 * 120), rng.choices(pool, k=4 * 3 * 120)))
        values = (AmbientClass(d, dict(four)) for four in zip(terms, terms, terms, terms))
        broken = _broken_law(values)
        if broken:
            return f"ambient {broken[0]} at d={d}"
        h, theta = AmbientClass.hyperplane(d), AmbientClass.theta(d)
        if not (h ** (d - 1)).is_zero():
            return f"h^(d-1) != 0 at d={d}"
        if list((h ** (d - 2)).nonzero_terms()) != [(0, d - 2, 1)]:
            return f"h^(d-2) is not the term h^(d-2) at d={d}"
        if not (theta ** 3).is_zero():
            return f"T^3 != 0 in the ambient ring at d={d}"
        if list((theta ** 2).nonzero_terms()) != [(2, 0, 1)]:
            return f"T^2 is not the term T^2 in the ambient ring at d={d}"
    return None


def check_kunneth_relations(d_min: int, d_max: int) -> str | None:
    """The product rules upstairs, pi_* gamma = 0 (which tells gamma from
    gamma + a f, as no product rule can), and the Poincare character."""
    f = UpstreamClass.fiber()
    gamma = UpstreamClass.kunneth()
    theta = UpstreamClass.theta()
    relations = (
        ("f*f", f * f, UpstreamClass.zero()),
        ("f*gamma", f * gamma, UpstreamClass.zero()),
        ("gamma*gamma", gamma * gamma, f * theta * (-2)),
        ("gamma^3", gamma ** 3, UpstreamClass.zero()),
        ("(3f+gamma)^2", (f * 3 + gamma) ** 2, f * theta * (-2)),
        ("pi_*gamma", pushforward_to_picard(gamma), ThetaPoly.zero()),
    )
    for label, got, want in relations:
        if got != want:
            return f"{label}: got {got}, wanted {want}"
    expected = UpstreamClass(ThetaPoly.one(), ThetaPoly(3, -1, 0), ThetaPoly.one())
    if poincare_character() != expected:
        return f"poincare character {poincare_character()} != {expected}"
    return None


def check_bundle_characters(d: int, stage: Stage) -> str | None:
    """The pushforward characters against their simplified forms."""
    sections, residual = bundle_characters(d)
    if sections != ThetaPoly(2, -1, 0):
        return f"d={d}: sections character {sections}"
    if residual != ThetaPoly(d - 4, -1, 0):
        return f"d={d}: residual character {residual}"
    return None


def check_chern_coefficient_formula(d: int, stage: Stage) -> str | None:
    """Series division against the closed binomial formula at every index."""
    diff = _difference(d, stage.division, porteous._formula_columns(d, d - 5))
    return diff and "d={}, i={}: division {} vs formula {}".format(d, *diff)


def check_series_exponential_form(d: int, stage: Stage) -> str | None:
    diff = _difference(d, stage.division, porteous._exponential_columns(d))
    return diff and "d={}: quotient != exponential form at t^{}: {} vs {}".format(d, *diff)


def check_series_binomial_expansion(d: int, stage: Stage) -> str | None:
    diff = _difference(d, stage.division, porteous._expansion_columns(d))
    return diff and "d={}: quotient != binomial expansion at t^{}: {} vs {}".format(d, *diff)


def check_determinant_three_way(d: int, stage: Stage) -> str | None:
    """Every route must produce the same class.  The recurrence route reads
    the formula's coefficients, which ``chern-coefficient-formula`` holds
    equal to the division's."""
    if len(set(stage.routes.values())) > 1:
        return f"d={d}: " + "; ".join(f"{m} {c}" for m, c in stage.routes.items())
    return None


def check_determinant_closed_form(d: int, stage: Stage) -> str | None:
    """Every banded determinant of size >= 3, from the full recurrence, against
    the closed form."""
    determinants = porteous._determinant_columns(d)
    for n in range(3, d - 4):
        if porteous._closed_triple(n, d) != tuple(c[n] for c in determinants):
            closed, recurrence = determinant_formula(n, d), _coefficient(d, determinants, n)
            return f"d={d}, n={n}: closed form != recurrence: {closed} vs {recurrence}"
    return None


def check_binomial_identities(d_min: int, d_max: int) -> str | None:
    if not verify_binomial_identities(12):
        return "upper negation or Vandermonde failed"
    return None


def check_degree_berzolari(d: int, stage: Stage) -> str | None:
    """Every route's class, the one ``degree`` pairs, against the classical
    count, then ``secant3_degree(d)``, the public entry that ``degree`` and
    ``table`` read, which keeps that entry under the check.  It builds its
    default route's class a second time, an O(1) solve."""
    reference = berzolari(d)
    degrees = {method: class_degree(locus, method) for method, locus in stage.routes.items()}
    degrees["secant3_degree"] = secant3_degree(d)
    for source, degree in degrees.items():
        if degree != reference:
            return f"d={d}: {source} gave {degree}, count is {reference}"
    return None


# The battery in report order: (name, whether it runs per d).  Each name runs
# check_<name> of this module, looked up when verify runs so that a rebinding
# of it (a tracing wrapper, a test double) takes effect.  A whole-range check
# takes (d_min, d_max), a per-d check (d, stage); each returns its first
# counterexample, or None when it holds.
CHECKS = (
    ("ring-axioms", False),
    ("kunneth-relations", False),
    ("bundle-characters", True),
    ("chern-coefficient-formula", True),
    ("series-exponential-form", True),
    ("series-binomial-expansion", True),
    ("determinant-three-way", True),
    ("determinant-closed-form", True),
    ("binomial-identities", False),
    ("degree-berzolari", True),
)


def verify_checks(d_min: int, d_max: int) -> VerifyReport:
    """Run the battery: the whole-range checks, then one pass over d for the
    per-d checks.  A check stops at its first counterexample, which may be one
    of ``INTERNAL_ERRORS`` it raised (after ``d=<d>: `` for a per-d check);
    its ``elapsed_s`` is its wall time summed over every d it ran on; a bound
    that is not a curve degree, or an empty range, raises ``ValueError``."""
    _require_curve_degree(d_min)
    if isinstance(d_max, int) and d_max < d_min:
        raise ValueError("empty range: --d-max is below --d-min")
    _require_curve_degree(d_max)
    elapsed = dict.fromkeys((name for name, _ in CHECKS), 0.0)
    failures: dict[str, str] = {}

    def run(name: str, args: tuple, where: str = "") -> None:
        check = globals()["check_" + name.replace("-", "_")]
        start = time.perf_counter()
        try:
            counterexample = check(*args)
        except INTERNAL_ERRORS as err:
            counterexample = f"{where}{err}"
        elapsed[name] += time.perf_counter() - start
        if counterexample is not None:
            failures[name] = counterexample

    for name, per_d in CHECKS:
        if not per_d:
            run(name, (d_min, d_max))
    for d in range(d_min, d_max + 1):
        stage = Stage(d)
        for name, per_d in CHECKS:
            if per_d and name not in failures:
                run(name, (d, stage), f"d={d}: ")
    checks = tuple(
        CheckResult(name, name not in failures, failures.get(name), elapsed[name])
        for name, _ in CHECKS
    )
    return VerifyReport(d_min=d_min, d_max=d_max, checks=checks)


def run_verify(args: argparse.Namespace) -> int:
    report = verify_checks(args.d_min, args.d_max)
    if args.format == "json":
        payload = {
            "d_min": report.d_min,
            "d_max": report.d_max,
            "passed": report.passed,
            "checks": [check._asdict() for check in report.checks],
        }
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        for check in report.checks:
            if check.passed:
                print(f"PASS {check.name}")
            else:
                print(f"FAIL {check.name}: {check.counterexample}")
        passed = sum(check.passed for check in report.checks)
        span = f"d in [{report.d_min}, {report.d_max}]"
        print(f"{passed}/{len(report.checks)} checks passed for {span}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command != "degree" and args.d_max < args.d_min:
            raise UsageError("empty range: --d-max is below --d-min")
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "degree":
            return run_degree(args)
        if args.command == "table":
            return run_table(args)
        return run_verify(args)
    except INTERNAL_ERRORS as err:
        print(f"error: internal inconsistency: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except BrokenPipeError:
        # The reader has gone (`| head`).  As the Python docs advise, stdout goes
        # to devnull so the flush at exit cannot fail again; exit 1 as on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
