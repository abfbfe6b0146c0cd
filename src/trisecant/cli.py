"""Command-line front end.

Three subcommands:

* ``degree``  compute the secant-variety degree for one curve degree d;
* ``table``   sweep a range of d and emit a CSV comparison table;
* ``verify``  run the internal consistency battery over a range of d.

Exit codes: 0 on success, 1 on a usage problem (bad flags, d out of range),
2 when a verification or cross-method agreement check fails or the engine
detects an internal inconsistency (an ``ArithmeticError`` or a
``RingMismatchError``), reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from .degree import berzolari, degree_report, secant3_degree, verify_binomial_identities
from .porteous import (
    METHODS,
    chern_coefficient_formula,
    chern_coefficients,
    determinant_formula,
    determinant_recurrence,
    determinant_segre,
    porteous_class,
    recurrence_determinants,
    virtual_chern_series,
    virtual_chern_series_closed_form,
    virtual_chern_series_expansion,
)
from .riemann_roch import UpstreamClass, bundle_characters, poincare_character
from .ring import AmbientClass, RingMismatchError, ThetaPoly

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VERIFY",
    "CliConfig",
    "CheckResult",
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

# Test-only hook type: maps (index i, coefficient c_i) to a replacement
# coefficient before the determinants are evaluated.
PerturbHook = Callable[[int, AmbientClass], AmbientClass]


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass(frozen=True)
class CliConfig:
    command: str
    d: int | None = None
    d_min: int = 8
    d_max: int = 40
    method: str = "all"
    format: str = "text"
    verbose: bool = False


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: str | None = None
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class VerifyReport:
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
    degree.add_argument("--d", type=int, required=True, help="curve degree, at least 8")
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
    table.add_argument("--d-min", type=int, required=True)
    table.add_argument("--d-max", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = commands.add_parser("verify", help="run the consistency battery")
    verify.add_argument("--d-min", type=int, default=8)
    verify.add_argument("--d-max", type=int, default=40)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _config_from_namespace(namespace: argparse.Namespace) -> CliConfig:
    return CliConfig(
        command=namespace.command,
        d=getattr(namespace, "d", None),
        d_min=getattr(namespace, "d_min", 8),
        d_max=getattr(namespace, "d_max", 40),
        method=getattr(namespace, "method", "all"),
        format=getattr(namespace, "format", "text"),
        verbose=getattr(namespace, "verbose", False),
    )


def _require_range(d_min: int, d_max: int) -> None:
    if d_min < 8:
        raise ValueError("the range must start at d >= 8")
    if d_max < d_min:
        raise ValueError("empty range: --d-max is below --d-min")


def _intermediates(d: int) -> dict[str, str]:
    sections, residual = bundle_characters(d)
    entries = {
        "ch_sections": str(sections.chern_character),
        "ch_residual": str(residual.chern_character),
    }
    for i, value in enumerate(chern_coefficients(d), start=1):
        entries[f"c_{i}"] = str(value)
    entries["secant_class"] = str(porteous_class(d).x1)
    return entries


def run_degree(config: CliConfig) -> int:
    d = config.d
    if d is None:
        raise ValueError("the degree command needs --d")
    methods = METHODS if config.method == "all" else (config.method,)
    values = {method: secant3_degree(d, method=method) for method in methods}
    reference = berzolari(d)
    if len(set(values.values()) | {reference}) != 1:
        for method, value in values.items():
            print(f"{method}: {value}", file=sys.stderr)
        print(f"berzolari: {reference}", file=sys.stderr)
        print(f"error: degree methods disagree at d={d}", file=sys.stderr)
        return EXIT_VERIFY
    degree = values[methods[0]]
    intermediates = _intermediates(d) if config.verbose else {}
    if config.format == "json":
        payload = {
            "d": d,
            "degree": degree,
            "method": config.method,
            "intermediates": intermediates,
        }
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        for name, value in intermediates.items():
            print(f"{name} = {value}")
        print(degree)
    return EXIT_OK


def run_table(config: CliConfig) -> int:
    """CSV rows are written as each d finishes, so an internal error part-way
    leaves the finished rows on stdout; JSON is one document, written whole."""
    _require_range(config.d_min, config.d_max)
    d_range = range(config.d_min, config.d_max + 1)
    if config.format == "json":
        reports = [degree_report(d) for d in d_range]
        payload = [
            {
                "d": report.d,
                "degree_porteous": report.degree_porteous,
                "degree_closed_form": report.degree_closed_form,
                "degree_berzolari": report.degree_berzolari,
                "match": report.methods_agree,
            }
            for report in reports
        ]
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["d", "degree_porteous", "degree_closed_form", "degree_berzolari", "match"]
        )
        reports = []
        for d in d_range:
            report = degree_report(d)
            reports.append(report)
            writer.writerow(
                [
                    report.d,
                    report.degree_porteous,
                    report.degree_closed_form,
                    report.degree_berzolari,
                    "true" if report.methods_agree else "false",
                ]
            )
            sys.stdout.flush()
    if all(report.methods_agree for report in reports):
        return EXIT_OK
    print("error: degree methods disagree somewhere in the table", file=sys.stderr)
    return EXIT_VERIFY


def check_ring_axioms(d_min: int, d_max: int) -> CheckResult:
    """Random distributivity, associativity and commutativity triples in both
    rings, plus the defining nilpotency relations."""
    name = "ring-axioms"
    rng = random.Random(271828)

    def random_theta() -> ThetaPoly:
        return ThetaPoly(
            *(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        )

    for _ in range(350):
        a, b, c = random_theta(), random_theta(), random_theta()
        if (a + b) * c != a * c + b * c:
            return CheckResult(name, False, f"theta distributivity: {a}; {b}; {c}")
        if (a * b) * c != a * (b * c):
            return CheckResult(name, False, f"theta associativity: {a}; {b}; {c}")
        if a * b != b * a:
            return CheckResult(name, False, f"theta commutativity: {a}; {b}")
    if not (ThetaPoly.theta() ** 3).is_zero():
        return CheckResult(name, False, "T^3 != 0 in the theta ring")

    for d in range(max(8, d_min), min(d_max, 12) + 1):

        def random_ambient() -> AmbientClass:
            terms = {}
            for _ in range(4):
                key = (rng.randint(0, 2), rng.randint(0, d - 2))
                terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            return AmbientClass(d, terms)

        for _ in range(120):
            a, b, c = random_ambient(), random_ambient(), random_ambient()
            if (a + b) * c != a * c + b * c:
                return CheckResult(name, False, f"ambient distributivity at d={d}")
            if (a * b) * c != a * (b * c):
                return CheckResult(name, False, f"ambient associativity at d={d}")
            if a * b != b * a:
                return CheckResult(name, False, f"ambient commutativity at d={d}")
        if not (AmbientClass.hyperplane(d) ** (d - 1)).is_zero():
            return CheckResult(name, False, f"h^(d-1) != 0 at d={d}")
        if not (AmbientClass.theta(d) ** 3).is_zero():
            return CheckResult(name, False, f"T^3 != 0 in the ambient ring at d={d}")
    return CheckResult(name, True)


def check_kunneth_relations(d_min: int, d_max: int) -> CheckResult:
    """The product rules upstairs, and the Poincare character they imply."""
    name = "kunneth-relations"
    f = UpstreamClass.fiber()
    gamma = UpstreamClass.kunneth()
    theta = UpstreamClass.theta()
    relations = (
        ("f*f", f * f, UpstreamClass.zero()),
        ("f*gamma", f * gamma, UpstreamClass.zero()),
        ("gamma*gamma", gamma * gamma, f * theta * (-2)),
        ("gamma^3", gamma ** 3, UpstreamClass.zero()),
        ("(3f+gamma)^2", (f * 3 + gamma) ** 2, f * theta * (-2)),
    )
    for label, got, want in relations:
        if got != want:
            return CheckResult(name, False, f"{label}: got {got}, wanted {want}")
    expected = UpstreamClass(ThetaPoly.one(), ThetaPoly(3, -1, 0), ThetaPoly.one())
    if poincare_character() != expected:
        return CheckResult(
            name, False, f"poincare character {poincare_character()} != {expected}"
        )
    return CheckResult(name, True)


def check_bundle_characters(d_min: int, d_max: int) -> CheckResult:
    """The pushforward characters against their simplified forms."""
    name = "bundle-characters"
    for d in range(d_min, d_max + 1):
        sections, residual = bundle_characters(d)
        expected_sections = ThetaPoly(2, -1, 0)
        expected_residual = ThetaPoly(d - 4, -1, 0)
        if sections.chern_character != expected_sections or sections.rank != 2:
            return CheckResult(
                name, False, f"d={d}: sections character {sections.chern_character}"
            )
        if residual.chern_character != expected_residual or residual.rank != d - 4:
            return CheckResult(
                name, False, f"d={d}: residual character {residual.chern_character}"
            )
        if sections.label != "sections" or residual.label != "residual":
            return CheckResult(name, False, f"d={d}: bundle labels scrambled")
    return CheckResult(name, True)


def check_chern_coefficient_formula(d_min: int, d_max: int) -> CheckResult:
    """Series division against the closed binomial formula, every index."""
    name = "chern-coefficient-formula"
    for d in range(d_min, d_max + 1):
        division = chern_coefficients(d, cross_check=False)
        for i in range(1, d - 4):
            formula = chern_coefficient_formula(i, d)
            if division[i - 1] != formula:
                return CheckResult(
                    name,
                    False,
                    f"d={d}, i={i}: division {division[i - 1]} vs formula {formula}",
                )
    return CheckResult(name, True)


def check_series_exponential_form(d_min: int, d_max: int) -> CheckResult:
    name = "series-exponential-form"
    for d in range(d_min, d_max + 1):
        if virtual_chern_series(d) != virtual_chern_series_closed_form(d):
            return CheckResult(name, False, f"d={d}: quotient != exponential form")
    return CheckResult(name, True)


def check_series_binomial_expansion(d_min: int, d_max: int) -> CheckResult:
    name = "series-binomial-expansion"
    for d in range(d_min, d_max + 1):
        if virtual_chern_series(d) != virtual_chern_series_expansion(d):
            return CheckResult(name, False, f"d={d}: quotient != binomial expansion")
    return CheckResult(name, True)


def check_determinant_three_way(
    d_min: int, d_max: int, perturb: PerturbHook | None = None
) -> CheckResult:
    """Segre quotient, recurrence and closed form must produce the same class.

    The recurrence runs on the coefficients of the series division.
    ``perturb`` is a test-only fault-injection hook: it rewrites those
    coefficients, while the Segre route and the closed form stay untouched,
    so any tampering has to surface as a mismatch.
    """
    name = "determinant-three-way"
    for d in range(d_min, d_max + 1):
        coefficients = chern_coefficients(d, cross_check=perturb is None)
        if perturb is not None:
            coefficients = tuple(
                perturb(i, c) for i, c in enumerate(coefficients, start=1)
            )
        segre = determinant_segre(d).x1
        recurrence = determinant_recurrence(d, coefficients).x1
        closed = determinant_formula(d - 5, d)
        if not (segre == recurrence == closed):
            return CheckResult(
                name,
                False,
                f"d={d}: segre {segre}; recurrence {recurrence}; "
                f"closed form {closed}",
            )
    return CheckResult(name, True)


def check_determinant_closed_form(d_min: int, d_max: int) -> CheckResult:
    """Every banded determinant of size >= 3 against the closed form."""
    name = "determinant-closed-form"
    for d in range(d_min, d_max + 1):
        determinants = recurrence_determinants(d)
        for n in range(3, d - 4):
            if determinant_formula(n, d) != determinants[n]:
                return CheckResult(
                    name, False, f"d={d}, n={n}: closed form != recurrence"
                )
    return CheckResult(name, True)


def check_binomial_identities(d_min: int, d_max: int) -> CheckResult:
    name = "binomial-identities"
    if not verify_binomial_identities(12):
        return CheckResult(name, False, "upper negation or Vandermonde failed")
    return CheckResult(name, True)


def check_degree_berzolari(d_min: int, d_max: int) -> CheckResult:
    """Every determinant route against the classical count."""
    name = "degree-berzolari"
    for d in range(d_min, d_max + 1):
        reference = berzolari(d)
        for method in METHODS:
            value = secant3_degree(d, method=method)
            if value != reference:
                return CheckResult(
                    name, False, f"d={d}: {method} gave {value}, count is {reference}"
                )
    return CheckResult(name, True)


def verify_checks(
    d_min: int, d_max: int, perturb: PerturbHook | None = None
) -> VerifyReport:
    """Run the full battery in a stable order and collect the results, each
    with its own wall time."""
    _require_range(d_min, d_max)
    checks = (
        _timed(check_ring_axioms, d_min, d_max),
        _timed(check_kunneth_relations, d_min, d_max),
        _timed(check_bundle_characters, d_min, d_max),
        _timed(check_chern_coefficient_formula, d_min, d_max),
        _timed(check_series_exponential_form, d_min, d_max),
        _timed(check_series_binomial_expansion, d_min, d_max),
        _timed(check_determinant_three_way, d_min, d_max, perturb),
        _timed(check_determinant_closed_form, d_min, d_max),
        _timed(check_binomial_identities, d_min, d_max),
        _timed(check_degree_berzolari, d_min, d_max),
    )
    return VerifyReport(d_min=d_min, d_max=d_max, checks=checks)


def _timed(check: Callable[..., CheckResult], *args) -> CheckResult:
    start = time.perf_counter()
    result = check(*args)
    return replace(result, elapsed_s=time.perf_counter() - start)


def run_verify(config: CliConfig, perturb: PerturbHook | None = None) -> int:
    report = verify_checks(config.d_min, config.d_max, perturb)
    if config.format == "json":
        payload = {
            "d_min": report.d_min,
            "d_max": report.d_max,
            "passed": report.passed,
            "checks": [
                {
                    "name": check.name,
                    "passed": check.passed,
                    "counterexample": check.counterexample,
                    "elapsed_s": check.elapsed_s,
                }
                for check in report.checks
            ],
        }
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        for check in report.checks:
            if check.passed:
                print(f"PASS {check.name}")
            else:
                print(f"FAIL {check.name}: {check.counterexample}")
        passed = sum(1 for check in report.checks if check.passed)
        print(
            f"{passed}/{len(report.checks)} checks passed "
            f"for d in [{report.d_min}, {report.d_max}]"
        )
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    config = _config_from_namespace(namespace)
    try:
        if config.command == "degree":
            return run_degree(config)
        if config.command == "table":
            return run_table(config)
        return run_verify(config)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RingMismatchError) as err:
        print(f"error: internal inconsistency: {err}", file=sys.stderr)
        return EXIT_VERIFY
