"""Command-line contract: output formats, exit codes, and the verify
battery."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trisecant.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    verify_checks,
)

EXPECTED_CHECK_NAMES = [
    "ring-axioms",
    "kunneth-relations",
    "bundle-characters",
    "chern-coefficient-formula",
    "series-exponential-form",
    "series-binomial-expansion",
    "determinant-three-way",
    "determinant-closed-form",
    "binomial-identities",
    "degree-berzolari",
]


def test_degree_text(capsys):
    assert main(["degree", "--d", "8"]) == EXIT_OK
    assert capsys.readouterr().out == "12\n"


def test_degree_single_method(capsys):
    assert main(["degree", "--d", "9", "--method", "recurrence"]) == EXIT_OK
    assert capsys.readouterr().out == "25\n"


def test_degree_json_is_compact_and_roundtrips(capsys):
    assert main(["degree", "--d", "8", "--format", "json"]) == EXIT_OK
    line = capsys.readouterr().out
    assert line.endswith("\n")
    payload = json.loads(line)
    assert list(payload) == ["d", "degree", "method", "intermediates"]
    assert payload == {"d": 8, "degree": 12, "method": "all", "intermediates": {}}
    # serializing the parsed object reproduces the output byte for byte
    assert json.dumps(payload, separators=(",", ":")) + "\n" == line


def test_degree_verbose_text(capsys):
    assert main(["degree", "--d", "8", "--verbose"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "ch_sections = 2 - T" in lines
    assert "ch_residual = 4 - T" in lines
    assert "c_1 = 4h + 2*T" in lines
    assert "secant_class = 4h^3 + 9*T*h^2 + 6*T^2*h" in lines
    assert lines[-1] == "12"


def test_degree_verbose_json(capsys):
    assert main(["degree", "--d", "8", "--format", "json", "--verbose"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    inter = payload["intermediates"]
    assert inter["ch_sections"] == "2 - T"
    assert inter["c_2"] == "10h^2 + 9*T*h + 2*T^2"
    assert inter["c_3"] == "20h^3 + 25*T*h^2 + 10*T^2*h"
    assert inter["secant_class"] == "4h^3 + 9*T*h^2 + 6*T^2*h"


def test_degree_verbose_reports_the_requested_route_s_class(monkeypatch, capsys):
    """``--verbose`` prints the secant class of the route asked for.  A fault
    that moves only the recurrence route's x0 leaves every degree right, as
    the degree reads X2 alone, so the printed class is where it shows."""
    import trisecant.porteous

    original = trisecant.porteous._ROUTES["recurrence"]

    def x0_moved(d):
        x0, x1, x2 = original(d)
        return [x0 + 1, x1, x2]

    monkeypatch.setitem(trisecant.porteous._ROUTES, "recurrence", x0_moved)
    assert main(["degree", "--d", "8", "--method", "recurrence", "--verbose"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "secant_class = 5h^3 + 9*T*h^2 + 6*T^2*h" in lines
    assert lines[-1] == "12"
    assert main(["degree", "--d", "8", "--verbose"]) == EXIT_OK
    assert "secant_class = 4h^3 + 9*T*h^2 + 6*T^2*h" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "--d", "7"],
        ["table", "--d-min", "7", "--d-max", "9"],
        ["verify", "--d-min", "7"],
    ],
    ids=["degree", "table", "verify"],
)
def test_degree_below_range_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_unknown_method_is_usage_error(capsys):
    assert main(["degree", "--d", "8", "--method", "gaussian"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_table_csv_contract(capsys):
    assert main(["table", "--d-min", "8", "--d-max", "10"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d,degree_porteous,degree_closed_form,degree_berzolari,match"
    assert lines[1] == "8,12,12,12,true"
    assert lines[2] == "9,25,25,25,true"
    assert lines[3] == "10,44,44,44,true"
    assert len(lines) == 4


def test_table_json(capsys):
    assert main(["table", "--d-min", "8", "--d-max", "9", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {
            "d": 8,
            "degree_porteous": 12,
            "degree_closed_form": 12,
            "degree_berzolari": 12,
            "match": True,
        },
        {
            "d": 9,
            "degree_porteous": 25,
            "degree_closed_form": 25,
            "degree_berzolari": 25,
            "match": True,
        },
    ]


def test_table_degenerate_range_single_row(capsys):
    assert main(["table", "--d-min", "8", "--d-max", "8"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1] == "8,12,12,12,true"


def test_table_streams_finished_rows_before_an_internal_error(monkeypatch, capsys):
    import trisecant.cli
    from trisecant.degree import berzolari

    def failing_at_10(d):
        if d == 10:
            raise ArithmeticError("injected at d=10")
        return berzolari(d)

    monkeypatch.setattr(trisecant.cli, "berzolari", failing_at_10)
    assert main(["table", "--d-min", "8", "--d-max", "10"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "d,degree_porteous,degree_closed_form,degree_berzolari,match",
        "8,12,12,12,true",
        "9,25,25,25,true",
    ]
    assert captured.err == "error: internal inconsistency: injected at d=10\n"


def _berzolari_high_at_9(monkeypatch):
    """The classical count reads one high at d = 9 for the CLI alone."""
    import trisecant.cli
    from trisecant.degree import berzolari

    monkeypatch.setattr(trisecant.cli, "berzolari", lambda d: berzolari(d) + (d == 9))


def test_table_disagreement_exits_2_after_every_row(monkeypatch, capsys):
    _berzolari_high_at_9(monkeypatch)
    assert main(["table", "--d-min", "8", "--d-max", "10"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "d,degree_porteous,degree_closed_form,degree_berzolari,match",
        "8,12,12,12,true",
        "9,25,25,26,false",
        "10,44,44,44,true",
    ]
    assert captured.err == "error: degree methods disagree somewhere in the table\n"


def test_table_json_disagreement_marks_its_row(monkeypatch, capsys):
    _berzolari_high_at_9(monkeypatch)
    argv = ["table", "--d-min", "8", "--d-max", "10", "--format", "json"]
    assert main(argv) == EXIT_VERIFY
    rows = json.loads(capsys.readouterr().out)
    assert [(row["d"], row["degree_berzolari"], row["match"]) for row in rows] == [
        (8, 12, True),
        (9, 26, False),
        (10, 44, True),
    ]


def test_degree_disagreement_names_every_value(monkeypatch, capsys):
    _berzolari_high_at_9(monkeypatch)
    assert main(["degree", "--d", "9"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "segre: 25",
        "recurrence: 25",
        "closed-form: 25",
        "berzolari: 26",
        "error: degree methods disagree at d=9",
    ]


def test_table_empty_range_is_usage_error(capsys):
    assert main(["table", "--d-min", "10", "--d-max", "9"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_verify_text_passes(capsys):
    assert main(["verify", "--d-min", "8", "--d-max", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in EXPECTED_CHECK_NAMES:
        assert f"PASS {name}" in out
    assert "10/10 checks passed for d in [8, 10]" in out


def test_verify_json_structure(capsys):
    assert main(["verify", "--d-min", "8", "--d-max", "9", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_min"] == 8
    assert payload["d_max"] == 9
    assert payload["passed"] is True
    assert [check["name"] for check in payload["checks"]] == EXPECTED_CHECK_NAMES
    assert all(check["passed"] for check in payload["checks"])
    for check in payload["checks"]:
        assert list(check) == ["name", "passed", "counterexample", "elapsed_s"]
        assert isinstance(check["elapsed_s"], float)
        assert check["elapsed_s"] >= 0


def test_verify_default_range_is_8_to_40():
    from trisecant.cli import build_parser

    namespace = build_parser().parse_args(["verify"])
    assert namespace.d_min == 8
    assert namespace.d_max == 40


def test_a_fault_at_one_d_fails_only_its_check(monkeypatch, capsys):
    """verify walks d once for all per-d checks: a fault at d=10 fails the
    check that meets it, at d=10, and every other check still runs to d=12."""
    import trisecant.porteous

    seen = []
    original = trisecant.porteous._expansion_columns

    def faulty_at_10(d):
        seen.append(d)
        x0, x1, x2 = original(d)
        return ([2, *x0[1:]] if d == 10 else x0), x1, x2

    monkeypatch.setattr(trisecant.porteous, "_expansion_columns", faulty_at_10)
    assert main(["verify", "--d-min", "8", "--d-max", "12"]) == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == (
        "FAIL series-binomial-expansion: d=10: quotient != binomial expansion at t^0: 1 vs 2"
    )
    assert lines[:5] + lines[6:10] == [
        f"PASS {name}" for name in EXPECTED_CHECK_NAMES if name != "series-binomial-expansion"
    ]
    assert lines[10] == "9/10 checks passed for d in [8, 12]"
    assert seen == [8, 9, 10]  # the failed check stops at its first counterexample


def test_ring_axioms_cover_a_range_above_d_12(monkeypatch, capsys):
    """The ambient triples run on the first d of the range, wherever it starts."""
    import trisecant.cli
    from trisecant.ring import AmbientClass

    class FaultyAt20(AmbientClass):
        @classmethod
        def hyperplane(cls, d):
            return AmbientClass.one(d) if d == 20 else AmbientClass.hyperplane(d)

    monkeypatch.setattr(trisecant.cli, "AmbientClass", FaultyAt20)
    assert main(["verify", "--d-min", "20", "--d-max", "20"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL ring-axioms: h^(d-1) != 0 at d=20" in out
    assert "9/10 checks passed for d in [20, 20]" in out


def test_ring_axioms_keep_their_sample_size(monkeypatch):
    """350 theta triples, then 120 ambient triples on each of the first five d,
    counted as the values built in each ring: three per triple, plus the
    generators of the nilpotency checks (T in the theta ring; h and T at each d)."""
    from collections import Counter

    from trisecant.cli import check_ring_axioms
    from trisecant.ring import TruncatedClass

    built = Counter()
    original = TruncatedClass.__init__

    def counting(self, top, terms=None):
        built[top] += 1
        original(self, top, terms)

    monkeypatch.setattr(TruncatedClass, "__init__", counting)
    assert check_ring_axioms(8, 40) is None
    assert built == {(2, 0): 3 * 350 + 1, **{(2, d - 2): 3 * 120 + 2 for d in range(8, 13)}}


@pytest.mark.parametrize("d_max, ambient_ds", [(40, 5), (9, 2)])
def test_ring_axioms_draw_every_value_from_its_pools(monkeypatch, d_max, ambient_ds):
    """The check's seeded stream gives 3 * 3 * 350 theta coefficients, then
    at each ambient d 4 * 3 * 120 keys and as many coefficients, one
    ``random()`` each: a value drawn from fewer keys or coefficients than
    that would change the count, which the values built do not show."""
    import random

    from trisecant.cli import check_ring_axioms

    draws = []

    class Counting(random.Random):
        def random(self):
            draws.append(None)
            return super().random()

    monkeypatch.setattr(random, "Random", Counting)
    assert check_ring_axioms(8, d_max) is None
    assert len(draws) == 3 * 3 * 350 + ambient_ds * 8 * 3 * 120


def test_verify_runs_one_recurrence_per_d(monkeypatch):
    """The battery steps one recurrence, D(t) = 1/c(-t), in O(d), and reads
    it twice per d: the three-way and Berzolari checks read the stage's class
    of every route, the recurrence route's stepped once, and the closed-form
    check steps every size itself.  Each route's class is built once per d
    for the stage; the Berzolari check's ``secant3_degree(d)`` builds the
    default Segre route's class once more per d, and nothing else does."""
    from collections import Counter

    import trisecant.cli
    import trisecant.porteous

    stepped, classes = [], Counter()
    original = trisecant.porteous._stepped_determinants
    route_class = trisecant.porteous.porteous_class

    def counted(d):
        stepped.append(d)
        return original(d)

    def counted_class(d, method="segre"):
        classes[d, method] += 1
        return route_class(d, method)

    monkeypatch.setattr(trisecant.porteous, "_stepped_determinants", counted)
    for module in (trisecant.porteous, trisecant.cli):
        monkeypatch.setattr(module, "porteous_class", counted_class)
    assert verify_checks(8, 14).passed
    assert stepped == [d for d in range(8, 15) for _ in range(2)]
    stage = Counter((d, m) for d in range(8, 15) for m in trisecant.porteous.METHODS)
    assert classes == stage + Counter((d, "segre") for d in range(8, 15))


def test_verify_builds_no_series_on_a_passing_run(monkeypatch):
    """The battery compares the graded kernel's integer columns: a passing
    run turns no columns into a series of classes (``_graded._classes``, which
    ``chern_coefficients`` returns through), and builds classes only where a
    check reads one."""
    from trisecant import _graded, porteous

    built = []
    original = _graded._classes

    def counting(d, columns):
        built.append(d)
        return original(d, columns)

    for module in (_graded, porteous):
        monkeypatch.setattr(module, "_classes", counting)
    assert verify_checks(8, 14).passed
    assert built == []


def _flip_sections_c1(monkeypatch):
    """Every caller of bundle_characters sees the sections character 2 + T."""
    import trisecant.cli
    import trisecant.porteous
    import trisecant.riemann_roch
    from trisecant.ring import ThetaPoly

    original = trisecant.riemann_roch.bundle_characters

    def flipped(d):
        sections, residual = original(d)
        return ThetaPoly(sections.c0, -sections.c1, sections.c2), residual

    for module in (trisecant.riemann_roch, trisecant.porteous, trisecant.cli):
        monkeypatch.setattr(module, "bundle_characters", flipped)


def test_a_check_that_raises_is_its_counterexample(monkeypatch, capsys):
    """The flipped c1 makes class_degree raise inside degree-berzolari; that
    error is the check's counterexample at d=8, and the battery goes on."""
    _flip_sections_c1(monkeypatch)
    assert main(["verify", "--d-min", "8", "--d-max", "12"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "FAIL bundle-characters: d=8: sections character 2 + T" in lines
    assert lines[-2] == (
        "FAIL degree-berzolari: d=8: secant degree for d=8 (segre) "
        "should be a positive integer, got 0"
    )
    assert lines[-1] == "4/10 checks passed for d in [8, 12]"


def test_a_check_that_raises_keeps_the_json_report_whole(monkeypatch, capsys):
    _flip_sections_c1(monkeypatch)
    argv = ["verify", "--d-min", "8", "--d-max", "12", "--format", "json"]
    assert main(argv) == EXIT_VERIFY
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    checks = {check["name"]: check for check in payload["checks"]}
    assert list(checks) == EXPECTED_CHECK_NAMES
    assert sum(check["passed"] for check in checks.values()) == 4
    assert checks["degree-berzolari"]["counterexample"].startswith("d=8: secant degree")


def test_verify_checks_report_shape():
    report = verify_checks(8, 8)
    assert report.passed
    assert [check.name for check in report.checks] == EXPECTED_CHECK_NAMES


def test_verify_checks_refuses_a_bound_that_is_not_a_curve_degree():
    """Either bound goes through the curve-degree rule, and a range that
    ends below its start keeps its own message."""
    for bounds in ((8.5, 10), (8, 9.5), (8, "9")):
        with pytest.raises(ValueError, match="the curve degree d must be an integer >= 8"):
            verify_checks(*bounds)
    with pytest.raises(ValueError, match="empty range: --d-max is below --d-min"):
        verify_checks(8, 7)


CHECKOUT = Path(__file__).resolve().parents[1]
# Child interpreters import this checkout's package, whatever PYTHONPATH holds.
CHILD_PATH = [str(CHECKOUT / "src"), os.environ.get("PYTHONPATH")]
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, CHILD_PATH))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trisecant", "degree", "--d", "8"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "12\n"


def test_cli_imports_neither_dataclasses_nor_csv():
    """A cold process pays for no module its commands do not use.  ``-S``
    keeps the imports of site's ``.pth`` files out of the picture."""
    code = (
        f"import sys; sys.path.insert(0, {str(CHECKOUT / 'src')!r}); import trisecant.cli; "
        "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


WALKTHROUGH = CHECKOUT / "scripts" / "pipeline_walkthrough.py"


def test_pipeline_walkthrough_script():
    ok = subprocess.run(
        [sys.executable, str(WALKTHROUGH), "--d", "9"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert ok.returncode == 0, ok.stderr
    lines = ok.stdout.splitlines()
    assert "  ch(sections)  rank 2:  2 - T" in lines
    assert "  ch(residual)  rank 5:  5 - T" in lines
    assert lines[-1] == "classical count     = 25"
    low = subprocess.run(
        [sys.executable, str(WALKTHROUGH), "--d", "7"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert low.returncode != 0
    assert "Traceback" not in low.stderr
    assert "--d must be at least 8" in low.stderr


def test_closed_pipe_exits_1_without_traceback():
    """`table ... | head -1`: the reader leaves after the first line."""
    with subprocess.Popen(
        [sys.executable, "-m", "trisecant", "table", "--d-min", "8", "--d-max", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    ) as proc:
        assert proc.stdout.readline().startswith("d,degree_porteous")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in proc.stderr.read()


def test_console_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


def test_internal_inconsistency_exits_2_without_traceback(monkeypatch, capsys):
    import trisecant.porteous

    def zero_past_c0(d, order):
        return [1] + [0] * order, [0] * (order + 1), [0] * (order + 1)

    monkeypatch.setattr(trisecant.porteous, "_formula_columns", zero_past_c0)
    assert main(["degree", "--d", "9", "--verbose"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_engine_value_error_exits_2_not_as_a_usage_error(monkeypatch, capsys):
    """A ValueError raised inside the engine, after the arguments parsed, is
    an internal inconsistency: the parser alone decides what is a usage error."""
    import trisecant.porteous

    original = trisecant.porteous._chern_triples

    def starting_at_2(bundle, dual=False):
        return [(2, 0, 0), *original(bundle, dual)[1:]]

    monkeypatch.setattr(trisecant.porteous, "_chern_triples", starting_at_2)
    assert main(["degree", "--d", "9"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal inconsistency: a total Chern series must start at 1\n"


@pytest.mark.parametrize(
    "argv",
    (["degree", "--d", "9"], ["table", "--d-min", "9", "--d-max", "10"]),
    ids=("degree", "table"),
)
def test_an_engine_index_error_exits_2_with_one_error_line(argv, monkeypatch, capsys):
    """An engine read past the truncation raises IndexError, a LookupError: an
    internal inconsistency like any other, not a traceback and exit 1."""
    import trisecant.degree

    monkeypatch.setattr(
        trisecant.degree, "degree_pairing", lambda value: value.coefficient(2, value.d - 1)
    )
    assert main(argv) == EXIT_VERIFY
    assert capsys.readouterr().err == (
        "error: internal inconsistency: exponents (2, 8) out of range for truncation (2, 7)\n"
    )
