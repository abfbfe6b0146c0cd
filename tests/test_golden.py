"""Golden transcripts: the stdout, stderr and exit code of a fixed list of
commands, compared byte for byte with the files under ``tests/golden/``.

Each command runs in-process, the CLI through ``cli.main`` and the
walkthrough script through ``runpy``.  ``verify --format json`` reports wall
times, so every ``elapsed_s`` value is masked to 0 before the comparison.

Running this file as a script rewrites the transcripts from the ``trisecant``
on ``sys.path``:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

from trisecant.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
WALKTHROUGH = ROOT / "scripts" / "pipeline_walkthrough.py"

# (file stem, argv); argv starting with the walkthrough runs that script.
COMMANDS = [
    ("degree_d7", ["degree", "--d", "7"]),
    ("degree_d8_verbose", ["degree", "--d", "8", "--verbose"]),
    ("degree_d17_verbose", ["degree", "--d", "17", "--verbose"]),
    ("degree_d37_verbose_json", ["degree", "--d", "37", "--verbose", "--format", "json"]),
    ("degree_d160_json", ["degree", "--d", "160", "--format", "json"]),
    (
        "degree_d400_recurrence_json",
        ["degree", "--d", "400", "--method", "recurrence", "--format", "json"],
    ),
    ("table_d8_d60", ["table", "--d-min", "8", "--d-max", "60"]),
    ("table_d8_d60_json", ["table", "--d-min", "8", "--d-max", "60", "--format", "json"]),
    ("verify_d20_json", ["verify", "--d-max", "20", "--format", "json"]),
    ("verify_d40", ["verify", "--d-max", "40"]),
    ("walkthrough_d9", [str(WALKTHROUGH), "--d", "9"]),
]


def _run(argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one command, elapsed times masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if argv[0] == str(WALKTHROUGH):
            saved, sys.argv = sys.argv, argv
            try:
                runpy.run_path(argv[0], run_name="__main__")
                code = 0
            except SystemExit as stop:
                code = stop.code
            finally:
                sys.argv = saved
        else:
            code = main(argv)
    stdout = re.sub(r'"elapsed_s":[0-9.e+-]+', '"elapsed_s":0', out.getvalue())
    return stdout, err.getvalue(), code


def _expected(stem: str) -> tuple[str, str, int]:
    read = lambda suffix: (GOLDEN / f"{stem}.{suffix}").read_text()
    return read("stdout"), read("stderr"), int(read("code"))


@pytest.mark.parametrize("stem, argv", COMMANDS, ids=[stem for stem, _ in COMMANDS])
def test_transcript_is_unchanged(stem, argv):
    assert _run(argv) == _expected(stem)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in COMMANDS:
        stdout, stderr, code = _run(argv)
        for suffix, text in (("stdout", stdout), ("stderr", stderr), ("code", f"{code}\n")):
            (GOLDEN / f"{stem}.{suffix}").write_text(text)
