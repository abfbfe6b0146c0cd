"""The benchmark's per-layer tracer (bench/layers.py) wraps engine functions
by name from outside ``src/`` and counts term products through
``nonzero_terms``.  This runs it in a fresh interpreter, so a refactor that
drops a name it relies on fails here, in the tier-1 suite."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Layers whose code the engine no longer has; they read 0 in the benchmark.
KNOWN_STALE = {
    "trisecant.ring.ChernSeries.__mul__",
    "trisecant.ring.ChernSeries.compose",
    "trisecant.ring.ChernSeries.exp",
    "trisecant.ring.ChernSeries.inverse",
    "trisecant.porteous.chern_coefficient_formula",
    "trisecant.porteous.determinant_cofactor",
    "trisecant.porteous.recurrence_determinants",
    "trisecant.porteous.source_chern_series",
    "trisecant.porteous.target_chern_series",
    "trisecant.porteous.twist_by_hyperplane",
    "trisecant.porteous.virtual_chern_series",
    "trisecant.porteous.virtual_chern_series_closed_form",
    "trisecant.porteous.virtual_chern_series_expansion",
}

PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import trisecant.cli  # loads every module the layers name
import layers
from trisecant import METHODS, secant3_degree

tracer = layers.Tracer()
layers.install(tracer)
for method in METHODS:
    secant3_degree(10, method)
print(json.dumps({"missing": tracer.missing, "metrics": tracer.metrics()}))
"""


def test_bench_tracer_finds_the_ring_it_wraps():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["missing"]) <= KNOWN_STALE
    assert result["metrics"]["ring.ambient_mul.calls"] > 0
    assert result["metrics"]["ring.term_products"] > 0
