"""Per-layer tracing, done from outside the engine.

Each entry of ``LAYERS`` names public functions or methods of one engine
module.  :func:`install` replaces every binding of them, in every loaded
``trisecant`` module, by a wrapper that records a span; nothing under
``src/`` is edited.  Spans are closed into running totals, with the parent
of each span open on a stack, so self time (duration minus the time of
direct child spans) costs no memory per call.

A key's ``calls`` and ``s`` count only spans not nested in a span of the same
key: ``a - b`` runs ``-b`` and ``a + (-b)`` inside ``__sub__`` and counts as
one additive operation.

``moves`` records which end-to-end metric, on which workload, a change to
that layer should move; performance claims cite layers and workloads by
these names.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    key: str
    module: str
    names: tuple[str, ...]  # "function" or "Class.method"
    stats: tuple[str, ...]  # emitted as "<key>.<stat>"
    moves: str


def _porteous(name: str, moves: str) -> Layer:
    return Layer(f"porteous.{name}", "trisecant.porteous", (name,), ("calls", "s"), moves)


def _check(name: str) -> Layer:
    return Layer(
        f"cli.check.{name}",
        "trisecant.cli",
        ("check_" + name.replace("-", "_"),),
        ("s",),
        "wall_ref on verify only; sweep and large-d never run it",
    )


_SERIES = "wall_ref on large-d and sweep"

LAYERS = (
    Layer(
        "ring.ambient_mul", "trisecant.ring", ("AmbientClass.__mul__",), ("calls", "s"),
        "wall_ref on large-d (dominant), then sweep",
    ),
    Layer(
        "ring.ambient_addsub", "trisecant.ring",
        tuple(f"AmbientClass.{name}" for name in ("__add__", "__sub__", "__rsub__", "__neg__")),
        ("calls", "s"), "wall_ref on large-d, then sweep",
    ),
    Layer("ring.series_mul", "trisecant.ring", ("ChernSeries.__mul__",), ("calls", "s"), _SERIES),
    Layer(
        "ring.series_inverse", "trisecant.ring", ("ChernSeries.inverse",), ("calls", "s"), _SERIES
    ),
    Layer(
        "ring.series_compose", "trisecant.ring", ("ChernSeries.compose",), ("calls", "s"),
        "wall_ref on large-d and sweep (hyperplane twist)",
    ),
    Layer(
        "ring.series_exp", "trisecant.ring", ("ChernSeries.exp",), ("calls", "s"),
        "wall_ref on verify (exponential form)",
    ),
    Layer(
        "riemann_roch.bundle_characters", "trisecant.riemann_roch", ("bundle_characters",),
        ("calls", "s"), "wall_ref on sweep and verify (2-3 ms per cold d); negligible on large-d",
    ),
    _porteous("source_chern_series", _SERIES),
    _porteous("target_chern_series", _SERIES),
    _porteous("twist_by_hyperplane", _SERIES),
    _porteous("virtual_chern_series", "wall_ref on large-d and sweep (series division)"),
    _porteous("virtual_chern_series_closed_form", "wall_ref on verify"),
    _porteous("virtual_chern_series_expansion", "wall_ref on verify"),
    _porteous("chern_coefficients", _SERIES),
    _porteous("chern_coefficient_formula", "wall_ref on large-d, sweep and verify"),
    _porteous("determinant_cofactor", "wall_ref on large-d and sweep (determinant route)"),
    _porteous("recurrence_determinants", "wall_ref on large-d and sweep (determinant route)"),
    _porteous("determinant_formula", "wall_ref on large-d and sweep (determinant route)"),
    Layer(
        "degree.secant3_degree", "trisecant.degree", ("secant3_degree",), ("self_s",),
        "wall_ref on sweep and large-d",
    ),
    Layer(
        "degree.degree_pairing", "trisecant.degree", ("degree_pairing",), ("s",),
        "wall_ref on sweep and large-d",
    ),
    Layer(
        "degree.berzolari", "trisecant.degree", ("berzolari",), ("s",),
        "wall_ref on large-d and verify",
    ),
    *(
        _check(name)
        for name in (
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
        )
    ),
)

# Metrics not tied to one span: name -> (unit, better, moves).
EXTRA_METRICS = {
    "ring.term_products": (
        "count", "lower",
        "pairs of nonzero terms multiplied by AmbientClass products; independent of the "
        "storage format; wall_ref on large-d, then sweep",
    ),
    "riemann_roch.bundle_characters.hit_ratio": (
        "ratio", "higher", "from cache_info(); wall_ref on sweep and verify",
    ),
    "trace_overhead": (
        "ratio", "lower", "traced wall_ref over untraced wall_ref of the same workload",
    ),
}

_STAT_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and direction."""
    metrics = {
        f"{layer.key}.{stat}": _STAT_UNITS[stat] for layer in LAYERS for stat in layer.stats
    }
    metrics.update({name: spec[:2] for name, spec in EXTRA_METRICS.items()})
    return metrics


class Tracer:
    """Running totals of spans, keyed by layer."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.term_products = 0
        self.missing: list[str] = []
        self._open: dict[str, int] = defaultdict(int)
        # One entry per open span, innermost last: time covered by its direct children.
        self._stack: list[list[float]] = []

    def wrap(self, key: str, fn, before=None):
        clock = time.perf_counter
        stack, open_, calls, total_s, self_s = (
            self._stack, self._open, self.calls, self.total_s, self.self_s,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            covered = [0.0]
            stack.append(covered)
            open_[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_[key] -= 1
                self_s[key] += elapsed - covered[0]
                if stack:
                    stack[-1][0] += elapsed
                if not open_[key]:
                    calls[key] += 1
                    total_s[key] += elapsed

        return traced

    def count_term_products(self, left, right) -> None:
        """Nonzero terms of ``left`` times those of ``right`` (a scalar is one term)."""
        n = len(tuple(left.nonzero_terms()))
        if hasattr(right, "nonzero_terms"):
            self.term_products += n * len(tuple(right.nonzero_terms()))
        elif right:
            self.term_products += n

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer in LAYERS:
            for stat in layer.stats:
                source = {"calls": self.calls, "s": self.total_s, "self_s": self.self_s}[stat]
                out[f"{layer.key}.{stat}"] = source.get(layer.key, 0)
        out["ring.term_products"] = self.term_products
        cached = sys.modules["trisecant.riemann_roch"].bundle_characters
        while not hasattr(cached, "cache_info") and hasattr(cached, "__wrapped__"):
            cached = cached.__wrapped__
        ratio = 0.0
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            ratio = info.hits / max(1, info.hits + info.misses)
        out["riemann_roch.bundle_characters.hit_ratio"] = ratio
        return out


def replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded ``trisecant``
    module, which also reaches names imported with ``from .x import y``."""
    for name, module in list(sys.modules.items()):
        if name != "trisecant" and not name.startswith("trisecant."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer of ``LAYERS``; names the engine no longer has are
    recorded in ``tracer.missing`` and report zero."""
    for layer in LAYERS:
        module = sys.modules.get(layer.module)
        for name in layer.names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                tracer.missing.append(f"{layer.module}.{name}")
                continue
            before = None
            if layer.key == "ring.ambient_mul":
                before = tracer.count_term_products
            traced = tracer.wrap(layer.key, original, before)
            if owner_name:
                # Aliases such as __rmul__ = __mul__ share the function object.
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, alias, traced)
            else:
                replace_everywhere(original, traced)
