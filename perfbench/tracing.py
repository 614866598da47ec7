"""Per-layer spans recorded from outside the program.

For the length of one traced CLI call, the names through which
``perilps.driver`` and ``perilps.cli`` reach each layer's public
functions are replaced by timing wrappers; they are restored when the
call returns.  The perilps sources are not changed.  Spans are kept in
memory and handed to the caller when the run ends.
"""

from __future__ import annotations

import functools
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _pairs(args, nbrs):
    return {"pairs": nbrs.n_pairs}


def _weights(args, family):
    done = family.computed
    return {
        "nodes": int(done.sum()),
        "rank_min": int(family.rank[done].min()),
        "rank_max": int(family.rank[done].max()),
        "residual_max": float(family.residual[done].max()),
    }


def _broken(args, bonds):
    return {"broken_bonds": int(bonds.broken.sum() - args[0].broken.sum())}


def _fallbacks(args, correction):
    return {"pinv_fallbacks": int((correction.computed & ~correction.invertible).sum())}


def _system(args, system):
    return {"unknowns": system.n_unknowns, "nnz": system.matrix.nnz}


def _solve(args, report):
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"residual": report.residual, "peak_rss_mb": peak_mb}


#: module -> attribute -> (span name, counter over (args, return value)).
TARGETS = {
    "driver": {
        "generate_perturbed_lattice": ("pointcloud.lattice", None),
        "build_neighborhoods": ("pointcloud.neighbors", _pairs),
        "compute_family": ("quadrature.weights", _weights),
        "break_bonds_crossing_circle": ("model.bonds", _broken),
        "hole_removal_mask": ("model.bonds", None),
        "compute_moment_tensors": ("model.moments", _fallbacks),
        "assemble_system": ("model.assembly", _system),
        "solve": ("solver.solve", _solve),
        "damage_field": ("model.damage", None),
    },
    "cli": {
        "generate_perturbed_lattice": ("pointcloud.lattice", None),
        "build_neighborhoods": ("pointcloud.neighbors", _pairs),
        "compute_family": ("quadrature.weights", _weights),
    },
}

SPAN_NAMES = sorted({name for attrs in TARGETS.values() for name, _ in attrs.values()})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a root span per traced CLI call and a child span per layer call."""

    def __init__(self, modules: dict):
        missing = [
            f"perilps.{mod}.{attr}"
            for mod, attrs in TARGETS.items()
            for attr in attrs
            if not callable(getattr(modules[mod], attr, None))
        ]
        if missing:
            raise LookupError("trace targets no longer exist: " + ", ".join(missing))
        self._modules = modules
        self.spans: list[Span] = []

    @contextmanager
    def traced(self, run: str, root: str):
        saved = []
        for mod_name, attrs in TARGETS.items():
            mod = self._modules[mod_name]
            for attr, (name, count) in attrs.items():
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, count, root, run))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            self.spans.append(Span(root, start, end, None, run))

    def _wrap(self, fn, name, count, parent, run):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            counts = count(args, result) if count else {}
            self.spans.append(Span(name, start, end, parent, run, counts))
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call from its spans.

    Times and work counts are summed over the call's spans, sizes of
    the assembled system are those of the largest one, and ranks and
    residuals are extremes.  A layer that never ran reports zeros.
    """
    (root,) = [s for s in spans if s.parent is None]
    children = [s for s in spans if s.parent is not None]

    def seconds(name):
        return sum(s.seconds for s in children if s.name == name)

    def counts(name, key):
        return [s.counts[key] for s in children if s.name == name and key in s.counts]

    covered = _covered([(s.start, s.end) for s in children])
    nodes = sum(counts("quadrature.weights", "nodes"))
    weights_s = seconds("quadrature.weights")
    return {
        "driver.cli_s": root.seconds,
        "driver.self_s": root.seconds - covered,
        "trace.coverage": covered / root.seconds,
        "pointcloud.calls": sum(s.name == "pointcloud.lattice" for s in children),
        "pointcloud.lattice_s": seconds("pointcloud.lattice"),
        "pointcloud.neighbors_s": seconds("pointcloud.neighbors"),
        "pointcloud.pairs": sum(counts("pointcloud.neighbors", "pairs")),
        "quadrature.calls": sum(s.name == "quadrature.weights" for s in children),
        "quadrature.weights_s": weights_s,
        "quadrature.nodes": nodes,
        "quadrature.nodes_per_s": nodes / weights_s if weights_s > 0.0 else 0.0,
        "quadrature.rank_min": min(counts("quadrature.weights", "rank_min"), default=0),
        "quadrature.rank_max": max(counts("quadrature.weights", "rank_max"), default=0),
        "quadrature.residual_max": max(counts("quadrature.weights", "residual_max"), default=0.0),
        "model.bonds_s": seconds("model.bonds"),
        "model.broken_bonds": sum(counts("model.bonds", "broken_bonds")),
        "model.moments_s": seconds("model.moments"),
        "model.pinv_fallbacks": sum(counts("model.moments", "pinv_fallbacks")),
        "model.damage_s": seconds("model.damage"),
        "model.assembly_s": seconds("model.assembly"),
        "model.unknowns": max(counts("model.assembly", "unknowns"), default=0),
        "model.nnz": max(counts("model.assembly", "nnz"), default=0),
        "solver.solve_s": seconds("solver.solve"),
        "solver.residual_max": max(counts("solver.solve", "residual"), default=0.0),
        "solver.peak_rss_mb": max(counts("solver.solve", "peak_rss_mb"), default=0.0),
    }
