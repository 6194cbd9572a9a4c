"""Span tracing for the benchmark's traced mode, from outside the package.

``Tracer.install`` wraps the public functions of every dualqed layer (plus
``spectrum._cell_spectrum``, the unit of work of the ``compare`` thread pool)
and rebinds every ``dualqed`` module attribute that holds the original
function object.  Rebinding every alias matters: ``spectrum`` imports
``h_original`` / ``h_dual_thetam`` by name, and the handlers in ``cli`` import
layer functions at call time.  Nothing inside the package is edited.

A span is ``(id, name, start, end, parent, thread)``; spans live in memory
and are written out by ``Tracer.dump`` after the op ends.  A span opened on a
pool thread whose own stack is empty takes as parent the innermost span open
on the main thread, which for ``compare`` is ``compare_formulations``.

Self time is a span's duration minus the union of its children's intervals
(children on pool threads overlap one another), and ``<name>.s`` sums the
durations of the outermost spans of that name, so recursion and cached
re-entry are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

LAYERS = ("lattice", "rational", "greens", "helmholtz", "dualmap", "hilbert", "hamiltonian", "spectrum", "cli")
ROOT = "cli.main"
CELL = "spectrum._cell_spectrum"


def _spec_counts(args, kwargs, result) -> dict:
    return {"product_dim": args[0].total_dim, "sector_dim": result.dim}


def _operator_counts(args, kwargs, result) -> dict:
    return {"product_dim": args[0].total_dim, "nnz": int(result.nnz)}


def _solver_counts(args, kwargs, result) -> dict:
    n = result.dimension
    return {
        "dimension": n,
        "dense_calls": int(result.method == "dense"),
        "max_residual": max(result.residuals),
        # computed, not measured: the dense copy eigh works on
        "dense_bytes": n * n * args[0].dtype.itemsize if result.method == "dense" else 0,
    }


# Counts recorded at a span boundary, from the call's arguments and result.
COUNTERS = {
    "hilbert.gauss_sector_basis": _spec_counts,
    "spectrum.flux_sector_basis": _spec_counts,
    "hamiltonian.h_original": _operator_counts,
    "hamiltonian.h_dual_thetam": _operator_counts,
    "spectrum.lowest_eigenvalues": _solver_counts,
}
# How counts from several spans combine into one op or pass figure.
MAX_COUNTS = ("product_dim", "dimension", "max_residual", "dense_bytes")
SUM_COUNTS = ("sector_dim", "nnz", "dense_calls")


class Tracer:
    """Records spans of wrapped dualqed functions in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple[int, dict]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main_thread and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if counter is not None:
                self.counts.append((sid, counter(args, kwargs, result)))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and rebind all their aliases."""
        modules = [importlib.import_module(f"dualqed.{layer}") for layer in LAYERS]
        targets = {}
        for module in modules:
            layer = module.__name__.split(".")[-1]
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or f"{layer}.{attr}" == CELL
                if (
                    public
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    targets[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        namespaces = [sys.modules["dualqed"]] + [m for n, m in sys.modules.items() if n.startswith("dualqed.")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, attr, hit[1])

    def dump(self, path, op_id: str) -> None:
        counts = dict(self.counts)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                row = {"op": op_id, "id": sid, "name": name, "start": start, "end": end, "parent": parent, "thread": thread}
                if sid in counts:
                    row["counts"] = counts[sid]
                fh.write(json.dumps(row) + "\n")


# --- span arithmetic -----------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _ in spans
    }


def outer_time(spans, names) -> float:
    """Summed durations of spans named in ``names`` with no such ancestor."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent is not None and by_id[parent][1] not in names:
            parent = by_id[parent][4]
        if parent is None:
            total += end - start
    return total


def op_summary(spans, counts) -> dict:
    """Additive per-op figures the per-layer metrics are derived from.

    ``by_name`` maps a span name to ``[calls, s, self_s]``.
    """
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    by_name: dict[str, list[float]] = {}
    for sid, name, start, end, parent, _ in spans:
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += selfs[sid]
        while parent is not None and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent is None:
            entry[1] += end - start
    wall = by_name.get(ROOT, [0, 0.0, 0.0])[1]
    return {
        "wall": wall,
        "covered": wall - by_name.get(ROOT, [0, 0.0, 0.0])[2],
        "spans": len(spans),
        "by_name": by_name,
        "lattice_maps_s": outer_time(spans, [n for n in by_name if n.startswith("lattice.") and n.endswith("_matrix")]),
        "counts": combine_counts(row for _, row in counts),
    }


def combine_counts(rows) -> dict:
    merged = {key: 0 for key in MAX_COUNTS + SUM_COUNTS}
    for row in rows:
        for key, value in row.items():
            merged[key] = max(merged[key], value) if key in MAX_COUNTS else merged[key] + value
    return merged


def merge_summaries(summaries) -> dict:
    """Combine the op summaries of one pass."""
    summaries = list(summaries)
    out = {"wall": 0.0, "covered": 0.0, "spans": 0, "by_name": {}, "lattice_maps_s": 0.0}
    for s in summaries:
        for key in ("wall", "covered", "spans", "lattice_maps_s"):
            out[key] += s[key]
        for name, values in s["by_name"].items():
            entry = out["by_name"].setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
    out["counts"] = combine_counts(s["counts"] for s in summaries)
    return out


# --- per-layer metrics -----------------------------------------------------------


def _field(name: str, index: int):
    return lambda agg: agg["by_name"].get(name, (0, 0.0, 0.0))[index]


def _calls(name):
    return _field(name, 0)


def _s(name):
    return _field(name, 1)


def _self_s(name):
    return _field(name, 2)


def _count(key):
    return lambda agg: agg["counts"][key]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


# (metric, unit, value from one pass's merged summary).  ``trace.overhead_s``
# and ``trace.dominant_share`` need the workload and the untraced passes and
# are filled in by run.py.
PER_LAYER = [
    ("hilbert.product_dim", "count", _count("product_dim")),
    ("hilbert.assemble.calls", "count", _calls("hilbert.assemble")),
    ("hilbert.assemble.s", "s", _s("hilbert.assemble")),
    ("hilbert.embed.calls", "count", _calls("hilbert.embed")),
    ("hilbert.gauss_sector_basis.s", "s", _s("hilbert.gauss_sector_basis")),
    ("hamiltonian.h_original.self_s", "s", _self_s("hamiltonian.h_original")),
    ("hamiltonian.h_dual_thetam.self_s", "s", _self_s("hamiltonian.h_dual_thetam")),
    ("hamiltonian.nnz", "count", _count("nnz")),
    ("spectrum.flux_sector_basis.self_s", "s", _self_s("spectrum.flux_sector_basis")),
    ("spectrum.sector_dim", "count", _count("sector_dim")),
    ("spectrum.lowest_eigenvalues.s", "s", _s("spectrum.lowest_eigenvalues")),
    ("spectrum.lowest_eigenvalues.dimension", "count", _count("dimension")),
    ("spectrum.lowest_eigenvalues.dense_calls", "count", _count("dense_calls")),
    ("spectrum.lowest_eigenvalues.max_residual", "norm", _count("max_residual")),
    ("spectrum.lowest_eigenvalues.dense_bytes", "bytes", _count("dense_bytes")),
    (
        "spectrum.compare_formulations.concurrency",
        "ratio",
        lambda agg: _ratio(_s(CELL)(agg), _s("spectrum.compare_formulations")(agg)),
    ),
    ("dualmap.flux_class_contains.calls", "count", _calls("dualmap.flux_class_contains")),
    ("dualmap.flux_class_contains.s", "s", _s("dualmap.flux_class_contains")),
    ("dualmap.dof_report.self_s", "s", _self_s("dualmap.dof_report")),
    ("dualmap.d_kernel.self_s", "s", _self_s("dualmap.d_kernel")),
    ("dualmap.modified_greens.s", "s", _s("dualmap.modified_greens")),
    ("rational.rank.calls", "count", _calls("rational.rank")),
    ("rational.rank.s", "s", _s("rational.rank")),
    ("rational.nullspace.s", "s", _s("rational.nullspace")),
    ("rational.smith_normal_form.s", "s", _s("rational.smith_normal_form")),
    ("greens.greens_table.s", "s", _s("greens.greens_table")),
    ("greens.greens_sites.s", "s", _s("greens.greens_sites")),
    ("helmholtz.all_shift_tables.s", "s", _s("helmholtz.all_shift_tables")),
    ("helmholtz.helmholtz_decompose.calls", "count", _calls("helmholtz.helmholtz_decompose")),
    ("helmholtz.helmholtz_decompose.s", "s", _s("helmholtz.helmholtz_decompose")),
    ("lattice.maps.s", "s", lambda agg: agg["lattice_maps_s"]),
    ("cli.self_s", "s", _self_s(ROOT)),
    ("trace.spans", "count", lambda agg: agg["spans"]),
    ("trace.coverage", "ratio", lambda agg: _ratio(agg["covered"], agg["wall"])),
    ("trace.overhead_s", "s", None),
    ("trace.dominant_share", "ratio", None),
]


def layer_metrics(pass_aggregates) -> dict[str, dict]:
    """Median over traced passes of every per-layer metric computable here."""
    out = {}
    for name, unit, get in PER_LAYER:
        if get is not None:
            out[name] = {"value": statistics.median(get(agg) for agg in pass_aggregates), "unit": unit}
    return out
