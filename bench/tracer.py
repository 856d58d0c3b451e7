"""Spans around the public functions of the ctqw modules, from outside.

The package binds names at import (``from .numerics import sym_eig``), so a
wrapper is installed under every name, in every ``ctqw`` module, that refers
to the original function; otherwise calls through the other bindings would
go unrecorded. Nothing under ``src/ctqw`` changes.

Each span records name, start, end, parent span and request id. Spans are
kept in memory; :meth:`Tracer.layer_stats` turns them into per-function
calls, total and self time, plus the exact work counts below, which repeat
exactly for the same requests:

* ``numerics.evolve_trapped.steps``: sum of round(t_final / dt) over calls;
  ``full_horizon_ratio``: share of calls that reached t_max.
* ``numerics.sym_eig.n3_sum``: sum of n**3 over input matrices.
* ``reduction.krylov_basis.dim_sum``: sum of the returned basis sizes m.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time

TARGETS = {
    "cli": ("main", "build_parser"),
    "graphs": ("build", "laplacian"),
    "reduction": ("krylov_basis",),
    "numerics": ("sym_eig", "orthonormalize_against", "evolve_trapped"),
    "transport": (
        "efficiency_report",
        "efficiency_closed_form",
        "efficiency_lambda",
        "efficiency_dynamic",
    ),
    "connectivity": (
        "vertex_connectivity",
        "edge_connectivity",
        "algebraic_connectivity",
        "normalized_algebraic_connectivity",
        "connectivity_report",
    ),
}


def _count_sym_eig(counts: dict, call: inspect.BoundArguments, result) -> None:
    counts["n3_sum"] = counts.get("n3_sum", 0) + len(call.arguments["a"]) ** 3


def _count_krylov(counts: dict, call: inspect.BoundArguments, result) -> None:
    counts["dim_sum"] = counts.get("dim_sum", 0) + result.m


def _count_evolve(counts: dict, call: inspect.BoundArguments, result) -> None:
    dt, t_max = call.arguments["dt"], call.arguments["t_max"]
    counts["steps"] = counts.get("steps", 0) + round(result.t_final / dt)
    full = result.t_final >= t_max - dt / 2
    counts["full_horizon"] = counts.get("full_horizon", 0) + int(full)


_COUNTERS = {
    "numerics.sym_eig": _count_sym_eig,
    "reduction.krylov_basis": _count_krylov,
    "numerics.evolve_trapped": _count_evolve,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, dict] = {}
        self.request: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.request]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                counter(self.counts.setdefault(name, {}), call, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, request: int):
        """Route every binding of the target functions through spans while
        the block runs; restore the originals afterwards."""
        self.request = request
        modules = [m for k, m in list(sys.modules.items()) if k == "ctqw" or k.startswith("ctqw.")]
        patched = []
        try:
            for short, names in TARGETS.items():
                module = importlib.import_module(f"ctqw.{short}")
                for fname in names:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{short}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)
            self.request = None

    def layer_stats(self) -> dict[str, float]:
        """``<module>.<function>.<stat>`` for every target function, zero
        for functions never called."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, float] = {}
        for short, names in TARGETS.items():
            for fname in names:
                key = f"{short}.{fname}"
                stats[f"{key}.calls"] = 0
                stats[f"{key}.total_ms"] = 0.0
                stats[f"{key}.self_ms"] = 0.0
        for (name, start, end, _, _), child in zip(self.spans, child_time):
            stats[f"{name}.calls"] += 1
            stats[f"{name}.total_ms"] += (end - start) * 1e3
            stats[f"{name}.self_ms"] += (end - start - child) * 1e3
        evolve = self.counts.get("numerics.evolve_trapped", {})
        calls = stats["numerics.evolve_trapped.calls"]
        stats["numerics.evolve_trapped.steps"] = evolve.get("steps", 0)
        stats["numerics.evolve_trapped.full_horizon_ratio"] = (
            evolve.get("full_horizon", 0) / calls if calls else 0.0
        )
        stats["numerics.sym_eig.n3_sum"] = self.counts.get("numerics.sym_eig", {}).get("n3_sum", 0)
        stats["reduction.krylov_basis.dim_sum"] = self.counts.get(
            "reduction.krylov_basis", {}
        ).get("dim_sum", 0)
        return stats

    def spans_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]
