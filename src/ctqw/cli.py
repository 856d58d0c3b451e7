"""Command-line front end.

Subcommands: ``graph`` (serialize a family instance plus its connectivity
report), ``efficiency`` (transport-efficiency report for one initial
state), ``sweep`` (emit the named reference datasets as CSV or JSON).

Output is deterministic: rows are sorted and every number is printed with
12 significant digits. JSON output is the text of ``json.dumps(payload,
indent=2, allow_nan=False)``; ``graph`` formats its edge list as one block
of that same text, spliced over a ``null`` placeholder.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from itertools import chain

from .connectivity import connectivity_report
from .graphs import (
    FAMILIES,
    Complete,
    CompleteBipartite,
    FamilySpec,
    JoinedComplete,
    PaleyPrime,
    Simplex,
    build,
    family_name,
    graph_to_json,
)
from .numerics import UnstableStepError
from .reduction import closed_forms
from .transport import (
    Explicit,
    Localized,
    Superposition,
    class_representative,
    class_uniform_state,
    efficiency_closed_form,
    efficiency_report,
    efficiency_subspace,
)


def _fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _jnum(x: float | None) -> float | None:
    return None if x is None else float(format(x, ".12g"))


def _unwritable(out: str, reason: str) -> ValueError:
    return ValueError(f"--out: cannot write {out!r}: {reason}")


def _check_out(out: str | None) -> None:
    """Reject an --out target that is a directory, or whose directory is
    missing, before any work is done; :func:`_emit` reports other failures."""
    if out is None:
        return
    if os.path.isdir(out):
        raise _unwritable(out, os.strerror(errno.EISDIR))
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        missing = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise _unwritable(out, os.strerror(missing))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(out, exc.strerror or str(exc)) from exc


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _edge_block(edges) -> str:
    """The text ``_dumps`` gives a nonempty edge list at the depth of
    ``graph.edges``, formatted by one ``%`` over all its entries: the
    stdlib's indenting encoder is pure Python and spends most of a large
    ``graph`` request on the edge rows."""
    row = "[\n        %d,\n        %d\n      ]"
    rows = ",\n      ".join([row] * len(edges)) % tuple(chain.from_iterable(edges))
    return "[\n      " + rows + "\n    ]"


# --- family argument plumbing ---------------------------------------------------


def _add_family_parsers(subparsers, configure) -> None:
    for fam, (spec_cls, *_) in FAMILIES.items():
        sub = subparsers.add_parser(fam)
        for f in fields(spec_cls):
            sub.add_argument(f"--{f.name}", type=int, required=True, help=f.metadata["help"])
        sub.set_defaults(family=fam)
        configure(sub)


# Largest graph order (vertex count) each command accepts. A larger one exits
# 2 before anything is built; the README gives the time and peak memory at
# each cap.
MAX_ORDER = {"graph": 150, "efficiency": 1000, "efficiency --oracle": 500}


def _build_from_args(args, command: str):
    """The family record the arguments name and its graph."""
    spec_cls, _, order = FAMILIES[args.family]
    spec = spec_cls(**{f.name: getattr(args, f.name) for f in fields(spec_cls)})
    n, cap = order(spec), MAX_ORDER[command]
    if n > cap:
        raise ValueError(f"{args.family} graph has {n} vertices, above the {command} cap of {cap}")
    return spec, build(spec)


# --- state parsing ----------------------------------------------------------------


def _is_index(token: str) -> bool:
    return token.lstrip("-").isdigit()


def _vertex_or_class(g, token: str) -> int:
    if _is_index(token):
        v = int(token)
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        return v
    return class_representative(g, token)


def _parse_state(g, state_str: str, theta: float):
    """Resolve a --state expression to an initial state."""
    kind, sep, rest = state_str.partition(":")
    if not sep:
        raise ValueError(f"malformed state {state_str!r}, expected kind:value")
    if kind == "class" or kind == "vertex":
        if _is_index(rest) != (kind == "vertex"):
            expected = "an integer vertex index" if kind == "vertex" else "a class label"
            raise ValueError(f"{kind}: state takes {expected}, got {rest!r}")
        return Localized(_vertex_or_class(g, rest))
    if kind == "super":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError("super state needs exactly two vertices or classes")
        v1, v2 = (_vertex_or_class(g, token) for token in parts)
        if v1 == v2:  # an index names one vertex; a class token takes the next
            labels = [token for token in parts if not _is_index(token)]
            peers = g.class_vertices(labels[0]) if labels else ()
            if len(peers) < 2:
                raise ValueError("super state needs two distinct vertices")
            v2 = peers[1]
        return Superposition(v1, v2, theta)
    if kind == "uniform":
        return Explicit(class_uniform_state(g, rest))
    raise ValueError(f"unknown state kind {kind!r}")


# --- subcommand handlers ------------------------------------------------------------


def _cmd_graph(args) -> int:
    spec, g = _build_from_args(args, "graph")
    report = connectivity_report(g)
    graph = graph_to_json(g)
    graph["edges"] = None
    payload = {
        "family": family_name(spec),
        "params": asdict(spec),
        "graph": graph,
        "connectivity": {
            "min_degree": report.min_degree,
            "vertex": report.vertex_conn,
            "edge": report.edge_conn,
            "algebraic": _jnum(report.algebraic_conn),
            "normalized_algebraic": _jnum(report.normalized_algebraic_conn),
        },
    }
    text = _dumps(payload).replace('"edges": null', '"edges": ' + _edge_block(g.edges), 1)
    _emit(text, args.out)
    return 0


def _cmd_efficiency(args) -> int:
    if not math.isfinite(args.theta):
        raise ValueError("--theta must be finite")
    if not (math.isfinite(args.kappa) and args.kappa >= 0):
        raise ValueError("--kappa must be finite and >= 0")
    if args.oracle and args.kappa == 0:
        raise ValueError("--kappa must be > 0 with --oracle")
    spec, g = _build_from_args(args, "efficiency --oracle" if args.oracle else "efficiency")
    psi0 = _parse_state(g, args.state, args.theta)
    try:
        report = efficiency_report(spec, g, psi0, kappa=args.kappa, oracle=args.oracle)
    except UnstableStepError as exc:
        raise ValueError(f"--kappa {args.kappa:g}: {exc}") from exc
    payload = {
        "family": family_name(spec),
        "params": asdict(spec),
        "state": args.state,
        "theta": _jnum(args.theta),
        "kappa": _jnum(args.kappa),
        "m": report.m,
        "eta": {route: _jnum(eta) for route, eta in report.eta.items()},
    }
    _emit(_dumps(payload), args.out)
    if report.disagreements:
        print(f"error: {'; '.join(report.disagreements)}", file=sys.stderr)
        return 3
    return 0


# --- sweep datasets ---------------------------------------------------------------

_FIG3_ALPHAS = (
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
)
_FIG7_BLOCK_RANGE = range(3, 11)
_FIG7_PAIRS = (("a", "b"), ("b", "cd"), ("b", "e"), ("b", "f"))
_THETAS = (0.0, math.pi / 2, math.pi)


def _dataset_fig3() -> tuple[list[str], list[list]]:
    header = ["alpha", "N", "eta1", "eta2", "eta_s"]
    rows = []
    for alpha in _FIG3_ALPHAS:
        for n in range(8, 49):
            if (alpha * n).denominator != 1:
                continue
            n1 = int(alpha * n)
            n2 = n - n1
            if n1 < 2 or n2 < 1:
                continue
            spec = CompleteBipartite(n1, n2)
            rows.append(
                [
                    float(alpha),
                    n,
                    efficiency_closed_form(spec, "b"),
                    efficiency_closed_form(spec, "a"),
                    efficiency_closed_form(spec, "a", "b"),
                ]
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    return header, rows


def _dataset_fig7() -> tuple[list[str], list[list]]:
    header = ["M", "pair", "theta", "eta_s"]
    rows = []
    for m in _FIG7_BLOCK_RANGE:
        for c1, c2 in _FIG7_PAIRS:
            for theta in _THETAS:
                eta = efficiency_closed_form(Simplex(m), c1, c2, theta)
                rows.append([m, f"{c1}+{c2}", theta, eta])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return header, rows


_FIG8_INSTANCES: list[tuple[FamilySpec, tuple[str, ...]]] = (
    [(Complete(n), ("a",)) for n in (6, 8, 10, 12)]
    + [(CompleteBipartite(2 * n // 3, n // 3), ("b", "a")) for n in (12, 18, 24, 30)]
    + [(PaleyPrime(p), ("a", "b")) for p in (13, 17, 29)]
    + [(JoinedComplete(n // 2), ("a", "b1", "b2", "c")) for n in (12, 18, 24, 30)]
    + [(Simplex(m), ("a", "b", "cd", "e", "f")) for m in (3, 4, 5, 6)]
)

_FIG8_NOTE = (
    "order-25 strongly regular instance omitted: only prime-order Paley "
    "moduli are constructed"
)


def _dataset_fig8() -> tuple[list[str], list[list]]:
    header = ["family", "N", "class", "eta", "vertex_conn", "edge_conn", "algebraic_conn"]
    rows = []
    for spec, labels in _FIG8_INSTANCES:  # each instance built and measured once
        g = build(spec)
        rep = connectivity_report(g)
        conn = [rep.vertex_conn, rep.edge_conn, rep.algebraic_conn]
        for label in labels:
            eta = efficiency_subspace(g, Localized(class_representative(g, label)))
            rows.append([family_name(spec), g.n, label, eta, *conn])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return header, rows


_TABLE1_INSTANCES: tuple[tuple[FamilySpec, str, str, str], ...] = (
    (Complete(6), "N-1", "N-1", "N"),
    (CompleteBipartite(8, 4), "min(N1,N2)", "min(N1,N2)", "min(N1,N2)"),
    (PaleyPrime(13), "(N-1)/2", "(N-1)/2", "(N-sqrt(N))/2"),
    (PaleyPrime(17), "(N-1)/2", "(N-1)/2", "(N-sqrt(N))/2"),
    (JoinedComplete(6), "N/2-1", "1", "(N+4-sqrt(N*(N+8)-16))/4"),
    (Simplex(3), "M", "M", "1"),
    (Simplex(5), "M", "M", "1"),
)


def _dataset_table1() -> tuple[list[str], list[list]]:
    header = [
        "family",
        "N",
        "min_degree",
        "vertex_conn",
        "edge_conn",
        "algebraic_conn",
        "formula_min_degree",
        "formula_conn",
        "formula_algebraic",
        "formula_algebraic_value",
    ]
    rows = []
    for spec, f_delta, f_conn, f_alg in _TABLE1_INSTANCES:
        g = build(spec)
        rep = connectivity_report(g)
        rows.append(
            [
                family_name(spec),
                g.n,
                rep.min_degree,
                rep.vertex_conn,
                rep.edge_conn,
                rep.algebraic_conn,
                f_delta,
                f_conn,
                f_alg,
                closed_forms(spec).algebraic_connectivity,
            ]
        )
    rows.sort(key=lambda r: (r[0], r[1]))
    return header, rows


# dataset name -> (builder, description, note or None)
_DATASETS = {
    "fig3": (
        _dataset_fig3,
        "bipartite efficiency against graph order",
        "alpha grid and N range are reproduction defaults",
    ),
    "fig7": (
        _dataset_fig7,
        "simplex two-vertex superposition efficiencies",
        "theta grid {0, pi/2, pi} is a reproduction default",
    ),
    "fig8": (_dataset_fig8, "efficiency against connectivity measures", _FIG8_NOTE),
    "table1": (_dataset_table1, "connectivity summary per family", None),
}


def _cmd_sweep(args) -> int:
    builder, description, note = _DATASETS[args.dataset]
    header, rows = builder()
    meta = {"dataset": args.dataset, "description": description}
    if note is not None:
        meta["note"] = note
    if args.dataset == "fig8":  # the one dataset that omits an instance
        print(f"note: {_FIG8_NOTE}", file=sys.stderr)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        _emit(buf.getvalue(), args.out)
    else:
        payload = {
            "meta": meta,
            "rows": [
                {k: (_jnum(x) if isinstance(x, float) else x) for k, x in zip(header, row)}
                for row in rows
            ],
        }
        _emit(_dumps(payload), args.out)
    return 0


# --- entry point ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: handlers read the parsed
    namespace and never modify the parser."""
    parser = argparse.ArgumentParser(
        prog="ctqw",
        description="Quantum-walk transport efficiency on structured graph families",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    graph_cmd = commands.add_parser("graph", help="serialize a graph instance")
    graph_families = graph_cmd.add_subparsers(dest="family", required=True)

    def configure_graph(sub):
        sub.add_argument("--out", default=None, help="output path (default stdout)")
        sub.set_defaults(handler=_cmd_graph)

    _add_family_parsers(graph_families, configure_graph)

    eff_cmd = commands.add_parser("efficiency", help="transport-efficiency report")
    eff_families = eff_cmd.add_subparsers(dest="family", required=True)

    def configure_eff(sub):
        sub.add_argument(
            "--state",
            required=True,
            help="class:<label> | vertex:<i> | super:<x>,<y> | uniform:<label>",
        )
        sub.add_argument("--theta", type=float, default=0.0, help="phase in radians")
        sub.add_argument("--kappa", type=float, default=1.0, help="trapping rate")
        sub.add_argument(
            "--oracle",
            action="store_true",
            help="also run the eigenvector and dynamical routes",
        )
        sub.add_argument("--out", default=None, help="output path (default stdout)")
        sub.set_defaults(handler=_cmd_efficiency)

    _add_family_parsers(eff_families, configure_eff)

    sweep_cmd = commands.add_parser("sweep", help="emit a reference dataset")
    sweep_cmd.add_argument("dataset", choices=sorted(_DATASETS))
    sweep_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_cmd.add_argument("--out", default=None, help="output path (default stdout)")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
