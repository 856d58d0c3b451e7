"""Self-test of the benchmark harness, on small slices of seed 0.

    python3 bench/selftest.py

Checks that the reference checker flags corrupted responses, that traced
and untraced runs draw the same request list from a seed, and that a trace
reports every per-layer metric of BENCHMARK.json with the bypass
predictions holding (a workload's bypassed functions are never called) and
with exact counts that repeat. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json

from run import ROOT, execute, import_cli, judge, prepare, traced_metrics
from reference import Reference, check
from workloads import WORKLOADS, generate

SEED = 0

# Functions each workload must never reach, and one it must reach.
BYPASSED = {
    "query": (
        "numerics.sym_eig.calls",
        "numerics.evolve_trapped.calls",
        "connectivity.vertex_connectivity.calls",
    ),
    "oracle": ("connectivity.vertex_connectivity.calls",),
    "connectivity": ("numerics.evolve_trapped.calls", "reduction.krylov_basis.calls"),
}
EXERCISED = {
    "query": "reduction.krylov_basis.calls",
    "oracle": "numerics.evolve_trapped.calls",
    "connectivity": "connectivity.vertex_connectivity.calls",
}
EXACT_COUNTS = (".calls", ".steps", ".n3_sum", ".dim_sum")


def smallest(workload: str, k: int) -> list[tuple]:
    """The k requests on the smallest graphs in the workload's first deck."""
    ref = Reference()
    deck = prepare(WORKLOADS[workload], SEED, 1)[0]
    return sorted(deck, key=lambda pair: ref.labels(pair[0].family, pair[0].params).n)[:k]


def test_checker_flags_corruption(cli) -> None:
    for workload, corrupt in (
        ("query", lambda p: p["eta"].__setitem__("subspace", p["eta"]["subspace"] + 1e-6)),
        ("oracle", lambda p: p["eta"].__setitem__("dynamic_absorbed", p["eta"]["subspace"] + 0.02)),
        ("connectivity", lambda p: p["connectivity"].__setitem__("vertex", p["connectivity"]["vertex"] + 1)),
    ):
        [(req, exp)] = smallest(workload, 1)
        _, status, out = execute(cli, req.argv)
        assert status == 0 and not check(req, exp, status, out).failed, (req.argv, out)
        payload = json.loads(out)
        corrupt(payload)
        bad = check(req, exp, 0, json.dumps(payload))
        assert bad.failed and bad.silent, (workload, bad)
        assert check(req, exp, 3, out).failed, workload
        assert check(req, exp, "RuntimeError", "").failed, workload
        assert check(req, exp, 0, out[: len(out) // 2]).silent, workload


def test_request_lists_match() -> None:
    for workload in WORKLOADS.values():
        untraced = generate(workload, SEED, workload.pool_decks, Reference())
        traced = generate(workload, SEED, workload.trace_decks, Reference())
        flat = lambda decks: [r.argv for deck in decks for r in deck]  # noqa: E731
        assert flat(traced) == flat(untraced[: workload.trace_decks]), workload.name
        other = generate(workload, SEED + 1, workload.trace_decks, Reference())
        assert flat(other) != flat(traced), workload.name


def test_trace_metrics(cli) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for workload, k in (("query", 6), ("oracle", 1), ("connectivity", 3)):
        pairs = smallest(workload, k)
        first, results, _ = traced_metrics(cli, pairs)
        second, _, _ = traced_metrics(cli, pairs)
        verdict = judge(pairs, results)
        assert verdict["correct"], verdict["failures"]
        first["oracle_err_p50"] = verdict["oracle_err_p50"] or 0.0
        missing = [n for n in names if n not in first]
        assert not missing, (workload, missing)
        for name in BYPASSED[workload]:
            assert first[name] == 0, (workload, name, first[name])
        assert first[EXERCISED[workload]] > 0, (workload, EXERCISED[workload])
        counts = [n for n in first if n.endswith(EXACT_COUNTS)]
        assert all(first[n] == second[n] for n in counts), workload


def main() -> int:
    cli = import_cli()
    test_checker_flags_corruption(cli)
    test_request_lists_match()
    test_trace_metrics(cli)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
