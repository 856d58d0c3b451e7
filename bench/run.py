"""ctqw benchmark: seeded CLI request streams, checked against references.

    python3 bench/run.py --workload query --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30

One client in one process calls ``ctqw.cli.main(argv)`` in a closed loop
with stdout captured, so the next request starts when the previous one
returns. Requests come in decks of fixed composition (see workloads.py);
an untraced run executes whole decks until at least --seconds have passed,
cycling through the decks generated before timing. Every response is then
checked against a reference computed before timing (reference.py).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 executes a fixed number of decks twice, once plain and once
under spans (tracer.py), alternating which goes first, and reports the
per-layer metrics plus the tracing overhead measured between the two.

The last stdout line is the result object; the line before it is a report
with sample counts, error rate, environment and request mix. Both are also
written, with the spans of a traced run, under .bench_out/.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed before numpy loads; nproc here is 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from reference import Reference, check  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 4  # before the measured requests, and again after them
WARMUP_ARGV = (
    ["efficiency", "complete", "--n", "4", "--state", "class:a"],
    ["graph", "complete", "--n", "4"],
)
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ctqw, ctqw.cli; "
    "print(time.perf_counter() - t)"
)


def measure_setup(repeats: int, warm: bool = False) -> list[float]:
    """Seconds a fresh interpreter takes to import ctqw and ctqw.cli, with
    bytecode caching on whatever the caller's environment says. With
    `warm`, one discarded run goes first so the caches exist, as they do
    for any user after the first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(repeats + int(warm)):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout.strip()))
    return times[int(warm):]


def execute(cli, argv: list[str]) -> tuple[float, int | str, str]:
    """One request: (seconds, exit status or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 -- a crash is a failed request
        status = type(exc).__name__
    return time.perf_counter() - start, status, out.getvalue()


def import_cli():
    sys.path.insert(0, str(SRC))
    import ctqw.cli

    return ctqw.cli


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def judge(pairs, results) -> dict:
    """Check every response against its reference."""
    outcomes = [check(req, exp, status, out) for (req, exp), (_, status, out) in zip(pairs, results)]
    errs = [o.oracle_err for o in outcomes if o.oracle_err is not None]
    return {
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "correct": not any(o.silent for o in outcomes),
        "failures": [(req.argv, o.reason) for (req, _), o in zip(pairs, outcomes) if o.failed],
        "oracle_err_p50": statistics.median(errs) if errs else None,
    }


def prepare(workload, seed: int, decks: int) -> list[list[tuple]]:
    """The seed's first `decks` decks, each request paired with its reference."""
    ref = Reference()
    return [
        [
            (r, ref.efficiency(r.family, r.params, r.state, r.theta)
             if r.command == "efficiency" else ref.connectivity(r.family, r.params))
            for r in deck
        ]
        for deck in generate(workload, seed, decks, ref)
    ]


def untraced_metrics(cli, decks, seconds: float):
    """Whole decks, cycling through the pool, until `seconds` have passed."""
    pairs, results = [], []
    start = time.perf_counter()
    for deck in itertools.cycle(decks):
        for req, exp in deck:
            pairs.append((req, exp))
            results.append(execute(cli, req.argv))
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    latencies = [t * 1e3 for t, _, _ in results]
    values = {
        "throughput_rps": len(results) / elapsed,
        "latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"throughput_rps": len(results), "latency_p50_ms": len(results), "peak_rss_mb": 1}
    if len(latencies) >= 100:  # >= 10 samples beyond the 90th percentile
        values["latency_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        samples["latency_p90_ms"] = len(latencies)
    return values, samples, pairs, results


def traced_metrics(cli, pairs):
    """Each request plain and under spans, alternating which goes first;
    the per-layer values come from the traced executions."""
    tracer = Tracer()
    plain, traced = [], []
    for i, (req, _) in enumerate(pairs):
        for under_trace in (i % 2 == 1, i % 2 == 0):
            if under_trace:
                with tracer.installed(request=i):
                    traced.append(execute(cli, req.argv))
            else:
                plain.append(execute(cli, req.argv))
    plain_s = sum(t for t, _, _ in plain)
    traced_s = sum(t for t, _, _ in traced)
    values = tracer.layer_stats()
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    values["trace.throughput_rps"] = len(traced) / traced_s
    return values, traced, tracer


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "ctqw" / "cli.py").is_file():
        print(f"error: no ctqw sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, unit in (("latency_p90_ms", "ms"), ("error_rate", "1"), ("oracle_err_p50", "prob")):
        units.setdefault(name, unit)

    setup = measure_setup(SETUP_REPEATS, warm=True)
    cli = import_cli()
    workload = WORKLOADS[workload_name]
    decks = prepare(workload, seed, workload.trace_decks if trace else workload.pool_decks)
    for argv in WARMUP_ARGV:
        execute(cli, argv)

    if trace:
        pairs = [pair for deck in decks for pair in deck]
        values, results, tracer = traced_metrics(cli, pairs)
        samples = {}
    else:
        values, samples, pairs, results = untraced_metrics(cli, decks, seconds)
    setup += measure_setup(SETUP_REPEATS)
    verdict = judge(pairs, results)
    values.update(setup_s=statistics.median(setup), error_rate=verdict["failed"] / verdict["attempted"])
    samples["setup_s"] = len(setup)
    if verdict["oracle_err_p50"] is not None:
        values["oracle_err_p50"] = verdict["oracle_err_p50"]
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    reported = names + [n for n in ("latency_p90_ms", "error_rate", "oracle_err_p50")
                        if n in values and n not in names]
    values.setdefault("oracle_err_p50", 0.0)  # a per-layer metric: 0 without RK4 requests

    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "metrics": {
            n: {"value": values[n], "unit": units[n], "samples": samples.get(n, verdict["attempted"])}
            for n in reported
        },
        "failures": verdict["failures"],
        "mix": dict(sorted(Counter(f"{r.command} {r.family}" for r, _ in pairs).items())),
        "env": environment(),
    }
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    dump = dict(
        report,
        result=result,
        requests=[[req.argv, t, status] for (req, _), (t, status, _) in zip(pairs, results)],
        spans=tracer.spans_json() if trace else [],
    )
    (OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(dump))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process (peak memory is per process);
    prints each end-to-end metric with its unit and sample count."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: failed with exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        report_line, result_line = done.stdout.strip().splitlines()[-2:]
        report, result = json.loads(report_line), json.loads(result_line)
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in report["metrics"].items():
            print(f"  {metric:<16} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
