"""csorbit benchmark: one workload per invocation.

    python3 bench/run.py --workload check-suite --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``:
set-up time (median of SETUP_SAMPLES fresh processes), then throughput,
latency and peak RSS of one closed-loop run with tracing off.  With
``--trace 1`` it reports the per-layer metrics: a process alternating
traced and untraced passes gives the spans (written to ``bench/out/``) and
the tracing overhead, and an untraced run of as many passes as were traced
gives the cache and memory figures.  Every request's output is verified (see ``verify.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  The lines before it give every
metric with its unit, the tail percentile and sample count, each failed
request with its reason, and the environment.

Uses only the standard library; the workload runs in child processes
(``worker.py``) so that each one's peak RSS and set-up belong to it alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# symbolic-build runs on request but is not among the workloads BENCHMARK.json gates
WORKLOADS = ("check-suite", "point-stream", "symbolic-build")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


# One BLAS thread: with OpenBLAS's default of one thread per core, point-stream
# latency on a shared 2-core box rose about 5x (mean) and 20x (p99) from thread
# wake-ups on small matrices, which would drown every other effect.
BLAS_THREADS = 1


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src" / "csorbit").glob("*.py")))


class Runner:
    def __init__(self, args, env):
        self.args = args
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S
        self.spans = Path("bench", "out", f"spans-{args.workload}-seed{args.seed}.json")

    def worker(self, mode: str, seconds: float | None = None) -> tuple[float, dict | None]:
        """Start one worker; returns (seconds from spawn to ready, result)."""
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(seconds or self.args.seconds), "--mode", mode,
        ]
        if mode == "trace":
            (ROOT / self.spans).parent.mkdir(exist_ok=True)
            cmd += ["--spans", str(ROOT / self.spans)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{mode} worker failed (exit {proc.returncode})")
        return setup_s, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (percentile, value); the maximum when there are too few samples."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(runner: Runner, info: dict) -> tuple[dict, list]:
    setups = [runner.worker("setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = runner.worker("run")
    setups.append(setup_s)
    lat = res["latencies"]
    failed = sum(f["count"] for f in res["failures"].values())
    pct, tail_s = tail(lat)
    info.update(setup_samples_s=setups, requests=len(lat), tail_percentile=pct)
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_s": len(lat) / sum(lat),
        "req_p50_ms": 1e3 * statistics.median(lat),
        "req_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (len(lat) - failed) / len(lat),
    }
    return metrics, [res]


def per_layer(runner: Runner, info: dict) -> tuple[dict, list]:
    # the untraced run does as many passes as the traced process traces
    _, plain = runner.worker("run", runner.args.seconds / 2)
    _, traced = runner.worker("trace")
    busy = {False: 0.0, True: 0.0}  # request seconds in untraced and traced passes
    for seconds, on in zip(traced["latencies"], traced["traced"]):
        busy[on] += seconds
    metrics = dict.fromkeys(tracing.COUNTS, 0)
    for name in tracing.SPANS:
        layer = traced["layers"].get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = layer["calls"]
        metrics[f"{name}.self_s"] = layer["self_s"]
    metrics.update(traced["counts"])
    cache = plain["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics.update(
        {
            "cache.entries": cache["entries"],
            "cache.lookups": lookups,
            "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "mem.rss_growth_mb": plain["rss_growth_mb"],
            "trace.overhead_ratio": busy[False] / busy[True],
        }
    )
    info.update(requests=traced["traced"].count(True), spans_file=str(runner.spans))
    return metrics, [plain, traced]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "csorbit" / "__init__.py").is_file():
        print(f"error: no csorbit sources under {ROOT / 'src'}; run from a csorbit checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    threads = str(min(BLAS_THREADS, nproc))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    runner = Runner(args, env)
    try:
        values, results = (per_layer if args.trace else end_to_end)(runner, info)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"no value for {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["latencies"]) for r in results)
    failures = {}
    for r in results:
        for key, f in r["failures"].items():
            entry = failures.setdefault(key, dict(f, count=0))
            entry["count"] += f["count"]
            entry["unexpected"] |= f["unexpected"]
    correct = not any(f["unexpected"] for f in failures.values())
    info.update(results[0]["env"], nproc=nproc, blas_threads=int(threads), src_lines=src_lines())

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"req_tail_ms is p{info['tail_percentile']:.4g} of {info['requests']} requests")
    for key, f in sorted(failures.items()):
        why = f"known defect {f['known']['name']}: {f['known']['reason']}" if not f["unexpected"] else "; ".join(f["problems"])
        print(f"failed x{f['count']}: {key}: {why}")
    print("env " + json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": sum(f["count"] for f in failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
