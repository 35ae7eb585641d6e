"""One workload process, started by ``run.py``.

Imports csorbit from the checkout's ``src/``, sets the workload up, prints
``ready`` (the parent times set-up from process start to that line), then,
unless ``--mode setup``, runs the closed loop, verifies every request and
prints one JSON line with the raw measurements.  ``--mode trace`` records
spans around csorbit's layers during the requests and writes them to
``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import csorbit  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_loop(requests, tracer=None, per_pass: int = 1) -> dict:
    """Send each request after the previous one returned; verify outside the
    timed region.  A request that raises counts as failed.  With a tracer,
    every other pass of ``per_pass`` requests is traced, so that the
    untraced passes in between give a baseline that drifts with the machine
    exactly as the traced ones do."""
    latencies, traced, failures = [], [], {}
    rss_first = None
    for i, req in enumerate(requests):
        tracing_on = tracer is not None and (i // per_pass) % 2 == 1
        if tracing_on:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            out, problems = req.run(), None
        except Exception as exc:  # a raising request is a failed request, not a benchmark crash
            out, problems = None, [("raised", repr(exc))]
        latencies.append(time.perf_counter() - t0)
        traced.append(tracing_on)
        if tracing_on:
            tracer.end()
        if problems is None:
            try:
                problems = req.verify(out)
            except Exception as exc:  # output too malformed to check is a failed request
                problems = [("verify", f"output could not be checked: {exc!r}")]
        if problems:
            known = verify.classify(req.key, problems)
            entry = failures.setdefault(req.key, {"count": 0, "unexpected": False})
            entry["count"] += 1
            entry["known"] = known and {"name": known.name, "reason": known.reason}
            entry["problems"] = [f"{k}: {m}" for k, m in problems[:3]]
            entry["unexpected"] |= known is None
        if rss_first is None:
            rss_first = rss_mb()
    return {
        "latencies": latencies,
        "traced": traced,
        "failures": failures,
        "rss_growth_mb": rss_mb() - rss_first,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="where --mode trace writes the recorded spans")
    args = parser.parse_args(argv)
    if not Path(csorbit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"csorbit imported from {csorbit.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    caches = tracing.lru_caches()  # before install, which rebinds some of them
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    before = tracing.cache_stats(caches)
    npasses = workloads.passes(args.workload, args.seconds)
    if tracer:
        npasses += npasses % 2  # as many traced passes as untraced ones
    result = run_loop(workload.requests(args.seed, npasses), tracer, workload.per_pass)
    after = tracing.cache_stats(caches)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cache={"entries": after["entries"], "hits": after["hits"] - before["hits"], "misses": after["misses"] - before["misses"]},
        env={"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
    )
    if tracer:
        result["layers"] = tracer.layers()
        result["counts"] = dict(tracer.counts)
        tracer.dump(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
