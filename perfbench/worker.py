"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
                                [--setup-only] [--trace] [--trace-out FILE]

Set-up (importing byzsim from ``src/`` and building the inputs) is timed
first. Unless ``--setup-only`` is given, the workload's fixed work follows,
timed with tracing off, or under the traced probe with ``--trace``. Times
are in reference seconds (``speed.py``); the raw wall time of the work is
kept next to them. The last line of standard output is one JSON object with
the measurements and the raw outputs; the parent checks them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import byzsim  # the import is part of what set-up measures

    if not byzsim.__file__.startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"byzsim was imported from {byzsim.__file__}, not from src/")
    if workload.uses_cli:
        import byzsim.cli  # noqa: F401
    inputs = workload.prepare(args.seed, args.workdir)
    setup_s = sampler.seconds(start, time.perf_counter())
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe = tracer.Probe(args.trace, workload.guarantee)
    probe.install()
    start = time.perf_counter()
    try:
        outputs, calls = workload.run(inputs)
    finally:
        end = time.perf_counter()
        probe.uninstall()
        sampler.stop()
    wall_s = sampler.seconds(start, end)
    latencies = [sampler.seconds(a, b) for a, b in calls]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if hasattr(workload, "finish"):
        workload.finish(inputs, outputs)

    counts = dict(probe.counts)
    counts["eta_trials"] = dict(probe.eta_trials)
    result = {"setup_s": setup_s, "wall_s": wall_s, "raw_wall_s": end - start,
              "latencies": latencies,
              "peak_rss_mb": peak_rss_mb, "counts": counts,
              "inputs": inputs, "outputs": outputs,
              "run_problems": probe.run_problems[:20],
              "failed_runs": len(probe.run_problems)}
    if args.trace:
        # Layer times in reference seconds too, at the round's mean speed.
        scale = wall_s / (end - start)
        result["per_layer"] = {k: v * scale if k in tracer.TIMES else v
                               for k, v in probe.per_layer().items()}
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "span_fields": ["name", "start_s", "duration_s", "parent"],
                           "spans": probe.spans,
                           "inclusive_s": dict(probe.incl),
                           "self_s": dict(probe.self_time),
                           "counts": dict(probe.counts)}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
