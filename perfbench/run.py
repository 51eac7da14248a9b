"""byzsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; byzsim is imported from ``src/``.
Every round runs in a fresh interpreter (``worker.py``), because byzsim
keeps a process-wide digest cache that an earlier round would warm, and a
user's ``byzsim`` command starts cold too. All rounds of a run do the same
work on the same inputs. Rounds repeat until ``--seconds`` is used up, at
least twice, so that repeated outputs can be compared byte for byte.

Set-up (import plus input generation) is also timed in set-up-only
interpreters started before each round, and ``setup_s`` is the median over
those and the rounds. All times are reference seconds (``speed.py``): wall
time corrected for the host's speed while it was measured.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced rounds. The checks in
``checks.py`` run here, in a process that never imports byzsim. Raw round
results and the spans of the first traced round go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 2  # set-up-only interpreters before each round
MIN_ROUNDS = 2
DEADLINE_S = 170  # every worker is stopped by then; the run must end in 180 s


class BenchError(Exception):
    pass


def _worker(args, workdir, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--workdir", workdir, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the round could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _end_to_end(rounds, setups):
    # Times are in reference seconds (speed.py).
    wall = statistics.median(r["wall_s"] for r in rounds)
    sims = rounds[0]["counts"].get("simnet.runs", 0)
    latency = statistics.median(x for r in rounds for x in r["latencies"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "sims_per_s": {"value": sims / wall, "unit": "1/s"},
        "run_ms_p50": {"value": 1000 * latency, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }


def _moved_counts(rounds):
    """Per-layer counts of later traced rounds that differ from round 1's."""
    first = rounds[0]["per_layer"]
    return sorted({m for r in rounds[1:] for m in tracer.PER_LAYER
                   if m not in tracer.TIMES and r["per_layer"][m] != first[m]})


def _per_layer(rounds):
    first = rounds[0]["per_layer"]
    out = {}
    for name in tracer.PER_LAYER:
        if name in tracer.TIMES:
            value, unit = statistics.median(r["per_layer"][name] for r in rounds), "s"
        else:
            value = first[name]
            unit = "ratio" if name.endswith("ratio") else "count"
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "byzsim", "__init__.py")):
        print(f"perfbench: no byzsim sources under {ROOT}/src", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    rounds, setups, problems = [], [], []
    attempted = failed = 0
    correct = True
    try:
        # The first interpreter may compile byzsim's bytecode; not timed.
        _worker(args, workdir, deadline, "--setup-only")
        start = time.monotonic()
        while True:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, workdir, deadline,
                                      "--setup-only")["setup_s"])
            extra = []
            if args.trace:
                extra.append("--trace")
                if not rounds:
                    extra += ["--trace-out", os.path.join(RESULTS, f"spans-{tag}.json")]
            result = _worker(args, workdir, deadline, *extra)
            counts = dict(result["counts"])
            first = rounds[0]["outputs"] if rounds else None
            ops, bad, found, ok = workload.check(result["inputs"], result["outputs"],
                                                 counts, first)
            bad = min(ops, bad + result["failed_runs"])
            problems += found + result["run_problems"]
            correct = correct and ok
            attempted += ops
            failed += bad
            rounds.append(result)
            setups.append(result["setup_s"])
            elapsed = time.monotonic() - start
            if len(rounds) >= MIN_ROUNDS and \
                    elapsed + elapsed / len(rounds) > args.seconds:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        moved = _moved_counts(rounds)
        if moved:
            problems.append(f"traced counts differ between rounds: {moved}")
            correct = False
        metrics = _per_layer(rounds)
    else:
        metrics = _end_to_end(rounds, setups)
    kept = ("setup_s", "wall_s", "raw_wall_s", "latencies", "peak_rss_mb", "counts",
            "per_layer")
    with open(os.path.join(RESULTS, f"rounds-{tag}.json"), "w") as fh:
        json.dump({"setups": setups, "problems": problems,
                   "rounds": [{k: r.get(k) for k in kept} for r in rounds]}, fh, indent=1)
    for p in problems[:30]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
