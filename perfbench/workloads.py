"""The four benchmark workloads.

Each workload has three parts:

* ``prepare(seed, workdir)`` builds the inputs from the seed alone (in the
  worker, timed as set-up);
* ``run(inputs)`` does the fixed work against byzsim (in the worker, timed)
  and returns the raw outputs, plus the start and end ``perf_counter``
  readings of each library or CLI invocation it made;
* ``check(inputs, outputs, counts, first)`` runs in the parent, which never
  imports byzsim, and returns ``(attempted, failed, problems, correct)`` for
  one round. ``first`` is the first round's outputs, or None for the first
  round itself.

An operation is one battery or sweep trial, or one ``simulate`` call. A
problem that belongs to operations counts them as failed; one that belongs
to no operation (outputs that differ between identical rounds, counts that
do not add up) makes the round incorrect instead.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import checks

SWEEP_ETAS = (11, 12)  # inclusive; the curve drops from 18 to 11 at eta 12
SWEEP_TRIALS = 12      # the CLI's default --trials
SCAN_MARGIN = 6        # empirical_resilience's default scan above theory


class Battery:
    """A ``verify_*`` battery restricted to a few grid cells, one call per cell."""

    uses_cli = False

    def __init__(self, suite, cells, seeds, faults):
        self.suite = suite
        self.cells = cells
        self.seeds = seeds
        self.faults = faults  # (mode, alpha, n) -> fault count, from checks

    def prepare(self, seed, workdir):
        return {"cells": [list(c) for c in self.cells], "seeds": self.seeds,
                "seed": seed}

    def guarantee(self, mode, alpha, n, faulty, prediction):
        return self.faults(mode, alpha, n), True

    def run(self, inputs):
        from byzsim import harness

        battery = getattr(harness, f"verify_{self.suite}")
        reports, calls = [], []
        for mode, alpha, n in inputs["cells"]:
            start = time.perf_counter()
            report = battery(seeds=inputs["seeds"], grid=[(mode, Fraction(alpha), n)],
                             seed=inputs["seed"])
            calls.append((start, time.perf_counter()))
            reports.append(report)
        return {"reports": reports}, calls

    def check(self, inputs, outputs, counts, first):
        attempted = failed = 0
        problems, correct = [], True
        for k, ((mode, alpha, n), report) in enumerate(zip(inputs["cells"],
                                                           outputs["reports"])):
            faults = self.faults(mode, alpha, n)
            bad = checks.check_battery_report(report, self.suite, faults, n,
                                              inputs["seeds"])
            problems += [f"{mode} {alpha} {n}: {p}" for p in bad]
            attempted += max(int(report.get("trials") or 0),
                             checks.battery_trials(n, faults, inputs["seeds"]))
            failed += checks.battery_failures(report, bad)
            if report.get("violation_count"):
                problems.append(f"{mode} {alpha} {n}: "
                                f"{report['violation_count']} violations")
            if first is not None and _summary(report) != _summary(first["reports"][k]):
                problems.append(f"{mode} {alpha} {n}: report differs from round 1")
                correct = False
        unique = sum(r.get("unique_runs") or 0 for r in outputs["reports"])
        if unique != counts["simnet.runs"]:
            problems.append(f"reports count {unique} unique runs, "
                            f"run_simulation ran {counts['simnet.runs']}")
            correct = False
        return attempted, failed, problems, correct


class Sweep:
    """``byzsim sweep`` on the authenticated flagship, through ``cli.main``."""

    uses_cli = True
    alpha, n = "4/5", 30

    def prepare(self, seed, workdir):
        lo, hi = SWEEP_ETAS
        out = os.path.join(workdir, "sweep.csv")
        argv = ["sweep", "--mode", "auth", "--alpha", self.alpha, "--n", str(self.n),
                "--seed", str(seed), "--eta-range", f"{lo}:{hi}", "--out", out]
        return {"argv": argv, "out": out}

    def guarantee(self, mode, alpha, n, faulty, prediction):
        # The scan raises the fault count past the curve until a trial
        # fails; only runs on or below the curve must stay correct.
        eta = checks.prediction_error(n, faulty, prediction)
        return None, len(faulty) <= checks.auth_smoothness(alpha, n, eta)

    def run(self, inputs):
        from byzsim import cli

        start = time.perf_counter()
        code = cli.main(inputs["argv"])
        call = (start, time.perf_counter())
        with open(inputs["out"]) as fh:
            text = fh.read()
        return {"exit": code, "csv": text}, [call]

    def check(self, inputs, outputs, counts, first):
        lo, hi = SWEEP_ETAS
        etas = range(lo, hi + 1)
        trials = counts["harness.trials"]
        eta_trials = {int(k): v for k, v in counts["eta_trials"].items()}
        problems, correct = [], True
        if outputs["exit"] != 0:
            problems.append(f"byzsim sweep exited {outputs['exit']}")
        found = checks.check_sweep_csv(outputs["csv"], alpha=self.alpha, n=self.n,
                                       etas=etas, trials=SWEEP_TRIALS,
                                       scan_margin=SCAN_MARGIN)
        if outputs["exit"] != 0 or None in found:
            failed = trials
        else:
            failed = sum(eta_trials.get(eta, 0) for eta in found)
        for eta, bad in found.items():
            problems += [f"eta {eta}: {p}" for p in bad]
        if first is not None and outputs["csv"] != first["csv"]:
            problems.append("CSV differs between repetitions")
            correct = False
        if set(eta_trials) != set(etas) or sum(eta_trials.values()) != trials:
            problems.append(f"trials per eta {eta_trials} do not add up to {trials}")
            correct = False
        return trials, failed, problems, correct


class Simulate:
    """``byzsim simulate`` with outcome and transcript files at n = 80."""

    uses_cli = True
    n = 80

    def _scenarios(self, seed):
        rng = random.Random(seed)
        ids = range(1, self.n + 1)
        docs = []
        # nonauth 2/5 split_brain: mixed inputs, the faulty nodes show one
        # face to each half of the honest nodes.
        faulty = sorted(rng.sample(ids, checks.robustness_faults("nonauth", "2/5",
                                                                 self.n)))
        honest = [i for i in ids if i not in faulty]
        half = len(honest) // 2
        docs.append(self._doc("nonauth", "2/5", faulty,
                              {i: rng.randrange(2) for i in honest},
                              {"name": "split_brain",
                               "params": {"a": honest[:half], "b": honest[half:],
                                          "value_a": 0, "value_b": 1, "pred": None}},
                              "pred_ba"))
        # auth 3/5 replay_honest: unanimous honest input, the faulty nodes
        # replay honest behaviour with the other bit.
        faulty = sorted(rng.sample(ids, checks.robustness_faults("auth", "3/5", self.n)))
        bit = rng.randrange(2)
        docs.append(self._doc("auth", "3/5", faulty,
                              {i: bit for i in ids if i not in faulty},
                              {"name": "replay_honest",
                               "params": {"input": 1 - bit, "pred": None}},
                              "auth_pred_ba"))
        return docs

    def _doc(self, mode, alpha, faulty, inputs, adversary, protocol):
        return {"schema_version": 1, "n": self.n, "mode": mode, "alpha": alpha,
                "faulty": faulty, "inputs": {str(i): b for i, b in inputs.items()},
                "prediction": {"global": list(range(1, self.n + 1))},
                "adversary": adversary, "seed": 0, "protocol": protocol,
                "params": {}}

    def prepare(self, seed, workdir):
        calls = []
        for k, doc in enumerate(self._scenarios(seed)):
            stem = os.path.join(workdir, f"scenario{k}")
            with open(stem + ".json", "w") as fh:
                json.dump(doc, fh)
            calls.append({"scenario": doc,
                          "argv": ["simulate", "--scenario", stem + ".json",
                                   "--out", stem + ".out.json",
                                   "--transcripts", stem + ".transcripts.json"]})
        return {"calls": calls}

    def guarantee(self, mode, alpha, n, faulty, prediction):
        return checks.robustness_faults(mode, alpha, n), True

    def run(self, inputs):
        from byzsim import cli

        codes, calls = [], []
        for call in inputs["calls"]:
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                codes.append(cli.main(call["argv"]))
            calls.append((start, time.perf_counter()))
        return {"exit": codes}, calls

    def finish(self, inputs, outputs):
        """File digests, taken after the timed work."""
        digests = []
        for call in inputs["calls"]:
            argv = call["argv"]
            digests.append([_sha256(argv[argv.index(flag) + 1])
                            for flag in ("--out", "--transcripts")])
        outputs["digests"] = digests

    def check(self, inputs, outputs, counts, first):
        attempted, failed, problems = len(inputs["calls"]), 0, []
        for k, call in enumerate(inputs["calls"]):
            bad = []
            if outputs["exit"][k] != 0:
                bad.append(f"exit code {outputs['exit'][k]}")
            elif first is not None:
                if outputs["digests"][k] != first["digests"][k]:
                    bad.append("output files differ between repetitions")
            else:
                bad += self._check_files(call)
            if bad:
                failed += 1
                problems += [f"{call['scenario']['mode']} scenario: {p}" for p in bad]
        return attempted, failed, problems, True

    def _check_files(self, call):
        argv, scenario = call["argv"], call["scenario"]
        with open(argv[argv.index("--out") + 1]) as fh:
            doc = json.load(fh)
        bad = checks.check_outcome_doc(doc, scenario)
        honest = sorted(int(i) for i in scenario["inputs"])
        rounds = checks.wrapper_decision_round(
            scenario["mode"], scenario["alpha"], scenario["n"],
            len(scenario["prediction"]["global"]))
        with open(argv[argv.index("--transcripts") + 1]) as fh:
            text = fh.read()
        return bad + checks.check_transcripts(text, honest, rounds)


def _summary(report):
    return [report.get(k) for k in ("trials", "unique_runs", "memo_hits",
                                    "violation_count")]


def _sha256(path):
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


WORKLOADS = {
    # Hostile predictions at the robustness floor on the two n = 40 cells
    # behind the slowest acceptance criterion.
    "robustness-n40": Battery(
        "robustness", (("nonauth", "2/5", 40), ("auth", "3/5", 40)),
        seeds=4, faults=checks.robustness_faults),
    # Many short runs at n <= 20 with many memo hits: per-run set-up heavy.
    "consistency-small": Battery(
        "consistency",
        tuple((mode, alpha, n)
              for mode, alphas in (("nonauth", ("2/5", "3/5", "4/5")),
                                   ("auth", ("3/5", "4/5")))
              for alpha in alphas for n in (10, 20)),
        seeds=20, faults=lambda mode, alpha, n: checks.consistency_faults(alpha, n)),
    # The authenticated CLI sweep: no trial repeats, so the run cache only costs.
    "sweep-auth30": Sweep(),
    # Large single runs that record and encode transcripts.
    "simulate-n80": Simulate(),
}
