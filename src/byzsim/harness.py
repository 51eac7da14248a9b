"""Experiment batteries that exercise the agreement wrappers at scale.

This module turns the bound curves from :mod:`byzsim.core` into runnable
checks. Each ``verify_*`` function executes a battery of simulations and
returns a plain-dict report with an overall ``ok`` flag, run counts, and the
violating trials (if any), so the CLI can print it and the test suite can
assert on it. A violation records its trial's scenario, which is a scenario
file, so ``byzsim simulate --scenario`` runs it again.

Trials are deterministic: every random choice flows from
:func:`derive_seed` applied to the trial coordinates, never from global
state. Identical scenarios (same canonical JSON) are executed once per
battery and the outcome reused; rerunning a scenario cannot change its
outcome, so the dedup only removes literal repeats.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .adversary import (
    build_impossibility_scenarios,
    crash_after,
    random_noise,
    replay_honest,
    replay_triple,
    silent,
    split_brain,
)
from .core import (
    Configuration,
    check_alpha,
    check_mode,
    compute_error,
    compute_local_error,
    consistency_bound,
    curve_rows,
    robustness_bound,
    theoretical_impossibility,
    theoretical_smoothness,
)
from .simnet import PROTOCOLS, Outcome, Scenario, Transcript, derive_seed, run_simulation

INPUT_PATTERNS = ("all_zero", "all_one", "half_split", "random")
PLACEMENTS = ("high", "low", "random")
ETA_SPLITS = ("worst_case", "inverse", "balanced")

# Adversary library used by every battery. `split_brain` needs at least two
# honest nodes to target; library_names() drops it below that.
LIBRARY = ("silent", "crash", "noise", "split_brain", "replay_one", "replay_zero")

GRID_ALPHAS = {
    "nonauth": (Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)),
    "auth": (Fraction(3, 5), Fraction(4, 5)),
}
GRID_NS = (10, 20, 30, 40)
GRID = tuple((mode, alpha, n) for mode, alphas in GRID_ALPHAS.items()
             for alpha in alphas for n in GRID_NS)

# Sweep defaults: seeded trials per (eta, fault count) cell, and how far
# above the theoretical value the resilience scan looks.
SWEEP_TRIALS = 12
SCAN_MARGIN = 6

# The two settings whose full curves get swept end to end.
FLAGSHIPS = (("nonauth", Fraction(4, 5), 40), ("auth", Fraction(4, 5), 30))

WRAPPER_PROTOCOL = {"nonauth": "pred_ba", "auth": "auth_pred_ba"}

SWEEP_FIELDS = (
    "mode",
    "alpha",
    "n",
    "eta",
    "theory_s",
    "theory_sbar",
    "sbar_flag",
    "empirical_f",
    "trials",
    "adversary_set_hash",
)
CURVE_FIELDS = ("mode", "alpha", "n", "eta", "s", "sbar", "sbar_conditional_flag")


def library_names(honest_count: int, include: Sequence[str] = LIBRARY):
    unknown = sorted(set(include) - set(LIBRARY))
    if unknown:
        raise ValueError(f"unknown library adversaries {unknown}; choose from {LIBRARY}")
    names = list(include)
    if honest_count < 2:
        names = [x for x in names if x != "split_brain"]
    return tuple(names)


def adversary_set_hash(names: Sequence[str]) -> str:
    blob = json.dumps(sorted(names), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def materialize_adversary(name: str, config: Configuration):
    """Turn a library name into a concrete spec for one configuration."""
    if name == "silent":
        return silent()
    if name == "crash":
        return crash_after(2)
    if name == "noise":
        # Per-run variation comes from scenario.seed via ctx.derive.
        return random_noise(0)
    if name == "replay_one":
        return replay_honest(1)
    if name == "replay_zero":
        return replay_honest(0)
    if name == "split_brain":
        hs = sorted(config.honest)
        half = max(1, len(hs) // 2)
        return split_brain((hs[:half], hs[half:]), 0, 1)
    raise ValueError(f"unknown library adversary {name!r}")


def make_faulty(n: int, f: int, placement: str, rng: random.Random) -> frozenset:
    if not 0 <= f <= n:
        raise ValueError(f"fault count {f} out of range for n={n}")
    if placement == "high":
        return frozenset(range(n - f + 1, n + 1))
    if placement == "low":
        return frozenset(range(1, f + 1))
    if placement == "random":
        return frozenset(rng.sample(range(1, n + 1), f))
    raise ValueError(f"unknown placement {placement!r}")


def make_inputs(honest: Iterable[int], pattern: str, rng: random.Random) -> dict:
    hs = sorted(honest)
    if pattern == "all_zero":
        return {i: 0 for i in hs}
    if pattern == "all_one":
        return {i: 1 for i in hs}
    if pattern == "half_split":
        cut = len(hs) // 2
        return {i: (0 if k < cut else 1) for k, i in enumerate(hs)}
    if pattern == "random":
        return {i: rng.randrange(2) for i in hs}
    raise ValueError(f"unknown input pattern {pattern!r}")


def build_eta_prediction(config: Configuration, eta: int, split: str) -> frozenset:
    """A global prediction whose total error is exactly eta.

    worst_case loads the error onto the faulty side first (mispredicted
    faults) and takes the lowest ids; inverse loads it onto the honest side
    first (missed honest nodes), balanced splits it as evenly as the set
    sizes allow, and both draw the faulty ids, then the honest ones, from
    random.Random(0).
    """
    faulty, honest = sorted(config.faulty), sorted(config.honest)
    if not 0 <= eta <= config.n:
        raise ValueError(f"eta {eta} out of range for n={config.n}")
    if split == "worst_case":
        eta_f = min(eta, len(faulty))
        return frozenset(faulty[:eta_f]) | (config.honest - set(honest[:eta - eta_f]))
    if split == "inverse":
        eta_h = min(eta, len(honest))
    elif split == "balanced":
        eta_h = min(eta - min(eta // 2, len(faulty)), len(honest))
    else:
        raise ValueError(f"unknown eta split {split!r}")
    rng = random.Random(0)
    wrong = rng.sample(faulty, eta - eta_h)
    return frozenset(wrong) | (config.honest - set(rng.sample(honest, eta_h)))


def check_outcome(scenario: Scenario, outcome: Outcome) -> dict:
    """Recompute the three properties from raw decisions.

    Independent of the engine's own flags; a disagreement between the two
    routes is itself reported (engine_consistent) and counts as a failure.
    """
    honest = sorted(scenario.config.honest)
    decisions = [outcome.decisions.get(i) for i in honest]
    termination = all(d is not None for d in decisions)
    agreement = termination and len(set(decisions)) <= 1
    inputs = set(scenario.config.inputs.values())
    if not termination:
        validity = False
    elif len(inputs) == 1:
        validity = set(decisions) == inputs
    else:
        validity = True
    engine_consistent = (
        agreement == outcome.agreement
        and validity == outcome.validity
        and termination == outcome.termination
    )
    return {
        "agreement": agreement,
        "validity": validity,
        "termination": termination,
        "engine_consistent": engine_consistent,
        "ok": agreement and validity and termination and engine_consistent,
    }


class RunCache:
    """Outcome memo keyed by the scenario's canonical JSON."""

    def __init__(self):
        self._memo = {}
        self.hits = 0
        self.misses = 0

    def run(self, scenario: Scenario) -> Outcome:
        key = json.dumps(scenario.to_json(), sort_keys=True, separators=(",", ":"))
        out = self._memo.get(key)
        if out is None:
            out, _ = run_simulation(scenario, record_transcripts=False)
            self._memo[key] = out
            self.misses += 1
        else:
            self.hits += 1
        return out


def _scenario(protocol, alpha, config, prediction, adv_name, trial_seed,
              **params) -> Scenario:
    # Only the noise strategy consumes scenario.seed; pinning it to zero for
    # the deterministic strategies lets identical trials share one run.
    return Scenario(alpha=alpha, config=config, prediction=prediction,
                    adversary=materialize_adversary(adv_name, config),
                    seed=trial_seed if adv_name == "noise" else 0,
                    protocol=protocol, params=params)


def _trial(coords, f, adv_name, pattern, predict, unique=False) -> Scenario:
    """One seeded trial of a wrapper battery.

    ``coords`` is ``(battery, seed, mode, alpha, n, ..., k)``. The seed
    derived from it drives, in this order, the fault placement, random
    inputs and ``predict(config, rng)``. Placement rotates with k only on
    trials that are ``unique`` anyway (random inputs or predictions); the
    others keep the high block so identical repeats collapse in the run
    cache.
    """
    mode, alpha, n = coords[2:5]
    placement = PLACEMENTS[coords[-1] % len(PLACEMENTS)] if unique else "high"
    trial_seed = derive_seed(*coords)
    rng = random.Random(trial_seed)
    faulty = make_faulty(n, f, placement, rng)
    config = Configuration(n, faulty, make_inputs(
        frozenset(range(1, n + 1)) - faulty, pattern, rng))
    return _scenario(WRAPPER_PROTOCOL[mode], alpha, config, predict(config, rng), adv_name,
                     trial_seed)


class _Battery:
    """Tally of one battery: runs trials, records violations, reports."""

    def __init__(self, suite, cache=None):
        self.suite = suite
        self.cache = cache or RunCache()
        self.violations = []
        self.violation_count = 0

    def check(self, scenario, *, check=check_outcome, label=None):
        """Run, check and, on failure, record one trial."""
        outcome = self.cache.run(scenario)
        checks = check(scenario, outcome)
        if not checks["ok"]:
            self.record(scenario, checks, label)
        return outcome, checks

    def record(self, scenario, checks, label=None, **detail):
        """Keep a failed trial as its scenario file and its three flags;
        detail names a failed check that is none of the three."""
        self.add({
            "battery": label or self.suite,
            "scenario": scenario.to_json(),
            "agreement": checks["agreement"],
            "validity": checks["validity"],
            "termination": checks["termination"],
            **detail,
        })

    def add(self, violation):
        """Count a violation; only the first 40, which the report lists,
        are kept."""
        self.violation_count += 1
        if len(self.violations) < 40:
            self.violations.append(violation)

    def report(self, ok=True, **extra) -> dict:
        rep = {
            "suite": self.suite,
            "ok": ok and not self.violation_count,
            "trials": self.cache.misses + self.cache.hits,
            "unique_runs": self.cache.misses,
            "memo_hits": self.cache.hits,
            "violation_count": self.violation_count,
            "violations": self.violations,
        }
        rep.update(extra)
        return rep


def _grid(grid) -> list:
    """A battery's (mode, alpha, n) cells, each checked and alpha exact."""
    return [(mode, check_alpha(mode, alpha), int(n)) for mode, alpha, n in grid]


ROBUSTNESS_PREDICTIONS = ("faulty", "empty", "everyone", "random")


def _prediction(kind: str, config: Configuration, rng: random.Random) -> frozenset:
    if kind == "perfect":
        return frozenset(config.honest)
    if kind == "faulty":
        return frozenset(config.faulty)
    if kind == "empty":
        return frozenset()
    if kind == "everyone":
        return frozenset(range(1, config.n + 1))
    if kind == "random":
        size = rng.randrange(config.n + 1)
        return frozenset(rng.sample(range(1, config.n + 1), size))
    raise ValueError(f"unknown prediction kind {kind!r}")


def _bound_battery(suite, bound, kinds, *, seeds, grid, seed, cache) -> dict:
    """Every cell of the (mode, alpha, n) grid at f = bound(mode, alpha, n):
    the whole adversary library against every input pattern for `seeds`
    seeded trials, the prediction kind cycling through kinds per trial."""
    tally, cells = _Battery(suite, cache), _grid(grid)
    for mode, alpha, n in cells:
        f = bound(mode, alpha, n)
        for adv_name in library_names(n - f):
            for pattern in INPUT_PATTERNS:
                for k in range(seeds):
                    kind = kinds[k % len(kinds)]
                    tally.check(_trial((suite, seed, mode, alpha, n, adv_name, pattern, k),
                                       f, adv_name, pattern,
                                       functools.partial(_prediction, kind),
                                       unique=pattern == "random" or kind == "random"))
    return tally.report(cells=len(cells))


def verify_consistency(*, seeds: int = 100, grid=GRID, seed: int = 0, cache=None) -> dict:
    """Perfect predictions must tolerate the consistency bound's fault count.

    The faulty placement rotates per trial on random inputs.
    """
    return _bound_battery("consistency", consistency_bound, ("perfect",), seeds=seeds,
                          grid=grid, seed=seed, cache=cache)


def verify_robustness(*, seeds: int = 100, grid=GRID, seed: int = 0, cache=None) -> dict:
    """Arbitrarily wrong predictions must tolerate the robustness bound.

    Same trial matrix as verify_consistency; the prediction kind cycles
    through faulty-set / empty / everyone / seeded-random per trial.
    """
    return _bound_battery("robustness", robustness_bound, ROBUSTNESS_PREDICTIONS,
                          seeds=seeds, grid=grid, seed=seed, cache=cache)


def empirical_resilience(mode, alpha, n, eta, *, split: str = ETA_SPLITS[0],
                         trials: int = SWEEP_TRIALS, seed: int = 0, cache=None,
                         scan_margin: int = SCAN_MARGIN, adversaries=LIBRARY) -> int:
    """Largest tested fault count with zero observed violations at this eta.

    The scan starts at the theoretical value and walks outward: upward to
    theory + scan_margin (capped at n - 1) while trials stay clean, downward
    if the theoretical cell itself shows a violation. Trials rotate over the
    adversaries (a subset of the library) and input patterns.
    """
    cache = cache or RunCache()
    alpha = check_alpha(mode, alpha)

    def cell_clean(f: int) -> bool:
        names = library_names(n - f, adversaries)
        if not names:  # e.g. only split_brain, with fewer than two honest nodes
            return False
        for k in range(trials):
            adv_name = names[k % len(names)]
            sc = _trial(("sweep", seed, mode, alpha, n, eta, split, f, adv_name, k),
                        f, adv_name, INPUT_PATTERNS[k % len(INPUT_PATTERNS)],
                        lambda config, rng: build_eta_prediction(config, eta, split))
            if not check_outcome(sc, cache.run(sc))["ok"]:
                return False
        return True

    theory = theoretical_smoothness(mode, alpha, n, eta)
    cap = min(n - 1, theory + scan_margin)
    f = theory
    if not cell_clean(f):
        while f > 0:
            f -= 1
            if cell_clean(f):
                return f
        return 0
    while f < cap and cell_clean(f + 1):
        f += 1
    return f


def sweep(mode, alpha, n, *, etas=None, split: str = ETA_SPLITS[0],
          trials: int = SWEEP_TRIALS, seed: int = 0, scan_margin: int = SCAN_MARGIN,
          adversaries=None, cache=None) -> list:
    """Empirical resilience next to both theory curves for a range of eta."""
    cache = cache or RunCache()
    alpha = check_alpha(check_mode(mode), alpha)
    etas = range(n + 1) if etas is None else etas
    names = tuple(dict.fromkeys(adversaries or LIBRARY))  # a repeated name counts once
    set_hash = adversary_set_hash(names)
    rows = []
    for eta in etas:
        s = theoretical_smoothness(mode, alpha, n, eta)
        sbar, flag = theoretical_impossibility(mode, alpha, n, eta)
        emp = empirical_resilience(mode, alpha, n, eta, split=split,
                                   trials=trials, seed=seed, cache=cache,
                                   scan_margin=scan_margin, adversaries=names)
        rows.append({
            "mode": mode,
            "alpha": str(alpha),
            "n": n,
            "eta": eta,
            "theory_s": s,
            "theory_sbar": "" if sbar is None else sbar,
            "sbar_flag": int(flag),
            "empirical_f": emp,
            "trials": trials,
            "adversary_set_hash": set_hash,
        })
    return rows


def rows_to_csv(rows: Sequence[Mapping], fields: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in fields})
    return buf.getvalue()


def sweep_to_csv(rows: Sequence[Mapping]) -> str:
    return rows_to_csv(rows, SWEEP_FIELDS)


def curve_table(mode, alpha, n) -> list:
    alpha = check_alpha(check_mode(mode), alpha)
    rows = []
    for eta, s, sbar, flag in curve_rows(mode, alpha, n):
        rows.append({
            "mode": mode,
            "alpha": str(alpha),
            "n": n,
            "eta": eta,
            "s": s,
            "sbar": "" if sbar is None else sbar,
            "sbar_conditional_flag": int(flag),
        })
    return rows


def curves_to_csv(mode, alpha, n) -> str:
    return rows_to_csv(curve_table(mode, alpha, n), CURVE_FIELDS)


def verify_smoothness(*, grid=FLAGSHIPS, seeds: int = 50, seed: int = 0,
                      sweep_trials: int = SWEEP_TRIALS, scan_margin: int = SCAN_MARGIN,
                      cache=None) -> dict:
    """Exact-error predictions must tolerate the smoothness curve's value.

    For every eta and every error split the full library runs at
    f = theoretical_smoothness(eta); then a sweep checks the empirical curve
    sits pointwise at or above the theoretical one.
    """
    tally, below, sweeps = _Battery("smoothness", cache), [], {}
    for mode, alpha, n in _grid(grid):
        for eta in range(n + 1):
            f = theoretical_smoothness(mode, alpha, n, eta)
            for split, adv_name, k in itertools.product(
                    ETA_SPLITS, library_names(n - f), range(seeds)):
                pattern = INPUT_PATTERNS[k % len(INPUT_PATTERNS)]
                sc = _trial(("smoothness", seed, mode, alpha, n, eta, split, adv_name, k),
                            f, adv_name, pattern,
                            lambda config, rng: build_eta_prediction(config, eta, split))
                assert compute_error(sc.config, sc.prediction).total == eta
                tally.check(sc)
        rows = sweep(mode, alpha, n, trials=sweep_trials, seed=seed,
                     scan_margin=scan_margin, cache=tally.cache)
        sweeps[f"{mode}:{alpha}:{n}"] = rows
        below.extend(
            {"mode": mode, "alpha": str(alpha), "n": n, "eta": r["eta"],
             "theory_s": r["theory_s"], "empirical_f": r["empirical_f"]}
            for r in rows if r["empirical_f"] < r["theory_s"])
    return tally.report(not below, pointwise_below=below, sweeps=sweeps)


IMPOSSIBILITY_POINTS = (
    ("T4.1", Fraction(4, 5), 20),
    ("T4.2p1", Fraction(4, 5), 25),
    ("T4.2p2", Fraction(4, 5), 15),
    ("T4.2p3", Fraction(4, 5), 15),
    ("TC.4p1", Fraction(3, 4), 16),
    ("TC.4p2", Fraction(3, 4), 16),
    ("T5.2", Fraction(1, 2), 8),
)


def run_impossibility_suite(theorem: str, alpha, n: int) -> dict:
    """Execute one lower-bound family's attack configurations.

    The family passes when at least one configuration breaks agreement or
    validity: that is the point of the construction. Termination failures
    also count as demonstrations.
    """
    scenarios = build_impossibility_scenarios(theorem, alpha, n)
    entries = []
    demonstrated = False
    for idx, sc in enumerate(scenarios, start=1):
        out, _ = run_simulation(sc, record_transcripts=False)
        checks = check_outcome(sc, out)
        if isinstance(sc.prediction, Mapping):
            eta = compute_local_error(sc.config, sc.prediction)
        elif sc.prediction is None:
            eta = None
        else:
            eta = compute_error(sc.config, sc.prediction).total
        entries.append({
            "config": idx,
            "f": len(sc.config.faulty),
            "eta": eta,
            "agreement": checks["agreement"],
            "validity": checks["validity"],
            "termination": checks["termination"],
        })
        demonstrated = demonstrated or not checks["ok"]
    return {
        "theorem": theorem,
        "alpha": str(check_alpha(scenarios[0].mode, alpha)),
        "n": n,
        "configs": entries,
        "demonstrated": demonstrated,
    }


def _restricted_stream(transcripts: Sequence[Transcript], nodes) -> bytes:
    keep = sorted(set(nodes))
    docs = [t.to_json() for t in sorted(transcripts, key=lambda t: t.node)
            if t.node in keep]
    return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()


def transcript_identity_report() -> dict:
    """Byte-level indistinguishability checks for replayed personas.

    For every protocol: a replay of side B with input 1 must leave side A's
    transcripts byte-identical to the all-honest run, and symmetrically for
    side A. The split-brain family gets the same treatment per partition.
    """
    entries = []

    def transcripts(scenarios):
        # Each configuration runs once, however many pairs it is part of.
        return [run_simulation(sc)[1] for sc in scenarios]

    def compare(label, tx, ty, nodes):
        same = _restricted_stream(tx, nodes) == _restricted_stream(ty, nodes)
        entries.append({"pair": label, "nodes": len(nodes), "identical": same})

    n = 8
    a_side, b_side = tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1))
    for protocol in PROTOCOLS:
        pred = frozenset(range(1, n + 1)) if protocol in WRAPPER_PROTOCOL.values() else None
        t1, t2, t3 = transcripts(replay_triple(Fraction(3, 4), n, a_side, b_side, pred,
                                               protocol))
        compare(f"{protocol}:replayB-vs-honest:A", t1, t3, a_side)
        compare(f"{protocol}:replayA-vs-honest:B", t2, t3, b_side)

    t41 = transcripts(build_impossibility_scenarios("T4.1", Fraction(4, 5), 20))
    eta = 2
    a_side = tuple(range(1, eta + 1))
    b_side = tuple(range(eta + 1, 2 * eta + 1))
    compare("T4.1:cfg1-vs-cfg2:A", t41[0], t41[1], a_side)
    compare("T4.1:cfg1-vs-cfg3:B", t41[0], t41[2], b_side)

    t52 = transcripts(build_impossibility_scenarios("T5.2", Fraction(1, 2), 8))
    compare("T5.2:cfg1-vs-cfg3:A", t52[0], t52[2], tuple(range(1, 5)))
    compare("T5.2:cfg2-vs-cfg3:B", t52[1], t52[2], tuple(range(5, 9)))

    ok = all(e["identical"] for e in entries)
    return {"suite": "transcripts", "ok": ok, "pairs": entries}


def verify_impossibility(*, seed: int = 0) -> dict:
    """All lower-bound families demonstrate a violation at feasible points."""
    reports = [run_impossibility_suite(*point) for point in IMPOSSIBILITY_POINTS]
    identity = transcript_identity_report()
    ok = all(r["demonstrated"] for r in reports) and identity["ok"]
    return {
        "suite": "impossibility",
        "ok": ok,
        "families": reports,
        "transcripts": identity,
    }


LOCAL_PREDICTIONS = ("perfect", "noisy", "adversarial", "empty")
LOCAL_GRID = (
    ("nonauth", Fraction(3, 5), 12),
    ("nonauth", Fraction(4, 5), 20),
    ("auth", Fraction(3, 5), 10),
    ("auth", Fraction(3, 4), 16),
)


def _local_prediction(kind: str, config: Configuration, rng: random.Random) -> dict:
    # Vectors are total over 1..n: the error measure only reads honest rows,
    # but a replaying persona reads its own row, so a partial vector would
    # hand the adversary a different view than the matching global
    # prediction does. A constant vector holds its kind's global prediction;
    # "adversarial", the faulty set, keeps the name the trial seeds hash.
    everyone = list(range(1, config.n + 1))
    if kind != "noisy":
        return dict.fromkeys(everyone, _prediction(
            "faulty" if kind == "adversarial" else kind, config, rng))
    preds = {}
    for i in everyone:
        p = set(config.honest)
        for j in rng.sample(everyone, 2):
            p.symmetric_difference_update({j})
        preds[i] = frozenset(p)
    return preds


def verify_local(*, seeds: int = 25, grid=LOCAL_GRID, seed: int = 0,
                 cache=None) -> dict:
    """Local-prediction battery.

    No wrapper guarantee exists for genuinely divergent per-node
    predictions: an algorithm with nontrivial consistency has zero
    robustness in that model, and ``run_impossibility_suite("T5.2", ...)``
    demonstrates it. The assertions here therefore cover the sound cases
    only. A constant vector must produce exactly the outcome of its global
    counterpart (same decisions, same round), and it inherits the global
    bounds: the consistency bound under perfect predictions, the robustness
    bound under hostile or empty ones. Divergent noisy vectors are run and
    tallied into the report as data, never asserted: honest nodes that
    disagree about the active set can split even with every node honest.
    """
    tally = _Battery("local", cache)
    divergent_runs = divergent_failures = 0
    for mode, alpha, n in _grid(grid):
        f_cons = consistency_bound(mode, alpha, n)
        f_rob = robustness_bound(mode, alpha, n)
        for k in range(seeds):
            pattern = INPUT_PATTERNS[k % len(INPUT_PATTERNS)]
            kind = LOCAL_PREDICTIONS[(k // len(INPUT_PATTERNS)) % len(LOCAL_PREDICTIONS)]
            f = f_cons if kind == "perfect" else f_rob
            unique = kind == "noisy" or pattern == "random"
            predict = functools.partial(_local_prediction, kind)
            for adv_name in library_names(n - f):
                sc = _trial(("local", seed, mode, alpha, n, adv_name, kind, k),
                            f, adv_name, pattern, predict, unique)
                if kind == "noisy":
                    divergent_runs += 1
                    if not check_outcome(sc, tally.cache.run(sc))["ok"]:
                        divergent_failures += 1
                    continue
                outcome, checks = tally.check(sc)
                twin = tally.cache.run(dataclasses.replace(
                    sc, prediction=next(iter(sc.prediction.values()))))
                if (outcome.decisions != twin.decisions
                        or outcome.decided_round != twin.decided_round):
                    tally.record(sc, checks, check="constant-vs-global",
                                 local_round=outcome.decided_round,
                                 global_round=twin.decided_round)
    t52 = run_impossibility_suite("T5.2", Fraction(1, 2), 8)
    if not t52["demonstrated"]:
        tally.add({"battery": "local", "check": "t52-demonstration",
                   "detail": "no failing configuration found"})
    return tally.report(divergent_runs=divergent_runs,
                        divergent_failures=divergent_failures,
                        t52_demonstrated=t52["demonstrated"])


def _broadcast_checks(scenario: Scenario, outcome: Outcome) -> dict:
    honest = sorted(scenario.config.honest)
    decisions = [outcome.decisions.get(i) for i in honest]
    termination = all(d is not None for d in decisions)
    consistency = termination and len(set(decisions)) <= 1
    sender = scenario.params["sender"]
    if sender in scenario.config.faulty:
        validity = True
    else:
        validity = termination and set(decisions) == {scenario.config.inputs[sender]}
    return {"agreement": consistency, "validity": validity,
            "termination": termination,
            "engine_consistent": True,
            "ok": consistency and validity and termination}


def verify_protocols(*, seeds: int | None = None, seed: int = 0, cache=None) -> dict:
    """Primitive-level batteries for the two inner agreement protocols.

    seeds is the seeded trials per Phase King and signed-broadcast case;
    None runs 50 and 20.

    Every run audits the signature ledger (the engine raises on any honest
    key minted by the adversary), so a green battery certifies the
    unforgeability check never fired.
    """
    tally = _Battery("protocols", cache)
    pk_seeds, ds_seeds = (50, 20) if seeds is None else (seeds, seeds)

    # Four-node king micro-battery: every honest input vector, both fault
    # placements, full adversary library.
    m, t = 4, 1
    for faulty in ({4}, {1}):
        honest = sorted(set(range(1, m + 1)) - faulty)
        for bits in range(8):
            inputs = {i: (bits >> k) & 1 for k, i in enumerate(honest)}
            config = Configuration(m, frozenset(faulty), inputs)
            for adv_name in library_names(len(honest)):
                for k in range(pk_seeds):
                    trial_seed = derive_seed("pk", seed, min(faulty), bits,
                                             adv_name, k)
                    sc = _scenario("phase_king", Fraction(2, 3), config, None, adv_name,
                                   trial_seed, t=t)
                    tally.check(sc, label="phase_king")

    # Signed broadcast from node 1: an honest sender must convey its value;
    # an equivocating (split-brain) sender must still leave the honest nodes
    # in agreement.
    for m in (4, 7):
        for t in range(0, m - 1):
            cases = []
            for value in (0, 1):
                cases.append(({}, value, "silent"))
                if t >= 1:
                    cases.append(({m}, value, "noise"))
                    cases.append(({m}, value, "replay_one"))
            if t >= 1:
                cases.append(({1}, None, "split_brain"))
            if t >= 2:
                cases.append(({1, m}, None, "split_brain"))
            for faulty, value, adv_name in cases:
                faulty = frozenset(faulty)
                honest = sorted(set(range(1, m + 1)) - faulty)
                inputs = {i: (value if value is not None else 0) for i in honest}
                config = Configuration(m, faulty, inputs)
                for k in range(ds_seeds):
                    trial_seed = derive_seed("ds", seed, m, t, sorted(faulty),
                                             value, adv_name, k)
                    sc = _scenario("dolev_strong_broadcast", Fraction(3, 4), config, None,
                                   adv_name, trial_seed, t=t, sender=1)
                    tally.check(sc, check=_broadcast_checks, label="dolev_strong_broadcast")

    # Multi-sender agreement built on the broadcast, small confidence pass.
    m, t = 7, 2
    config_faulty = frozenset({6, 7})
    honest = sorted(set(range(1, m + 1)) - config_faulty)
    for adv_name in library_names(len(honest)):
        for pattern in INPUT_PATTERNS:
            for k in range(10):
                trial_seed = derive_seed("dsba", seed, adv_name, pattern, k)
                rng = random.Random(trial_seed)
                config = Configuration(m, config_faulty,
                                       make_inputs(honest, pattern, rng))
                sc = _scenario("dolev_strong_ba", Fraction(3, 4), config, None, adv_name,
                               trial_seed, t=t)
                tally.check(sc, label="dolev_strong_ba")

    # The engine's ledger audit raises ForgeryError mid-battery if it ever
    # fires, so reaching this line proves it stayed silent for every run.
    return tally.report(ledger_fired=False)


VERIFY_SUITES = {
    "consistency": verify_consistency,
    "robustness": verify_robustness,
    "smoothness": verify_smoothness,
    "impossibility": verify_impossibility,
    "local": verify_local,
    "protocols": verify_protocols,
}
