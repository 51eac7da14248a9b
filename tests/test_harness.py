"""Harness plumbing: trial construction, check logic, batteries, CSV output."""

import dataclasses
import functools
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

import byzsim.cli as cli
import byzsim.harness as harness
from byzsim.adversary import (build_impossibility_scenarios, persona_network, replay_honest,
                              silent, split_brain)
from byzsim.core import (
    Configuration,
    compute_error,
    consistency_bound,
    theoretical_smoothness,
)
from byzsim.harness import (
    CURVE_FIELDS,
    ETA_SPLITS,
    FLAGSHIPS,
    GRID_ALPHAS,
    IMPOSSIBILITY_POINTS,
    LIBRARY,
    PLACEMENTS,
    SWEEP_FIELDS,
    RunCache,
    adversary_set_hash,
    build_eta_prediction,
    check_outcome,
    curve_table,
    curves_to_csv,
    derive_seed,
    empirical_resilience,
    library_names,
    make_faulty,
    make_inputs,
    materialize_adversary,
    run_impossibility_suite,
    sweep,
    sweep_to_csv,
    transcript_identity_report,
    verify_consistency,
    verify_local,
    verify_protocols,
    verify_robustness,
    verify_smoothness,
)
from byzsim.simnet import Outcome, Scenario, run_simulation


def _config(n=10, f=3):
    faulty = frozenset(range(n - f + 1, n + 1))
    honest = set(range(1, n + 1)) - faulty
    return Configuration(n, faulty, {i: 0 for i in honest})


def _scenario(config, prediction=None):
    if prediction is None:
        prediction = config.honest
    return Scenario(alpha=Fraction(3, 5),
                    config=config, prediction=prediction, adversary=silent(),
                    seed=0, protocol="pred_ba")


# ---------------------------------------------------------------------------
# Trial construction helpers
# ---------------------------------------------------------------------------


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed("consistency", 0, "nonauth", Fraction(3, 5), 10)
    assert a == derive_seed("consistency", 0, "nonauth", Fraction(3, 5), 10)
    assert a != derive_seed("consistency", 1, "nonauth", Fraction(3, 5), 10)
    assert 0 <= a < 2 ** 64


def test_library_names_drops_split_brain_without_two_honest():
    assert library_names(5) == LIBRARY
    assert "split_brain" not in library_names(1)
    assert library_names(1, include=("noise", "split_brain")) == ("noise",)
    with pytest.raises(ValueError, match="bogus"):
        library_names(9, include=("crash", "bogus"))


def test_sweep_rejects_unknown_adversaries_before_any_trial(monkeypatch):
    def run_none(scenario, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_simulation", run_none)
    with pytest.raises(ValueError, match="crahs"):
        sweep("nonauth", Fraction(4, 5), 10, etas=[0], trials=2, adversaries=("crahs",))


def test_adversary_set_hash_ignores_order():
    assert adversary_set_hash(["crash", "noise"]) == adversary_set_hash(["noise", "crash"])
    assert len(adversary_set_hash(LIBRARY)) == 12
    assert adversary_set_hash(["crash"]) != adversary_set_hash(["noise"])


def test_materialize_adversary_names():
    cfg = _config()
    for name in LIBRARY:
        spec = materialize_adversary(name, cfg)
        assert spec.name in ("silent", "crash_after", "random_noise",
                             "replay_honest", "split_brain")
    sb = materialize_adversary("split_brain", cfg)
    sides = set(sb.params["a"]) | set(sb.params["b"])
    assert sides == set(cfg.honest)
    with pytest.raises(ValueError):
        materialize_adversary("chaos_monkey", cfg)


def test_make_faulty_placements():
    rng = random.Random(0)
    assert make_faulty(10, 3, "high", rng) == frozenset({8, 9, 10})
    assert make_faulty(10, 3, "low", rng) == frozenset({1, 2, 3})
    rnd = make_faulty(10, 3, "random", rng)
    assert len(rnd) == 3 and rnd <= set(range(1, 11))
    assert make_faulty(10, 0, "high", rng) == frozenset()
    with pytest.raises(ValueError):
        make_faulty(10, 11, "high", rng)
    with pytest.raises(ValueError):
        make_faulty(10, 3, "middle", rng)


def test_make_inputs_patterns():
    rng = random.Random(0)
    hs = [1, 2, 3, 4, 5]
    assert make_inputs(hs, "all_zero", rng) == {i: 0 for i in hs}
    assert make_inputs(hs, "all_one", rng) == {i: 1 for i in hs}
    half = make_inputs(hs, "half_split", rng)
    assert [half[i] for i in hs] == [0, 0, 1, 1, 1]
    rndm = make_inputs(hs, "random", rng)
    assert set(rndm) == set(hs) and set(rndm.values()) <= {0, 1}
    with pytest.raises(ValueError):
        make_inputs(hs, "alternating", rng)


# (eta_F, eta_H) of each split at n = 10 with faulty ids {8, 9, 10}
_ETA_BUDGETS = {
    "worst_case": {0: (0, 0), 1: (1, 0), 3: (3, 0), 5: (3, 2), 8: (3, 5), 10: (3, 7)},
    "inverse": {0: (0, 0), 1: (0, 1), 3: (0, 3), 5: (0, 5), 8: (1, 7), 10: (3, 7)},
    "balanced": {0: (0, 0), 1: (0, 1), 3: (1, 2), 5: (2, 3), 8: (3, 5), 10: (3, 7)},
}


@pytest.mark.parametrize("split", ["worst_case", "inverse", "balanced"])
@pytest.mark.parametrize("eta", [0, 1, 3, 5, 8, 10])
def test_build_eta_prediction_total_is_exact(split, eta):
    cfg = _config(n=10, f=3)
    pred = build_eta_prediction(cfg, eta, split)
    err = compute_error(cfg, pred)
    assert err.total == eta
    assert (err.eta_F, err.eta_H) == _ETA_BUDGETS[split][eta]
    assert pred == build_eta_prediction(cfg, eta, split)
    if eta == 0:
        assert pred == cfg.honest


def test_build_eta_prediction_split_shapes():
    cfg = _config(n=10, f=3)
    wc = compute_error(cfg, build_eta_prediction(cfg, 4, "worst_case"))
    inv = compute_error(cfg, build_eta_prediction(cfg, 4, "inverse"))
    bal = compute_error(cfg, build_eta_prediction(cfg, 4, "balanced"))
    assert (wc.eta_F, wc.eta_H) == (3, 1)
    assert (inv.eta_F, inv.eta_H) == (0, 4)
    assert (bal.eta_F, bal.eta_H) == (2, 2)
    # worst_case trusts the lowest faulty ids and misses the lowest honest ones
    assert frozenset({8, 9}) <= build_eta_prediction(cfg, 2, "worst_case")
    assert build_eta_prediction(cfg, 5, "worst_case") == (
        frozenset({8, 9, 10}) | (frozenset(range(1, 8)) - {1, 2}))
    assert build_eta_prediction(cfg, cfg.n, "worst_case") == cfg.faulty
    for eta, split in ((11, "worst_case"), (-1, "worst_case"), (-1, "inverse"),
                       (11, "balanced"), (2, "sideways")):
        with pytest.raises(ValueError):
            build_eta_prediction(cfg, eta, split)


# ---------------------------------------------------------------------------
# Outcome checking and the run cache
# ---------------------------------------------------------------------------


def _outcome(decisions, agreement, validity, termination, decided_round=5):
    return Outcome(decisions=decisions, decided_round=decided_round,
                   agreement=agreement, validity=validity,
                   termination=termination)


def test_check_outcome_recomputes_independently():
    cfg = _config(n=4, f=1)  # honest 1..3, inputs all zero
    sc = _scenario(cfg)
    good = _outcome({1: 0, 2: 0, 3: 0}, True, True, True)
    assert check_outcome(sc, good)["ok"]

    # unanimous zero inputs: a stray 1 also breaks validity
    disagree = _outcome({1: 0, 2: 1, 3: 0}, False, False, True)
    checks = check_outcome(sc, disagree)
    assert not checks["agreement"] and not checks["validity"]
    assert not checks["ok"] and checks["engine_consistent"]

    wrong_value = _outcome({1: 1, 2: 1, 3: 1}, True, False, True)
    checks = check_outcome(sc, wrong_value)
    assert checks["agreement"] and not checks["validity"] and not checks["ok"]

    hung = _outcome({1: 0, 2: 0}, False, False, False, decided_round=None)
    checks = check_outcome(sc, hung)
    assert not checks["termination"] and not checks["ok"]


def test_check_outcome_flags_engine_disagreement():
    cfg = _config(n=4, f=1)
    sc = _scenario(cfg)
    # decisions say all good, the engine flags say otherwise
    lying = _outcome({1: 0, 2: 0, 3: 0}, False, True, True)
    checks = check_outcome(sc, lying)
    assert checks["agreement"] and checks["validity"] and checks["termination"]
    assert not checks["engine_consistent"] and not checks["ok"]


def test_run_cache_collapses_identical_scenarios():
    cache = RunCache()
    sc = _scenario(_config())
    out1 = cache.run(sc)
    out2 = cache.run(sc)
    assert out1 == out2
    assert (cache.misses, cache.hits) == (1, 1)
    other = _scenario(_config(), prediction=frozenset())
    cache.run(other)
    assert (cache.misses, cache.hits) == (2, 1)


# ---------------------------------------------------------------------------
# Batteries at reduced sizes
# ---------------------------------------------------------------------------


def test_verify_consistency_small_cell():
    rep = verify_consistency(seeds=3, grid=[("nonauth", Fraction(3, 5), 10)])
    assert rep["ok"] and rep["suite"] == "consistency"
    assert rep["violation_count"] == 0
    assert rep["trials"] == len(LIBRARY) * 4 * 3
    assert rep["unique_runs"] + rep["memo_hits"] == rep["trials"]
    assert rep["memo_hits"] > 0  # deterministic repeats collapse


def test_verify_robustness_small_cell():
    rep = verify_robustness(seeds=3, grid=[("auth", Fraction(3, 5), 10)])
    assert rep["ok"] and rep["violation_count"] == 0
    assert rep["trials"] == len(LIBRARY) * 4 * 3


def test_verify_smoothness_small_flagship():
    rep = verify_smoothness(grid=(("nonauth", Fraction(3, 5), 10),),
                            seeds=2, sweep_trials=2, scan_margin=1)
    assert rep["ok"] and rep["violation_count"] == 0
    assert rep["pointwise_below"] == []


def test_verify_local_small_cell():
    rep = verify_local(seeds=2, grid=(("nonauth", Fraction(3, 5), 12),))
    assert rep["ok"]
    assert rep["t52_demonstrated"]


class _LateGlobalTwin(RunCache):
    """Runs every scenario; a global prediction's run decides a round late."""

    def run(self, scenario):
        out = super().run(scenario)
        if isinstance(scenario.prediction, frozenset):
            out = dataclasses.replace(out, decided_round=out.decided_round + 1)
        return out


def test_verify_local_records_a_constant_vector_unlike_its_global_twin():
    rep = verify_local(seeds=1, grid=(("nonauth", Fraction(3, 5), 12),),
                       cache=_LateGlobalTwin())
    flags = ("agreement", "validity", "termination")
    assert not rep["ok"]
    assert rep["violation_count"] == len(rep["violations"]) == len(LIBRARY)
    for rec in rep["violations"]:
        assert set(rec) == {"battery", "scenario", *flags, "check", "local_round",
                            "global_round"}
        assert (rec["battery"], rec["check"]) == ("local", "constant-vs-global")
        assert rec["global_round"] == rec["local_round"] + 1
        assert all(rec[f] for f in flags)  # the local run itself holds
        assert isinstance(Scenario.from_json(rec["scenario"]).prediction, dict)


def test_verify_local_records_an_undemonstrated_t52(monkeypatch):
    # The record takes the common shape: T5.2's first configuration as its
    # scenario, with that configuration's three flags. The T5.2 runs stay
    # outside the trial counts.
    grid = (("nonauth", Fraction(3, 5), 12),)
    shown = verify_local(seeds=1, grid=grid)
    first = {"agreement": True, "validity": False, "termination": True}
    monkeypatch.setattr(harness, "run_impossibility_suite",
                        lambda theorem, alpha, n: {"demonstrated": False,
                                                   "configs": [first]})
    rep = verify_local(seeds=1, grid=grid)
    assert not rep["ok"] and rep["t52_demonstrated"] is False
    assert rep["violation_count"] == 1
    sc = build_impossibility_scenarios("T5.2", Fraction(1, 2), 8)[0]
    assert rep["violations"] == [{"battery": "local", "scenario": sc.to_json(),
                                  "agreement": True, "validity": False,
                                  "termination": True, "check": "t52-demonstration"}]
    assert (rep["trials"], rep["unique_runs"]) == (shown["trials"], shown["unique_runs"])


def test_listed_violations_replay_through_simulate(monkeypatch, tmp_path):
    # Four faults past the robustness bound break real runs. Each listed
    # violation's scenario, saved as a file, fails the same way under
    # `byzsim simulate`.
    bound = harness.robustness_bound
    monkeypatch.setattr(harness, "robustness_bound",
                        lambda mode, alpha, n: bound(mode, alpha, n) + 4)
    rep = verify_robustness(seeds=4, grid=[("nonauth", Fraction(4, 5), 10),
                                           ("auth", Fraction(4, 5), 10)])
    assert rep["violation_count"] > len(rep["violations"]) == 40
    flags = ("agreement", "validity", "termination")
    for k, rec in enumerate(rep["violations"]):
        assert set(rec) == {"battery", "scenario", *flags}
        scenario = Scenario.from_json(rec["scenario"])
        assert len(scenario.config.faulty) == bound(scenario.mode, scenario.alpha, 10) + 4
        scenario_file, out = tmp_path / f"{k}.json", tmp_path / f"{k}.out.json"
        scenario_file.write_text(json.dumps(rec["scenario"]))
        assert cli.main(["simulate", "--scenario", str(scenario_file),
                         "--out", str(out)]) == 0
        outcome = json.loads(out.read_text())["outcome"]
        assert {f: outcome[f] for f in flags} == {f: rec[f] for f in flags}


def test_verify_protocols_small():
    rep = verify_protocols(seeds=2)
    assert rep["ok"] and rep["violation_count"] == 0
    assert rep["ledger_fired"] is False


def test_engine_flags_equal_check_outcome_on_every_protocols_run(monkeypatch):
    # check_outcome recomputes the three flags from the raw decisions; on
    # every run of every inner-protocol battery, the signed broadcast's
    # included, the engine's own flags are the same.
    flags = ("agreement", "validity", "termination")
    runs, differ = {}, []

    def spy(scenario, outcome):
        checks = check_outcome(scenario, outcome)
        runs[scenario.protocol] = runs.get(scenario.protocol, 0) + 1
        if tuple(checks[f] for f in flags) != tuple(getattr(outcome, f) for f in flags):
            differ.append(scenario.to_json())
        return checks

    monkeypatch.setattr(harness, "check_outcome", spy)
    rep = verify_protocols(seeds=2)
    assert not differ, differ[:3]
    assert set(runs) == {"phase_king", "dolev_strong_broadcast", "dolev_strong_ba"}
    assert sum(runs.values()) == rep["trials"]


def test_empirical_resilience_meets_theory():
    cache = RunCache()
    for eta in (0, 2):
        theory = theoretical_smoothness("nonauth", Fraction(3, 5), 10, eta)
        emp = empirical_resilience("nonauth", Fraction(3, 5), 10, eta,
                                   trials=4, scan_margin=1, cache=cache)
        assert emp >= theory


def test_sweep_runs_only_the_chosen_adversaries(monkeypatch):
    seen = []

    def spy(scenario, **kwargs):
        seen.append(scenario.adversary.name)
        return run_simulation(scenario, **kwargs)

    monkeypatch.setattr(harness, "run_simulation", spy)
    rows = sweep("auth", Fraction(4, 5), 30, etas=range(2), adversaries=("silent",))
    assert seen and set(seen) == {"silent"}
    assert {r["adversary_set_hash"] for r in rows} == {adversary_set_hash(["silent"])}


def test_sweep_counts_a_repeated_adversary_once():
    def rows(names):
        return sweep("nonauth", Fraction(3, 5), 6, etas=range(2), trials=3,
                     adversaries=names)

    assert rows(("silent", "silent", "crash")) == rows(("silent", "crash"))


def test_empirical_resilience_skips_fault_counts_no_adversary_can_test():
    # At f = n - 1 one honest node is left, which split_brain cannot target.
    assert theoretical_smoothness("auth", Fraction(4, 5), 4, 0) == 3
    assert empirical_resilience("auth", Fraction(4, 5), 4, 0, trials=2,
                                adversaries=("split_brain",)) == 2


def test_impossibility_suite_families():
    for theorem, alpha, n in IMPOSSIBILITY_POINTS:
        t0 = time.perf_counter()
        rep = run_impossibility_suite(theorem, alpha, n)
        assert time.perf_counter() - t0 < 60
        assert rep["demonstrated"], f"{theorem} produced no violation"
        assert len(rep["configs"]) == 3


def test_transcript_identity_all_pairs():
    rep = transcript_identity_report()
    assert rep["ok"]
    assert len(rep["pairs"]) == 14
    assert all(e["identical"] for e in rep["pairs"])


def test_transcript_identity_runs_each_configuration_once(monkeypatch):
    # 5 protocols x 3 replay configurations, plus T4.1's and T5.2's three
    seen = []

    def spy(scenario, **kwargs):
        seen.append(json.dumps(scenario.to_json(), sort_keys=True))
        return run_simulation(scenario, **kwargs)

    monkeypatch.setattr(harness, "run_simulation", spy)
    assert transcript_identity_report()["ok"]
    assert len(seen) == len(set(seen)) == 21


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_sweep_rows_and_csv():
    rows = sweep("nonauth", Fraction(3, 5), 10, etas=[0, 2], trials=2,
                 scan_margin=1)
    assert len(rows) == 2
    for row in rows:
        assert tuple(row) == SWEEP_FIELDS
        assert row["empirical_f"] >= row["theory_s"]
        assert row["alpha"] == "3/5"
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_FIELDS)
    assert len(lines) == 3


def test_curve_table_and_csv():
    rows = curve_table("auth", Fraction(4, 5), 30)
    assert len(rows) == 31
    by_eta = {r["eta"]: r for r in rows}
    assert by_eta[11]["s"] == 18
    assert by_eta[12]["s"] == 11 and by_eta[12]["sbar"] == 18
    assert by_eta[25]["sbar"] == ""
    text = curves_to_csv("auth", Fraction(4, 5), 30)
    lines = text.splitlines()
    assert lines[0] == ",".join(CURVE_FIELDS)
    assert len(lines) == 32
    assert lines[1] == "auth,4/5,30,0,24,25,0"


# ---------------------------------------------------------------------------
# Determinism contract
# ---------------------------------------------------------------------------


class _HungCache(RunCache):
    """Every run ends undecided, so every trial lands in the violations."""

    def run(self, scenario):
        self.misses += 1
        return Outcome(decisions={}, decided_round=None, agreement=False,
                       validity=False, termination=False)


_SMALL_GRID = [(mode, alpha, n) for mode in ("nonauth", "auth")
               for alpha in GRID_ALPHAS[mode] for n in (10, 20)]
_TWO_CELLS = [("nonauth", Fraction(3, 5), 10), ("auth", Fraction(4, 5), 10)]
_N10_FLAGSHIPS = (("nonauth", Fraction(4, 5), 10), ("auth", Fraction(4, 5), 10))


class _Recording(_HungCache):
    """Keeps every scenario a battery hands it, and runs none."""

    def __init__(self):
        super().__init__()
        self.scenarios = []

    def run(self, scenario):
        self.scenarios.append(scenario)
        return super().run(scenario)


def _protocol_scenarios():
    cache = _Recording()
    verify_protocols(seeds=1, cache=cache)
    return cache.scenarios


_ROUND_TRIPS = {
    # each library adversary in both modes, under a global and a local prediction
    "trials": lambda: [
        harness._trial(("round_trip", 0, mode, alpha, n, adv_name, 0), 3, adv_name,
                       "random", predict, unique=True)
        for mode, alpha, n in _TWO_CELLS for adv_name in LIBRARY
        for predict in (lambda config, rng: frozenset(config.honest),
                        functools.partial(harness._local_prediction, "noisy"))],
    "impossibility": lambda: [sc for point in IMPOSSIBILITY_POINTS
                              for sc in build_impossibility_scenarios(*point)],
    "protocols": _protocol_scenarios,
}


@pytest.mark.parametrize("source", _ROUND_TRIPS)
def test_scenarios_survive_a_json_round_trip(source):
    scenarios = _ROUND_TRIPS[source]()
    assert scenarios
    for sc in scenarios:
        assert Scenario.from_json(json.loads(json.dumps(sc.to_json()))) == sc


# sha256 of each slice's canonical JSON or CSV.
# Any change to trial seeds, rng order, scenario construction, violation
# records or report fields shows up here.
_DIGESTS = {
    "transcripts":
        "640179f5fe9664e8df0b019613c1158f26a54f257c0618fa6d3c478dd3dac0de",
    "dolev_strong":
        "2d2b61eb234431e264fff569ab513dc3d4d07836ccd4b87472d6949d59728152",
    "persona_views":
        "b50458441c1708adeddf5476289bb2ff085642407ef68733058b59b23c1923ca",
    "eta_predictions":
        "6bca9dc0b05d7bc45db813f696cd5c3622ebab81eeb50030f62ec0e19d03a881",
    "consistency":
        "f45cca98dc409c6e1f22b28bef06102df8db50d06c92c44df5b08bdf382ef206",
    "robustness":
        "5bad09872e813e6506ff7c69fd621531e565620bbd06c0e9532dfbe283deacc3",
    "smoothness":
        "555d8464766117f94ed50bd502dac59c33d2dae1e160fac25e5ea3fde4f9aaf0",
    "local":
        "07d638cbadff6c0eb36cb8002690aa0043567a6c2f858f268df097ba8b455fe0",
    "protocols":
        "82c1e5b06269cccb04b8d556b45888fdeafd7387a5e0e25791bf714138834cdc",
    "sweep_nonauth":
        "93636b16f1b49e1becba34cfd34ff280271669c476f4094b56a763e273fdb931",
    "sweep_auth":
        "5454ec43535a87385d5851089c4ca2558a99e832a16ca3944bb2ac50020d2464",
    "violations_consistency":
        "6832138b5e8d516a828e9da61f3339f19666cfa7abd266f84abb8e52b4a8cb69",
    "violations_robustness":
        "1ffc9480edd76ec32189f6fe76fd69ee3d0c0ce0e123f368433d04a7f1aabf84",
    "violations_smoothness":
        "43a70e8672789e643db07bdce44460b70f2bc641b8fe17e2aac6ab5b8414791a",
    "violations_local":
        "23579d1e94588d99a431de49023dbeb784bfd0f4c16ea3e90b00fc644a3ae4df",
    "violations_protocols":
        "920b724a32469cf3996b606f5a938c664c752f72c3d881d7e0337ea509a772b5",
}


def _transcript_runs() -> str:
    """Decisions and honest transcripts of every impossibility configuration
    and of one persona-heavy trial per library adversary on two cells."""
    scenarios = [sc for point in IMPOSSIBILITY_POINTS
                 for sc in build_impossibility_scenarios(*point)]
    for mode, alpha, n in _TWO_CELLS:
        f = consistency_bound(mode, alpha, n)
        for adv_name in library_names(n - f):
            scenarios.append(harness._trial(
                ("transcripts", 0, mode, alpha, n, adv_name), f, adv_name,
                "half_split", lambda config, rng: frozenset(range(1, config.n + 1))))
    return _runs_json(scenarios)


def _dolev_strong_runs() -> str:
    """Decisions and honest transcripts of bare signed broadcast and
    agreement runs at m = 4, 7 and 10. The order of one round's relays is
    part of these bytes: dolev_strong_ba at m = 7 with faulty {1, 7} under
    split_brain, and at m = 10 with faulty {1} under noise, change if a
    round's relays are not sorted by broadcast sender."""
    scenarios = []
    for m in (4, 7, 10):
        for protocol in ("dolev_strong_broadcast", "dolev_strong_ba"):
            for faulty in (set(), {1}, {m}, {1, m}):
                honest = sorted(set(range(1, m + 1)) - faulty)
                for unanimous in (True, False):
                    inputs = {i: 1 if unanimous else i % 2 for i in honest}
                    config = Configuration(m, frozenset(faulty), inputs)
                    for adv_name in library_names(len(honest)):
                        if faulty or adv_name == "silent":
                            scenarios.append(Scenario(
                                alpha=Fraction(3, 4), config=config,
                                prediction=None,
                                adversary=materialize_adversary(adv_name, config),
                                seed=1, protocol=protocol))
    return _runs_json(scenarios)


def _persona_view_runs() -> str:
    """Decisions and honest transcripts of both wrappers at n = 16 with
    faulty {1, 2, 3, 4} under crash, replay_one and split_brain. Each
    attack runs once with the personas on the scenario's prediction, so
    that many persona views equal an honest node's inbox, and once with a
    spoofed prediction that gives them another active set, so that many
    do not."""
    n, faulty = 16, frozenset({1, 2, 3, 4})
    honest = sorted(set(range(1, n + 1)) - faulty)
    spoofed = frozenset(range(1, 9))
    scenarios = []
    for alpha, protocol in ((Fraction(3, 4), "auth_pred_ba"), (Fraction(3, 5), "pred_ba")):
        for prediction in (frozenset(range(1, n + 1)), frozenset(honest)):
            for unanimous in (True, False):
                inputs = {i: 1 if unanimous else i % 2 for i in honest}
                config = Configuration(n, faulty, inputs)
                attacks = [materialize_adversary(name, config)
                           for name in ("crash", "replay_one", "split_brain")]
                attacks += [
                    persona_network({"w": {c: (0, spoofed) for c in faulty}},
                                    emission=[("w", None, honest)], cutoff=2),
                    replay_honest(1, spoofed),
                    split_brain((honest[:6], honest[6:]), 0, 1, spoofed),
                ]
                for adversary in attacks:
                    scenarios.append(Scenario(
                        alpha=alpha, config=config,
                        prediction=prediction, adversary=adversary, seed=1,
                        protocol=protocol))
    return _runs_json(scenarios)


def _eta_predictions() -> str:
    """Every exact-error prediction of every split on both flagships, with
    f = theoretical_smoothness(eta) faulty ids in each placement."""
    rng = random.Random(0)
    picks = []
    for mode, alpha, n in FLAGSHIPS:
        for eta in range(n + 1):
            f = theoretical_smoothness(mode, alpha, n, eta)
            for placement in PLACEMENTS:
                faulty = make_faulty(n, f, placement, rng)
                config = Configuration(n, faulty, dict.fromkeys(
                    sorted(set(range(1, n + 1)) - faulty), 0))
                picks.extend(sorted(build_eta_prediction(config, eta, split))
                             for split in ETA_SPLITS)
    return json.dumps(picks, separators=(",", ":"))


def _runs_json(scenarios) -> str:
    docs = []
    for sc in scenarios:
        outcome, transcripts = run_simulation(sc)
        docs.append({"decisions": sorted(outcome.decisions.items()),
                     "decided_round": outcome.decided_round,
                     "transcripts": [t.to_json() for t in transcripts]})
    return json.dumps(docs, sort_keys=True, separators=(",", ":"))


_SLICES = {
    "transcripts": _transcript_runs,
    "dolev_strong": _dolev_strong_runs,
    "persona_views": _persona_view_runs,
    "eta_predictions": _eta_predictions,
    "consistency": lambda: verify_consistency(seeds=3, grid=_SMALL_GRID),
    "robustness": lambda: verify_robustness(seeds=4, grid=_SMALL_GRID),
    "smoothness": lambda: verify_smoothness(grid=_N10_FLAGSHIPS, seeds=2,
                                            sweep_trials=2, scan_margin=1),
    "local": lambda: verify_local(seeds=16),
    "protocols": lambda: verify_protocols(seeds=2),
    "sweep_nonauth": lambda: sweep_to_csv(sweep("nonauth", Fraction(3, 5), 10,
                                                trials=3)),
    "sweep_auth": lambda: sweep_to_csv(sweep("auth", Fraction(4, 5), 10, trials=3)),
    "violations_consistency": lambda: verify_consistency(
        seeds=1, grid=_TWO_CELLS, cache=_HungCache()),
    "violations_robustness": lambda: verify_robustness(
        seeds=1, grid=_TWO_CELLS, cache=_HungCache()),
    "violations_smoothness": lambda: verify_smoothness(
        grid=_N10_FLAGSHIPS[1:], seeds=1, sweep_trials=1, scan_margin=1,
        cache=_HungCache()),
    "violations_local": lambda: verify_local(seeds=1, cache=_HungCache()),
    "violations_protocols": lambda: verify_protocols(seeds=1, cache=_HungCache()),
}


def _digest(result) -> str:
    if isinstance(result, dict):
        result = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(result.encode()).hexdigest()


def test_small_slices_are_byte_stable():
    digests = {name: _digest(run()) for name, run in _SLICES.items()}
    assert digests == _DIGESTS


if __name__ == "__main__":
    # Print every slice's current digest as a _DIGESTS literal, for retaking
    # the digests after a deliberate byte change:
    #   PYTHONPATH=src python tests/test_harness.py
    print("_DIGESTS = {")
    for name, run in _SLICES.items():
        print(f'    "{name}":\n        "{_digest(run())}",')
    print("}")
