"""Harness plumbing: trial construction, check logic, batteries, CSV output."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import byzsim.harness as harness
from byzsim.adversary import build_impossibility_scenarios, silent
from byzsim.core import (
    Configuration,
    compute_error,
    consistency_bound,
    theoretical_smoothness,
)
from byzsim.harness import (
    CURVE_FIELDS,
    GRID_ALPHAS,
    IMPOSSIBILITY_POINTS,
    LIBRARY,
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
    return Scenario(n=config.n, mode="nonauth", alpha=Fraction(3, 5),
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
    assert library_names(9, include=("crash", "bogus")) == ("crash",)


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


@pytest.mark.parametrize("split", ["worst_case", "inverse", "balanced"])
@pytest.mark.parametrize("eta", [0, 1, 3, 5, 8])
def test_build_eta_prediction_total_is_exact(split, eta):
    cfg = _config(n=10, f=3)
    pred = build_eta_prediction(cfg, eta, split)
    assert compute_error(cfg, pred).total == eta


def test_build_eta_prediction_split_shapes():
    cfg = _config(n=10, f=3)
    wc = compute_error(cfg, build_eta_prediction(cfg, 4, "worst_case"))
    inv = compute_error(cfg, build_eta_prediction(cfg, 4, "inverse"))
    bal = compute_error(cfg, build_eta_prediction(cfg, 4, "balanced"))
    assert (wc.eta_F, wc.eta_H) == (3, 1)
    assert (inv.eta_F, inv.eta_H) == (0, 4)
    assert (bal.eta_F, bal.eta_H) == (2, 2)
    with pytest.raises(ValueError):
        build_eta_prediction(cfg, 11, "worst_case")
    with pytest.raises(ValueError):
        build_eta_prediction(cfg, 2, "sideways")


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
    rep = verify_smoothness(flagships=(("nonauth", Fraction(3, 5), 10),),
                            seeds=2, sweep_trials=2, scan_margin=1)
    assert rep["ok"] and rep["violation_count"] == 0
    assert rep["pointwise_below"] == []


def test_verify_local_small_cell():
    rep = verify_local(seeds=2, grid=(("nonauth", Fraction(3, 5), 12),))
    assert rep["ok"]
    assert rep["t52_demonstrated"]


def test_verify_protocols_small():
    rep = verify_protocols(pk_seeds=2, ds_seeds=2)
    assert rep["ok"] and rep["violation_count"] == 0
    assert rep["ledger_fired"] is False


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


def test_empirical_resilience_skips_fault_counts_no_adversary_can_test():
    # At f = n - 1 one honest node is left, which split_brain cannot target.
    assert theoretical_smoothness("auth", Fraction(4, 5), 4, 0) == 3
    assert empirical_resilience("auth", Fraction(4, 5), 4, 0, trials=2,
                                adversaries=("split_brain",)) == 2


def test_impossibility_suite_families():
    for theorem, alpha, n in IMPOSSIBILITY_POINTS:
        rep = run_impossibility_suite(theorem, alpha, n)
        assert rep["demonstrated"], f"{theorem} produced no violation"
        assert len(rep["configs"]) == 3
        assert rep["elapsed_s"] < 60


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

# sha256 of each slice's canonical JSON (reports without elapsed_s) or CSV.
# Any change to trial seeds, rng order, scenario construction, violation
# records or report fields shows up here.
_DIGESTS = {
    "transcripts":
        "640179f5fe9664e8df0b019613c1158f26a54f257c0618fa6d3c478dd3dac0de",
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
        "98d6aab5f2dcd2dcd7d2d01bed15b322ccd39424e186db6763fbd7fba885b303",
    "violations_robustness":
        "f6ab1a453c15c97148a688a74dc66c7076fb7b85c74af2efee86f062f2d96023",
    "violations_smoothness":
        "1e3586dab2e402f032653a4768e81424bebfbbe75bcc92d13c7eb3e060263a08",
    "violations_local":
        "1a365b66e133ef3fbf4621543cee4b97fc1d9183bd97a4097415c5e5ecaa26d4",
    "violations_protocols":
        "3476b11a1604f46c043e5cafdb008ad34af7d162548a0991eaaeb23475d4ff73",
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
    docs = []
    for sc in scenarios:
        outcome, transcripts = run_simulation(sc)
        docs.append({"decisions": sorted(outcome.decisions.items()),
                     "decided_round": outcome.decided_round,
                     "transcripts": [t.to_json() for t in transcripts]})
    return json.dumps(docs, sort_keys=True, separators=(",", ":"))


_SLICES = {
    "transcripts": _transcript_runs,
    "consistency": lambda: verify_consistency(seeds=3, grid=_SMALL_GRID),
    "robustness": lambda: verify_robustness(seeds=4, grid=_SMALL_GRID),
    "smoothness": lambda: verify_smoothness(flagships=_N10_FLAGSHIPS, seeds=2,
                                            sweep_trials=2, scan_margin=1),
    "local": lambda: verify_local(seeds=16),
    "protocols": lambda: verify_protocols(pk_seeds=2, ds_seeds=2),
    "sweep_nonauth": lambda: sweep_to_csv(sweep("nonauth", Fraction(3, 5), 10,
                                                trials=3)),
    "sweep_auth": lambda: sweep_to_csv(sweep("auth", Fraction(4, 5), 10, trials=3)),
    "violations_consistency": lambda: verify_consistency(
        seeds=1, grid=_TWO_CELLS, cache=_HungCache()),
    "violations_robustness": lambda: verify_robustness(
        seeds=1, grid=_TWO_CELLS, cache=_HungCache()),
    "violations_smoothness": lambda: verify_smoothness(
        flagships=_N10_FLAGSHIPS[1:], seeds=1, sweep_trials=1, scan_margin=1,
        cache=_HungCache()),
    "violations_local": lambda: verify_local(seeds=1, cache=_HungCache()),
    "violations_protocols": lambda: verify_protocols(pk_seeds=1, ds_seeds=1,
                                                     cache=_HungCache()),
}


def _digest(result) -> str:
    if isinstance(result, dict):
        result = json.dumps({k: v for k, v in result.items() if k != "elapsed_s"},
                            sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(result.encode()).hexdigest()


def test_small_slices_are_byte_stable():
    digests = {name: _digest(run()) for name, run in _SLICES.items()}
    assert digests == _DIGESTS
