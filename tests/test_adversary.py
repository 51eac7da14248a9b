"""Adversary constructors, strategy materialization, attack-family builders."""

import json
from fractions import Fraction

import pytest

from byzsim.adversary import (
    build_impossibility_scenarios,
    build_strategy,
    crash_after,
    persona_network,
    random_noise,
    replay_honest,
    silent,
    split_brain,
)
from byzsim.core import Configuration
from byzsim.simnet import AdversarySpec, ForgeryError, Scenario, run_simulation


def _scenario(n, faulty, inputs, adversary, prediction=None, alpha=Fraction(1, 2),
              protocol="pred_ba", seed=0):
    if prediction is None:
        prediction = frozenset(sorted(set(range(1, n + 1)) - set(faulty)))
    return Scenario(alpha=alpha,
                    config=Configuration(n, frozenset(faulty), inputs),
                    prediction=prediction, adversary=adversary,
                    seed=seed, protocol=protocol)


# ---------------------------------------------------------------------------
# Constructors produce serializable, validated specs
# ---------------------------------------------------------------------------


def test_constructor_params():
    assert silent() == AdversarySpec("silent", {})
    assert crash_after(2, {5: 1}).params == {"round": 2, "inputs": {"5": 1}}
    assert random_noise(7).params == {"seed": 7}
    assert replay_honest(1, {3, 1}).params == {"input": 1, "pred": [1, 3]}
    sb = split_brain(((2, 1), (4, 3)), 0, 1)
    assert sb.params["a"] == [1, 2] and sb.params["b"] == [3, 4]
    assert sb.params["value_a"] == 0 and sb.params["value_b"] == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        crash_after(-1)
    with pytest.raises(ValueError):
        replay_honest(2)
    with pytest.raises(ValueError):
        split_brain(((1, 2), (2, 3)), 0, 1)
    with pytest.raises(ValueError):
        split_brain(((1,), (2,)), 0, 2)


def test_persona_network_params_are_json_safe():
    spec = persona_network(
        {"w": {5: (1, frozenset({1, 2})), 6: (0, None)}},
        feed_overrides=[("w", [5], "w")],
        emission=[("w", [5, 6], [1, 2, 3])],
        cutoff=4,
    )
    rt = json.loads(json.dumps(spec.params))
    assert rt == spec.params
    assert rt["groups"]["w"]["5"] == {"input": 1, "pred": [1, 2]}


def test_build_strategy_rejects_unknown_names():
    sc = _scenario(4, {4}, {1: 0, 2: 0, 3: 0}, silent())
    with pytest.raises(ValueError):
        build_strategy(AdversarySpec("entropy_daemon", {}), sc)


def test_build_strategy_rejects_faulty_partition_sides():
    sc = _scenario(4, {4}, {1: 0, 2: 0, 3: 0},
                   split_brain(((1,), (4,)), 0, 1))
    with pytest.raises(ValueError):
        build_strategy(sc.adversary, sc)


def test_emission_rule_naming_honest_sender_is_forgery():
    spec = persona_network({"w": {1: (0, None), 5: (0, None)}},
                           emission=[("w", [1, 5], [2, 3])])
    sc = _scenario(5, {5}, {i: 0 for i in range(1, 5)}, spec)
    with pytest.raises(ForgeryError):
        run_simulation(sc, record_transcripts=False)


# ---------------------------------------------------------------------------
# Behavioral identities between the sugared forms
# ---------------------------------------------------------------------------


def test_crash_at_round_zero_is_silence():
    inputs = {1: 0, 2: 1, 3: 0, 4: 1}
    base = _scenario(6, {5, 6}, inputs, silent())
    crashed = _scenario(6, {5, 6}, inputs, crash_after(0))
    out_a, tr_a = run_simulation(base)
    out_b, tr_b = run_simulation(crashed)
    assert out_a == out_b
    assert tr_a == tr_b


def test_crash_never_reached_is_honest_behavior():
    # personas run the real protocol code, so an uncrashed crash adversary
    # with matching pretended inputs is indistinguishable from honesty
    inputs = {1: 0, 2: 1, 3: 0, 4: 1}
    crashed = _scenario(6, {5, 6}, inputs, crash_after(100, {5: 1, 6: 0}),
                        prediction=frozenset(range(1, 7)))
    honest = _scenario(6, set(), inputs | {5: 1, 6: 0}, silent(),
                       prediction=frozenset(range(1, 7)))
    out_a, _ = run_simulation(crashed, record_transcripts=False)
    out_b, _ = run_simulation(honest, record_transcripts=False)
    assert out_a.decided_round == out_b.decided_round
    for i in (1, 2, 3, 4):
        assert out_a.decisions[i] == out_b.decisions[i]


def test_split_brain_with_equal_faces_is_replay():
    inputs = {1: 0, 2: 1, 3: 0, 4: 1}
    replay = _scenario(6, {5, 6}, inputs, replay_honest(1))
    sb = _scenario(6, {5, 6}, inputs, split_brain(((1, 2), (3, 4)), 1, 1))
    out_a, tr_a = run_simulation(replay)
    out_b, tr_b = run_simulation(sb)
    assert out_a == out_b
    assert tr_a == tr_b


def test_split_brain_faces_reach_their_sides():
    # an equivocating broadcast sender is caught: both values get extracted
    # and everyone lands on the default, unlike either single-faced replay
    def run(adv, value=None):
        sc = Scenario(alpha=Fraction(1, 2),
                      config=Configuration(4, frozenset({4}),
                                           {1: 0, 2: 0, 3: 0}),
                      prediction=None, adversary=adv, seed=0,
                      protocol="dolev_strong_broadcast",
                      params={"sender": 4, "t": 2})
        out, _ = run_simulation(sc, record_transcripts=False)
        return set(out.decisions.values())

    assert run(replay_honest(1)) == {1}
    assert run(split_brain(((1, 2), (3,)), 0, 1)) == {0}


def test_noise_is_survivable():
    inputs = {i: 1 for i in range(1, 8)}
    sc = _scenario(8, {8}, inputs, random_noise(3), alpha=Fraction(4, 5))
    out, _ = run_simulation(sc, record_transcripts=False)
    assert out.termination and out.agreement and out.validity
    assert set(out.decisions.values()) == {1}


# ---------------------------------------------------------------------------
# Attack-family builders
# ---------------------------------------------------------------------------


def test_family_layout_three_way_partition():
    cfgs = build_impossibility_scenarios("T4.1", Fraction(4, 5), 20)
    assert len(cfgs) == 3
    base = cfgs[0]
    assert base.mode == "nonauth" and base.protocol == "pred_ba"
    assert base.prediction == frozenset({1, 2, 3, 4})
    assert base.config.faulty == frozenset(range(5, 21))
    assert {base.config.inputs[i] for i in (1, 2)} == {0}
    assert {base.config.inputs[i] for i in (3, 4)} == {1}
    assert cfgs[1].config.faulty == frozenset({3, 4})
    assert cfgs[2].config.faulty == frozenset({1, 2})


def test_family_layout_local_predictions():
    cfgs = build_impossibility_scenarios("T5.2", Fraction(1, 2), 8)
    assert len(cfgs) == 3
    local = cfgs[0].prediction
    assert isinstance(local, dict)
    assert local[1] == frozenset({1, 2, 3, 4})
    assert local[8] == frozenset({5, 6, 7, 8})
    assert cfgs[2].config.faulty == frozenset()


@pytest.mark.parametrize("theorem,alpha,n", [
    ("T4.1", Fraction(4, 5), 20),
    ("T4.2p1", Fraction(4, 5), 25),
    ("T4.2p2", Fraction(4, 5), 15),
    ("T4.2p3", Fraction(4, 5), 15),
    ("TC.4p1", Fraction(3, 4), 16),
    ("TC.4p2", Fraction(3, 4), 16),
    ("T5.2", Fraction(1, 2), 8),
])
def test_family_scenarios_round_trip_and_run(theorem, alpha, n):
    cfgs = build_impossibility_scenarios(theorem, alpha, n)
    for sc in cfgs:
        assert Scenario.from_json(sc.to_json()) == sc
        out, _ = run_simulation(sc, record_transcripts=False)
        assert out.termination  # the wrappers always stop; guarantees break


def test_family_demonstrates_a_violation():
    cfgs = build_impossibility_scenarios("T5.2", Fraction(1, 2), 8)
    outcomes = [run_simulation(sc, record_transcripts=False)[0] for sc in cfgs]
    assert any(not (o.agreement and o.validity) for o in outcomes)


@pytest.mark.parametrize("theorem,alpha,n", [
    ("T4.1", Fraction(4, 5), 25),    # (1-alpha)*n odd
    ("T4.2p1", Fraction(4, 5), 20),  # (1-alpha)*n even
    ("TC.4p1", Fraction(2, 3), 16),  # (1-alpha)*n not integral
    ("T5.2", Fraction(1, 2), 7),     # odd n
])
def test_infeasible_points_are_rejected(theorem, alpha, n):
    with pytest.raises(ValueError, match="infeasible"):
        build_impossibility_scenarios(theorem, alpha, n)


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown theorem"):
        build_impossibility_scenarios("T9.9", Fraction(1, 2), 8)
