"""Wrapper checks: active-set construction, schedules, adoption, guarantees."""

from fractions import Fraction

import pytest

from byzsim.adversary import replay_honest, silent, split_brain
from byzsim.core import (
    Configuration,
    consistency_bound,
    robustness_bound,
    theoretical_smoothness,
)
from byzsim.predba import ActiveSet, build_active_set
from byzsim.simnet import Scenario, run_simulation


def _run(mode, alpha, n, faulty, inputs, prediction, adversary=None, seed=0):
    sc = Scenario(
        n=n, mode=mode, alpha=alpha,
        config=Configuration(n, frozenset(faulty), inputs),
        prediction=prediction, adversary=adversary or silent(), seed=seed,
        protocol="pred_ba" if mode == "nonauth" else "auth_pred_ba",
    )
    outcome, _ = run_simulation(sc, record_transcripts=False)
    return outcome


# ---------------------------------------------------------------------------
# Active-set construction
# ---------------------------------------------------------------------------


def test_active_set_pads_around_existing_members():
    aset = build_active_set({3, 7}, Fraction(4, 5), 20, "nonauth")
    assert aset.members == (1, 2, 3, 4, 7)
    assert aset.fault_param == 2
    assert aset.min_size == 5


def test_active_set_large_prediction_taken_as_is():
    aset = build_active_set(set(range(1, 7)), Fraction(4, 5), 20, "nonauth")
    assert aset.members == (1, 2, 3, 4, 5, 6)
    assert aset.fault_param == 2


def test_active_set_empty_prediction_auth():
    aset = build_active_set(frozenset(), Fraction(3, 4), 16, "auth")
    assert aset.members == (1, 2, 3, 4, 5, 6, 7)
    assert aset.fault_param == 4


def test_active_set_probe_advances_past_present_ids():
    # a prediction already holding the low ids must not stall the padding
    aset = build_active_set({1, 2}, Fraction(4, 5), 20, "nonauth")
    assert aset.members == (1, 2, 3, 4, 5)


def test_active_set_threshold_is_exact_rational():
    # nonauth threshold 3/2*(1-a)*n - 1 = 5 exactly at a=4/5, n=20: a
    # four-member prediction pads to five, a five-member one stays put
    assert len(build_active_set({2, 4, 6, 8}, Fraction(4, 5), 20, "nonauth").members) == 5
    assert build_active_set({2, 4, 6, 8, 10}, Fraction(4, 5), 20, "nonauth").members == (2, 4, 6, 8, 10)


def test_active_set_rejects_foreign_ids():
    with pytest.raises(ValueError):
        build_active_set({21}, Fraction(4, 5), 20, "nonauth")


def test_active_set_is_pure():
    a = build_active_set({3, 7}, Fraction(4, 5), 20, "nonauth")
    b = build_active_set({3, 7}, Fraction(4, 5), 20, "nonauth")
    assert a == b == ActiveSet(a.members, a.fault_param, a.min_size)
    assert 3 in a and 5 not in a


@pytest.mark.parametrize("mode,alpha,n", [
    ("nonauth", Fraction(1, 2), 9), ("nonauth", Fraction(4, 5), 40),
    ("auth", Fraction(1, 2), 9), ("auth", Fraction(4, 5), 30),
])
def test_adoption_threshold_is_majority_of_l(mode, alpha, n):
    # |L| - t + 1 > |L|/2 for both t formulas, so at most one value can be
    # adopted by a passive node in any run
    for pred in (frozenset(), frozenset({1, 2}), frozenset(range(1, n + 1))):
        aset = build_active_set(pred, alpha, n, mode)
        size, t = len(aset.members), aset.fault_param
        assert 2 * (size - t + 1) > size


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def test_nonauth_wrapper_decides_at_3t_plus_1():
    n = 20
    pred = frozenset(range(1, n + 1))
    t = build_active_set(pred, Fraction(4, 5), n, "nonauth").fault_param
    out = _run("nonauth", Fraction(4, 5), n, set(),
               {i: 0 for i in range(1, n + 1)}, pred)
    assert out.decided_round == 3 * t + 1
    assert set(out.decisions.values()) == {0}


def test_auth_wrapper_decides_at_t_plus_2():
    n = 12
    pred = frozenset(range(1, n + 1))
    t = build_active_set(pred, Fraction(3, 4), n, "auth").fault_param
    out = _run("auth", Fraction(3, 4), n, set(),
               {i: 1 for i in range(1, n + 1)}, pred)
    assert out.decided_round == t + 2
    assert set(out.decisions.values()) == {1}


# ---------------------------------------------------------------------------
# End-to-end guarantees at the three bound points
# ---------------------------------------------------------------------------


def test_nonauth_trivial_consistency():
    out = _run("nonauth", Fraction(1, 2), 4, set(),
               {1: 0, 2: 0, 3: 0, 4: 0}, frozenset({1, 2, 3, 4}))
    assert set(out.decisions.values()) == {0}


def test_nonauth_consistency_at_the_bound():
    n, alpha = 20, Fraction(4, 5)
    f = consistency_bound("nonauth", alpha, n)
    assert f == 16
    faulty = frozenset(range(n - f + 1, n + 1))
    honest = sorted(set(range(1, n + 1)) - faulty)
    inputs = {i: i % 2 for i in honest}
    out = _run("nonauth", alpha, n, faulty, inputs, frozenset(honest),
               adversary=split_brain((tuple(honest[:2]), tuple(honest[2:])), 0, 1))
    assert out.termination and out.agreement
    assert set(out.decisions.values()) <= {0, 1}
    assert next(iter(set(out.decisions.values()))) in set(inputs.values())


def test_nonauth_robustness_with_hostile_prediction():
    n, alpha = 20, Fraction(4, 5)
    f = robustness_bound("nonauth", alpha, n)
    assert f == 1
    faulty = frozenset({20})
    inputs = {i: 1 for i in range(1, 20)}
    out = _run("nonauth", alpha, n, faulty, inputs, faulty,
               adversary=replay_honest(0))
    assert out.agreement and out.validity and out.termination
    assert set(out.decisions.values()) == {1}


def test_auth_trivial_consistency():
    out = _run("auth", Fraction(2, 3), 6, set(),
               {i: 1 for i in range(1, 7)}, frozenset(range(1, 7)))
    assert set(out.decisions.values()) == {1}


def test_auth_consistency_at_the_bound():
    n, alpha = 30, Fraction(4, 5)
    f = consistency_bound("auth", alpha, n)
    assert f == 24
    faulty = frozenset(range(n - f + 1, n + 1))
    honest = sorted(set(range(1, n + 1)) - faulty)
    out = _run("auth", alpha, n, faulty, {i: 1 for i in honest},
               frozenset(honest), adversary=replay_honest(0))
    assert out.agreement and out.validity and out.termination
    assert set(out.decisions.values()) == {1}


def test_auth_robustness_with_hostile_prediction():
    n, alpha = 30, Fraction(4, 5)
    f = robustness_bound("auth", alpha, n)
    assert f == 5
    faulty = frozenset(range(n - f + 1, n + 1))
    honest = sorted(set(range(1, n + 1)) - faulty)
    out = _run("auth", alpha, n, faulty, {i: 0 for i in honest}, faulty,
               adversary=replay_honest(1))
    assert out.agreement and out.validity and out.termination
    assert set(out.decisions.values()) == {0}


# ---------------------------------------------------------------------------
# Passive behavior
# ---------------------------------------------------------------------------


def test_passives_fall_back_to_own_input_when_actives_fail():
    # L = {1..5}, t = 2, adopt threshold 4; three faulty actives stay
    # silent, so the two honest actives cannot clear it and the passives
    # keep their own inputs (fault count far beyond any guarantee)
    n, alpha = 8, Fraction(1, 2)
    aset = build_active_set(frozenset(), alpha, n, "nonauth")
    assert aset.members == (1, 2, 3, 4, 5) and aset.fault_param == 2
    faulty = frozenset({1, 2, 3})
    inputs = {4: 0, 5: 0, 6: 1, 7: 0, 8: 1}
    out = _run("nonauth", alpha, n, faulty, inputs, frozenset())
    assert out.termination
    for passive in (6, 7, 8):
        assert out.decisions[passive] == inputs[passive]


def test_passives_adopt_the_actives_value():
    # perfect prediction, no faults: passives exist only if P misses honest
    # nodes, so use a prediction that names a strict subset of the honest
    n, alpha = 8, Fraction(1, 2)
    pred = frozenset({1, 2, 3, 4, 5})
    inputs = {i: 1 if i <= 5 else 0 for i in range(1, 9)}
    out = _run("nonauth", alpha, n, set(), inputs, pred)
    assert out.termination and out.agreement
    # actives decide 1 unanimously and all passives adopt it over their own 0
    assert set(out.decisions.values()) == {1}


# ---------------------------------------------------------------------------
# Known defect: the auth wrapper below its smoothness curve
# ---------------------------------------------------------------------------


# alpha = 4/5, n = 30, faulty 1..23, P = {24..28}: the prediction misses the
# honest ids 29 and 30, so eta = eta_H = 2 and the curve promises f = 23.
P0_N, P0_ALPHA = 30, Fraction(4, 5)
P0_FAULTY, P0_PREDICTION = range(1, 24), frozenset(range(24, 29))


def test_p0_counterexample_sits_on_the_auth_curve():
    assert theoretical_smoothness("auth", P0_ALPHA, P0_N, 2) == len(P0_FAULTY)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP P0: the auth active set pads P = {24..28} with the faulty ids "
    "1..6, so 6 of its 11 members are faulty against an inner budget of 5"))
@pytest.mark.parametrize("bit, adversary", [(0, replay_honest(1)), (1, silent())],
                         ids=["replay_honest", "silent"])
def test_auth_wrapper_meets_smoothness_at_p0_counterexample(bit, adversary):
    out = _run("auth", P0_ALPHA, P0_N, P0_FAULTY,
               {i: bit for i in range(24, P0_N + 1)}, P0_PREDICTION, adversary)
    assert out.termination and out.agreement and out.validity
    assert set(out.decisions.values()) == {bit}


# ---------------------------------------------------------------------------
# Empty active set: a padding target at or below zero
# ---------------------------------------------------------------------------


# (1-alpha)*n is so small here that the padding target is <= 0, so P = {}
# would give an empty active set: nobody sends an adopt message and every
# node keeps its own input in round 1. The nonauth target is clamped to one
# member, who runs a one-phase Phase King and is adopted in round 4.
@pytest.mark.parametrize("mode, alpha, n", [
    ("nonauth", Fraction(4, 5), 3),
    ("nonauth", Fraction(1), 10),
    ("nonauth", Fraction(17, 20), 4),
    pytest.param("auth", Fraction(1), 10, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP P0/P1: the auth target 2*(1-alpha)*n - 1 is -1 here and the auth "
        "active set stays empty; P0's decision rule covers the auth side"))),
])
def test_empty_prediction_with_no_faults_reaches_agreement(mode, alpha, n):
    out = _run(mode, alpha, n, set(), {i: i % 2 for i in range(1, n + 1)}, frozenset())
    assert out.termination and out.agreement and out.validity
    assert out.decided_round == 4
