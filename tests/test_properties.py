"""Property checks over the pure helpers (codec, curves, exact-error predictions)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from byzsim.core import (
    Configuration,
    compute_error,
    consistency_bound,
    robustness_bound,
    theoretical_impossibility,
    theoretical_smoothness,
)
from byzsim.harness import ETA_SPLITS, build_eta_prediction
from byzsim.predba import build_active_set
from byzsim.simnet import payload_from_json, payload_to_json

payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


@given(payloads)
def test_payload_codec_round_trips(payload):
    assert payload_from_json(payload_to_json(payload)) == payload


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, type(None))):
        return x
    raise TypeError(f"payload element {x!r} is not wire-encodable")


def _reference(payload) -> str:
    """The canonical form as json.dumps writes it."""
    return json.dumps(_jsonable(payload), separators=(",", ":"), sort_keys=True)


# Strings that need escapes: quotes, backslashes, control characters, non-ASCII.
_ODD_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u2603\U0001f600az'),
                    max_size=6) | st.text(max_size=6)
wire_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60) | _ODD_TEXT,
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=16,
)


@settings(max_examples=300)
@given(wire_payloads)
def test_payload_encoder_matches_json_dumps(payload):
    text = payload_to_json(payload)
    assert text == _reference(payload)
    assert payload_from_json(text) == payload


@st.composite
def payloads_with_one_bad_element(draw):
    bad = draw(st.floats() | st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
               | st.binary(max_size=3))
    payload = bad
    for _ in range(draw(st.integers(0, 4))):
        left = draw(st.lists(wire_payloads, max_size=2))
        right = draw(st.lists(wire_payloads, max_size=2))
        payload = (*left, payload, *right)
    return payload


@given(payloads_with_one_bad_element())
def test_payload_encoder_rejects_what_json_dumps_would_not_get(payload):
    with pytest.raises(TypeError) as expected:
        _reference(payload)
    with pytest.raises(TypeError) as got:
        payload_to_json(payload)
    assert str(got.value) == str(expected.value)


def _alphas(mode):
    lo = Fraction(1, 3) if mode == "nonauth" else Fraction(1, 2)
    return (
        st.fractions(min_value=lo, max_value=1)
        .filter(lambda a: a.denominator <= 12)
    )


modes = st.sampled_from(["nonauth", "auth"])


@st.composite
def curve_points(draw):
    mode = draw(modes)
    alpha = draw(_alphas(mode))
    n = draw(st.integers(min_value=1, max_value=60))
    return mode, alpha, n


@given(curve_points())
@settings(deadline=None)
def test_smoothness_curve_shape(point):
    # No monotonicity assertion: the published formulas clamp at zero, and
    # at low trust the clamped first piece can sit below the constant tail,
    # so the pointwise-max curve is allowed to dip and recover.
    mode, alpha, n = point
    cons = consistency_bound(mode, alpha, n)
    values = [theoretical_smoothness(mode, alpha, n, eta) for eta in range(n + 1)]
    assert all(isinstance(v, int) and 0 <= v <= cons for v in values)
    # the zero-error piece is empty in the degenerate alpha -> 1 corner
    live = (1 - alpha) * n >= 1 if mode == "nonauth" else alpha < 1
    if live:
        assert values[0] == cons
    assert values[-1] >= robustness_bound(mode, alpha, n)


@given(curve_points())
@settings(deadline=None)
def test_impossibility_curve_dominates_where_unconditional(point):
    mode, alpha, n = point
    for eta in range(n + 1):
        s = theoretical_smoothness(mode, alpha, n, eta)
        sbar, conditional = theoretical_impossibility(mode, alpha, n, eta)
        if sbar is not None and not conditional and s > 0:
            assert sbar > s


@st.composite
def eta_predictions(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    f = draw(st.integers(min_value=0, max_value=n))
    faulty = frozenset(draw(st.permutations(range(1, n + 1)))[:f])
    honest = set(range(1, n + 1)) - faulty
    return Configuration(n, faulty, {i: 0 for i in honest}), draw(st.sampled_from(ETA_SPLITS))


@given(eta_predictions())
@settings(deadline=None)
def test_eta_prediction_budget_always_exact(case):
    cfg, split = case
    f, h = len(cfg.faulty), len(cfg.honest)
    for eta in range(cfg.n + 1):
        pred = build_eta_prediction(cfg, eta, split)
        err = compute_error(cfg, pred)
        assert pred <= set(range(1, cfg.n + 1))
        assert err.total == eta
        assert err.eta_F == {"worst_case": min(eta, f),
                             "inverse": max(0, eta - h),
                             "balanced": min(max(eta // 2, eta - h), f)}[split]
        if split == "worst_case":
            # the lowest faulty ids are trusted, the lowest honest ids missed
            assert pred == (set(sorted(cfg.faulty)[:err.eta_F])
                            | set(sorted(cfg.honest)[err.eta_H:]))


@st.composite
def active_set_inputs(draw):
    mode = draw(modes)
    alpha = draw(_alphas(mode))
    n = draw(st.integers(min_value=1, max_value=40))
    size = draw(st.integers(min_value=0, max_value=n))
    pred = frozenset(draw(st.permutations(range(1, n + 1)))[:size])
    return mode, alpha, n, pred


@given(active_set_inputs())
@settings(deadline=None)
def test_active_set_invariants(case):
    mode, alpha, n, pred = case
    aset = build_active_set(pred, alpha, n, mode)
    members = set(aset.members)
    assert pred <= members <= set(range(1, n + 1))
    assert len(aset.members) == len(members)
    assert list(aset.members) == sorted(members)
    size, t = len(members), aset.fault_param
    if mode == "nonauth":
        assert 2 * size >= 3 * (1 - alpha) * n - 2
        assert t == -(-size // 3)
    else:
        assert size >= 2 * (1 - alpha) * n - 1
        assert t == -(-size // 2)
    if size:
        assert 2 * (size - t + 1) > size
