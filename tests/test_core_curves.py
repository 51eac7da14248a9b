"""Curve and error-measure checks.

The oracle below re-derives the bound curves independently of the package
(straight if-chains over exact Fractions) and the anchor dicts freeze values
computed by hand before the implementation existed. Anything the library
returns must match both.
"""

import math
from fractions import Fraction

import pytest

from byzsim.core import (
    Configuration,
    ErrorBreakdown,
    as_alpha,
    compute_error,
    compute_local_error,
    consistency_bound,
    curve_rows,
    robustness_bound,
    theoretical_impossibility,
    theoretical_smoothness,
)


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def _in(lo, hi, eta):
    return math.ceil(lo) <= eta <= math.floor(hi)


def oracle_smoothness(mode, a, n, eta):
    a = Fraction(a)
    vals = []
    if mode == "nonauth":
        if _in(0, (1 - a) * n - 1, eta):
            vals.append(a * n - eta)
        if _in((1 - a) * n - 1, (1 + a) * n / 4 + 1, eta):
            vals.append(n - 2 * eta - 1)
        if _in((1 + a) * n / 4 + 1, n, eta):
            vals.append((1 - a) * n / 2 - 1)
    else:
        # first piece right-open: at eta = 2(1-a)n exactly, the steeper
        # middle piece governs (the shallow value is not attainable there)
        if 0 <= eta < 2 * (1 - a) * n:
            vals.append(a * n - Fraction(eta, 2))
        if _in(2 * (1 - a) * n, 2 * a * n / 3, eta):
            vals.append(n - Fraction(3 * eta, 2) - 1)
        if _in(2 * a * n / 3, n, eta):
            vals.append((1 - a) * n - 1)
    assert vals, f"oracle: no piece at eta={eta}"
    return max(0, math.floor(max(vals)))


def oracle_impossibility(mode, a, n, eta):
    a = Fraction(a)
    vals = []  # (value, conditional)
    if mode == "nonauth":
        if _in(0, (1 - a) * n / 2, eta):
            vals.append((a * n + 1, False))
        if _in((1 - a) * n / 2, Fraction(n, 3), eta):
            vals.append((n - 2 * eta, False))
        if _in(Fraction(n, 3), a * n, eta):
            vals.append((Fraction(n, 2) - Fraction(eta, 2) - 2, True))
    else:
        if _in(0, (1 - a) * n, eta):
            vals.append((a * n + 1, False))
        if _in((1 - a) * n, a * n, eta):
            vals.append((n - eta, False))
    if not vals:
        return None, False
    value = max(v for v, _ in vals)
    flag = all(c for _, c in vals)
    return math.floor(value), flag


ORACLE_GRIDS = [
    ("nonauth", Fraction(4, 5), 40),
    ("auth", Fraction(4, 5), 30),
    ("nonauth", Fraction(1, 3), 15),
    ("nonauth", Fraction(1, 2), 21),
    ("nonauth", Fraction(1), 10),
    ("auth", Fraction(1, 2), 16),
    ("auth", Fraction(3, 4), 17),
    ("auth", Fraction(1), 9),
]


@pytest.mark.parametrize("mode,a,n", ORACLE_GRIDS)
def test_curves_match_oracle_everywhere(mode, a, n):
    for eta in range(n + 1):
        assert theoretical_smoothness(mode, a, n, eta) == oracle_smoothness(mode, a, n, eta)
        assert theoretical_impossibility(mode, a, n, eta) == oracle_impossibility(mode, a, n, eta)


# ---------------------------------------------------------------------------
# Hand-frozen anchors (computed on paper before implementation)
# ---------------------------------------------------------------------------

S_NONAUTH_08_40 = {
    0: 32, 4: 28, 7: 25, 8: 23, 12: 15, 18: 3, 19: 3, 20: 3, 30: 3, 40: 3,
}
SBAR_NONAUTH_08_40 = {
    0: (33, False), 4: (33, False), 5: (30, False), 10: (20, False),
    13: (14, False), 14: (11, True), 20: (8, True), 32: (2, True),
    33: (None, False), 40: (None, False),
}
S_AUTH_08_30 = {
    0: 24, 1: 23, 6: 21, 11: 18, 12: 11, 13: 9, 14: 8, 15: 6, 16: 5, 30: 5,
}
SBAR_AUTH_08_30 = {
    0: (25, False), 6: (25, False), 7: (23, False), 10: (20, False),
    24: (6, False), 25: (None, False),
}


def test_flagship_nonauth_anchors():
    for eta, s in S_NONAUTH_08_40.items():
        assert theoretical_smoothness("nonauth", "4/5", 40, eta) == s, eta
    for eta, expect in SBAR_NONAUTH_08_40.items():
        assert theoretical_impossibility("nonauth", "4/5", 40, eta) == expect, eta
    assert consistency_bound("nonauth", "4/5", 40) == 32
    assert robustness_bound("nonauth", "4/5", 40) == 3


def test_flagship_auth_anchors():
    for eta, s in S_AUTH_08_30.items():
        assert theoretical_smoothness("auth", "4/5", 30, eta) == s, eta
    for eta, expect in SBAR_AUTH_08_30.items():
        assert theoretical_impossibility("auth", "4/5", 30, eta) == expect, eta
    assert consistency_bound("auth", "4/5", 30) == 24
    assert robustness_bound("auth", "4/5", 30) == 5


def test_auth_curve_has_single_downward_jump():
    # the curve falls from 18 to 11 exactly at eta = 2(1-alpha)n = 12; every
    # other step is at most 2 (the steepest integer step a -3/2 slope makes)
    vals = [theoretical_smoothness("auth", 0.8, 30, e) for e in range(31)]
    drops = [e for e in range(1, 31) if vals[e - 1] - vals[e] > 2]
    assert drops == [12]
    assert vals[11] == 18 and vals[12] == 11 and vals[13] == 9


def test_more_bounds():
    assert consistency_bound("nonauth", 0.4, 10) == 4
    assert robustness_bound("nonauth", 0.4, 10) == 2
    assert consistency_bound("auth", 0.6, 20) == 12
    assert robustness_bound("auth", 0.6, 20) == 7
    assert robustness_bound("nonauth", 1, 50) == 0  # clamped
    assert robustness_bound("auth", 1, 50) == 0


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode,a,n", [("nonauth", Fraction(4, 5), 40), ("auth", Fraction(4, 5), 30)]
)
def test_flagship_smoothness_nonincreasing(mode, a, n):
    # not true for every admissible alpha (at alpha=1/3 the constant
    # robustness piece overtakes the decayed first piece mid-range), but it
    # holds on both flagship grids
    vals = [theoretical_smoothness(mode, a, n, e) for e in range(n + 1)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("mode,a,n", ORACLE_GRIDS)
def test_endpoints_meet_bounds(mode, a, n):
    # full-error smoothness degrades exactly to the robustness floor
    assert theoretical_smoothness(mode, a, n, n) == robustness_bound(mode, a, n)


@pytest.mark.parametrize("mode,a,n", ORACLE_GRIDS)
def test_smoothness_below_impossibility(mode, a, n):
    # s < sbar wherever sbar is unconditional and the guarantee is
    # non-vacuous (s > 0): the clamp at 0 can meet a degenerate sbar=0
    # point at alpha=1
    a = Fraction(a)
    for eta in range(n + 1):
        sbar, cond = theoretical_impossibility(mode, a, n, eta)
        if sbar is None or cond:
            continue
        s = theoretical_smoothness(mode, a, n, eta)
        assert s <= sbar, (eta, s, sbar)
        if s > 0:
            assert s < sbar, (eta, s, sbar)


def test_curve_rows_shape():
    rows = curve_rows("auth", 0.8, 30)
    assert len(rows) == 31
    assert rows[0] == (0, 24, 25, False)
    assert rows[30] == (30, 5, None, False)


def test_validation_errors():
    with pytest.raises(ValueError):
        theoretical_smoothness("nonauth", 0.2, 30, 0)
    with pytest.raises(ValueError):
        theoretical_smoothness("auth", 0.4, 30, 0)
    with pytest.raises(ValueError):
        theoretical_smoothness("auth", 0.8, 30, 31)
    with pytest.raises(ValueError):
        theoretical_smoothness("sync", 0.8, 30, 0)
    with pytest.raises(ValueError):
        consistency_bound("nonauth", 0.8, 0)
    assert as_alpha(0.8) == Fraction(4, 5)


@pytest.mark.parametrize("alpha", [True, False, None, [1], "1/0", "inf", float("nan")])
def test_as_alpha_rejects_what_names_no_finite_fraction(alpha):
    with pytest.raises(ValueError, match="alpha must be a finite fraction"):
        as_alpha(alpha)


# ---------------------------------------------------------------------------
# Error measures
# ---------------------------------------------------------------------------


def _cfg6():
    return Configuration(n=6, faulty=frozenset({5, 6}), inputs={1: 0, 2: 1, 3: 0, 4: 1})


def test_global_error_breakdown():
    cfg = _cfg6()
    got = compute_error(cfg, frozenset({4, 5}))
    assert got == ErrorBreakdown(eta_F=1, eta_H=3)
    assert got.total == 4
    assert compute_error(cfg, cfg.honest) == ErrorBreakdown(0, 0)
    assert compute_error(cfg, frozenset()) == ErrorBreakdown(0, 4)
    assert compute_error(cfg, frozenset(range(1, 7))) == ErrorBreakdown(2, 0)


def test_local_error_sum():
    cfg = _cfg6()
    preds = {
        1: frozenset({1, 2, 3, 4}),   # exact: 0
        2: frozenset({1, 2, 3}),      # misses 4: 1
        3: frozenset(),               # misses all: 4
        4: frozenset({4, 5, 6}),      # 2 wrong + 3 missed: 5
        5: frozenset({1}),            # faulty entry ignored
    }
    assert compute_local_error(cfg, preds) == 10
    with pytest.raises(ValueError):
        compute_local_error(cfg, {1: frozenset()})


def test_local_constant_vector_matches_global_error():
    cfg = Configuration(10, frozenset({8, 9, 10}), {i: 0 for i in range(1, 8)})
    p = frozenset(range(1, 11))  # trusts all three faulty ids
    vec = {i: p for i in range(1, 11)}
    assert compute_local_error(cfg, vec) == len(cfg.honest) * compute_error(cfg, p).total == 21


def test_config_validation():
    with pytest.raises(ValueError):
        Configuration(n=4, faulty=frozenset({5}), inputs={1: 0, 2: 0, 3: 0, 4: 0})
    with pytest.raises(ValueError):
        Configuration(n=4, faulty=frozenset({4}), inputs={1: 0, 2: 0})
    with pytest.raises(ValueError):
        Configuration(n=4, faulty=frozenset(), inputs={1: 0, 2: 0, 3: 2, 4: 0})
