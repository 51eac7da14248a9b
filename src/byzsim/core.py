"""Exact arithmetic for prediction quality and resilience bounds.

Everything in this module is pure math over exact rationals. The simulator
and harness build on these definitions; nothing here touches networking or
randomness.

Conventions used throughout the package:

* Nodes are the ids 1..n. A configuration fixes the faulty set F and one
  binary input per honest node. H denotes the honest ids.
* A global prediction is a set of ids claimed to be honest. Its error splits
  into eta_F = |P \\ H| (predicted but faulty) and eta_H = |H \\ P| (honest
  but missed); eta = eta_F + eta_H.
* A local prediction gives each node its own set; its error is the sum over
  honest nodes of the symmetric difference |P_i ^ H|.
* Trust parameter alpha: nonauth mode needs 1/3 <= alpha <= 1, auth mode
  1/2 <= alpha <= 1. Floats passed as alpha are converted through their
  decimal repr (Fraction(str(x))), so 0.8 means 4/5 exactly.
* Real intervals are mapped to integers as {ceil(lo) .. floor(hi)}. Where
  two bound pieces overlap at a shared integer point the larger value wins,
  and the result is floored afterwards. One exception: the first auth
  resilience piece excludes its right endpoint (see _smoothness_pieces), so
  the curve's only discontinuity sits exactly at eta = 2(1-alpha)n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

MODES = ("nonauth", "auth")


def as_alpha(alpha: Union[Fraction, float, int, str]) -> Fraction:
    """Normalize a trust parameter to an exact Fraction.

    Floats, such as a JSON number, go through str() so that e.g. 0.8
    becomes 4/5 rather than the nearest binary float. A boolean, a value
    that names no finite fraction, or a decimal whose exponent is larger in
    magnitude than its text is long raises ValueError.
    """
    try:
        if isinstance(alpha, bool):
            raise TypeError
        text = str(alpha) if isinstance(alpha, float) else alpha
        if isinstance(text, str):
            # No alpha in [1/3, 1] needs such an exponent, and Fraction would
            # build a 10**exponent integer before check_alpha could reject it.
            _, e, exponent = text.lower().rpartition("e")
            if e and abs(int(exponent)) > len(text):
                raise ValueError
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"alpha must be a finite fraction, got {alpha!r}") from None


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def check_alpha(mode: str, alpha: Union[Fraction, float, int, str]) -> Fraction:
    """Validate alpha against the mode's admissible range and return it exactly."""
    check_mode(mode)
    a = as_alpha(alpha)
    lo = Fraction(1, 3) if mode == "nonauth" else Fraction(1, 2)
    if not (lo <= a <= 1):
        raise ValueError(f"alpha={a} outside [{lo}, 1] for mode {mode!r}")
    return a


def _check_n(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return n


def _check_eta(n: int, eta: int) -> int:
    if not isinstance(eta, int) or not (0 <= eta <= n):
        raise ValueError(f"eta must lie in [0, {n}], got {eta!r}")
    return eta


# ---------------------------------------------------------------------------
# Configurations and prediction error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """n nodes, a faulty set, and one binary input per honest node."""

    n: int
    faulty: frozenset
    inputs: Mapping  # honest id -> 0/1

    def __post_init__(self):
        _check_n(self.n)
        object.__setattr__(self, "faulty", frozenset(self.faulty))
        object.__setattr__(self, "inputs", dict(self.inputs))
        ids = set(range(1, self.n + 1))
        if not self.faulty <= ids:
            raise ValueError(f"faulty ids must lie in 1..{self.n}")
        honest = ids - self.faulty
        if set(self.inputs) != honest:
            missing = honest - set(self.inputs)
            extra = set(self.inputs) - honest
            raise ValueError(
                f"inputs must be keyed by exactly the honest ids "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for i, v in self.inputs.items():
            if v not in (0, 1):
                raise ValueError(f"input of node {i} must be 0 or 1, got {v!r}")

    @property
    def honest(self) -> frozenset:
        return frozenset(range(1, self.n + 1)) - self.faulty


@dataclass(frozen=True)
class ErrorBreakdown:
    """Split of a global prediction's error against a configuration."""

    eta_F: int  # predicted ids that are actually faulty
    eta_H: int  # honest ids the prediction missed

    @property
    def total(self) -> int:
        return self.eta_F + self.eta_H


def compute_error(config: Configuration, prediction) -> ErrorBreakdown:
    """Error of a global prediction: |P \\ H| and |H \\ P|."""
    pred = frozenset(prediction)
    if not pred <= frozenset(range(1, config.n + 1)):
        raise ValueError("prediction contains ids outside 1..n")
    honest = config.honest
    return ErrorBreakdown(eta_F=len(pred - honest), eta_H=len(honest - pred))


def compute_local_error(config: Configuration, predictions: Mapping) -> int:
    """Total local error: sum over honest i of |P_i symmetric-diff H|.

    Entries for faulty ids are permitted and ignored; every honest id must
    have an entry.
    """
    honest = config.honest
    missing = honest - set(predictions)
    if missing:
        raise ValueError(f"local prediction missing honest ids {sorted(missing)}")
    total = 0
    all_ids = frozenset(range(1, config.n + 1))
    for i in honest:
        p = frozenset(predictions[i])
        if not p <= all_ids:
            raise ValueError(f"prediction of node {i} contains ids outside 1..n")
        total += len(p ^ honest)
    return total


# ---------------------------------------------------------------------------
# Piecewise bound curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Piece:
    lo: Fraction
    hi: Fraction
    # coefficients of value(eta) = base + slope * eta
    base: Fraction
    slope: Fraction
    conditional: bool = False
    hi_open: bool = False  # range excludes hi (matters only when hi is integral)

    def contains(self, eta: int) -> bool:
        if eta < math.ceil(self.lo):
            return False
        return eta < self.hi if self.hi_open else eta <= math.floor(self.hi)

    def value(self, eta: int) -> Fraction:
        return self.base + self.slope * eta


def _smoothness_pieces(mode: str, a: Fraction, n: int):
    if mode == "nonauth":
        return (
            _Piece(Fraction(0), (1 - a) * n - 1, a * n, Fraction(-1)),
            _Piece((1 - a) * n - 1, Fraction(1 + a, 4) * n + 1, Fraction(n - 1), Fraction(-2)),
            _Piece(Fraction(1 + a, 4) * n + 1, Fraction(n), Fraction(1 - a, 2) * n - 1, Fraction(0)),
        )
    # The shallow first piece stops short of its right endpoint. When
    # 2(1-a)n is an integer, the worst split at that error puts exactly half
    # faulty members into a full-size active set, and a half-faulty committee
    # ties; the guarantee there is the steeper middle piece, and the curve's
    # single big jump lands exactly at eta = 2(1-a)n.
    return (
        _Piece(Fraction(0), 2 * (1 - a) * n, a * n, Fraction(-1, 2), hi_open=True),
        _Piece(2 * (1 - a) * n, Fraction(2, 3) * a * n, Fraction(n - 1), Fraction(-3, 2)),
        _Piece(Fraction(2, 3) * a * n, Fraction(n), (1 - a) * n - 1, Fraction(0)),
    )


def _impossibility_pieces(mode: str, a: Fraction, n: int):
    if mode == "nonauth":
        return (
            _Piece(Fraction(0), Fraction(1 - a, 2) * n, a * n + 1, Fraction(0)),
            _Piece(Fraction(1 - a, 2) * n, Fraction(n, 3), Fraction(n), Fraction(-2)),
            _Piece(Fraction(n, 3), a * n, Fraction(n, 2) - 2, Fraction(-1, 2), conditional=True),
        )
    return (
        _Piece(Fraction(0), (1 - a) * n, a * n + 1, Fraction(0)),
        _Piece((1 - a) * n, a * n, Fraction(n), Fraction(-1)),
    )


def theoretical_smoothness(mode: str, alpha, n: int, eta: int) -> int:
    """Guaranteed resilience (faulty nodes tolerated) at prediction error eta.

    Evaluates every bound piece whose integer range contains eta, takes the
    max, floors it, and clamps at 0.
    """
    a = check_alpha(mode, alpha)
    _check_n(n)
    _check_eta(n, eta)
    vals = [p.value(eta) for p in _smoothness_pieces(mode, a, n) if p.contains(eta)]
    if not vals:  # ranges cover [0, n] for all admissible alpha
        raise AssertionError(f"no smoothness piece covers eta={eta}")
    return max(0, math.floor(max(vals)))


def theoretical_impossibility(mode: str, alpha, n: int, eta: int):
    """Upper bound (f, conditional) above which no algorithm can stay safe.

    Returns (None, False) where no piece applies. The flag is True when the
    value rests solely on the conditional nonauth piece.
    """
    a = check_alpha(mode, alpha)
    _check_n(n)
    _check_eta(n, eta)
    best: Optional[Fraction] = None
    flag = True
    for p in _impossibility_pieces(mode, a, n):
        if not p.contains(eta):
            continue
        v = p.value(eta)
        if best is None or v > best:
            best = v
        if not p.conditional:
            flag = False
    if best is None:
        return None, False
    return math.floor(best), flag


def consistency_bound(mode: str, alpha, n: int) -> int:
    """Faulty nodes tolerated under a perfect prediction: floor(alpha * n)."""
    a = check_alpha(mode, alpha)
    _check_n(n)
    return math.floor(a * n)


def robustness_bound(mode: str, alpha, n: int) -> int:
    """Faulty nodes tolerated regardless of prediction quality."""
    a = check_alpha(mode, alpha)
    _check_n(n)
    if mode == "nonauth":
        raw = math.floor(Fraction(1 - a, 2) * n) - 1
    else:
        raw = math.floor((1 - a) * n) - 1
    return max(0, raw)


def curve_rows(mode: str, alpha, n: int):
    """All integer curve points for (mode, alpha, n).

    Yields (eta, s, sbar_or_None, conditional_flag) for eta in 0..n. This is
    what the CSV export renders.
    """
    a = check_alpha(mode, alpha)
    _check_n(n)
    rows = []
    for eta in range(n + 1):
        s = theoretical_smoothness(mode, a, n, eta)
        sbar, flag = theoretical_impossibility(mode, a, n, eta)
        rows.append((eta, s, sbar, flag))
    return rows
