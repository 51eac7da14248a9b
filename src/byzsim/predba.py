"""Prediction-augmented agreement wrappers.

Both wrappers share one skeleton. From the prediction P each node derives an
active set L: start from P and pad with ids 1, 2, ... (skipping ids already
present) until |L| reaches the mode's threshold, compared exactly as a
rational:

    nonauth   max(3/2 * (1-alpha) * n - 1, 1)
    auth      2 * (1-alpha) * n - 1

The fault budget is t = ceil(|L|/3) (nonauth) or ceil(|L|/2) (auth). Nodes
inside L run the inner agreement protocol among themselves with budget t-1,
then broadcast their decision to all n nodes in one extra round. Nodes
outside L stay silent, wait out the inner schedule, and adopt any value
reported by at least |L| - t + 1 members of L (a strict majority of L, so at
most one value qualifies); failing that they fall back to their own input.
Everyone decides in the same round: 3t + 1 in nonauth mode, t + 2 in auth
mode. The adopt counts depend only on the inbox and L's members, so nodes
handed the same inbox count it once (see simnet.once_per_inbox).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import check_alpha
from .protocols import DolevStrongBA, PhaseKing, ds_ba_rounds, phase_king_rounds
from .simnet import once_per_inbox


@dataclass(frozen=True)
class ActiveSet:
    members: tuple
    fault_param: int  # t
    min_size: int  # smallest integer size satisfying the threshold

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.members


def build_active_set(prediction, alpha, n: int, mode: str) -> ActiveSet:
    """Derive the active set L from a prediction.

    Padding probes ids in ascending order, advancing the probe every
    iteration whether or not it was added.
    """
    pred = frozenset(prediction) if prediction is not None else frozenset()
    return _active_set(pred, alpha, n, mode)


# Every node of a run derives the same (immutable) active set from the same
# prediction, so a small memo saves all but the first derivation.
@functools.lru_cache(maxsize=16)
def _active_set(pred: frozenset, alpha, n: int, mode: str) -> ActiveSet:
    a = check_alpha(mode, alpha)
    if not pred <= frozenset(range(1, n + 1)):
        raise ValueError("prediction contains ids outside 1..n")
    if mode == "nonauth":
        # at least one member, so the passives have someone to adopt from
        threshold = max(Fraction(3, 2) * (1 - a) * n - 1, 1)
    else:
        threshold = 2 * (1 - a) * n - 1
    members = set(pred)
    y = 1
    while len(members) < threshold:
        if y not in members:
            members.add(y)
        y += 1
        if y > n + 1:
            raise AssertionError("active-set padding ran past n")
    if mode == "nonauth":
        t = math.ceil(Fraction(len(members), 3))
    else:
        t = math.ceil(Fraction(len(members), 2))
    return ActiveSet(
        members=tuple(sorted(members)),
        fault_param=t,
        min_size=max(0, math.ceil(threshold)),
    )


class _WrapperBase:
    """Common outer machinery: inner rounds, then one adopt round."""

    def __init__(self, me: int, input_bit: int, n: int, active_set: ActiveSet):
        self.input = int(input_bit)
        self.n = n
        self.aset = active_set
        self.members = frozenset(active_set.members)
        self.active = me in self.members
        self.decision: Optional[int] = None
        self.inner = None  # set by subclass for active nodes
        self.inner_rounds = 0  # set by subclass
        size = len(self.members)
        t = active_set.fault_param
        self.adopt_threshold = size - t + 1
        # at most one value can clear the threshold
        assert size == 0 or 2 * self.adopt_threshold > size

    @property
    def adopt_round(self) -> int:
        return self.inner_rounds + 1

    def outbox(self, rnd: int):
        if self.active and rnd <= self.inner_rounds:
            return self.inner.outbox(rnd)
        if self.active and rnd == self.adopt_round:
            everyone = tuple(range(1, self.n + 1))
            return [(everyone, ("adopt", self.inner.decision))]
        return []

    def deliver(self, rnd: int, inbox):
        if self.active and rnd <= self.inner_rounds:
            self.inner.deliver(rnd, inbox)
            return
        if rnd != self.adopt_round:
            return
        if self.active:
            self.decision = self.inner.decision
            return
        counts = once_per_inbox(inbox, _adopt_counts, self.members)
        for b in (0, 1):
            if counts[b] >= self.adopt_threshold:
                self.decision = b
                return
        self.decision = self.input


def _adopt_counts(inbox, members: frozenset) -> list:
    """Per-value counts of the first well-formed adopt message per member."""
    counts = [0, 0]
    seen = set()
    for s, p in inbox:
        if s in seen or s not in members:
            continue
        try:
            if p[0] == "adopt" and p[1] in (0, 1):
                seen.add(s)
                counts[p[1]] += 1
        except (TypeError, ValueError, IndexError):
            continue
    return counts


class PredBA(_WrapperBase):
    """Prediction-augmented agreement without signatures (phase-king inner)."""

    def __init__(self, me: int, input_bit: int, prediction, alpha, n: int):
        aset = build_active_set(prediction, alpha, n, "nonauth")
        super().__init__(me, input_bit, n, aset)
        t = aset.fault_param
        self.inner_rounds = phase_king_rounds(t - 1) if self.members else 0
        if self.active:
            self.inner = PhaseKing(me, input_bit, aset.members, t - 1)


class AuthPredBA(_WrapperBase):
    """Prediction-augmented agreement with signatures (signed-broadcast inner)."""

    def __init__(self, me: int, input_bit: int, prediction, alpha, n: int, signer):
        aset = build_active_set(prediction, alpha, n, "auth")
        super().__init__(me, input_bit, n, aset)
        t = aset.fault_param
        self.inner_rounds = ds_ba_rounds(t - 1) if self.members else 0
        if self.active:
            self.inner = DolevStrongBA(me, input_bit, aset.members, t - 1, signer)
