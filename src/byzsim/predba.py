"""The prediction-augmented agreement wrapper.

One class, PredBA, serves both models; being handed a signer is what makes
a run authenticated. From the prediction P each node derives an active set
L: start from P and pad with ids 1, 2, ... (skipping ids already present)
until |L| reaches the mode's threshold, compared exactly as a rational:

    nonauth   max(3/2 * (1-alpha) * n - 1, 1)
    auth      2 * (1-alpha) * n - 1

The fault budget is t = ceil(|L|/3) (nonauth) or ceil(|L|/2) (auth). Nodes
inside L run the inner agreement protocol among themselves with budget t-1,
Phase King without a signer and Dolev-Strong agreement with one, then
broadcast their decision to all n nodes in one extra round. Nodes outside L
stay silent, wait out the inner schedule, and adopt any value reported by at
least |L| - t + 1 members of L (a strict majority of L, so at most one value
qualifies); failing that they fall back to their own input. Everyone decides
in the same round: 3t + 1 in nonauth mode, t + 2 in auth mode. The adopt
counts (protocols.first_votes) depend only on the inbox and L's members, so
nodes handed the same inbox count it once (see simnet.once_per_inbox).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import check_alpha
from .protocols import (DolevStrongBA, PhaseKing, ds_ba_rounds, first_votes,
                        phase_king_rounds)
from .simnet import once_per_inbox


@dataclass(frozen=True)
class ActiveSet:
    members: tuple
    fault_param: int  # t


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
        threshold, divisor = max(Fraction(3, 2) * (1 - a) * n - 1, 1), 3
    else:
        threshold, divisor = 2 * (1 - a) * n - 1, 2
    members = set(pred)
    y = 1
    while len(members) < threshold:
        if y not in members:
            members.add(y)
        y += 1
        if y > n + 1:
            raise AssertionError("active-set padding ran past n")
    t = math.ceil(Fraction(len(members), divisor))
    return ActiveSet(members=tuple(sorted(members)), fault_param=t)


class PredBA:
    """Prediction-augmented agreement: inner rounds inside L, then one adopt
    round. Without a signer L runs Phase King; with one (the authenticated
    model) it runs Dolev-Strong agreement."""

    def __init__(self, me: int, input_bit: int, prediction, alpha, n: int, signer=None):
        aset = build_active_set(prediction, alpha, n, "nonauth" if signer is None else "auth")
        self.input = int(input_bit)
        self.n = n
        self.aset = aset
        self.members = frozenset(aset.members)
        self.active = me in self.members
        self.decision: Optional[int] = None
        size = len(self.members)
        t = aset.fault_param
        self.adopt_threshold = size - t + 1
        # at most one value can clear the threshold
        assert size == 0 or 2 * self.adopt_threshold > size
        self.inner = None
        if signer is None:
            self.inner_rounds = phase_king_rounds(t - 1) if size else 0
            if self.active:
                self.inner = PhaseKing(me, input_bit, aset.members, t - 1)
        else:
            self.inner_rounds = ds_ba_rounds(t - 1) if size else 0
            if self.active:
                self.inner = DolevStrongBA(me, input_bit, aset.members, t - 1, signer)

    @property
    def adopt_round(self) -> int:
        return self.inner_rounds + 1

    def outbox(self, rnd: int):
        if not self.active:
            return ()
        if rnd <= self.inner_rounds:
            return self.inner.outbox(rnd)
        if rnd == self.adopt_round:
            everyone = tuple(range(1, self.n + 1))
            return [(everyone, ("adopt", self.inner.decision))]
        return ()

    def deliver(self, rnd: int, inbox):
        if self.active and rnd <= self.inner_rounds:
            self.inner.deliver(rnd, inbox)
            return
        if rnd != self.adopt_round:
            return
        if self.active:
            self.decision = self.inner.decision
            return
        counts = once_per_inbox(inbox, first_votes, self.members, "adopt")
        for b in (0, 1):
            if counts[b] >= self.adopt_threshold:
                self.decision = b
                return
        self.decision = self.input
