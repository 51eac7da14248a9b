"""Inner agreement protocols: a phase-king consensus and signed broadcast.

Both are written as synchronous state machines against the engine's
outbox/deliver API. Rounds are global and start at 1; when a wrapper embeds
one of these it starts it at round 1 of the run as well, so no offsets are
involved anywhere.

Message hygiene rules shared by both protocols: a node considers only the
first message per sender matching the expected shape of the current step;
everything malformed, duplicated or out of step is ignored (absence and
garbage are treated alike). Broadcasts include the sender itself.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

from .simnet import once_per_inbox, payload_digest


def phase_king_rounds(t: int) -> int:
    """Schedule: t+1 phases of three rounds each."""
    return 3 * (t + 1)


def ds_broadcast_rounds(t: int) -> int:
    """Schedule: chains grow one signature per round, t+1 rounds."""
    return t + 1


def ds_ba_rounds(t: int) -> int:
    """Schedule: parallel broadcasts plus one decision-exchange round."""
    return t + 2


class PhaseKing:
    """Rotating-king binary consensus.

    participants is the closed group running the protocol. With m
    participants, budget t, and fewer than ceil(m/3) actual faults the group
    reaches agreement on a common input if one exists; kings are the
    participants in ascending id order, one per phase. Each phase:

    round 1  broadcast the current value
    round 2  broadcast a proposal for any value seen >= m-t times; adopt a
             proposal seen more than t times
    round 3  the phase king broadcasts its value; nodes whose proposal
             support was below m-t adopt the king's value (default 0 when
             the king is silent or garbled)

    Tallies and king lookups depend only on the inbox, the phase, and the
    group or the king, so they are computed once per inbox and shared by
    every instance handed it (see simnet.once_per_inbox).
    """

    def __init__(self, me: int, input_bit: int, participants: Sequence, t: int):
        self.me = me
        self.participants = tuple(sorted(set(participants)))
        if me not in self.participants:
            raise ValueError(f"node {me} is not among the participants")
        if t < 0:
            raise ValueError("budget t must be >= 0")
        self.m = len(self.participants)
        self.t = t
        self.value = int(input_bit)
        self.rounds = phase_king_rounds(t)
        self.decision: Optional[int] = None
        self._propose: Optional[int] = None
        self._support = 0
        self._group = frozenset(self.participants)

    def _king(self, phase: int) -> int:
        return self.participants[phase % self.m]

    def outbox(self, rnd: int):
        if rnd > self.rounds:
            return []
        phase, step = divmod(rnd - 1, 3)
        if step == 0:
            return [(self.participants, ("pk", phase, "val", self.value))]
        if step == 1:
            if self._propose is None:
                return []
            return [(self.participants, ("pk", phase, "prop", self._propose))]
        if self._king(phase) == self.me:
            return [(self.participants, ("pk", phase, "king", self.value))]
        return []

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        phase, step = divmod(rnd - 1, 3)
        if step == 0:
            counts = once_per_inbox(inbox, _pk_counts, phase, "val", self._group)
            self._propose = None
            for b in (0, 1):
                if counts[b] >= self.m - self.t:
                    self._propose = b
                    break
            self._support = 0
        elif step == 1:
            counts = once_per_inbox(inbox, _pk_counts, phase, "prop", self._group)
            if max(counts) > self.t:
                self.value = 0 if counts[0] >= counts[1] else 1
            self._support = counts[self.value]
        else:
            if self._support < self.m - self.t:
                self.value = once_per_inbox(inbox, _king_value, phase, self._king(phase))
            if rnd == self.rounds:
                self.decision = self.value


def _pk_counts(inbox, phase: int, word: str, group: frozenset) -> list:
    """Per-value counts of the first matching message per group sender."""
    counts = [0, 0]
    seen = set()
    for s, p in inbox:
        if s in seen or s not in group:
            continue
        try:
            if p[0] == "pk" and p[1] == phase and p[2] == word and p[3] in (0, 1):
                seen.add(s)
                counts[p[3]] += 1
        except (TypeError, ValueError, IndexError):
            continue
    return counts


def _king_value(inbox, phase: int, king: int) -> int:
    """The value of the king's first well-formed king message, else 0."""
    for s, p in inbox:
        if s != king:
            continue
        try:
            if p[0] == "pk" and p[1] == phase and p[2] == "king" and p[3] in (0, 1):
                return p[3]
        except (TypeError, ValueError, IndexError):
            continue
    return 0


# Link digests are pure functions of (sender, value, signer prefix), so one
# process-wide cache serves every node and run. Chains revalidate shared
# prefixes constantly; without the cache the JSON canonicalization inside
# payload_digest dominates long-chain rounds.
_LINK_DIGESTS = {}


def _link_digest(sender, value: int, signers: tuple) -> str:
    key = (sender, value, signers)
    d = _LINK_DIGESTS.get(key)
    if d is None:
        if len(_LINK_DIGESTS) > 200_000:
            _LINK_DIGESTS.clear()
        d = _LINK_DIGESTS[key] = payload_digest(("ds-link", sender, value, signers))
    return d


class _Hit:
    """The first valid relay of one (sender, value) in a round's inbox: its
    position and payload, its chain's signers, and the digest a node signs
    to relay it, made on first need."""

    __slots__ = ("pos", "payload", "signers", "_digest")

    def __init__(self, pos: int, payload: tuple, signers: tuple):
        self.pos = pos
        self.payload = payload
        self.signers = signers
        self._digest = None

    def next_digest(self) -> str:
        if self._digest is None:
            _, s, _, v, _ = self.payload
            self._digest = _link_digest(s, v, self.signers)
        return self._digest


class _ChainIndex:
    """The signed-broadcast relays of one round's inbox, by (sender, value).

    The first valid relay for each (sender, value) is found on first demand,
    in inbox order, and then serves every node that holds the same inbox:
    chain validity does not depend on the node checking it. A round-r chain
    verifies links over signer prefixes shorter than r, and the relay
    signatures minted while round r is delivered are over prefixes of
    length r. Relays with a malformed shape, a sender outside the group, a
    value other than 0/1 or another round's number never qualify and are
    left out.
    """

    def __init__(self, inbox, rnd: int, group: frozenset):
        self.group = group
        self.relays = {}  # sender -> {value: [(position, payload), ...]}
        self._first = {}  # (sender, value) -> _Hit or None
        relays = self.relays
        for pos, (_, p) in enumerate(inbox):
            if (isinstance(p, tuple) and len(p) == 5 and p[0] == "ds" and p[2] == rnd
                    and p[1] in group and (p[3] == 0 or p[3] == 1)):
                by_value = relays.get(p[1])
                if by_value is None:
                    by_value = relays[p[1]] = {}
                same = by_value.get(p[3])
                if same is None:
                    by_value[p[3]] = [(pos, p)]
                else:
                    same.append((pos, p))

    def accepted(self, sender, extracted, verify) -> list:
        """The _Hit of each value of sender not in extracted, in inbox order."""
        hits = []
        for v, relays in self.relays[sender].items():
            if v in extracted:
                continue
            key = (sender, v)
            if key in self._first:
                hit = self._first[key]
            else:
                hit = self._first[key] = self._first_valid(relays, verify)
            if hit is not None:
                hits.append(hit)
        if len(hits) == 2 and hits[1].pos < hits[0].pos:
            hits.reverse()
        return hits

    def _first_valid(self, relays, verify) -> Optional[_Hit]:
        for pos, payload in relays:
            signers = self._signers(payload, verify)
            if signers is not None:
                return _Hit(pos, payload, signers)
        return None

    def _signers(self, payload, verify) -> Optional[tuple]:
        """The signers of payload's chain if the chain is valid, else None."""
        _, s, rnd, v, chain = payload
        if not isinstance(chain, tuple) or len(chain) != rnd:
            return None
        signers = []
        for link in chain:
            if not (isinstance(link, tuple) and len(link) == 2):
                return None
            signers.append(link[0])
        if signers[0] != s or len(set(signers)) != len(signers):
            return None
        if not self.group.issuperset(signers):
            return None
        for j, (who, token) in enumerate(chain):
            if not verify(token, who, _link_digest(s, v, tuple(signers[:j]))):
                return None
        return tuple(signers)


_SENDER = itemgetter(0)


class _SignedRelays:
    """One node's whole signed-broadcast state, for every sender at once.

    A chain is a tuple of (signer_id, token) pairs. The j-th token signs the
    digest of ("ds-link", sender, value, signers-before-j), so a chain is
    bound to its exact signer sequence and value. A relay received in round
    r is accepted iff its chain carries exactly r pairwise-distinct
    participant signatures, the first by the broadcast's sender, all valid
    (see _ChainIndex). Each value is extracted once per sender; a node other
    than the sender relays what it extracts in rounds 1..t, with its own
    signature appended, unless its signature is already on the chain.

    ``extracted`` maps each sender to the values extracted from its
    broadcast; a sender without an entry extracted nothing. ``_relays`` maps
    each round to the (sender, payload) relays queued for it. Chain indexes
    are built once per inbox, round and group (see simnet.once_per_inbox),
    so every node handed the same inbox shares one.
    """

    def __init__(self, me, participants, t, signer):
        if t < 0:
            raise ValueError("budget t must be >= 0")
        self.me = me
        self.participants = tuple(sorted(set(participants)))
        self.t = t
        self._group = frozenset(self.participants)
        self._signer = signer
        self.extracted = {}  # sender -> {value, ...}
        self._relays = {}  # round -> [(sender, payload), ...]

    def _broadcast(self, value) -> None:
        """Start this node's own broadcast of value (None sends nothing)."""
        if value is not None:
            me, v = self.me, int(value)
            chain = ((me, self._signer.sign(_link_digest(me, v, ()))),)
            self._relays[1] = [(me, ("ds", me, 1, v, chain))]
            self.extracted[me] = {v}

    def _take_relays(self, rnd: int) -> list:
        """The relays queued for rnd, sorted by broadcast sender; the sort is
        stable, so each sender's relays keep the order they were queued in."""
        relays = sorted(self._relays.pop(rnd, ()), key=_SENDER)
        return [(self.participants, p) for _, p in relays]

    def _index(self, rnd: int, inbox) -> _ChainIndex:
        return once_per_inbox(inbox, _ChainIndex, rnd, self._group)

    def _accept(self, rnd: int, s, index: _ChainIndex) -> None:
        """Extract the values of sender s's valid relays in index, and queue
        the relays they call for."""
        me, extracted = self.me, self.extracted
        relays = rnd <= self.t and me != s
        for hit in index.accepted(s, extracted.get(s, ()), self._signer.verify):
            _, _, _, val, chain = hit.payload
            extracted.setdefault(s, set()).add(val)
            if relays and me not in hit.signers:
                token = self._signer.sign(hit.next_digest())
                self._relays.setdefault(rnd + 1, []).append(
                    (s, ("ds", s, rnd + 1, val, chain + ((me, token),))))


class DolevStrongBroadcast(_SignedRelays):
    """Standalone signed broadcast: every node decides the sender's value."""

    def __init__(self, me, sender, value, participants, t, signer):
        super().__init__(me, participants, t, signer)
        self.sender = sender
        self.rounds = ds_broadcast_rounds(t)
        self.decision: Optional[int] = None
        if me == sender:
            self._broadcast(value)

    def outbox(self, rnd: int):
        return self._take_relays(rnd)

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        index = self._index(rnd, inbox)
        if self.sender in index.relays:
            self._accept(rnd, self.sender, index)
        if rnd == self.rounds:
            values = self.extracted.get(self.sender, ())
            self.decision = next(iter(values)) if len(values) == 1 else 0


class DolevStrongBA(_SignedRelays):
    """Agreement via parallel signed broadcasts, one per member.

    After the t+1 broadcast rounds each node takes the majority of the m
    broadcast outputs (ties to 0) as its decision, then one more round
    exchanges the decisions so they appear in transcripts. A broadcast's
    output is the one value extracted from it, else 0.
    """

    def __init__(self, me, input_bit, participants, t, signer):
        super().__init__(me, participants, t, signer)
        if me not in self.participants:
            raise ValueError(f"node {me} is not among the participants")
        self.rounds = ds_ba_rounds(t)
        self._verdict: Optional[int] = None
        self.decision: Optional[int] = None
        self._broadcast(input_bit)

    def outbox(self, rnd: int):
        if rnd == self.rounds:
            return [(self.participants, ("dsdec", self._verdict))]
        return self._take_relays(rnd)

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        if rnd == self.rounds:
            self.decision = self._verdict
            return
        index = self._index(rnd, inbox)
        extracted = self.extracted
        for s, offered in index.relays.items():
            # A sender whose every offered value is extracted has nothing new.
            done = extracted.get(s)
            if done is None or not done.issuperset(offered):
                self._accept(rnd, s, index)
        if rnd == self.rounds - 1:
            ones = sum(values == {1} for values in extracted.values())
            self._verdict = 1 if 2 * ones > len(self.participants) else 0
