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


class _BroadcastInstance:
    """One node's state in one signed-broadcast instance (a single designated sender).

    A chain is a tuple of (signer_id, token) pairs. The j-th token signs the
    digest of ("ds-link", sender, value, signers-before-j), so a chain is
    bound to its exact signer sequence and value. A relay received in round
    r is accepted iff its chain carries exactly r pairwise-distinct
    participant signatures, the first by the designated sender, all valid
    (see _ChainIndex). Each value is accepted once; a node other than the
    sender relays what it accepts in rounds 1..t, with its own signature
    appended, unless its signature is already on the chain.
    """

    # Link digests are pure functions of (sender, value, signer prefix), so
    # one process-wide cache serves every instance and run. Chains
    # revalidate shared prefixes constantly; without the cache the JSON
    # canonicalization inside payload_digest dominates long-chain rounds.
    _LINK_DIGESTS = {}

    def __init__(self, me, sender, value, signer):
        self.me = me
        self.sender = sender
        self.signer = signer
        self.extracted = set()
        self._queue = {}
        if me == sender and value is not None:
            v = int(value)
            chain = ((sender, signer.sign(_link_digest(sender, v, ()))),)
            self._queue[1] = [("ds", sender, 1, v, chain)]
            self.extracted.add(v)

    def take_outbox(self, rnd: int):
        return self._queue.pop(rnd, [])

    def accept(self, rnd: int, t: int, hits) -> bool:
        """Accept the (position, payload) hits in order; True iff a relay was queued."""
        queued = False
        for _, (tag, s, r, val, chain) in hits:
            self.extracted.add(val)
            if rnd > t or self.me == self.sender:
                continue
            signers = tuple(link[0] for link in chain)
            if self.me in signers:
                continue
            token = self.signer.sign(_link_digest(s, val, signers))
            self._queue.setdefault(rnd + 1, []).append(
                ("ds", s, rnd + 1, val, chain + ((self.me, token),)))
            queued = True
        return queued

    def output(self) -> int:
        if len(self.extracted) == 1:
            return next(iter(self.extracted))
        return 0


def _link_digest(sender, value: int, signers: tuple) -> str:
    cache = _BroadcastInstance._LINK_DIGESTS
    key = (sender, value, signers)
    d = cache.get(key)
    if d is None:
        if len(cache) > 200_000:
            cache.clear()
        d = payload_digest(("ds-link", sender, value, signers))
        cache[key] = d
    return d


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
        self._first = {}  # (sender, value) -> (position, payload) or None
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
        """(position, payload) of the first valid relay of each value of sender
        not in extracted, in inbox order."""
        hits = []
        for v, relays in self.relays[sender].items():
            if v in extracted:
                continue
            key = (sender, v)
            if key in self._first:
                hit = self._first[key]
            else:
                hit = self._first[key] = next(
                    (r for r in relays if self._valid(r[1], verify)), None)
            if hit is not None:
                hits.append(hit)
        if len(hits) == 2:
            hits.sort()
        return hits

    def _valid(self, payload, verify) -> bool:
        _, s, rnd, v, chain = payload
        if not isinstance(chain, tuple) or len(chain) != rnd:
            return False
        signers = []
        for link in chain:
            if not (isinstance(link, tuple) and len(link) == 2):
                return False
            signers.append(link[0])
        if signers[0] != s or len(set(signers)) != len(signers):
            return False
        if not self.group.issuperset(signers):
            return False
        for j, (who, token) in enumerate(chain):
            if not verify(token, who, _link_digest(s, v, tuple(signers[:j]))):
                return False
        return True


class _SignedRelays:
    """What both signed-broadcast protocols share: the group, the budget and
    the per-round chain indexes.

    Indexes are built once per inbox, round and group (see
    simnet.once_per_inbox), so every instance handed the same inbox shares
    one.
    """

    def __init__(self, me, participants, t, signer):
        if t < 0:
            raise ValueError("budget t must be >= 0")
        self.me = me
        self.participants = tuple(sorted(set(participants)))
        self.t = t
        self._group = frozenset(self.participants)
        self._signer = signer

    def _index(self, rnd: int, inbox) -> _ChainIndex:
        return once_per_inbox(inbox, _ChainIndex, rnd, self._group)


class DolevStrongBroadcast(_SignedRelays):
    """Standalone signed broadcast: every node decides the sender's value."""

    def __init__(self, me, sender, value, participants, t, signer):
        super().__init__(me, participants, t, signer)
        self.inst = _BroadcastInstance(me, sender, value, signer)
        self.rounds = ds_broadcast_rounds(t)
        self.decision: Optional[int] = None

    def outbox(self, rnd: int):
        return [(self.participants, p) for p in self.inst.take_outbox(rnd)]

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        inst = self.inst
        index = self._index(rnd, inbox)
        if inst.sender in index.relays:
            inst.accept(rnd, self.t,
                        index.accepted(inst.sender, inst.extracted, self._signer.verify))
        if rnd == self.rounds:
            self.decision = inst.output()


class DolevStrongBA(_SignedRelays):
    """Agreement via parallel signed broadcasts, one instance per member.

    After the t+1 broadcast rounds each node takes the majority of the m
    instance outputs (ties to 0) as its decision, then one more round
    exchanges the decisions so they appear in transcripts. A node builds
    the instance of another sender only when it first accepts a value from
    it; a missing instance outputs 0, as an instance that extracted nothing.
    """

    def __init__(self, me, input_bit, participants, t, signer):
        super().__init__(me, participants, t, signer)
        if me not in self.participants:
            raise ValueError(f"node {me} is not among the participants")
        self.rounds = ds_ba_rounds(t)
        self.instances = {me: _BroadcastInstance(me, me, input_bit, signer)}
        self._queued = {1: {me}}  # round -> senders whose instance queued relays
        self._verdict: Optional[int] = None
        self.decision: Optional[int] = None

    def outbox(self, rnd: int):
        if rnd > self.rounds:
            return []
        if rnd == self.rounds:
            return [(self.participants, ("dsdec", self._verdict))]
        out = []
        for s in sorted(self._queued.pop(rnd, ())):  # in participant order
            out.extend((self.participants, p) for p in self.instances[s].take_outbox(rnd))
        return out

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        if rnd == self.rounds:
            self.decision = self._verdict
            return
        index = self._index(rnd, inbox)
        instances, verify = self.instances, self._signer.verify
        for s in index.relays:
            inst = instances.get(s)
            hits = index.accepted(s, inst.extracted if inst is not None else (), verify)
            if not hits:
                continue
            if inst is None:
                inst = instances[s] = _BroadcastInstance(self.me, s, None, self._signer)
            if inst.accept(rnd, self.t, hits):
                self._queued.setdefault(rnd + 1, set()).add(s)
        if rnd == self.rounds - 1:
            ones = sum(inst.output() == 1 for inst in instances.values())
            self._verdict = 1 if 2 * ones > len(self.participants) else 0
