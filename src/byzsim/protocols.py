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

from .simnet import payload_digest


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

    def _tally(self, inbox, phase: int, word: str):
        """Per-value counts of the first matching message per group sender."""
        counts = [0, 0]
        seen = set()
        group = self._group
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
            counts = self._tally(inbox, phase, "val")
            self._propose = None
            for b in (0, 1):
                if counts[b] >= self.m - self.t:
                    self._propose = b
                    break
            self._support = 0
        elif step == 1:
            counts = self._tally(inbox, phase, "prop")
            if max(counts) > self.t:
                self.value = 0 if counts[0] >= counts[1] else 1
            self._support = counts[self.value]
        else:
            king = self._king(phase)
            if self._support < self.m - self.t:
                val = 0
                for s, p in inbox:
                    if s != king:
                        continue
                    try:
                        if p[0] == "pk" and p[1] == phase and p[2] == "king" \
                                and p[3] in (0, 1):
                            val = p[3]
                            break
                    except (TypeError, ValueError, IndexError):
                        continue
                self.value = val
            if rnd == self.rounds:
                self.decision = self.value


class _BroadcastInstance:
    """One signed-broadcast instance (a single designated sender).

    A chain is a tuple of (signer_id, token) pairs. The j-th token signs the
    digest of ("ds-link", sender, value, signers-before-j), so a chain is
    bound to its exact signer sequence and value. A relay received in round
    r is accepted iff its chain carries exactly r pairwise-distinct
    participant signatures, the first by the designated sender, all valid.
    """

    # Link digests are pure functions of (sender, value, signer prefix), so
    # one process-wide cache serves every instance and run. Chains
    # revalidate shared prefixes constantly; without the cache the JSON
    # canonicalization inside payload_digest dominates long-chain rounds.
    _LINK_DIGESTS = {}

    def __init__(self, me, sender, value, participants, t, signer):
        self.me = me
        self.sender = sender
        self.participants = tuple(sorted(set(participants)))
        self.group = set(self.participants)
        self.t = t
        self.signer = signer
        self.extracted = set()
        self._relayed = set()
        self._queue = {}
        if me == sender and value is not None:
            v = int(value)
            chain = ((sender, signer.sign(self._link_digest(v, ()))),)
            self._queue[1] = [("ds", sender, 1, v, chain)]
            self.extracted.add(v)

    def _link_digest(self, value: int, signers: tuple) -> str:
        cache = _BroadcastInstance._LINK_DIGESTS
        key = (self.sender, value, signers)
        d = cache.get(key)
        if d is None:
            if len(cache) > 200_000:
                cache.clear()
            d = payload_digest(("ds-link", self.sender, value, signers))
            cache[key] = d
        return d

    def take_outbox(self, rnd: int):
        return self._queue.pop(rnd, [])

    def _valid(self, rnd: int, payload) -> Optional[int]:
        try:
            tag, s, r, v, chain = payload
        except (TypeError, ValueError):
            return None
        if tag != "ds" or s != self.sender or r != rnd or v not in (0, 1):
            return None
        if not isinstance(chain, tuple) or len(chain) != rnd:
            return None
        signers = []
        for link in chain:
            if not (isinstance(link, tuple) and len(link) == 2):
                return None
            signers.append(link[0])
        if signers[0] != self.sender or len(set(signers)) != len(signers):
            return None
        if not set(signers) <= self.group:
            return None
        for j, (who, token) in enumerate(chain):
            if not self.signer.verify(token, who, self._link_digest(v, tuple(signers[:j]))):
                return None
        return v

    def deliver(self, rnd: int, inbox):
        if rnd > ds_broadcast_rounds(self.t):
            return
        for _, payload in inbox:
            if len(self.extracted) == 2:
                return
            # Peek at the value slot first: a message carrying an already
            # extracted value changes no state, valid chain or not, so the
            # expensive chain validation can be skipped outright.
            try:
                peek = payload[3]
            except (TypeError, IndexError, KeyError):
                continue
            if peek in self.extracted:
                continue
            v = self._valid(rnd, payload)
            if v is None:
                continue
            self.extracted.add(v)
            if rnd <= self.t and len(self._relayed) < 2 and self.me != self.sender:
                tag, s, r, val, chain = payload
                signers = tuple(link[0] for link in chain)
                if self.me in signers:
                    continue
                token = self.signer.sign(self._link_digest(val, signers))
                self._queue.setdefault(rnd + 1, []).append(
                    ("ds", s, rnd + 1, val, chain + ((self.me, token),))
                )
                self._relayed.add(val)

    def output(self) -> int:
        if len(self.extracted) == 1:
            return next(iter(self.extracted))
        return 0


class DolevStrongBroadcast:
    """Standalone signed broadcast: every node decides the sender's value."""

    def __init__(self, me, sender, value, participants, t, signer):
        if t < 0:
            raise ValueError("budget t must be >= 0")
        self.inst = _BroadcastInstance(me, sender, value, participants, t, signer)
        self.rounds = ds_broadcast_rounds(t)
        self.participants = self.inst.participants
        self.decision: Optional[int] = None

    def outbox(self, rnd: int):
        return [(self.participants, p) for p in self.inst.take_outbox(rnd)]

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        self.inst.deliver(rnd, inbox)
        if rnd == self.rounds:
            self.decision = self.inst.output()


class DolevStrongBA:
    """Agreement via parallel signed broadcasts, one instance per member.

    After the t+1 broadcast rounds each node takes the majority of the m
    instance outputs (ties to 0) as its decision, then one more round
    exchanges the decisions so they appear in transcripts.
    """

    def __init__(self, me, input_bit, participants, t, signer):
        if t < 0:
            raise ValueError("budget t must be >= 0")
        self.me = me
        self.participants = tuple(sorted(set(participants)))
        if me not in self.participants:
            raise ValueError(f"node {me} is not among the participants")
        self.t = t
        self.rounds = ds_ba_rounds(t)
        self.instances = {
            s: _BroadcastInstance(
                me, s, input_bit if s == me else None, self.participants, t, signer
            )
            for s in self.participants
        }
        self._verdict: Optional[int] = None
        self.decision: Optional[int] = None

    def outbox(self, rnd: int):
        if rnd > self.rounds:
            return []
        if rnd == self.rounds:
            return [(self.participants, ("dsdec", self._verdict))]
        out = []
        for inst in self.instances.values():  # in participant order
            if rnd in inst._queue:
                out.extend((self.participants, p) for p in inst.take_outbox(rnd))
        return out

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        if rnd < self.rounds:
            # A relay whose value its instance already extracted changes
            # nothing, so it is dropped here rather than handed on.
            by_instance = {}
            instances = self.instances
            for msg in inbox:
                payload = msg[1]
                if isinstance(payload, tuple) and len(payload) == 5 and payload[0] == "ds":
                    inst = instances.get(payload[1])
                    if inst is not None and payload[3] not in inst.extracted:
                        by_instance.setdefault(inst, []).append(msg)
            for inst, msgs in by_instance.items():
                inst.deliver(rnd, msgs)
            if rnd == self.rounds - 1:
                outs = [self.instances[s].output() for s in self.participants]
                ones = sum(outs)
                self._verdict = 1 if 2 * ones > len(outs) else 0
        else:
            self.decision = self._verdict
