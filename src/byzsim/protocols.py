"""Inner agreement protocols: a phase-king consensus and signed broadcast.

Both are written as synchronous state machines against the engine's
outbox/deliver API. Rounds are global and start at 1; when a wrapper embeds
one of these it starts it at round 1 of the run as well, so no offsets are
involved anywhere.

Message hygiene rules shared by both protocols and the wrapper: a node
considers only the first message per sender matching the expected shape of
the current step (first_votes, for every Phase King tally and the wrapper's
adopts); everything malformed, duplicated or out of step is ignored
(absence and garbage are treated alike). Broadcasts include the sender.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .simnet import Memo, once_per_inbox, payload_digest


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

    Its tallies (first_votes) depend only on the inbox, the phase, and the
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
            counts = once_per_inbox(inbox, first_votes, self._group, "pk", phase, "val")
            self._propose = None
            for b in (0, 1):
                if counts[b] >= self.m - self.t:
                    self._propose = b
                    break
            self._support = 0
        elif step == 1:
            counts = once_per_inbox(inbox, first_votes, self._group, "pk", phase, "prop")
            if max(counts) > self.t:
                self.value = 0 if counts[0] >= counts[1] else 1
            self._support = counts[self.value]
        else:
            if self._support < self.m - self.t:
                king = (self._king(phase),)
                votes = once_per_inbox(inbox, first_votes, king, "pk", phase, "king")
                self.value = 1 if votes == [0, 1] else 0
            if rnd == self.rounds:
                self.decision = self.value


def first_votes(inbox, group, *head) -> list:
    """Per-bit counts of the first vote of each sender in group: its first
    message (*head, bit, ...) with bit 0 or 1. A message of any other shape
    does not use up its sender's turn."""
    counts = [0, 0]
    pending = set(group)
    k = len(head) + 1
    zero, one = head + (0,), head + (1,)
    for s, p in inbox:
        if s in pending:
            try:
                vote = p if len(p) == k else p[:k]
            except TypeError:
                continue
            if vote == zero:
                counts[0] += 1
            elif vote == one:
                counts[1] += 1
            else:
                continue
            pending.discard(s)
    return counts


# Link digests are pure functions of key = (sender, value, signer prefix),
# so one process-wide memo serves every node and run. Chains revalidate
# shared prefixes constantly; without the memo the JSON canonicalization
# inside payload_digest dominates long-chain rounds. The lambda looks up
# payload_digest when it runs, so a wrapper installed on this module's
# global sees every digest made.
_LINK_DIGESTS = Memo(lambda key: payload_digest(("ds-link", *key)))


class _ChainIndex:
    """The signed-broadcast relays of one round's inbox, by sender and value.

    ``relays`` maps each sender, in ascending order, to the values its
    relays offer, each with the inbox position of its first relay. Relays
    with a malformed shape, a sender outside the group, a value other than
    the int 0 or 1 (``True`` would share the link digests of 1) or another
    round's number never qualify and are left out.

    A sender's hits, the first valid relay of each of its values, are found
    on first demand and then serve every node that holds the same inbox:
    chain validity does not depend on the node checking it. A round-r chain
    verifies links over signer prefixes shorter than r, and the relay
    signatures minted while round r is delivered are over prefixes of
    length r. The index keeps no reference to the inbox it is kept on.
    """

    def __init__(self, inbox, rnd: int, group: frozenset):
        self.group = group
        self.rnd = rnd
        relays = {}  # sender -> {value: position of its first relay}
        for pos, (_, p) in enumerate(inbox):
            if (isinstance(p, tuple) and len(p) == 5 and p[0] == "ds" and p[2] == rnd
                    and p[1] in group and type(p[3]) is int and (p[3] == 0 or p[3] == 1)):
                by_value = relays.get(p[1])
                if by_value is None:
                    relays[p[1]] = {p[3]: pos}
                elif p[3] not in by_value:
                    by_value[p[3]] = pos
        self.relays = dict(sorted(relays.items()))
        self.hits = {}  # sender -> ((value, chain, signers), ...)

    def sender_hits(self, sender, inbox, verify) -> tuple:
        """The first valid relay in inbox of each value of sender, as
        (value, chain, signers), in inbox order; made on first demand and
        kept."""
        found = []
        rnd = self.rnd
        for v, first in self.relays[sender].items():
            for pos in range(first, len(inbox)):
                p = inbox[pos][1]
                if not (isinstance(p, tuple) and len(p) == 5 and p[0] == "ds"
                        and p[1] == sender and p[2] == rnd and p[3] == v
                        and type(p[3]) is int):
                    continue
                signers = self._signers(p, verify)
                if signers is not None:
                    found.append((pos, (v, p[4], signers)))
                    break
        if len(found) == 2 and found[1][0] < found[0][0]:
            found.reverse()
        hits = self.hits[sender] = tuple(hit for _, hit in found)
        return hits

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
            if not verify(token, who, _LINK_DIGESTS[s, v, tuple(signers[:j])]):
                return None
        return tuple(signers)


class _SignedRelays:
    """One node's whole signed-broadcast state, for every sender at once.

    A chain is a tuple of (signer_id, token) pairs. The j-th token signs the
    digest of ("ds-link", sender, value, signers-before-j), so a chain is
    bound to its exact signer sequence and value. A relay received in round
    r is accepted iff its chain carries exactly r pairwise-distinct
    participant signatures, the first by the broadcast's sender, all valid
    (see _ChainIndex). Each value is extracted once per sender; a node
    relays what it extracts in rounds 1..t, with its own signature
    appended, unless its signature is already on the chain (as it always is
    on its own broadcast).

    ``extracted`` maps each sender to the values extracted from its
    broadcast; a sender without an entry extracted nothing. ``_relays`` maps
    each round to the messages queued for it, in ascending order of
    broadcast sender; outbox hands that list out as it is, or () when
    nothing is queued. Chain indexes are built once per non-empty inbox,
    round and group (see simnet.once_per_inbox), so every node handed the
    same inbox shares one; an empty inbox builds none.
    """

    def __init__(self, me, participants, t, signer):
        if t < 0:
            raise ValueError("budget t must be >= 0")
        self.me = me
        self.participants = tuple(sorted(set(participants)))
        if me not in self.participants:
            raise ValueError(f"node {me} is not among the participants")
        self.t = t
        self._group = frozenset(self.participants)
        self._signer = signer
        self.extracted = {}  # sender -> {value, ...}
        self._relays = {}  # round -> [(participants, payload), ...]

    def _broadcast(self, value) -> None:
        """Start this node's own broadcast of value (None sends nothing)."""
        if value is not None:
            me, v = self.me, int(value)
            chain = ((me, self._signer.sign(_LINK_DIGESTS[me, v, ()])),)
            self._relays[1] = [(self.participants, ("ds", me, 1, v, chain))]
            self.extracted[me] = {v}

    def output(self, sender) -> int:
        """sender's broadcast output: the one value extracted from it, else 0."""
        values = self.extracted.get(sender, ())
        return next(iter(values)) if len(values) == 1 else 0

    def _extract(self, rnd: int, inbox, index: _ChainIndex, offers) -> None:
        """Extract the values of inbox's valid relays from the senders in
        offers, (sender, offered values) pairs of index.relays in ascending
        sender order, and queue the relays they call for.

        A sender whose offered values are all extracted has nothing new, so
        its hits are not looked up."""
        extracted, me, hits_of = self.extracted, self.me, index.hits
        queue = [] if rnd <= self.t else None
        nxt = rnd + 1
        for s, offered in offers:
            done = extracted.get(s)
            if done is not None and done.issuperset(offered):
                continue
            hits = hits_of.get(s)
            if hits is None:
                hits = index.sender_hits(s, inbox, self._signer.verify)
            for v, chain, signers in hits:
                if done is None:
                    done = extracted[s] = {v}
                elif v in done:
                    continue
                else:
                    done.add(v)
                if queue is not None and me not in signers:
                    token = self._signer.sign(_LINK_DIGESTS[s, v, signers])
                    queue.append((self.participants,
                                  ("ds", s, nxt, v, chain + ((me, token),))))
        if queue:
            self._relays[nxt] = queue


class DolevStrongBroadcast(_SignedRelays):
    """Standalone signed broadcast: every node decides the sender's value."""

    def __init__(self, me, sender, value, participants, t, signer):
        super().__init__(me, participants, t, signer)
        if sender not in self.participants:
            raise ValueError(f"sender {sender} is not among the participants")
        self.sender = sender
        self.rounds = ds_broadcast_rounds(t)
        self.decision: Optional[int] = None
        if me == sender:
            self._broadcast(value)

    def outbox(self, rnd: int):
        return self._relays.pop(rnd, ())

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        if inbox:
            index = once_per_inbox(inbox, _ChainIndex, rnd, self._group)
            offered = index.relays.get(self.sender)
            if offered is not None:
                self._extract(rnd, inbox, index, ((self.sender, offered),))
        if rnd == self.rounds:
            self.decision = self.output(self.sender)


class DolevStrongBA(_SignedRelays):
    """Agreement via parallel signed broadcasts, one per member.

    After the t+1 broadcast rounds each node takes the majority of the m
    broadcast outputs (ties to 0) as its decision, then one more round
    exchanges the decisions so they appear in transcripts (see
    _SignedRelays.output).
    """

    def __init__(self, me, input_bit, participants, t, signer):
        super().__init__(me, participants, t, signer)
        self.rounds = ds_ba_rounds(t)
        self._verdict: Optional[int] = None
        self.decision: Optional[int] = None
        self._broadcast(input_bit)

    def outbox(self, rnd: int):
        if rnd == self.rounds:
            return [(self.participants, ("dsdec", self._verdict))]
        return self._relays.pop(rnd, ())

    def deliver(self, rnd: int, inbox):
        if rnd > self.rounds:
            return
        if rnd == self.rounds:
            self.decision = self._verdict
            return
        if inbox:
            index = once_per_inbox(inbox, _ChainIndex, rnd, self._group)
            self._extract(rnd, inbox, index, index.relays.items())
        if rnd == self.rounds - 1:
            ones = sum(map(self.output, self.extracted))
            self._verdict = 1 if 2 * ones > len(self.participants) else 0
