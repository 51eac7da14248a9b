"""Inner-protocol checks: phase king, signed broadcast, broadcast-based BA.

Everything here drives the protocols through the engine with explicit
participants/budget params, the same way the wrappers schedule them, except
the Phase King tallies, which are fed hand-built inboxes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import byzsim.protocols as protocols
from byzsim.adversary import (
    crash_after,
    random_noise,
    replay_honest,
    silent,
    split_brain,
)
from byzsim.core import Configuration
from byzsim.protocols import (
    _LINK_DIGESTS,
    DolevStrongBA,
    DolevStrongBroadcast,
    ds_ba_rounds,
    ds_broadcast_rounds,
    phase_king_rounds,
)
from byzsim.simnet import (
    AdversaryStrategy,
    Inbox,
    Memo,
    Scenario,
    SignatureLedger,
    Signer,
    payload_digest,
    run_simulation,
)


def _run(protocol, n, faulty, inputs, adversary=None, seed=0, t=None,
         sender=None):
    params = {}
    if t is not None:
        params["t"] = t
    if sender is not None:
        params["sender"] = sender
    override = adversary if isinstance(adversary, AdversaryStrategy) else None
    sc = Scenario(
        alpha=Fraction(1, 2) if protocol == "phase_king" else Fraction(3, 4),
        config=Configuration(n, frozenset(faulty), inputs),
        prediction=None,
        adversary=silent() if override else (adversary or silent()),
        seed=seed, protocol=protocol, params=params,
    )
    outcome, _ = run_simulation(sc, adversary=override, record_transcripts=False)
    return outcome


def _halves(honest):
    mid = len(honest) // 2
    return (tuple(honest[:mid]), tuple(honest[mid:]))


LIBRARY_BUILDERS = (
    ("silent", lambda honest: silent()),
    ("crash", lambda honest: crash_after(2)),
    ("noise", lambda honest: random_noise(0)),
    ("split_brain", lambda honest: split_brain(_halves(honest), 0, 1)),
    ("replay_one", lambda honest: replay_honest(1)),
    ("replay_zero", lambda honest: replay_honest(0)),
)


# ---------------------------------------------------------------------------
# Phase king
# ---------------------------------------------------------------------------


def test_phase_king_unanimous_all_honest():
    out = _run("phase_king", 4, set(), {1: 1, 2: 1, 3: 1, 4: 1}, t=1)
    assert out.termination and out.agreement and out.validity
    assert set(out.decisions.values()) == {1}


def test_phase_king_silent_faulty_keeps_unanimity():
    out = _run("phase_king", 4, {4}, {1: 0, 2: 0, 3: 0}, t=1)
    assert set(out.decisions.values()) == {0}
    assert out.agreement and out.validity


def test_phase_king_split_inputs_with_equivocators_agree():
    # seven nodes, two faulty running split personas; honest inputs mixed,
    # so only agreement (a common bit) is required, not a particular value
    honest = [1, 2, 3, 4, 5]
    out = _run(
        "phase_king", 7, {6, 7}, {1: 1, 2: 0, 3: 1, 4: 0, 5: 1},
        adversary=split_brain(((1, 2), (3, 4, 5)), 0, 1), t=2,
    )
    assert out.termination and out.agreement
    assert len(set(out.decisions.values())) == 1


def test_phase_king_decides_exactly_on_schedule():
    for t, n, faulty, inputs in (
        (1, 4, {4}, {1: 1, 2: 0, 3: 1}),
        (2, 7, {7}, {i: i % 2 for i in range(1, 7)}),
    ):
        out = _run("phase_king", n, faulty, inputs, t=t)
        assert out.decided_round == phase_king_rounds(t) == 3 * (t + 1)


# Malformed payloads: a non-sequence, an empty tuple, a message cut short.
_JUNK = {"int": 5, "empty": (), "short": ("pk", 0)}


@pytest.mark.parametrize("junk", list(_JUNK.values()), ids=list(_JUNK))
def test_phase_king_tallies_skip_a_malformed_payload(junk):
    # Only a sender's first matching message counts, so a malformed one
    # before it must not use up the sender's turn.
    group = frozenset({1, 2, 3})
    inbox = [(2, junk), (2, ("pk", 0, "val", 1)), (3, junk), (3, ("pk", 0, "val", 0)),
             (3, ("pk", 0, "val", 1))]
    assert protocols._pk_counts(inbox, 0, "val", group) == [1, 1]
    assert protocols._king_value([(2, junk), (2, ("pk", 0, "king", 1))], 0, 2) == 1
    assert protocols._king_value([(2, junk)], 0, 2) == 0


def test_phase_king_thousand_seed_battery():
    # budget-respecting faults (f < ceil(m/3)) across the whole adversary
    # library; only the noise strategy reads the seed, so it gets the
    # thousand distinct trials and the deterministic strategies run once
    cases = (
        (4, {4}, {1: 1, 2: 0, 3: 1}, 1),
        (7, {6, 7}, {1: 1, 2: 0, 3: 1, 4: 0, 5: 1}, 2),
    )
    for n, faulty, inputs, t in cases:
        honest = sorted(set(range(1, n + 1)) - faulty)
        for name, build in LIBRARY_BUILDERS:
            seeds = range(1000) if name == "noise" else (0,)
            for k in seeds:
                out = _run("phase_king", n, faulty, inputs,
                           adversary=build(honest), seed=k, t=t)
                assert out.termination and out.agreement, (n, name, k)
                assert len(set(out.decisions.values())) == 1


# ---------------------------------------------------------------------------
# Dolev-Strong broadcast
# ---------------------------------------------------------------------------


def test_broadcast_honest_sender_no_faults():
    out = _run("dolev_strong_broadcast", 4, set(),
               {1: 1, 2: 0, 3: 0, 4: 0}, t=1, sender=1)
    assert set(out.decisions.values()) == {1}
    assert out.decided_round == ds_broadcast_rounds(1) == 2


def test_broadcast_honest_sender_survives_library():
    for name, build in LIBRARY_BUILDERS:
        honest = [1, 2, 3]
        seeds = range(25) if name == "noise" else (0,)
        for k in seeds:
            out = _run("dolev_strong_broadcast", 4, {4},
                       {1: 1, 2: 0, 3: 0}, adversary=build(honest),
                       seed=k, t=1, sender=1)
            assert set(out.decisions.values()) == {1}, (name, k)


class _EquivocatingSender(AdversaryStrategy):
    """Faulty designated sender signs 0 to one half, 1 to the other."""

    def begin(self, ctx):
        self.ctx = ctx
        self.signer = ctx.signer_for(4)

    def emit(self, rnd, honest_messages):
        if rnd != 1:
            return []
        out = []
        for value, targets in ((0, (1, 2)), (1, (3,))):
            digest = payload_digest(("ds-link", 4, value, ()))
            chain = ((4, self.signer.sign(digest)),)
            out.append((4, targets, ("ds", 4, 1, value, chain)))
        return out


def test_broadcast_equivocating_sender_still_consistent():
    out = _run("dolev_strong_broadcast", 4, {4}, {1: 0, 2: 0, 3: 0},
               adversary=_EquivocatingSender(), t=1, sender=4)
    assert out.termination
    assert len(set(out.decisions.values())) == 1
    # both values reached every honest node through relays, so the
    # two-values-extracted default applies
    assert set(out.decisions.values()) == {0}


class _ChainForger(AdversaryStrategy):
    """Relays a chain whose first link pretends to be the honest sender."""

    def begin(self, ctx):
        self.ctx = ctx
        self.signer = ctx.signer_for(4)

    def emit(self, rnd, honest_messages):
        if rnd != 2:
            return []
        fake = "0" * 64  # never minted by the ledger
        digest = payload_digest(("ds-link", 1, 0, (1,)))
        chain = ((1, fake), (4, self.signer.sign(digest)))
        return [(4, (2, 3), ("ds", 1, 2, 0, chain))]


def test_broadcast_ignores_forged_honest_link():
    out = _run("dolev_strong_broadcast", 4, {4}, {1: 1, 2: 0, 3: 0},
               adversary=_ChainForger(), t=1, sender=1)
    # the forged 0-chain is dropped at signature verification, so the
    # honest sender's 1 stands everywhere
    assert set(out.decisions.values()) == {1}


def test_broadcast_silent_faulty_sender_defaults_zero():
    out = _run("dolev_strong_broadcast", 4, {4}, {1: 0, 2: 1, 3: 1},
               t=1, sender=4)
    assert set(out.decisions.values()) == {0}


# ---------------------------------------------------------------------------
# Dolev-Strong agreement
# ---------------------------------------------------------------------------


def test_ds_ba_all_honest_zero():
    out = _run("dolev_strong_ba", 4, set(), {1: 0, 2: 0, 3: 0, 4: 0}, t=1)
    assert set(out.decisions.values()) == {0}
    assert out.decided_round == ds_ba_rounds(1) == 3


def test_ds_ba_majority_with_ties_to_zero():
    # honest inputs (0,0,1): the faulty member cannot flip a 3-of-4 majority
    out = _run("dolev_strong_ba", 4, {4}, {1: 0, 2: 0, 3: 1},
               adversary=replay_honest(1), t=1)
    assert set(out.decisions.values()) == {0}


def test_ds_ba_unanimous_ones_survive_two_equivocators():
    out = _run("dolev_strong_ba", 5, {4, 5}, {1: 1, 2: 1, 3: 1},
               adversary=split_brain(((1,), (2, 3)), 0, 1), t=2)
    assert set(out.decisions.values()) == {1}
    assert out.decided_round == ds_ba_rounds(2) == 4


def test_ds_ba_library_battery_within_budget():
    # m=5, t=2, f=2 < ceil(5/2): agreement and validity over the library
    honest = [1, 2, 3]
    for name, build in LIBRARY_BUILDERS:
        seeds = range(25) if name == "noise" else (0,)
        for k in seeds:
            out = _run("dolev_strong_ba", 5, {4, 5}, {1: 1, 2: 1, 3: 1},
                       adversary=build(honest), seed=k, t=2)
            assert set(out.decisions.values()) == {1}, (name, k)


# ---------------------------------------------------------------------------
# Dolev-Strong delivery against the per-sender reference
# ---------------------------------------------------------------------------


class _ReferenceIndex:
    """The chain index as it was before delivery became one loop per node:
    every qualifying relay kept per (sender, value) as (position, payload),
    and each (sender, value)'s first valid relay found for the node that
    asks, skipping the values it has extracted."""

    def __init__(self, inbox, rnd, group):
        self.group = group
        self.relays = {}  # sender -> {value: [(position, payload), ...]}
        for pos, (_, p) in enumerate(inbox):
            if (isinstance(p, tuple) and len(p) == 5 and p[0] == "ds" and p[2] == rnd
                    and p[1] in group and type(p[3]) is int and (p[3] == 0 or p[3] == 1)):
                self.relays.setdefault(p[1], {}).setdefault(p[3], []).append((pos, p))

    def accepted(self, sender, extracted, verify):
        hits = []
        for v, relays in self.relays[sender].items():
            if v in extracted:
                continue
            for pos, payload in relays:
                signers = self._signers(payload, verify)
                if signers is not None:
                    hits.append((pos, payload, signers))
                    break
        if len(hits) == 2 and hits[1][0] < hits[0][0]:
            hits.reverse()
        return hits

    def _signers(self, payload, verify):
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


def _reference_deliver(node, rnd, inbox, extracted, signer):
    """The per-sender delivery of node's class on a copy of its state:
    updates extracted in place and returns (the relays queued for rnd + 1
    as outbox hands them out, _verdict for agreement or decision for
    broadcast)."""
    queued = []  # (sender, payload)
    me, t, ba = node.me, node.t, isinstance(node, DolevStrongBA)
    index = _ReferenceIndex(inbox, rnd, frozenset(node.participants))

    def accept(s):
        relays = rnd <= t and me != s
        for _, (_, _, _, val, chain), signers in index.accepted(
                s, extracted.get(s, ()), signer.verify):
            extracted.setdefault(s, set()).add(val)
            if relays and me not in signers:
                token = signer.sign(_LINK_DIGESTS[s, val, signers])
                queued.append((s, ("ds", s, rnd + 1, val, chain + ((me, token),))))

    if ba:
        for s, offered in index.relays.items():
            done = extracted.get(s)
            if done is None or not done.issuperset(offered):
                accept(s)
        result = None
        if rnd == node.rounds - 1:
            ones = sum(values == {1} for values in extracted.values())
            result = 1 if 2 * ones > len(node.participants) else 0
    else:
        if node.sender in index.relays:
            accept(node.sender)
        result = None
        if rnd == node.rounds:
            values = extracted.get(node.sender, ())
            result = next(iter(values)) if len(values) == 1 else 0
    queued.sort(key=lambda item: item[0])
    return [(node.participants, p) for _, p in queued], result


_DS_GROUP = (1, 2, 3, 4, 5)
_DS_IDS = _DS_GROUP + (6, 7)  # 6 and 7 are outside the group
# How a generated relay is made: each kind past "valid" breaks one rule.
_RELAY_KINDS = ("valid", "valid", "valid", "unminted", "wrong_token", "short", "long",
                "first_not_sender", "repeated_signer", "outsider_signer", "bad_link",
                "list_chain", "wrong_round", "outsider_sender", "bad_value", "bool_value",
                "four_fields", "list_payload", "other_tag", "not_ds")


@st.composite
def _ds_relay(draw, rnd):
    kind = draw(st.sampled_from(_RELAY_KINDS))
    s = draw(st.sampled_from(_DS_IDS if kind == "outsider_sender" else _DS_GROUP))
    others = [i for i in _DS_GROUP if i != s]
    signers = [s] + draw(st.permutations(others))[:rnd - 1]
    return (draw(st.sampled_from(_DS_IDS)), kind, s, draw(st.sampled_from((0, 1))),
            signers)


def _materialize(relay, rnd, ledger):
    """The inbox entry a _ds_relay description stands for; valid links are
    minted in ledger."""
    envelope, kind, s, v, signers = relay
    if kind == "bool_value":
        v = bool(v)
    if kind == "bad_value":
        v = 2
    if kind == "short":
        signers = signers[:-1]
    if kind == "long":
        signers = signers + [next(i for i in _DS_GROUP if i not in signers)] \
            if len(signers) < len(_DS_GROUP) else signers + [7]
    if kind == "first_not_sender":
        signers = [signers[-1], *signers[1:-1], signers[0]] if len(signers) > 1 \
            else [s % len(_DS_GROUP) + 1]
    if kind == "repeated_signer":
        signers = signers[:-1] + [signers[0]]
    if kind == "outsider_signer":
        signers = signers[:-1] + [6] if len(signers) > 1 else [6]
    chain = []
    for j, who in enumerate(signers):
        digest = payload_digest(("ds-link", s, v, tuple(signers[:j])))
        token = ledger.mint(who, digest)
        if kind == "unminted" and j == len(signers) - 1:
            del ledger._minted[who, digest]
        if kind == "wrong_token" and j == len(signers) - 1:
            token = "0" * 16
        chain.append([who, token] if kind == "bad_link" and j == 0 else (who, token))
    chain = chain if kind == "list_chain" else tuple(chain)
    payload = ("ds", s, rnd + 1 if kind == "wrong_round" else rnd, v, chain)
    if kind == "four_fields":
        payload = payload[:4]
    elif kind == "list_payload":
        payload = list(payload)
    elif kind == "other_tag":
        payload = ("dx",) + payload[1:]
    elif kind == "not_ds":
        payload = ("pk", 0, "val", v)
    return envelope, payload


@st.composite
def _ds_case(draw):
    t = draw(st.integers(0, 3))
    ba = draw(st.booleans())
    rounds = ds_ba_rounds(t) if ba else ds_broadcast_rounds(t)
    rnd = draw(st.integers(1, rounds - 1 if ba else rounds))
    relays = draw(st.lists(_ds_relay(rnd), max_size=12))
    # A valid relay of each value from one drawn sender, at random places:
    # two values meet in either order, and broken first relays meet valid
    # later ones.
    if relays and draw(st.booleans()):
        envelope, _, s, v, signers = draw(st.sampled_from(relays))
        relays.insert(draw(st.integers(0, len(relays))), (envelope, "valid", s, v, signers))
        relays.insert(draw(st.integers(0, len(relays))), (envelope, "valid", s, 1 - v, signers))
    relays.sort(key=lambda relay: relay[0])  # an engine inbox is in envelope order
    states = st.dictionaries(st.sampled_from(_DS_GROUP),
                             st.sets(st.sampled_from((0, 1)), min_size=1), max_size=4)
    nodes = draw(st.lists(st.tuples(st.sampled_from(_DS_GROUP), states), min_size=1,
                          max_size=3))
    return dict(t=t, ba=ba, rnd=rnd, relays=relays, nodes=nodes,
                sender=draw(st.sampled_from(_DS_GROUP)), shared=draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_ds_case())
def test_ds_delivery_matches_the_per_sender_reference(case):
    t, rnd = case["t"], case["rnd"]
    master = SignatureLedger()
    entries = [_materialize(relay, rnd, master) for relay in case["relays"]]
    ledger = SignatureLedger()
    ledger._minted = dict(master._minted)
    nodes = []
    for me, state in case["nodes"]:
        signer = Signer(ledger, me)
        if case["ba"]:
            node = DolevStrongBA(me, 0, _DS_GROUP, t, signer)
        else:
            node = DolevStrongBroadcast(me, case["sender"], 1, _DS_GROUP, t, signer)
        node.extracted = {s: set(values) for s, values in state.items()}
        node._relays = {}
        nodes.append(node)
    reference = SignatureLedger()
    reference._minted = dict(ledger._minted)
    # One Inbox handed to every node shares the index and its hits; a plain
    # list gives each node its own.
    inbox = Inbox(entries) if case["shared"] else list(entries)
    for node in nodes:
        extracted = {s: set(values) for s, values in node.extracted.items()}
        queued, result = _reference_deliver(node, rnd, list(entries), extracted,
                                            Signer(reference, node.me))
        node.deliver(rnd, inbox if case["shared"] else list(entries))
        assert node.extracted == extracted
        assert node._relays == ({rnd + 1: queued} if queued else {})
        assert (node._verdict if case["ba"] else node.decision) == result
    assert ledger._minted == reference._minted


def test_a_true_relay_value_is_extracted_under_neither_memo_order(monkeypatch):
    # True equals 1 as a dict key, so a relay of value True would have its
    # links checked against whichever digest of (1, 1, ()) or (1, True, ())
    # the link memo met first. It is no relay value, whatever the memo holds,
    # also after an unsigned relay of 1 that makes the index look for 1.
    ledger = SignatureLedger()
    token = ledger.mint(1, payload_digest(("ds-link", 1, 1, ())))
    relay = (1, ("ds", 1, 1, True, ((1, token),)))
    unsigned = (1, ("ds", 1, 1, 1, ((1, "0" * 16),)))
    for first in (1, True):
        for inbox in ([relay], [unsigned, relay]):
            links = Memo(lambda key: payload_digest(("ds-link", *key)))
            assert links[1, first, ()] == payload_digest(("ds-link", 1, first, ()))
            monkeypatch.setattr(protocols, "_LINK_DIGESTS", links)
            node = DolevStrongBroadcast(2, 1, 0, (1, 2, 3), 1, Signer(ledger, 2))
            node.deliver(1, inbox)
            assert node.extracted == {} and node._relays == {}
