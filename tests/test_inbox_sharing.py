"""Shared inboxes: the engine hands listeners addressed alike one inbox list,
personas with the same view share one list, and Dolev-Strong nodes share one
chain index per list. These tests pin what sharing relies on: no deliver or
observe mutates an inbox, sharing changes no outcome, transcript or minted
signature, and no chain accepted in round r rests on a signature first
minted during round r.
"""

from fractions import Fraction

import pytest

from byzsim import simnet
from byzsim.adversary import build_strategy, persona_network, random_noise, split_brain
from byzsim.core import Configuration
from byzsim.harness import LIBRARY, library_names, materialize_adversary
from byzsim.registry import factory_for
from byzsim.simnet import Scenario, run_simulation

_PROTOCOLS = {"nonauth": ("pred_ba", "phase_king"),
              "auth": ("auth_pred_ba", "dolev_strong_ba", "dolev_strong_broadcast")}
_WRAPPERS = ("pred_ba", "auth_pred_ba")


def _scenario(mode, protocol, adversary, n=10, faulty=(8, 9, 10), prediction=None,
              alpha=Fraction(3, 5), seed=7):
    honest = [i for i in range(1, n + 1) if i not in faulty]
    config = Configuration(n, frozenset(faulty), {i: i % 2 for i in honest})
    if prediction is None and protocol in _WRAPPERS:
        prediction = frozenset(range(1, n + 1))
    if not isinstance(adversary, simnet.AdversarySpec):
        adversary = materialize_adversary(adversary, config)
    return Scenario(n=n, mode=mode, alpha=alpha, config=config, prediction=prediction,
                    adversary=adversary, seed=seed, protocol=protocol)


def _library_cases():
    for mode, protocols in _PROTOCOLS.items():
        for protocol in protocols:
            for name in library_names(7):
                yield pytest.param(mode, protocol, name, id=f"{protocol}-{name}")


def _wrapped_run(sc, wrap_deliver, wrap_observe=None):
    """run_simulation with every node and persona deliver (and observe) wrapped."""
    make = factory_for(sc)

    def factory(ctx):
        inst = make(ctx)
        inst.deliver = wrap_deliver(inst.deliver)
        return inst

    strategy = build_strategy(sc.adversary, sc)
    if wrap_observe is not None:
        strategy.observe = wrap_observe(strategy.observe)
    return run_simulation(sc, protocol=factory, adversary=strategy)


@pytest.mark.parametrize("mode, protocol, name", _library_cases())
def test_deliver_and_observe_never_mutate_an_inbox(mode, protocol, name):
    calls = []

    def checked_deliver(deliver):
        def wrapped(rnd, inbox):
            before = list(inbox)
            deliver(rnd, inbox)
            assert inbox == before, f"deliver mutated its round-{rnd} inbox"
            calls.append(rnd)
        return wrapped

    def checked_observe(observe):
        def wrapped(rnd, inboxes):
            before = {i: list(box) for i, box in inboxes.items()}
            observe(rnd, inboxes)
            assert inboxes == before, f"observe mutated a round-{rnd} inbox"
        return wrapped

    _wrapped_run(_scenario(mode, protocol, name), checked_deliver, checked_observe)
    assert calls


def _copying(deliver):
    def wrapped(rnd, inbox):
        deliver(rnd, list(inbox))
    return wrapped


def _private_run(sc):
    """run_simulation with sharing defeated: every honest node and every
    observed id gets an inbox list built afresh from the round's messages,
    and every persona a copy of its view. Each engine-built inbox is checked
    against the fresh one on the way."""
    sent = []  # this round's (sender, receivers, payload), honest and faulty

    def fresh(i):
        return [(s, p) for s, receivers, p in sorted(sent, key=lambda m: m[0])
                for r in receivers if r == i]

    strategy = build_strategy(sc.adversary, sc)
    emit, observe = strategy.emit, strategy.observe

    def recording_emit(rnd, honest_messages):
        faulty_messages = emit(rnd, honest_messages)
        sent[:] = list(honest_messages) + [(s, tuple(r), p) for s, r, p in faulty_messages]
        return faulty_messages

    def fresh_observe(rnd, inboxes):
        private = {i: fresh(i) for i in inboxes}
        assert inboxes == private
        observe(rnd, private)

    strategy.emit, strategy.observe = recording_emit, fresh_observe
    make = factory_for(sc)

    def factory(ctx):
        inst = make(ctx)
        deliver = inst.deliver
        if ctx.node_id in sc.config.honest and type(ctx.signer) is simnet.Signer:
            def fresh_deliver(rnd, inbox, me=ctx.node_id):
                private = fresh(me)
                assert inbox == private
                deliver(rnd, private)
            inst.deliver = fresh_deliver
        else:
            inst.deliver = _copying(deliver)
        return inst

    return run_simulation(sc, protocol=factory, adversary=strategy)


def _run_and_mints(monkeypatch, sc, share: bool):
    """Outcome, transcripts and the minted (signer, digest) keys of one run."""
    ledgers = []
    init = simnet.SignatureLedger.__init__

    def recording_init(self):
        init(self)
        ledgers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(simnet.SignatureLedger, "__init__", recording_init)
        outcome, transcripts = run_simulation(sc) if share else _private_run(sc)
    (ledger,) = ledgers
    return outcome, [t.to_json() for t in transcripts], set(ledger._minted)


def _sharing_cases():
    n, faulty = 12, (1, 2, 3, 4)
    honest = list(range(5, n + 1))
    P = frozenset(honest)
    spoofed = frozenset(range(1, 9))  # personas derive another active set
    network = persona_network(
        {"x": {c: (1, spoofed) for c in faulty}, "y": {c: (0, None) for c in faulty}},
        emission=[("x", None, honest[:4]), ("y", None, honest[4:])])
    # Personas 1 and 2 share an engine inbox, but only 1 is in the active set
    # that personas 3 and 4 derive, so only 1 hears their traffic.
    narrow = frozenset({1, 3, 4}) | frozenset(range(5, 11))
    mixed = persona_network(
        {"w": {1: (1, spoofed), 2: (1, spoofed), 3: (0, narrow), 4: (0, narrow)}},
        emission=[("w", None, honest)])
    # Honest nodes with different local predictions share inboxes but run
    # Dolev-Strong in different groups.
    local = {i: (P | {1}) if i % 2 else (P | {2, 3}) for i in honest}
    yield "random_noise", _scenario("auth", "auth_pred_ba", random_noise(3), n, faulty)
    yield "split_brain", _scenario("auth", "auth_pred_ba",
                                   split_brain((honest[:4], honest[4:]), 0, 1), n, faulty)
    yield "split_brain_nonauth", _scenario("nonauth", "pred_ba",
                                           split_brain((honest[:4], honest[4:]), 0, 1),
                                           n, faulty)
    yield "persona_network", _scenario("auth", "auth_pred_ba", network, n, faulty,
                                       prediction=P)
    yield "persona_views", _scenario("auth", "auth_pred_ba", mixed, n, faulty,
                                     prediction=P | {1, 2})
    yield "local_predictions", _scenario("auth", "auth_pred_ba", "replay_one", n, faulty,
                                         prediction=local)
    for name in LIBRARY:
        yield f"dolev_strong_ba-{name}", _scenario("auth", "dolev_strong_ba", name, n, faulty)
        yield f"dolev_strong_broadcast-{name}", _scenario(
            "auth", "dolev_strong_broadcast", name, n, (2, 3, 4, 12))
    # The designated sender (node 1) is faulty and shows each half another value.
    yield "dolev_strong_broadcast-equivocating", _scenario(
        "auth", "dolev_strong_broadcast", "split_brain", n, (1, 2, 3, 12))


_SHARING = dict(_sharing_cases())


@pytest.mark.parametrize("sc", _SHARING.values(), ids=list(_SHARING))
def test_shared_inboxes_change_nothing(monkeypatch, sc):
    shared = _run_and_mints(monkeypatch, sc, share=True)
    private = _run_and_mints(monkeypatch, sc, share=False)
    assert shared == private
    assert shared[0].termination


def test_listeners_addressed_alike_share_one_inbox():
    sc = _SHARING["split_brain"]
    seen = []

    def recording(deliver):
        def wrapped(rnd, inbox):
            seen.append((rnd, id(inbox)))
            deliver(rnd, inbox)
        return wrapped

    _wrapped_run(sc, recording)
    # Honest nodes and personas together: far fewer lists than deliveries.
    assert len(set(seen)) * 3 < len(seen)


@pytest.mark.parametrize("sc", [sc for name, sc in _SHARING.items()
                                if sc.mode == "auth"], ids=[
    name for name, sc in _SHARING.items() if sc.mode == "auth"])
def test_no_chain_rests_on_a_signature_minted_the_same_round(monkeypatch, sc):
    # Every node checks its own copy, so each chain is verified wherever it
    # is read; a check against a key first minted in the same round would
    # make a shared index depend on which node built it.
    clock = [0]
    minted_in = {}
    checked = []
    mint, verify = simnet.SignatureLedger.mint, simnet.SignatureLedger.verify

    def timed_mint(self, signer, digest, **kwargs):
        minted_in.setdefault((signer, digest), clock[0])
        return mint(self, signer, digest, **kwargs)

    def timed_verify(self, token, signer, digest):
        checked.append((clock[0], (signer, digest)))
        return verify(self, token, signer, digest)

    monkeypatch.setattr(simnet.SignatureLedger, "mint", timed_mint)
    monkeypatch.setattr(simnet.SignatureLedger, "verify", timed_verify)
    strategy = build_strategy(sc.adversary, sc)
    emit = strategy.emit

    def clocked_emit(rnd, honest_messages):
        clock[0] = rnd
        return emit(rnd, honest_messages)

    strategy.emit = clocked_emit
    make = factory_for(sc)

    def factory(ctx):
        inst = make(ctx)
        inst.deliver = _copying(inst.deliver)
        return inst

    run_simulation(sc, protocol=factory, adversary=strategy)
    assert checked
    same_round = [(rnd, key) for rnd, key in checked if minted_in.get(key) == rnd]
    assert same_round == []
