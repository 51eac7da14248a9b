"""Inner-protocol checks: phase king, signed broadcast, broadcast-based BA.

Everything here drives the protocols through the engine with explicit
participants/budget params, the same way the wrappers schedule them.
"""

from fractions import Fraction

from byzsim.adversary import (
    crash_after,
    random_noise,
    replay_honest,
    silent,
    split_brain,
)
from byzsim.core import Configuration
from byzsim.protocols import ds_ba_rounds, ds_broadcast_rounds, phase_king_rounds
from byzsim.simnet import AdversaryStrategy, Scenario, payload_digest, run_simulation


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
