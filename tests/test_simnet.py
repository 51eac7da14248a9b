"""Engine-level checks: payload codec, scenario files, determinism, ledger."""

import gc
import hashlib
import json
from fractions import Fraction

import pytest

from byzsim import protocols, registry, simnet
from byzsim.adversary import build_strategy, random_noise, replay_honest, silent
from byzsim.core import Configuration
from byzsim.simnet import (
    SCHEMA_VERSION,
    AdversarySpec,
    AdversaryStrategy,
    ForgeryError,
    Scenario,
    SignatureLedger,
    payload_from_json,
    payload_to_json,
    round_budget,
    run_simulation,
)


def _scenario(adversary=None, seed=3, prediction=frozenset(range(1, 7)),
              protocol="pred_ba", mode="nonauth", alpha=Fraction(3, 4)):
    cfg = Configuration(8, frozenset({7, 8}), {i: i % 2 for i in range(1, 7)})
    return Scenario(
        n=8, mode=mode, alpha=alpha, config=cfg, prediction=prediction,
        adversary=adversary or silent(), seed=seed, protocol=protocol,
    )


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------


PAYLOADS = [
    ("pk", 0, "val", 1),
    ("ds", 3, 1, 0, ((3, "deadbeef"),)),
    ("adopt", 1),
    None,
    (),
    ("nested", ("deep", (1, (2, (3,))))),
    ("mixed", None, "", 0),
]


@pytest.mark.parametrize("payload", PAYLOADS)
def test_payload_round_trip(payload):
    text = payload_to_json(payload)
    again = payload_from_json(text)
    assert payload_to_json(again) == text


def test_payload_canonical_is_stable():
    # lists arriving via JSON become tuples; the canonical form is identical
    assert payload_from_json(payload_to_json(("a", (1, 2)))) == ("a", (1, 2))
    assert payload_to_json(("a", 1)) == payload_to_json(("a", 1))


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def test_scenario_json_round_trip_global():
    sc = _scenario()
    doc = sc.to_json()
    assert doc["schema_version"] == SCHEMA_VERSION
    again = Scenario.from_json(json.loads(json.dumps(doc)))
    assert again.to_json() == doc


def test_scenario_json_round_trip_local_and_none():
    local = {i: frozenset({1, 2, i}) for i in range(1, 9)}
    sc = _scenario(prediction=local)
    again = Scenario.from_json(sc.to_json())
    assert again.prediction == sc.prediction
    bare = _scenario(prediction=None, protocol="phase_king")
    again = Scenario.from_json(bare.to_json())
    assert again.prediction is None


def test_scenario_rejects_bad_documents():
    doc = _scenario().to_json()
    with pytest.raises(ValueError):
        Scenario.from_json({**doc, "schema_version": 99})
    with pytest.raises(ValueError):
        Scenario.from_json({**doc, "protocol": "paxos"})
    with pytest.raises(ValueError, match="unknown protocol"):
        Scenario.from_json({**doc, "protocol": ["pred_ba"]})
    with pytest.raises(ValueError):
        Scenario.from_json({**doc, "prediction": {"nonsense": []}})
    with pytest.raises(ValueError):
        # auth alpha range starts at 1/2; 0.4 only works nonauth
        Scenario.from_json({**doc, "mode": "auth", "alpha": "2/5",
                            "protocol": "auth_pred_ba"})


@pytest.mark.parametrize("protocol, mode", list(simnet.PROTOCOLS.items()))
def test_scenario_rejects_a_protocol_in_the_other_mode(protocol, mode):
    other = "auth" if mode == "nonauth" else "nonauth"
    with pytest.raises(ValueError, match=f"runs in {mode} mode, not {other}"):
        _scenario(protocol=protocol, mode=other)


def test_every_protocol_has_one_builder_and_one_mode():
    assert set(registry._BUILDERS) == set(simnet.PROTOCOLS)


def test_scenario_n_must_match_configuration():
    cfg = Configuration(4, frozenset({4}), {1: 0, 2: 0, 3: 0})
    with pytest.raises(ValueError):
        Scenario(n=5, mode="nonauth", alpha=Fraction(1, 2), config=cfg,
                 prediction=None, adversary=silent(), seed=0,
                 protocol="phase_king")


# ---------------------------------------------------------------------------
# Determinism and transcripts
# ---------------------------------------------------------------------------


def _dump(outcome, transcripts):
    return json.dumps(
        {
            "decisions": sorted(outcome.decisions.items()),
            "round": outcome.decided_round,
            "t": [t.to_json() for t in transcripts],
        },
        sort_keys=True,
    )


def test_identical_runs_are_byte_identical():
    sc = _scenario(adversary=random_noise(0), seed=11)
    a = _dump(*run_simulation(sc))
    b = _dump(*run_simulation(sc))
    assert a == b


def test_seed_changes_noise_traffic():
    one = _dump(*run_simulation(_scenario(adversary=random_noise(0), seed=1)))
    two = _dump(*run_simulation(_scenario(adversary=random_noise(0), seed=2)))
    assert one != two


def test_transcripts_cover_honest_side_only():
    sc = _scenario(adversary=replay_honest(1))
    outcome, transcripts = run_simulation(sc)
    assert outcome.termination
    assert sorted(t.node for t in transcripts) == sorted(sc.config.honest)
    for t in transcripts:
        rounds = [r.round for r in t.rounds]
        assert rounds == sorted(rounds)
        for r in t.rounds:
            for _, payload in r.sent + r.received:
                payload_from_json(payload)  # every entry is canonical JSON


def test_transcripts_encode_each_payload_once_per_round(monkeypatch):
    # Calls go through the module global, where tracing hooks in; the
    # signature digests that share the encoder are told apart and not counted.
    # The memo keys on the payload object: an equal payload the adversary
    # built itself is a second object and may be encoded again.
    n, faulty = 12, frozenset({2, 5, 9, 12})
    sc = Scenario(n=n, mode="auth", alpha=Fraction(3, 5),
                  config=Configuration(n, faulty, {i: 0 for i in range(1, n + 1)
                                                   if i not in faulty}),
                  prediction=frozenset(range(1, n + 1)), adversary=replay_honest(1),
                  seed=0, protocol="auth_pred_ba")
    strategy = build_strategy(sc.adversary, sc)
    now, in_digest, calls = [0], [False], []
    observe, digest, encode = strategy.observe, protocols.payload_digest, payload_to_json

    def observe_round(rnd, inboxes):  # the engine encodes round rnd next
        observe(rnd, inboxes)
        now[0] = rnd

    def flagged_digest(payload):
        in_digest[0] = True
        try:
            return digest(payload)
        finally:
            in_digest[0] = False

    def counting(payload):
        if not in_digest[0]:
            calls.append((now[0], payload))  # holding payloads keeps ids unique
        return encode(payload)

    strategy.observe = observe_round
    monkeypatch.setattr(protocols, "payload_digest", flagged_digest)
    monkeypatch.setattr(simnet, "payload_to_json", counting)
    _, transcripts = run_simulation(sc, adversary=strategy)

    keys = [(rnd, id(payload)) for rnd, payload in calls]
    assert len(set(keys)) == len(keys)
    # The entries of the transcript document: one per receiver of a sent message.
    entries = [(r["round"], e["payload"]) for t in transcripts for r in t.to_json()["rounds"]
               for e in r["sent"] + r["received"]]
    assert {(rnd, encode(payload)) for rnd, payload in calls} == set(entries)
    assert 10 * len(calls) < len(entries)


def test_record_transcripts_off_returns_empty():
    outcome, transcripts = run_simulation(_scenario(), record_transcripts=False)
    assert transcripts == []
    assert outcome.termination


def test_round_budget_formula():
    assert round_budget(8) == 40
    assert round_budget(1) == 12


def test_finished_run_leaves_no_reference_cycles():
    # Persona instances, signers and the ledger must be freed by reference
    # counting alone, or every finished run waits for the cyclic collector.
    cfg = Configuration(40, frozenset(range(26, 41)), {i: i % 2 for i in range(1, 26)})
    sc = Scenario(n=40, mode="auth", alpha=Fraction(3, 5), config=cfg,
                  prediction=frozenset(range(1, 41)), adversary=replay_honest(1),
                  seed=0, protocol="auth_pred_ba")
    gc.collect()
    gc.disable()
    try:
        outcome, _ = run_simulation(sc, record_transcripts=False)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert outcome.termination


# ---------------------------------------------------------------------------
# Signatures and the forgery ledger
# ---------------------------------------------------------------------------


def test_ledger_mint_verify_and_audit():
    ledger = SignatureLedger()
    token = ledger.mint(3, "digest-a")
    assert ledger.verify(token, 3, "digest-a")
    assert not ledger.verify(token, 3, "digest-b")
    assert not ledger.verify(token, 4, "digest-a")
    assert not ledger.verify("garbage", 3, "digest-a")
    assert ledger.honest_integrity(frozenset({3}))
    ledger.mint(3, "digest-c", adversarial=True)
    assert not ledger.honest_integrity(frozenset({3}))
    assert ledger.honest_integrity(frozenset({4}))


def test_memo_computes_each_key_once():
    calls = []

    def square(key):
        calls.append(key)
        return key * key

    memo = simnet.Memo(square)
    assert memo[3] == 9 and memo[4] == 16 and memo[3] == 9
    assert calls == [3, 4]
    assert dict(memo) == {3: 9, 4: 16}
    assert 5 not in memo and memo.get(5) is None  # only [] computes


def test_memo_empties_past_its_limit_and_recomputes():
    calls = []

    def double(key):
        calls.append(key)
        return 2 * key

    memo = simnet.Memo(double)
    memo.update((k, 2 * k) for k in range(200_000))
    assert memo[-1] == -2 and len(memo) == 200_001  # at the limit: kept
    assert memo[-2] == -4 and len(memo) == 1  # past it: emptied, then stored
    assert memo[7] == 14 and calls == [-1, -2, 7]  # 7 was dropped, so it is recomputed
    assert memo[7] == 14 and calls == [-1, -2, 7]


def test_link_digests_call_the_module_global_payload_digest(monkeypatch):
    # A wrapper installed on protocols.payload_digest (as a tracer does)
    # sees every link digest the memo computes.
    made = []

    def counted(payload):
        made.append(payload)
        return simnet.payload_digest(payload)

    monkeypatch.setattr(protocols, "payload_digest", counted)
    key = (1, 0, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17))
    protocols._LINK_DIGESTS.pop(key, None)
    digest = protocols._LINK_DIGESTS[key]
    assert digest == protocols._LINK_DIGESTS[key] == simnet.payload_digest(("ds-link", *key))
    assert made == [("ds-link", *key)]


def test_token_memo_is_the_formula_and_no_record_of_who_minted(monkeypatch):
    # Tokens come from a process-wide memo, but what verifies is what this
    # ledger minted: a token the memo holds proves nothing to a fresh ledger.
    monkeypatch.setattr(simnet, "_TOKENS", simnet.Memo(simnet._TOKENS.fn))
    digest = simnet.payload_digest(("ds-link", 1, 0, ()))
    formula = hashlib.sha256(f"3|{digest}".encode()).hexdigest()[:16]
    first = SignatureLedger()
    assert first.mint(3, digest) == formula  # cold memo
    assert first.verify(formula, 3, digest)
    fresh = SignatureLedger()
    assert simnet._TOKENS and not fresh.verify(formula, 3, digest)
    assert fresh.mint(3, digest) == formula  # warm memo
    assert fresh.verify(formula, 3, digest)
    assert not fresh.verify(formula, 4, digest)
    adversarial = SignatureLedger()
    assert adversarial.mint(3, digest, adversarial=True) == formula
    assert not adversarial.honest_integrity(frozenset({3}))
    assert adversarial.honest_integrity(frozenset({4}))
    assert first.honest_integrity(frozenset({3})) and fresh.honest_integrity(frozenset({3}))


def test_adversary_cannot_send_as_honest_node():
    class Impersonator(AdversaryStrategy):
        def emit(self, rnd, honest_messages):
            return [(1, (2,), ("pk", 0, "val", 1))]  # node 1 is honest

    sc = _scenario(protocol="phase_king", prediction=None)
    with pytest.raises(ForgeryError):
        run_simulation(sc, adversary=Impersonator())


def test_adversary_cannot_take_honest_keys():
    class KeyThief(AdversaryStrategy):
        def begin(self, ctx):
            ctx.signer_for(1)  # honest id

    sc = _scenario(mode="auth", alpha=Fraction(3, 4),
                   protocol="auth_pred_ba")
    with pytest.raises(ForgeryError):
        run_simulation(sc, adversary=KeyThief())


def test_adversary_cannot_puppet_honest_instances_in_auth_mode():
    class Puppeteer(AdversaryStrategy):
        def begin(self, ctx):
            ctx.make_instance(2, 1, None)  # honest id, auth mode

    sc = _scenario(mode="auth", alpha=Fraction(3, 4), protocol="auth_pred_ba")
    with pytest.raises(ForgeryError):
        run_simulation(sc, adversary=Puppeteer())


def test_adversary_spec_is_serializable_data():
    spec = random_noise(5)
    assert isinstance(spec, AdversarySpec)
    blob = json.dumps({"name": spec.name, "params": spec.params})
    back = json.loads(blob)
    assert back["name"] == spec.name
