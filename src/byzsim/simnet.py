"""Synchronous round engine, signature ledger, scenarios and transcripts.

Execution model
---------------
Rounds are numbered from 1. In every round the engine

1. collects each honest node's outbox,
2. hands the complete set of honest round-r messages to the adversary, which
   then emits messages on behalf of faulty ids (rushing: it reacts to honest
   traffic of the same round),
3. builds one inbox per honest id and per id the adversary listens on (the
   ids of the instances it runs): the messages addressed to that id,
   ordered by sender id, and delivers the honest ones,
4. hands the adversary every inbox of the round to observe.

Inboxes are read-only. Ids addressed by exactly the same receiver tuples
in a round get the same messages, so they share one inbox list, and a
deliver or observe that mutated its inbox would change what other nodes
receive. Every inbox handed out is an Inbox, which carries the results
computed from it (see once_per_inbox): the Dolev-Strong chain index, the
Phase King tallies and king lookups, and the wrappers' adopt counts are
computed once per shared inbox and live and die with it. A persona view
equal to an honest node's inbox of the round is that inbox, so personas
share those results too.

A run terminates when every honest node has decided, or fails to terminate
once the round budget 4*(n+2) is exhausted.

Payloads are plain tuples of ints, strings, None and nested tuples. On the
wire (transcripts, scenario files) a payload is rendered canonically as
minified JSON with tuples as arrays. Two runs of the same (scenario, seed)
produce byte-identical transcripts.

Signatures are modeled by an append-only ledger. mint(signer, digest)
returns a deterministic token (sha256 of signer and digest, truncated); the
ledger records who minted what. verify succeeds only for recorded pairs, and
the engine refuses to hand adversaries a signer for an honest id, which is
what makes signatures unforgeable here. Tokens are deterministic functions
of (signer, digest) so that indistinguishable configurations stay
byte-identical across runs; being pure, they come from one process-wide
Memo (_TOKENS), which records nothing about who minted them. Memo is the
package's one get-or-compute cache for pure values; protocols' link
digests use it the same way.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import Configuration, check_alpha, check_mode

SCHEMA_VERSION = 1

# protocol name -> the mode it runs in; registry maps the same names to builders
PROTOCOLS = {
    "pred_ba": "nonauth",
    "auth_pred_ba": "auth",
    "phase_king": "nonauth",
    "dolev_strong_ba": "auth",
    "dolev_strong_broadcast": "auth",
}


class ForgeryError(Exception):
    """Raised when something would require signing on behalf of an honest id."""


class ScenarioError(ValueError):
    """A scenario whose nodes or adversary cannot be built from its parameters."""


class Memo(dict):
    """fn(key) for every key looked up, computed on the first lookup and
    kept. For a pure fn only: the memo empties before a store once it holds
    more than 200,000 entries, so a value may be computed again."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self.fn(key)
        if len(self) > 200_000:
            self.clear()
        self[key] = value
        return value


# ---------------------------------------------------------------------------
# Canonical payload encoding
# ---------------------------------------------------------------------------


_ESCAPE = json.encoder.encode_basestring_ascii


def _canonical(x) -> str:
    """payload_to_json's text for x, built in one pass: the bytes
    json.dumps gives for x with tuples as arrays, minified and ASCII-only."""
    if isinstance(x, tuple):
        return "[" + ",".join(map(_canonical, x)) + "]"
    if isinstance(x, str):
        return _ESCAPE(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if x is None:
        return "null"
    raise TypeError(f"payload element {x!r} is not wire-encodable")


def _tupled(x):
    if isinstance(x, list):
        return tuple(_tupled(v) for v in x)
    return x


def payload_to_json(payload) -> str:
    """Canonical JSON form of a payload (tuples rendered as arrays).

    Tracing hooks this module global, so _canonical recurses on itself and
    every encoding is one call here."""
    return _canonical(payload)


def payload_from_json(text: str):
    return _tupled(json.loads(text))


def payload_digest(payload) -> str:
    return hashlib.sha256(payload_to_json(payload).encode("utf-8")).hexdigest()


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of coordinates."""
    blob = "|".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Signature ledger
# ---------------------------------------------------------------------------


# Tokens are pure functions of key = (signer, digest): sha256 of
# "signer|digest", truncated. So one process-wide memo serves every ledger
# and run: the runs of a battery mint the same few thousand tokens over and
# over. It holds no record of who minted what; that stays in each ledger.
_TOKENS = Memo(lambda key: hashlib.sha256(f"{key[0]}|{key[1]}".encode()).hexdigest()[:16])


class SignatureLedger:
    """Append-only record of minted (signer, digest) pairs.

    Tokens are deterministic so identical causal histories yield identical
    bytes; unforgeability comes from the minting discipline, not from token
    secrecy. verify reads only this ledger's record, never the token memo.
    """

    def __init__(self):
        self._minted = {}  # (signer, digest) -> token
        self._minted_by_adversary = set()

    def mint(self, signer: int, digest: str, *, adversarial: bool = False) -> str:
        key = (signer, digest)
        tok = self._minted[key] = _TOKENS[key]
        if adversarial:
            self._minted_by_adversary.add(key)
        return tok

    def verify(self, token: str, signer: int, digest: str) -> bool:
        return self._minted.get((signer, digest)) == token

    def honest_integrity(self, honest: frozenset) -> bool:
        """True iff no honest id's signature was ever minted adversarially."""
        return not any(s in honest for s, _ in self._minted_by_adversary)


class Signer:
    """A node's signing capability, bound to the run's ledger."""

    def __init__(self, ledger: SignatureLedger, node_id: int, *, adversarial: bool = False):
        self._ledger = ledger
        self.node_id = node_id
        self._adversarial = adversarial

    def sign(self, digest: str) -> str:
        return self._ledger.mint(self.node_id, digest, adversarial=self._adversarial)

    def verify(self, token: str, signer: int, digest: str) -> bool:
        return self._ledger.verify(token, signer, digest)


class _RefusingSigner:
    """Stand-in signer for shadow instances in nonauth mode (never signs)."""

    def __init__(self, node_id: int):
        self.node_id = node_id

    def sign(self, digest: str) -> str:
        raise ForgeryError(f"instance of node {self.node_id} has no signing key")

    def verify(self, token: str, signer: int, digest: str) -> bool:
        return False


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarySpec:
    """Serializable adversary description (name + JSON-able params)."""

    name: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class Scenario:
    """A complete, serializable description of one simulation run."""

    n: int
    mode: str
    alpha: Fraction
    config: Configuration
    prediction: Union[frozenset, Mapping, None]
    adversary: AdversarySpec
    seed: int
    protocol: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        check_mode(self.mode)
        object.__setattr__(self, "alpha", check_alpha(self.mode, self.alpha))
        if self.n != self.config.n:
            raise ValueError("scenario n disagrees with configuration n")
        mode = PROTOCOLS.get(self.protocol) if isinstance(self.protocol, str) else None
        if mode is None:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if mode != self.mode:
            raise ValueError(
                f"protocol {self.protocol!r} runs in {mode} mode, not {self.mode}")
        pred = self.prediction
        if pred is not None and not isinstance(pred, Mapping):
            object.__setattr__(self, "prediction", frozenset(pred))
        elif isinstance(pred, Mapping):
            object.__setattr__(
                self, "prediction", {int(k): frozenset(v) for k, v in pred.items()}
            )
        object.__setattr__(self, "params", dict(self.params))

    def prediction_for(self, node_id: int):
        """The prediction as seen by one node (handles the local case)."""
        if isinstance(self.prediction, Mapping):
            return self.prediction.get(node_id, frozenset())
        return self.prediction

    def to_json(self) -> dict:
        pred = self.prediction
        if isinstance(pred, Mapping):
            pred_j = {"local": {str(k): sorted(v) for k, v in pred.items()}}
        elif pred is None:
            pred_j = None
        else:
            pred_j = {"global": sorted(pred)}
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "mode": self.mode,
            "alpha": str(self.alpha),
            "faulty": sorted(self.config.faulty),
            "inputs": {str(k): v for k, v in sorted(self.config.inputs.items())},
            "prediction": pred_j,
            "adversary": {"name": self.adversary.name, "params": self.adversary.params},
            "seed": self.seed,
            "protocol": self.protocol,
            "params": dict(self.params),
        }

    @staticmethod
    def from_json(doc: Mapping) -> "Scenario":
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported scenario schema_version {doc.get('schema_version')!r}"
            )
        n = field_int(doc["n"], "n")

        def ids(values, what):
            return frozenset(field_node(i, n, what) for i in values)

        pred_j = doc.get("prediction")
        if pred_j is None:
            pred = None
        elif "global" in pred_j:
            pred = ids(pred_j["global"], "prediction id")
        elif "local" in pred_j:
            pred = {field_node(int(k), n, "prediction holder"): ids(v, "prediction id")
                    for k, v in field_items(pred_j["local"], "local prediction")}
        else:
            raise ValueError("prediction must be null or carry 'global'/'local'")
        config = Configuration(
            n=n,
            faulty=ids(doc["faulty"], "faulty id"),
            inputs={int(k): field_int(v, "input")
                    for k, v in field_items(doc["inputs"], "inputs")},
        )
        alpha = doc["alpha"]
        try:
            alpha = Fraction(alpha)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"alpha must be a finite fraction, got {alpha!r}") from None
        adv = doc.get("adversary")
        if adv is None:
            adv = {"name": "silent", "params": {}}
        if not isinstance(adv, Mapping):
            raise ValueError(f"adversary must be a JSON object, got {adv!r}")
        params = adv.get("params", {})
        field_items(params, "adversary params")
        return Scenario(
            n=n,
            mode=doc["mode"],
            alpha=alpha,
            config=config,
            prediction=pred,
            adversary=AdversarySpec(adv["name"], params),
            seed=field_int(doc["seed"], "seed"),
            protocol=doc["protocol"],
            params=doc.get("params", {}),
        )


def field_int(value, what: str) -> int:
    """int(value) for a number read from a scenario file; one that is no
    integer, such as Infinity, 2.5, a string or true, raises ValueError
    naming the field."""
    try:
        number = None if isinstance(value, bool) else int(value)
    except (OverflowError, TypeError, ValueError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return number


def field_node(value, n: int, what: str) -> int:
    """A node id read from a scenario file: field_int(value), which must
    lie in 1..n."""
    node = field_int(value, what)
    if not 1 <= node <= n:
        raise ValueError(f"{what} must lie in 1..{n}, got {node}")
    return node


def field_items(value, what: str):
    """The items of a JSON object read from a scenario file; anything
    else raises ValueError naming the field."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value.items()


# ---------------------------------------------------------------------------
# Run results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    decisions: Mapping  # honest id -> 0/1
    decided_round: Optional[int]
    agreement: bool
    validity: bool
    termination: bool


@dataclass
class RoundLog:
    round: int
    # (receivers, canonical payload json), one entry per message sent with
    # at least one receiver: receivers is the sorted receiver tuple, one
    # object shared by every entry of the round with the same receivers.
    sent: list
    # (sender, canonical payload json). Read-only: nodes handed the same
    # inbox in a round share one list.
    received: list


@dataclass
class Transcript:
    node: int
    rounds: list  # RoundLog

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "rounds": [
                {
                    "round": r.round,
                    "sent": [{"to": to, "payload": p}
                             for receivers, p in r.sent for to in receivers],
                    "received": [{"from": frm, "payload": p} for frm, p in r.received],
                }
                for r in self.rounds
            ],
        }


def round_budget(n: int) -> int:
    return 4 * (n + 2)


_BY_SENDER = operator.itemgetter(0)


def _log_round(logs, rnd, honest_msgs, inboxes):
    """Append round rnd's RoundLog to logs (honest id -> its RoundLogs).

    Each message is one sent entry, and each payload object is encoded
    once: every entry that carries it shares the string. Each distinct
    receiver tuple is sorted once, and its entries share the sorted tuple.
    A message to no one is not logged. Nodes handed the same inbox list
    share one received list. The memos key on id(): the caller keeps
    honest_msgs and inboxes alive for the whole call, so no id is reused.
    """
    encoded = {}
    ordered = Memo(lambda receivers: tuple(sorted(receivers)))
    sent = {i: [] for i in logs}
    for sender, receivers, payload in honest_msgs:
        if not receivers:
            continue
        pj = encoded.get(id(payload))
        if pj is None:
            pj = encoded[id(payload)] = payload_to_json(payload)
        sent[sender].append((ordered[receivers], pj))
    heard = {}  # id(inbox) -> its received list
    for i, log in logs.items():
        box = inboxes[i]
        received = heard.get(id(box))
        if received is None:
            received = heard[id(box)] = []
            for s, p in box:
                pj = encoded.get(id(p))
                if pj is None:
                    pj = encoded[id(p)] = payload_to_json(p)
                received.append((s, pj))
        log.append(RoundLog(round=rnd, sent=sent[i], received=received))


# ---------------------------------------------------------------------------
# Contexts handed to protocol instances and adversaries
# ---------------------------------------------------------------------------


@dataclass
class NodeCtx:
    """Everything a protocol instance may know at start."""

    node_id: int
    n: int
    alpha: Fraction
    input: int
    prediction: object  # frozenset, or None for bare protocols
    signer: object
    params: Mapping


class Inbox(list):
    """One round's (sender, payload) list as the engine or a persona view
    hands it out, with the results once_per_inbox computed from it."""

    results = None  # (fn, *args) -> fn(inbox, *args), made on first use


def once_per_inbox(inbox, fn, *args):
    """fn(inbox, *args), computed once per Inbox and kept on it.

    Instances handed the same Inbox share each result, which they must only
    read; fn may depend on the inbox's contents and args only. A plain list
    shares nothing, so fn runs on every call.
    """
    if not isinstance(inbox, Inbox):
        return fn(inbox, *args)
    results = inbox.results
    if results is None:
        results = inbox.results = {}
    key = (fn, *args)
    if key not in results:
        results[key] = fn(inbox, *args)
    return results[key]


def _build_instance(factory: Callable, sc: Scenario, node_id: int, input_bit: int,
                    prediction, signer):
    return factory(NodeCtx(node_id=node_id, n=sc.n, alpha=sc.alpha, input=input_bit,
                           prediction=prediction, signer=signer, params=sc.params))


class AdversaryCtx:
    """The adversary's (omniscient) view plus its minting capabilities."""

    def __init__(self, scenario: Scenario, ledger: SignatureLedger, factory: Callable):
        self.scenario = scenario
        self.n = scenario.n
        self.faulty = scenario.config.faulty
        self.honest = scenario.config.honest
        self._ledger = ledger
        self._factory = factory

    def derive(self, *parts) -> int:
        """A seed drawn from the scenario's seed and the given parts."""
        return derive_seed(self.scenario.seed, *parts)

    def signer_for(self, node_id: int) -> Signer:
        if node_id not in self.faulty:
            raise ForgeryError(f"adversary asked for honest node {node_id}'s key")
        return Signer(self._ledger, node_id, adversarial=True)

    def make_instance(self, node_id: int, input_bit: int, prediction):
        """Build a protocol instance the adversary runs internally.

        Instances for faulty ids sign with their own (adversary-held) keys.
        Instances for honest ids are only possible in nonauth mode; in auth
        mode they would need to forge, so this raises.
        """
        if node_id in self.faulty:
            signer = self.signer_for(node_id)
        elif self.scenario.mode == "auth":
            raise ForgeryError(
                f"auth mode: cannot run an instance of honest node {node_id} "
                f"without forging its signatures"
            )
        else:
            signer = _RefusingSigner(node_id)
        return _build_instance(self._factory, self.scenario, node_id, input_bit,
                               prediction, signer)


class AdversaryStrategy:
    """Base adversary: silent. Subclasses override emit/observe."""

    #: Ids beyond the honest ones whose inboxes the engine also builds for
    #: observe each round: the ids of the instances the strategy runs (begin sets it).
    listens = frozenset()

    def begin(self, ctx: AdversaryCtx) -> None:
        self.ctx = ctx

    def emit(self, rnd: int, honest_messages: Sequence) -> list:
        """Messages (sender, receivers, payload) for faulty ids this round.

        honest_messages is the complete list of honest round-rnd traffic
        (sender, receivers, payload); a rushing strategy may depend on it.
        """
        return []

    def observe(self, rnd: int, inboxes: Mapping) -> None:
        """Called after delivery with the round's inboxes.

        inboxes maps every honest id and every id in listens to the list of
        (sender, payload) addressed to it this round, honest and faulty
        traffic alike, ordered by sender and, per sender, by emission.
        The lists are read-only: ids addressed alike share one list, which
        is also the list their honest nodes were handed.
        """


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


_RECEIVERS = operator.itemgetter(1)


def _fanout(listeners, keys):
    """Empty inboxes for one round: (listener -> inbox, receiver tuple ->
    the inboxes its messages go to, once per naming).

    Listeners addressed by exactly the same receiver tuples in a round
    receive exactly the same messages, so they share one inbox list, and
    every listener no message addresses shares one empty list. A listener
    named twice in a tuple gets each of its messages twice.
    """
    heard = {}  # receiver -> the keys that name it, with repeats
    for key in keys:
        for r in key:
            heard.setdefault(r, []).append(key)
    shared = {(): Inbox()}  # the keys naming a listener -> its inbox
    targets = {key: [] for key in keys}
    inboxes = {}
    for i in listeners:
        sig = tuple(heard.get(i, ()))
        box = shared.get(sig)
        if box is None:
            box = shared[sig] = Inbox()
            for key in sig:
                targets[key].append(box)
        inboxes[i] = box
    return inboxes, targets


def run_simulation(
    scenario: Scenario,
    protocol: Optional[Callable] = None,
    adversary: Optional[AdversaryStrategy] = None,
    *,
    record_transcripts: bool = True,
):
    """Run one scenario; returns (Outcome, [Transcript per honest id]).

    protocol defaults to the factory registered for scenario.protocol, and
    adversary to the strategy built from scenario.adversary. Parameters that
    show to be bad only while the nodes and the adversary are built raise
    ScenarioError; anything raised during the rounds propagates as it is.
    """
    if protocol is None:
        from .registry import factory_for

        protocol = factory_for(scenario)
    if adversary is None:
        from .adversary import build_strategy

        adversary = build_strategy(scenario.adversary, scenario)
    sc = scenario
    ledger = SignatureLedger()
    honest = sorted(sc.config.honest)
    try:
        nodes = {i: _build_instance(protocol, sc, i, sc.config.inputs[i],
                                    sc.prediction_for(i), Signer(ledger, i))
                 for i in honest}
        adversary.begin(AdversaryCtx(sc, ledger, protocol))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{type(exc).__name__}: {exc}") from exc

    logs = {i: [] for i in honest} if record_transcripts else None
    decided_round = {}
    budget = round_budget(sc.n)
    listeners = sorted(sc.config.honest | adversary.listens)
    rnd = 0
    while rnd < budget and len(decided_round) < len(honest):
        rnd += 1
        honest_msgs = []
        for i in honest:
            for receivers, payload in nodes[i].outbox(rnd):
                honest_msgs.append((i, tuple(receivers), payload))
        faulty_msgs = []
        for sender, receivers, payload in adversary.emit(rnd, tuple(honest_msgs)):
            if sender not in sc.config.faulty:
                raise ForgeryError(f"adversary tried to send as honest node {sender}")
            faulty_msgs.append((sender, tuple(receivers), payload))
        msgs = sorted(honest_msgs + faulty_msgs, key=_BY_SENDER) if faulty_msgs \
            else honest_msgs
        inboxes, targets = _fanout(listeners, frozenset(map(_RECEIVERS, msgs)))
        # Handing out the messages in stable sender order fills every
        # inbox already sorted by sender, ties in emission order.
        for sender, receivers, payload in msgs:
            item = (sender, payload)
            for box in targets[receivers]:
                box.append(item)
        for i in honest:
            nodes[i].deliver(rnd, inboxes[i])
            if i not in decided_round and nodes[i].decision is not None:
                decided_round[i] = rnd

        adversary.observe(rnd, inboxes)

        if record_transcripts:
            _log_round(logs, rnd, honest_msgs, inboxes)

    if not ledger.honest_integrity(sc.config.honest):
        raise ForgeryError("ledger audit: honest signature minted by the adversary")

    decisions = {i: nodes[i].decision for i in honest if nodes[i].decision is not None}
    terminated = len(decisions) == len(honest)
    last = max(decided_round.values()) if decided_round else 0
    agreement = terminated and len(set(decisions.values())) <= 1
    inputs = set(sc.config.inputs.values())
    if not terminated:
        validity = False
    elif len(inputs) == 1:
        (b,) = inputs
        validity = all(v == b for v in decisions.values())
    else:
        validity = True
    outcome = Outcome(
        decisions=decisions,
        decided_round=last if terminated else None,
        agreement=agreement,
        validity=validity,
        termination=terminated,
    )
    transcripts = (
        [Transcript(node=i, rounds=logs[i]) for i in honest] if record_transcripts else []
    )
    return outcome, transcripts
