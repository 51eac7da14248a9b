"""Adversary strategies and the attack-configuration builders.

The workhorse is the persona network: the adversary runs real protocol
instances internally, organized in named groups. Instances for faulty ids
are personas (their traffic can be emitted to honest receivers); instances
for honest ids are shadows, used only to feed counterfactual inputs to
personas. Shadows exist only in nonauth mode: in auth mode they would need
an honest node's signing key, so building them raises ForgeryError.

Feeding rule for instance (g, i), per sender s, evaluated in this order:

1. an explicit feed override (group g, sender s) -> group h routes s's
   traffic from h's instance of s,
2. if group g itself contains an instance of s, that instance's traffic,
3. otherwise s's messages in i's inbox as the engine built it.

An instance "receives" another instance's traffic by taking the messages it
addressed to i. Emission rules pick which group's persona a given honest
receiver hears from. This reproduces, message for message, the counterfactual
executions the impossibility arguments are built from.

All strategies are described by serializable AdversarySpec values; the
helper constructors below build the common ones.
"""

from __future__ import annotations

import operator
import random
from typing import Mapping, Optional

from .core import Configuration, check_alpha
from .simnet import (AdversarySpec, AdversaryStrategy, ForgeryError, Inbox, Memo,
                     Scenario, field_bit, field_ids, field_int, field_items, field_key)


# ---------------------------------------------------------------------------
# Spec constructors
# ---------------------------------------------------------------------------


def silent() -> AdversarySpec:
    """Faulty nodes never send anything."""
    return AdversarySpec("silent", {})


def crash_after(rnd: int, inputs: Optional[Mapping] = None) -> AdversarySpec:
    """Faulty nodes behave honestly through round rnd, then go silent.

    Their pretended inputs default to 0; pass inputs to override per id.
    """
    if rnd < 0:
        raise ValueError("crash round must be >= 0")
    return AdversarySpec(
        "crash_after",
        {"round": rnd, "inputs": {str(k): v for k, v in (inputs or {}).items()}},
    )


def random_noise(seed: int) -> AdversarySpec:
    """Faulty nodes spray well-formed but arbitrary payloads every round."""
    return AdversarySpec("random_noise", {"seed": int(seed)})


def replay_honest(spoof_input: int, spoof_prediction=None) -> AdversarySpec:
    """Faulty nodes impersonate honest ones with a chosen input/prediction.

    spoof_prediction None means the personas use the prediction the scenario
    would hand that id anyway.
    """
    if spoof_input not in (0, 1):
        raise ValueError("spoof_input must be 0 or 1")
    pred = sorted(spoof_prediction) if spoof_prediction is not None else None
    return AdversarySpec("replay_honest", {"input": spoof_input, "pred": pred})


def split_brain(partition, value_to_a: int, value_to_b: int,
                spoof_prediction=None) -> AdversarySpec:
    """Faulty nodes show one honest face to partition A, another to B.

    partition is a pair (A, B) of disjoint honest subsets. Receivers outside
    A and B see the A-face. Personas only ever sign with their own keys, so
    this is legal in both modes (signatures merely make the equivocation
    detectable in auth mode).
    """
    a_side, b_side = partition
    a_side, b_side = sorted(set(a_side)), sorted(set(b_side))
    if set(a_side) & set(b_side):
        raise ValueError("partition sides must be disjoint")
    if value_to_a not in (0, 1) or value_to_b not in (0, 1):
        raise ValueError("partition values must be 0 or 1")
    pred = sorted(spoof_prediction) if spoof_prediction is not None else None
    return AdversarySpec(
        "split_brain",
        {"a": a_side, "b": b_side, "value_a": value_to_a, "value_b": value_to_b,
         "pred": pred},
    )


def persona_network(groups, feed_overrides=(), emission=(), cutoff=None) -> AdversarySpec:
    """General instance-graph adversary; see the module docstring.

    groups: {name: {node_id: (input, prediction-or-None)}}
    feed_overrides: iterable of (group, sender_ids, from_group)
    emission: iterable of (group, sender_ids-or-None, receiver_ids)
    """
    gj = {}
    for g, members in groups.items():
        gj[g] = {
            str(node): {
                "input": int(inp),
                "pred": sorted(pred) if pred is not None else None,
            }
            for node, (inp, pred) in members.items()
        }
    return AdversarySpec(
        "persona_network",
        {
            "groups": gj,
            "feed_overrides": [
                {"group": g, "senders": sorted(s), "from_group": h}
                for g, s, h in feed_overrides
            ],
            "emission": [
                {"group": g, "senders": sorted(s) if s is not None else None,
                 "receivers": sorted(r)}
                for g, s, r in emission
            ],
            "cutoff": cutoff,
        },
    )


# ---------------------------------------------------------------------------
# Strategy implementations
# ---------------------------------------------------------------------------


class _Noise(AdversaryStrategy):
    SEND_RATE = 0.85

    def __init__(self, seed: int):
        self.seed = seed

    def begin(self, ctx):
        super().begin(ctx)
        self.rng = random.Random(ctx.derive("noise", self.seed))
        self._links = [(c, (r,)) for c in sorted(ctx.faulty) for r in sorted(ctx.honest)]

    def _payload(self):
        # One 32-bit draw covers every field; the slight modulo bias is
        # irrelevant for garbage traffic and it keeps the generator cheap.
        bits = self.rng.getrandbits(32)
        bit = bits & 1
        shape = (bits >> 1) % 6
        n = self.ctx.n
        if shape == 0:
            return ("pk", (bits >> 4) % 4, ("val", "prop", "king")[(bits >> 6) % 3], bit)
        if shape == 1:
            return ("adopt", bit)
        if shape == 2:
            return ("dsdec", bit)
        if shape == 3:
            return ("ds", (bits >> 4) % n + 1, (bits >> 10) % 4 + 1, bit, ())
        if shape == 4:
            fake = ((bits >> 4) % n + 1, format(self.rng.getrandbits(64), "016x"))
            return ("ds", (bits >> 10) % n + 1, 1, bit, (fake,))
        return ("noise", bits >> 2)

    def emit(self, rnd, honest_messages):
        draw, payload, rate = self.rng.random, self._payload, self.SEND_RATE
        return [(c, to, payload()) for c, to in self._links if draw() < rate]


class _Personas(AdversaryStrategy):
    def __init__(self, groups, feed_overrides, emission, cutoff, scenario: Scenario):
        # groups: {name: {node: (input, pred-or-None)}}
        # feed_overrides: (group, senders, from_group)
        # emission: (group, senders-or-None, receivers)
        # with node ids as build_strategy read them. The rest of the spec is
        # checked here, so a bad one fails before any run starts.
        faulty = scenario.config.faulty
        for members in groups.values():
            for node in members:
                if scenario.mode == "auth" and node not in faulty:
                    raise ForgeryError(
                        f"auth mode: cannot run an instance of honest node {node} "
                        f"without forging its signatures")
        for g, senders, from_g in feed_overrides:
            for name in (g, from_g):
                if name not in groups:
                    raise ValueError(f"feed override names unknown group {name!r}")
            for s in senders:
                if s not in groups[from_g]:
                    raise ValueError(f"feed override group {from_g!r} has no instance "
                                     f"of node {s}")
        self._emit_rules = []
        for g, senders, receivers in emission:
            if g not in groups:
                raise ValueError(f"emission rule names unknown group {g!r}")
            pick = tuple(sorted(senders if senders is not None else groups[g]))
            for s in pick:
                if s not in faulty:
                    raise ForgeryError(
                        f"emission rule names honest node {s} as sender")
                if s not in groups[g]:
                    raise ValueError(f"group {g!r} has no instance of node {s}")
            self._emit_rules.append((g, pick, receivers))
        self.groups = groups
        self.feed_overrides = list(feed_overrides)
        self.cutoff = cutoff
        self._out = {}
        self._addressed = {}  # address tuple -> its interned frozenset
        # (interned address set, rule receivers) -> receiver tuple
        self._to = Memo(lambda key: tuple(sorted(key[0] & key[1])))

    def begin(self, ctx):
        super().begin(ctx)
        sc: Scenario = ctx.scenario
        self.instances = {}
        for g in sorted(self.groups):
            for node in sorted(self.groups[g]):
                inp, pred = self.groups[g][node]
                if pred is None:
                    pred = sc.prediction_for(node)
                self.instances[(g, node)] = ctx.make_instance(node, inp, pred)
        # The feed source for a (group, sender) pair never changes mid-run.
        # Per group: the senders fed by an instance's outbox, in ascending
        # order with that instance's key; the instance's inbox feeds the others.
        self.listens = frozenset(i for _, i in self.instances)
        self._feed = {}
        for g in self.groups:
            fed = []
            for s in range(1, ctx.n + 1):
                src = self._feed_group(g, s)
                if src is not None:
                    fed.append((s, (src, s)))
            self._feed[g] = (frozenset(s for s, _ in fed), fed)

    def _feed_group(self, g: str, s: int) -> Optional[str]:
        for g2, senders, from_g in self.feed_overrides:
            if g2 == g and s in senders:
                return from_g
        if (g, s) in self.instances:
            return g
        return None

    def _interned(self, addressed) -> frozenset:
        key = tuple(addressed)
        interned = self._addressed.get(key)
        if interned is None:
            interned = self._addressed[key] = frozenset(key)
        return interned

    def emit(self, rnd, honest_messages):
        # Equal address lists map to one frozenset object, so observe can
        # tell the few distinct ones apart cheaply, and each pair of such a
        # set and a rule's receivers to one receiver tuple, made once a run.
        self._out = {
            key: [(self._interned(addressed), payload)
                  for addressed, payload in inst.outbox(rnd)]
            for key, inst in self.instances.items()
        }
        if self.cutoff is not None and rnd > self.cutoff:
            return []
        result = []
        for g, pick, receivers in self._emit_rules:
            for s in pick:
                for addressed, payload in self._out[(g, s)]:
                    to = self._to[addressed, receivers]
                    if to:
                        result.append((s, to, payload))
        return result

    def observe(self, rnd, inboxes):
        feed, out = self._feed, self._out
        # A persona's inbox is fixed by its group, its engine inbox and which
        # address sets of its group's fed traffic name it; the interned sets
        # of the run cover the latter. Personas that agree on all three
        # share one list. A view equal to an honest node's inbox is that
        # inbox, so the results computed from it for the honest nodes
        # serve the persona too.
        sets = tuple(self._addressed.values())
        named = {}  # id -> which interned address sets name it
        views = {}
        honest = None  # the round's distinct honest inboxes, found on first need
        for (g, i), inst in self.instances.items():
            box = inboxes[i]
            heard = named.get(i)
            if heard is None:
                heard = named[i] = tuple(i in a for a in sets)
            key = (g, id(box), heard)
            inbox = views.get(key)
            if inbox is None:
                fed_ids, fed = feed[g]
                inbox = Inbox(m for m in box if m[0] not in fed_ids)
                for s, src in fed:
                    for addressed, payload in out[src]:
                        if i in addressed:
                            inbox.append((s, payload))
                # Stable: each sender's messages keep their order.
                inbox.sort(key=operator.itemgetter(0))
                if honest is None:
                    honest = list({id(inboxes[j]): inboxes[j]
                                   for j in self.ctx.honest}.values())
                inbox = next((b for b in honest if b == inbox), inbox)
                views[key] = inbox
            inst.deliver(rnd, inbox)


def build_strategy(spec: AdversarySpec, scenario: Scenario) -> AdversaryStrategy:
    """Materialize a strategy from its serializable description."""
    name, p = spec.name, spec.params
    n, faulty, honest = scenario.n, scenario.config.faulty, scenario.config.honest

    def pred(value):
        # A persona's prediction; None means the one the scenario hands its id.
        return None if value is None else field_ids(value, n, "persona prediction id")

    if name == "silent":
        return AdversaryStrategy()  # the base strategy sends nothing

    if name == "random_noise":
        return _Noise(field_int(p.get("seed", 0), "noise seed"))

    if name == "crash_after":
        rnd = field_int(p["round"], "crash round")
        if rnd < 0:
            raise ValueError("crash round must be >= 0")
        inputs = p.get("inputs")  # only a missing or null inputs means none
        inputs = {field_key(k, n, "crash inputs key"): field_bit(v, "persona input")
                  for k, v in field_items({} if inputs is None else inputs,
                                          "crash inputs")}
        stray = sorted(set(inputs) - faulty)
        if stray:
            raise ValueError(f"crash inputs name non-faulty node {stray[0]}")
        groups = {"w": {c: (inputs.get(c, 0), None) for c in faulty}}
        return _Personas(groups, [], [("w", None, honest)], rnd, scenario)

    if name == "replay_honest":
        groups = {"w": dict.fromkeys(faulty, (field_bit(p["input"], "persona input"),
                                              pred(p.get("pred"))))}
        return _Personas(groups, [], [("w", None, honest)], None, scenario)

    if name == "split_brain":
        a_side, b_side = (field_ids(p[g], n, "partition id") for g in "ab")
        if a_side & b_side:
            raise ValueError("partition sides must be disjoint")
        if not (a_side | b_side) <= honest:
            raise ValueError("split_brain partition sides must be honest subsets")
        faces = [field_bit(p["value_" + g], "partition value") for g in "ab"]
        spoof = pred(p.get("pred"))
        groups = {g: dict.fromkeys(faulty, (v, spoof)) for g, v in zip("ab", faces)}
        emission = [("a", None, honest - b_side), ("b", None, b_side)]
        return _Personas(groups, [], emission, None, scenario)

    if name == "persona_network":
        groups = {
            g: {field_key(node, n, "persona id"): (field_bit(m["input"], "persona input"),
                                                   pred(m["pred"]))
                for node, m in field_items(members, "persona group")}
            for g, members in field_items(p["groups"], "persona groups")
        }
        overrides = [
            (o["group"], field_ids(o["senders"], n, "feed sender"), o["from_group"])
            for o in p.get("feed_overrides", [])
        ]
        emission = [
            (e["group"],
             None if e["senders"] is None else field_ids(e["senders"], n, "emission sender"),
             field_ids(e["receivers"], n, "emission receiver"))
            for e in p.get("emission", [])
        ]
        cutoff = p.get("cutoff")
        if cutoff is not None:
            cutoff = field_int(cutoff, "persona cutoff")
            if cutoff < 0:
                raise ValueError("persona cutoff must be >= 0")
        return _Personas(groups, overrides, emission, cutoff, scenario)

    raise ValueError(f"unknown adversary strategy {name!r}")


# ---------------------------------------------------------------------------
# Attack-configuration builders
# ---------------------------------------------------------------------------


def _block(lo: int, hi: int) -> list:
    return list(range(lo, hi + 1))


def _scenario(alpha, n, faulty, inputs, prediction, adversary, protocol):
    return Scenario(alpha=alpha, config=Configuration(n, frozenset(faulty), inputs),
                    prediction=prediction, adversary=adversary, seed=0, protocol=protocol)


def replay_triple(alpha, n, A, B, prediction, protocol, pred_a=None, pred_b=None):
    """Three runs in which replayed personas mirror one honest side exactly.

    1. B faulty, its personas replaying input 1 (prediction pred_b) to A,
       whose inputs are 0;
    2. A faulty, its personas replaying input 0 (prediction pred_a) to B,
       whose inputs are 1;
    3. nobody faulty, A on input 0 and B on input 1.

    A's view of 1 and 3 is the same, and so is B's of 2 and 3. A pred of
    None lets each persona use the prediction the scenario hands its id.
    """
    in_a, in_b = {i: 0 for i in A}, {i: 1 for i in B}
    return [
        _scenario(alpha, n, B, in_a, prediction, replay_honest(1, pred_b), protocol),
        _scenario(alpha, n, A, in_b, prediction, replay_honest(0, pred_a), protocol),
        _scenario(alpha, n, (), in_a | in_b, prediction, silent(), protocol),
    ]


def _need(cond: bool, what: str, example: str):
    if not cond:
        raise ValueError(f"infeasible parameters: need {what} (e.g. {example})")


def _split_then_sides(a, n, A, B, rest, P):
    """Split-brain over (A, B) with the rest faulty; then A, then B faulty,
    each side's personas playing the opposite input to everyone else."""
    cfg1 = _scenario(a, n, rest, {i: 0 for i in A} | {i: 1 for i in B},
                     P, split_brain((A, B), 0, 1, P), "pred_ba")
    cfg2 = _scenario(a, n, B, {i: 0 for i in A + rest}, P,
                     persona_network({"w": {i: (1, P) for i in B + rest}},
                                     emission=[("w", B, A + rest)]), "pred_ba")
    cfg3 = _scenario(a, n, A, {i: 1 for i in B + rest}, P,
                     persona_network({"w": {i: (0, P) for i in A + rest}},
                                     emission=[("w", A, B + rest)]), "pred_ba")
    return [cfg1, cfg2, cfg3]


def _t41(alpha, n):
    a = check_alpha("nonauth", alpha)
    eta2 = (1 - a) * n
    _need(eta2.denominator == 1 and eta2 % 2 == 0 and eta2 >= 2,
          "(1-alpha)*n even and >= 2", "alpha=4/5, n=20")
    eta = int(eta2) // 2
    A, B, C = _block(1, eta), _block(eta + 1, 2 * eta), _block(2 * eta + 1, n)
    _need(len(C) >= 1, "alpha*n >= 1", "alpha=4/5, n=20")
    return _split_then_sides(a, n, A, B, C, frozenset(A + B))


def _t42p1(alpha, n):
    a = check_alpha("nonauth", alpha)
    odd = (1 - a) * n
    _need(odd.denominator == 1 and odd % 2 == 1 and odd >= 3,
          "(1-alpha)*n odd and >= 3", "alpha=4/5, n=25")
    k = (int(odd) - 1) // 2
    A, B = _block(1, k), _block(k + 1, 2 * k)
    D = _block(2 * k + 1, 3 * k - 1)
    x = 3 * k
    C = _block(3 * k + 1, n)
    _need(len(C) >= 1, "n > 3*((1-alpha)*n - 1)/2", "alpha=4/5, n=25")
    return _split_then_sides(a, n, A, B, C + D + [x], frozenset(A + B + D + [x]))


def _t42p2(alpha, n):
    a = check_alpha("nonauth", alpha)
    eta = n // 3
    _need(eta >= 1, "n >= 3", "alpha=4/5, n=15")
    A, B, C = _block(1, eta), _block(eta + 1, 2 * eta), _block(2 * eta + 1, 3 * eta)
    D = _block(3 * eta + 1, n)
    P = frozenset(A + B + C)
    cfg1 = _scenario(a, n, C + D, {i: 0 for i in A} | {i: 1 for i in B},
                     P, split_brain((A, B), 0, 1, P), "pred_ba")

    def side(X, Y, v):
        # X and D faulty. Group `mine` runs X, C and D on input v; group
        # `other` runs D on 1 - v and feeds X's instances to it.
        mine, other = ("zero", "one")[v], ("zero", "one")[1 - v]
        groups = {mine: {i: (v, P) for i in X + C + D}, other: {i: (1 - v, P) for i in D}}
        return _scenario(a, n, X + D, {i: 1 - v for i in Y + C}, P,
                         persona_network(groups, feed_overrides=[(other, X, mine)],
                                         emission=[(mine, X, Y + C), (other, D, Y + C)]),
                         "pred_ba")

    return [cfg1, side(B, A, 1), side(A, B, 0)]


def _t42p3(alpha, n):
    a = check_alpha("nonauth", alpha)
    d = n % 3
    q = (n - d) // 3
    _need(q >= 2, "(n - n%3)/3 >= 2", "alpha=4/5, n=15")
    A = _block(1, q + 1)
    B = _block(q + 2, 2 * q + 2)
    C = _block(2 * q + 3, 3 * q)  # q-2 ids
    D = _block(3 * q + 1, n)
    return _split_then_sides(a, n, A, B, C + D, frozenset(A + B + C))


def _tc4p1(alpha, n):
    a = check_alpha("auth", alpha)
    g = (1 - a) * n
    _need(g.denominator == 1 and g >= 2, "(1-alpha)*n integral and >= 2",
          "alpha=3/4, n=16")
    g = int(g)
    A = _block(1, g - 1)
    C = _block(g, 2 * g - 2)
    x = 2 * g - 1
    B = _block(2 * g, n)
    _need(len(B) >= 1, "alpha*n > (1-alpha)*n - 1", "alpha=3/4, n=16")
    P = frozenset(A + C + [x])
    return replay_triple(a, n, A, B + C + [x], P, "auth_pred_ba", P, P)


def _tc4p2(alpha, n):
    a = check_alpha("auth", alpha)
    p_size = (1 - a) * n
    c_size = (2 * a - 1) * n
    _need(p_size.denominator == 1 and c_size.denominator == 1 and
          p_size >= 1 and c_size >= 1,
          "(1-alpha)*n and (2*alpha-1)*n integral and >= 1", "alpha=3/4, n=16")
    p_size, c_size = int(p_size), int(c_size)
    A = _block(1, p_size)
    B = _block(p_size + 1, 2 * p_size)
    C = _block(2 * p_size + 1, n)
    P = frozenset(A + B)
    cfg1 = _scenario(a, n, C, {i: 0 for i in A} | {i: 1 for i in B}, P,
                     split_brain((A, B), 0, 1, P), "auth_pred_ba")
    cfg2 = _scenario(a, n, B, {i: 0 for i in A + C}, P,
                     replay_honest(1, P), "auth_pred_ba")
    cfg3 = _scenario(a, n, A, {i: 1 for i in B + C}, P,
                     replay_honest(0, P), "auth_pred_ba")
    return [cfg1, cfg2, cfg3]


def _t52(alpha, n):
    a = check_alpha("nonauth", alpha)
    _need(n % 2 == 0 and n >= 4, "n even and >= 4", "alpha=1/2, n=8")
    half = n // 2
    A, B = _block(1, half), _block(half + 1, n)
    p0, p1 = frozenset(A), frozenset(B)
    local = {i: p0 for i in A} | {i: p1 for i in B}
    return replay_triple(a, n, A, B, local, "pred_ba", p0, p1)


_BUILDERS = {
    "T4.1": _t41,
    "T4.2p1": _t42p1,
    "T4.2p2": _t42p2,
    "T4.2p3": _t42p3,
    "TC.4p1": _tc4p1,
    "TC.4p2": _tc4p2,
    "T5.2": _t52,
}


def build_impossibility_scenarios(theorem: str, alpha, n: int):
    """The executable attack configurations for one lower-bound family.

    Returns the family's configurations as runnable scenarios; by the
    indistinguishability arguments at least one of them must violate
    agreement or validity for any algorithm, so in particular for the
    wrappers here.
    """
    if theorem not in _BUILDERS:
        raise ValueError(
            f"unknown theorem id {theorem!r}; expected one of {tuple(_BUILDERS)}")
    return _BUILDERS[theorem](alpha, n)
