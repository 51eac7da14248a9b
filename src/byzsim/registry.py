"""Maps a scenario's protocol name to its node-instance builder.

A builder takes the engine's NodeCtx and returns a protocol state machine.
Wrapper protocols derive their schedule from the prediction; bare protocols
take participants and budget t from scenario params, with defaults covering
the whole id space at the largest standard budget; a params key a protocol
does not read makes the scenario invalid, and each one read goes through a
simnet field reader. A scenario's mode is its protocol's in
simnet.PROTOCOLS, so every name reaching factory_for is known.
"""

from __future__ import annotations

import math

from .predba import AuthPredBA, PredBA
from .protocols import DolevStrongBA, DolevStrongBroadcast, PhaseKing
from .simnet import NodeCtx, ScenarioError, field_ids, field_int, field_node


def _group(ctx: NodeCtx, resilience: int):
    """Participants and budget t: by default everyone, at the largest t with
    resilience * t < len(group). Only a missing or null participants means
    everyone."""
    p = ctx.params.get("participants")
    group = range(1, ctx.n + 1) if p is None else field_ids(p, ctx.n, "participant")
    if not group:
        raise ValueError(f"participants must be a non-empty list of node ids, got {p!r}")
    t = ctx.params.get("t", math.ceil(len(group) / resilience) - 1)
    return tuple(sorted(group)), field_int(t, "budget t")


def _dolev_strong_broadcast(ctx: NodeCtx):
    group, t = _group(ctx, 2)
    sender = field_node(ctx.params.get("sender", group[0]), ctx.n, "sender")
    return DolevStrongBroadcast(ctx.node_id, sender, ctx.input, group, t, ctx.signer)


_GROUP = frozenset({"participants", "t"})

# protocol name -> (the params keys its builder reads, NodeCtx -> instance),
# one entry per simnet.PROTOCOLS name
_BUILDERS = {
    "pred_ba": (frozenset(), lambda ctx: PredBA(
        ctx.node_id, ctx.input, ctx.prediction, ctx.alpha, ctx.n)),
    "auth_pred_ba": (frozenset(), lambda ctx: AuthPredBA(
        ctx.node_id, ctx.input, ctx.prediction, ctx.alpha, ctx.n, ctx.signer)),
    "phase_king": (_GROUP, lambda ctx: PhaseKing(ctx.node_id, ctx.input, *_group(ctx, 3))),
    "dolev_strong_ba": (_GROUP, lambda ctx: DolevStrongBA(
        ctx.node_id, ctx.input, *_group(ctx, 2), ctx.signer)),
    "dolev_strong_broadcast": (_GROUP | {"sender"}, _dolev_strong_broadcast),
}


def factory_for(scenario):
    """The NodeCtx -> instance builder of the scenario's protocol. A params
    key the protocol does not read raises ScenarioError."""
    reads, build = _BUILDERS[scenario.protocol]
    unread = scenario.params.keys() - reads
    if unread:
        raise ScenarioError(
            f"protocol {scenario.protocol!r} reads no params {sorted(map(str, unread))}")
    return build
