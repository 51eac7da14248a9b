"""Maps a scenario's protocol name to its node-instance builder.

A builder takes the engine's NodeCtx and returns a protocol state machine.
Wrapper protocols derive their schedule from the prediction; bare protocols
take participants and budget t from scenario params, with defaults covering
the whole id space at the largest standard budget. Which mode a protocol
runs in is simnet.PROTOCOLS's to say; Scenario checks it, so every name
reaching factory_for is known and matches its scenario's mode.
"""

from __future__ import annotations

import math

from .predba import AuthPredBA, PredBA
from .protocols import DolevStrongBA, DolevStrongBroadcast, PhaseKing
from .simnet import NodeCtx, field_int


def _node_id(ctx: NodeCtx, value, what: str) -> int:
    """A node id read from scenario params: an integer in 1..n."""
    node = field_int(value, what)
    if not 1 <= node <= ctx.n:
        raise ValueError(f"{what} must lie in 1..{ctx.n}, got {node}")
    return node


def _group(ctx: NodeCtx, resilience: int):
    """Participants and budget t: by default everyone, at the largest t with
    resilience * t < len(group)."""
    p = ctx.params.get("participants")
    group = (tuple(sorted(_node_id(ctx, i, "participant") for i in p)) if p
             else tuple(range(1, ctx.n + 1)))
    t = ctx.params.get("t", math.ceil(len(group) / resilience) - 1)
    if type(t) is not int:
        raise ValueError(f"budget t must be an integer, got {t!r}")
    return group, t


def _dolev_strong_broadcast(ctx: NodeCtx):
    group, t = _group(ctx, 2)
    sender = _node_id(ctx, ctx.params.get("sender", group[0]), "sender")
    return DolevStrongBroadcast(ctx.node_id, sender, ctx.input, group, t, ctx.signer)


# protocol name -> (NodeCtx -> instance), one entry per simnet.PROTOCOLS name
_BUILDERS = {
    "pred_ba": lambda ctx: PredBA(
        ctx.node_id, ctx.input, ctx.prediction, ctx.alpha, ctx.n),
    "auth_pred_ba": lambda ctx: AuthPredBA(
        ctx.node_id, ctx.input, ctx.prediction, ctx.alpha, ctx.n, ctx.signer),
    "phase_king": lambda ctx: PhaseKing(ctx.node_id, ctx.input, *_group(ctx, 3)),
    "dolev_strong_ba": lambda ctx: DolevStrongBA(
        ctx.node_id, ctx.input, *_group(ctx, 2), ctx.signer),
    "dolev_strong_broadcast": _dolev_strong_broadcast,
}


def factory_for(scenario):
    """The NodeCtx -> instance builder of the scenario's protocol."""
    return _BUILDERS[scenario.protocol]
