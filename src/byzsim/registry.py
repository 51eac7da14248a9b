"""Maps a scenario's protocol name to a node-instance factory.

A factory takes the engine's NodeCtx and returns a protocol state machine.
Wrapper protocols derive their schedule from the prediction; bare protocols
take participants and budget t from scenario params, with defaults covering
the whole id space at the largest standard budget.
"""

from __future__ import annotations

import math

from .predba import AuthPredBA, PredBA
from .protocols import DolevStrongBA, DolevStrongBroadcast, PhaseKing
from .simnet import NodeCtx


def _group(ctx: NodeCtx, resilience: int):
    """Participants and budget t: by default everyone, at the largest t with
    resilience * t < len(group)."""
    p = ctx.params.get("participants")
    group = tuple(sorted(p)) if p else tuple(range(1, ctx.n + 1))
    t = ctx.params.get("t", math.ceil(len(group) / resilience) - 1)
    if type(t) is not int:
        raise ValueError(f"budget t must be an integer, got {t!r}")
    return group, t


def _dolev_strong_broadcast(ctx: NodeCtx):
    group, t = _group(ctx, 2)
    sender = ctx.params.get("sender", group[0])
    return DolevStrongBroadcast(ctx.node_id, sender, ctx.input, group, t, ctx.signer)


# protocol name -> (the mode it runs in, NodeCtx -> instance)
_PROTOCOLS = {
    "pred_ba": ("nonauth", lambda ctx: PredBA(
        ctx.node_id, ctx.input, ctx.prediction, ctx.alpha, ctx.n)),
    "auth_pred_ba": ("auth", lambda ctx: AuthPredBA(
        ctx.node_id, ctx.input, ctx.prediction, ctx.alpha, ctx.n, ctx.signer)),
    "phase_king": ("nonauth", lambda ctx: PhaseKing(
        ctx.node_id, ctx.input, *_group(ctx, 3))),
    "dolev_strong_ba": ("auth", lambda ctx: DolevStrongBA(
        ctx.node_id, ctx.input, *_group(ctx, 2), ctx.signer)),
    "dolev_strong_broadcast": ("auth", _dolev_strong_broadcast),
}


def factory_for(scenario):
    name = scenario.protocol
    if name not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}")
    mode, build = _PROTOCOLS[name]

    def make(ctx: NodeCtx):
        if ctx.mode != mode:
            raise ValueError(f"protocol {name!r} runs in {mode} mode, not {ctx.mode}")
        return build(ctx)

    return make
