"""Synchronous-round Byzantine agreement simulator with prediction hints.

The package splits into exact math (:mod:`byzsim.core`), the round engine
and scenario format (:mod:`byzsim.simnet`), the two classic inner protocols
(:mod:`byzsim.protocols`), the prediction-augmented wrappers
(:mod:`byzsim.predba`), the adversary library and impossibility scenario
builders (:mod:`byzsim.adversary`), prediction generators
(:mod:`byzsim.predgen`), the experiment batteries (:mod:`byzsim.harness`),
and the ``byzsim`` command line (:mod:`byzsim.cli`).

Only the names the README's quick tour imports are re-exported here.
Everything else is imported from the module that owns it, e.g.
``from byzsim.harness import verify_consistency``.
"""

from .adversary import silent, split_brain
from .core import Configuration, theoretical_smoothness
from .harness import sweep
from .simnet import Scenario, run_simulation

__all__ = [
    "Configuration",
    "Scenario",
    "run_simulation",
    "silent",
    "split_brain",
    "sweep",
    "theoretical_smoothness",
]
