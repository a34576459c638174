"""Exceptions raised by the gossip engines."""

from __future__ import annotations


class GossipError(RuntimeError):
    """Base class for gossip-engine failures."""


class ConvergenceError(GossipError):
    """Gossip did not reach the stopping condition within ``max_steps``.

    Attributes
    ----------
    steps:
        Steps executed before giving up.
    unconverged:
        Number of nodes that had not yet announced convergence.

    Examples
    --------
    >>> error = ConvergenceError(steps=100, unconverged=3)
    >>> error.steps, error.unconverged
    (100, 3)
    """

    def __init__(self, steps: int, unconverged: int):
        self.steps = steps
        self.unconverged = unconverged
        super().__init__(
            f"gossip did not converge within {steps} steps "
            f"({unconverged} nodes still unconverged); raise max_steps or loosen xi"
        )


class MassConservationError(GossipError):
    """A gossip component's global mass drifted beyond tolerance."""
