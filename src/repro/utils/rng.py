"""Seeded randomness helpers.

Every stochastic component in the library accepts either an integer seed,
``None`` (fresh entropy) or an existing :class:`numpy.random.Generator`.
Funnelling all call sites through :func:`as_generator` keeps experiments
reproducible: one seed at the experiment boundary determines the whole
run, and child streams can be split off deterministically with
:func:`spawn_child` so that, e.g., topology generation and gossip target
selection do not share (and therefore perturb) one stream.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Anything accepted as a source of randomness by the public API.
RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so state is shared with
        the caller).

    Examples
    --------
    >>> g = as_generator(42)
    >>> g2 = as_generator(42)
    >>> float(g.random()) == float(g2.random())
    True
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(rng)


def spawn_child(rng: np.random.Generator, key: Optional[int] = None) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    The child stream is seeded from the parent's bit generator, so two
    subsystems given different children never contend for the same stream
    while remaining fully determined by the original seed.

    Parameters
    ----------
    rng:
        Parent generator.
    key:
        Optional integer mixed into the child's seed, letting callers
        derive several distinguishable children from one parent.
    """
    seed = rng.integers(0, 2**63 - 1, dtype=np.int64)
    if key is not None:
        seed = np.int64(seed ^ np.int64(key * 0x9E3779B97F4A7C15 % (2**62)))
    return np.random.default_rng(int(seed))


def stateless_child_sequence(
    root: np.random.SeedSequence, key: int
) -> np.random.SeedSequence:
    """Child ``SeedSequence`` derived from ``(root entropy, key)`` only.

    Built exactly as ``root.spawn()`` would build child ``key`` for a
    fresh root (spawn_key extended, pool_size inherited) but without
    mutating the root's spawn counter, so the child depends on nothing
    but the root entropy and the key. Children of ``root.spawn()``
    occupy keys ``0, 1, ...`` of the same keyspace, so a subsystem
    stream derived with this helper takes a large key of its own (such
    as ``repro.core.backend.LOSS_STREAM_KEY``) that no small index
    reaches.
    """
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=root.spawn_key + (int(key),),
        pool_size=root.pool_size,
    )
