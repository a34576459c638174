"""Composable adversary engine: attack families behind one registry.

The paper evaluates two adversaries — collusive groups (Section 5.2)
and whitewashers (Section 4.1.2) — but the attack space of reputation
systems is much wider: Absolute Trust (Awasthi & Singh,
arXiv:1601.01419) measures slandering/bad-mouthing coalitions and
sybil-style malicious collectives, and the statistical-mechanics
analysis of Manoel & Vicente (arXiv:1211.6462) studies noisy and
oscillating raters. This module makes every such adversary a
first-class, *named* object behind one protocol, mirroring the gossip
backend registry of :mod:`repro.core.backend`:

- :class:`AttackModel` is the protocol: a **seeded, pure transform** on
  ``(TrustMatrix, MutableOverlay, epoch)``. ``apply`` never mutates its
  inputs — it returns a poisoned trust copy (and, for topology-touching
  attacks, a poisoned overlay copy) — so with/without comparisons share
  one honest baseline, attacks stack (:class:`ComposedAttack`) and any
  ``(seed, epoch)`` replays bit-identically;
- :func:`register_attack` / :func:`get_attack` / :func:`make_attack` /
  :func:`available_attacks` manage the registry. Six families ship
  built-in, one name each: ``"collusion"``, ``"whitewashing"``,
  ``"slandering"`` (bad-mouthing), ``"on-off"`` (oscillating raters),
  ``"sybil"`` (sybil join floods) and ``"cross-channel-slander"`` (the
  multi-channel variant that slanders one reputation channel while
  reporting honestly on the others);
- :meth:`AttackModel.on_epoch` is the dynamic hook: attacks that act on
  a *live* network (whitewashers cycling identities, sybil join floods,
  oscillating raters) plug into
  :class:`repro.runtime.dynamics.DynamicReputationRuntime`'s churn
  epochs through it.

Every family is measurable on every registered gossip backend via
:func:`repro.attacks.evaluate.attack_impact`, and composes with the
scenario axes (:class:`repro.scenarios.AttackSpec`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Optional, Tuple

import numpy as np

from repro.attacks.collusion import (
    CollusionAttack,
    apply_collusion,
    group_colluders,
    select_colluders,
)
from repro.attacks.whitewashing import WhitewashingModel
from repro.trust.matrix import TrustMatrix
from repro.utils.registry import Registry
from repro.utils.rng import stateless_child_sequence
from repro.utils.validation import check_fraction, check_trust_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.network.mutable import MutableOverlay
    from repro.runtime.dynamics import DynamicReputationRuntime

#: Spawn key of attack streams. Far above sweep indices and distinct
#: from the backend loss key (0xFFFF1055) and the runtime epoch key
#: (0xD1AA0000), so an attack can never alias a gossip stream.
ATTACK_STREAM_KEY = 0xA77AC000

WorldTransform = Tuple[TrustMatrix, Optional["MutableOverlay"]]


class UnknownAttackError(KeyError, ValueError):
    """An unregistered attack family was requested.

    Inherits both ``KeyError`` (registry-lookup convention) and
    ``ValueError`` (bad-argument convention), matching
    :class:`repro.core.backend.UnknownBackendError`.
    """


class AttackModel(ABC):
    """One adversary family: a seeded, pure transform of the honest world.

    Subclasses are frozen dataclasses holding the family's parameters
    plus a ``seed``; all randomness (who attacks, whom they hit) derives
    statelessly from ``(seed, epoch)``, so a model instance is a
    *replayable description* of an adversary, never a stateful actor.

    Two integration points:

    - :meth:`apply` — the static transform measured by
      :func:`repro.attacks.evaluate.attack_impact`;
    - :meth:`on_epoch` — the dynamic hook
      :class:`~repro.runtime.dynamics.DynamicReputationRuntime` calls
      once per churn epoch (default: no-op).

    Examples
    --------
    >>> model = make_attack("slandering", fraction=0.2, seed=7)
    >>> model.name
    'slandering'
    >>> int(model.base_rng().integers(100)) == int(model.base_rng().integers(100))
    True
    """

    #: Registry name of the family (subclasses override).
    name: ClassVar[str] = ""
    #: Whether :meth:`apply` grows/rewires the topology (sybil floods).
    affects_topology: ClassVar[bool] = False

    # -- seeded randomness ---------------------------------------------------

    def base_rng(self) -> np.random.Generator:
        """Epoch-independent stream: *who* attacks (membership persists)."""
        root = np.random.SeedSequence(getattr(self, "seed", 0))
        return np.random.default_rng(
            stateless_child_sequence(root, ATTACK_STREAM_KEY - 1)
        )

    def epoch_rng(self, epoch: int) -> np.random.Generator:
        """Per-epoch stream: what the attackers do *this* epoch."""
        root = np.random.SeedSequence(getattr(self, "seed", 0))
        return np.random.default_rng(
            stateless_child_sequence(root, ATTACK_STREAM_KEY + int(epoch))
        )

    def persistent_members(self, pids: np.ndarray, fraction: float) -> np.ndarray:
        """Churn-stable seeded cohort among live peer ids.

        Every peer id gets one uniform score — a splitmix64 bit-mix of
        ``(id, model seed)``, a pure per-id function, so membership
        never reshuffles as the overlay grows and the cost is O(len
        (pids)) rather than O(max id). An id is a member iff its score
        falls below ``fraction``; membership therefore persists across
        epochs and survives churn — exactly what an *identity-bound*
        adversary (an oscillator) needs, and what per-epoch sampling
        cannot provide.
        """
        pids = np.asarray(pids, dtype=np.int64)
        if pids.size == 0:
            return pids
        # Seed offset computed in Python ints (scalar uint64 overflow
        # warns in numpy; the array ops below wrap silently by design).
        offset = (0x9E3779B97F4A7C15 * (int(getattr(self, "seed", 0)) + 1)) & 0xFFFFFFFFFFFFFFFF
        z = pids.astype(np.uint64) + np.uint64(offset)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        scores = z.astype(np.float64) / float(2**64)
        return pids[scores < fraction]

    # -- the protocol --------------------------------------------------------

    @abstractmethod
    def apply(
        self,
        trust: TrustMatrix,
        overlay: Optional["MutableOverlay"] = None,
        *,
        epoch: int = 0,
    ) -> WorldTransform:
        """Return the poisoned ``(trust, overlay)`` for ``epoch``.

        Pure: the inputs are never mutated. Matrix-only attacks return
        the input ``overlay`` unchanged; topology-touching attacks
        (``affects_topology``) return a mutated *copy*.
        """

    def poison(
        self,
        trust: TrustMatrix,
        overlay: Optional["MutableOverlay"] = None,
        *,
        epoch: int = 0,
    ) -> TrustMatrix:
        """Trust-matrix-only convenience wrapper over :meth:`apply`."""
        return self.apply(trust, overlay, epoch=epoch)[0]

    def on_epoch(
        self, runtime: "DynamicReputationRuntime", epoch: int, rng: np.random.Generator
    ) -> int:
        """Act on a live dynamic runtime at ``epoch``; return event count.

        The default adversary does nothing per epoch — trust-matrix
        attacks are measured statically. Families whose essence is
        *temporal* (whitewashing identity cycles, sybil join floods,
        on–off oscillation) override this; ``rng`` is the runtime's
        replayable epoch stream, so dynamic runs stay deterministic.
        """
        return 0


# -- built-in families -------------------------------------------------------


@dataclass(frozen=True)
class CollusionModel(AttackModel):
    """Section 5.2's colluding groups, as a registered attack family.

    A seeded re-packaging of :class:`repro.attacks.collusion`: a
    ``fraction`` of peers colludes in groups of ``group_size``, praising
    group-mates (report 1) and badmouthing everyone else (report 0).
    Membership is drawn from ``seed`` only — colluders persist across
    epochs, as in the paper's model.
    """

    name: ClassVar[str] = "collusion"

    fraction: float = 0.3
    group_size: int = 5
    seed: int = 0
    exclude: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_fraction(self.fraction, "fraction")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")

    def attack_for(self, num_nodes: int) -> CollusionAttack:
        """The concrete (seed-determined) collusion instance at size ``N``."""
        colluders = select_colluders(
            num_nodes, self.fraction, rng=self.base_rng(), exclude=self.exclude
        )
        return group_colluders(colluders, self.group_size)

    def apply(self, trust, overlay=None, *, epoch: int = 0) -> WorldTransform:
        return apply_collusion(trust, self.attack_for(trust.num_nodes)), overlay


@dataclass(frozen=True)
class SlanderingModel(AttackModel):
    """Targeted bad-mouthing (Absolute Trust's slandering adversary).

    Unlike collusion — which wipes a colluder's *entire* row — a
    slanderer keeps its honest opinions and only plants ``value``
    (default 0) about a chosen victim set, so the attack is harder to
    spot from report statistics. ``max_victims`` caps the victim set so
    the poisoned matrix stays sparse at any network size; the cap
    defaults to 100 because the planting is O(slanderers × victims) —
    an uncapped 100k-node run would insert ~10⁸ entries. Pass ``None``
    to lift it deliberately.
    """

    name: ClassVar[str] = "slandering"

    #: Default victim cap (see class docstring).
    DEFAULT_MAX_VICTIMS: ClassVar[int] = 100

    fraction: float = 0.2
    victim_fraction: float = 0.1
    value: float = 0.0
    max_victims: Optional[int] = DEFAULT_MAX_VICTIMS
    seed: int = 0

    def __post_init__(self) -> None:
        check_fraction(self.fraction, "fraction")
        check_fraction(self.victim_fraction, "victim_fraction")
        check_trust_value(self.value, "value")
        if self.max_victims is not None and self.max_victims < 1:
            raise ValueError(f"max_victims must be >= 1, got {self.max_victims}")

    def cast(self, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Seed-determined ``(slanderers, victims)`` — disjoint sets."""
        rng = self.base_rng()
        slanderers = select_colluders(num_nodes, self.fraction, rng=rng)
        victims = select_colluders(
            num_nodes, self.victim_fraction, rng=rng, exclude=slanderers
        )
        if self.max_victims is not None and victims.size > self.max_victims:
            victims = np.sort(rng.choice(victims, size=self.max_victims, replace=False))
        return slanderers, victims

    def apply(self, trust, overlay=None, *, epoch: int = 0) -> WorldTransform:
        slanderers, victims = self.cast(trust.num_nodes)
        poisoned = trust.copy()
        for slanderer in slanderers:
            for victim in victims:
                poisoned.set(int(slanderer), int(victim), self.value)
        return poisoned, overlay


@dataclass(frozen=True)
class CrossChannelSlanderModel(AttackModel):
    """Slander one reputation channel, behave honestly on the others.

    Multi-channel gossip (Golem's computing + delegating dual rank)
    opens an attack surface single-channel systems cannot express: a
    coalition that bad-mouths its victims on *one* channel while its
    reports on every other channel stay truthful, so channel-blind
    report statistics look clean. The coalition and victim set are the
    seeded :class:`SlanderingModel` cast — same ``(seed → who)``
    mapping — but the poison lands only on ``target_channel``.

    :meth:`apply_channels` is the multi-channel transform (a sequence
    of per-channel trust matrices in, a poisoned copy out, untouched
    channels shared rather than copied). The single-matrix
    :meth:`apply` treats its one matrix *as* the targeted channel, so
    the family still composes with every single-channel harness
    (``attack_impact``, :class:`ComposedAttack`).
    """

    name: ClassVar[str] = "cross-channel-slander"

    fraction: float = 0.2
    victim_fraction: float = 0.1
    value: float = 0.0
    max_victims: Optional[int] = SlanderingModel.DEFAULT_MAX_VICTIMS
    target_channel: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_channel < 0:
            raise ValueError(
                f"target_channel must be >= 0, got {self.target_channel}"
            )
        # Construction validates fraction/victim_fraction/value/max_victims.
        self._inner()

    def _inner(self) -> SlanderingModel:
        """The equivalent single-channel slander coalition (same cast)."""
        return SlanderingModel(
            fraction=self.fraction,
            victim_fraction=self.victim_fraction,
            value=self.value,
            max_victims=self.max_victims,
            seed=self.seed,
        )

    def cast(self, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Seed-determined ``(slanderers, victims)`` — disjoint sets."""
        return self._inner().cast(num_nodes)

    def apply(self, trust, overlay=None, *, epoch: int = 0) -> WorldTransform:
        return self._inner().apply(trust, overlay, epoch=epoch)

    def apply_channels(
        self,
        channels: "Tuple[TrustMatrix, ...]",
        overlay: "Optional[MutableOverlay]" = None,
        *,
        epoch: int = 0,
    ) -> "Tuple[Tuple[TrustMatrix, ...], Optional[MutableOverlay]]":
        """Poison ``target_channel`` of a per-channel trust sequence.

        Channels other than the target are returned as-is (the
        transform is pure, so sharing the honest matrices is safe).
        """
        channels = tuple(channels)
        if not channels:
            raise ValueError("channels must contain at least one trust matrix")
        if self.target_channel >= len(channels):
            raise ValueError(
                f"target_channel {self.target_channel} outside the "
                f"{len(channels)} provided channels"
            )
        poisoned = list(channels)
        poisoned[self.target_channel], overlay = self._inner().apply(
            poisoned[self.target_channel], overlay, epoch=epoch
        )
        return tuple(poisoned), overlay


@dataclass(frozen=True)
class WhitewashingAttackModel(AttackModel):
    """Identity-shedding whitewashers (Section 4.1.2), per-epoch capable.

    Statically, a ``fraction`` of peers discards their identity: every
    opinion *about* them is erased and replaced per the
    ``newcomer_trust`` policy (the ported
    :class:`repro.attacks.whitewashing.WhitewashingModel` bookkeeping —
    entries are only ever re-granted to *former* observers). The paper's
    zero policy makes the transform strictly non-profitable.

    Dynamically (:meth:`on_epoch`), each churn epoch a seeded sample of
    ``round(fraction * N)`` live identities sheds its identity through
    :meth:`DynamicReputationRuntime.whitewash_peer` — the leaver/joiner
    mass bookkeeping of the runtime, wired to the newcomer policy. The
    cohort is a per-epoch *rate*, not a persistent member list: the
    whole point of whitewashing is that identities do not persist, so
    "the same peers again" is undefined once the ids have been shed.
    The sample draws from the runtime's replayable epoch stream, so
    dynamic runs still replay bit-identically from the trace seed.
    """

    name: ClassVar[str] = "whitewashing"

    fraction: float = 0.1
    newcomer_trust: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fraction(self.fraction, "fraction")
        check_trust_value(self.newcomer_trust, "newcomer_trust")

    def whitewashers_for(self, num_nodes: int) -> np.ndarray:
        """Seed-determined whitewasher cohort at size ``N``."""
        return select_colluders(num_nodes, self.fraction, rng=self.base_rng())

    def apply(self, trust, overlay=None, *, epoch: int = 0) -> WorldTransform:
        poisoned = trust.copy()
        bookkeeper = WhitewashingModel(newcomer_trust=self.newcomer_trust)
        for node in self.whitewashers_for(trust.num_nodes):
            bookkeeper.whitewash(poisoned, int(node))
        return poisoned, overlay

    def on_epoch(self, runtime, epoch: int, rng: np.random.Generator) -> int:
        pids = runtime.overlay.peer_ids()
        count = min(int(round(self.fraction * pids.shape[0])), pids.shape[0])
        if count == 0:
            return 0
        victims = rng.choice(pids, size=count, replace=False)
        events = 0
        for victim in victims:
            if runtime.overlay.has_peer(int(victim)) and runtime.overlay.num_peers > 3:
                runtime.whitewash_peer(
                    int(victim),
                    rng,
                    epoch=epoch,
                    newcomer_opinion=self.newcomer_trust,
                )
                events += 1
        return events


@dataclass(frozen=True)
class OnOffModel(AttackModel):
    """On–off oscillation: attackers alternate honest and dishonest phases.

    Manoel & Vicente's oscillating raters: an adversary that behaves
    only intermittently evades naive time-averaged detection. Epochs
    cycle with ``period``; the first ``on_epochs`` of each cycle are
    attack phases, the rest are honest. During an attack phase the
    model applies its ``inner`` attack (any other family — attacks
    stack); with no ``inner``, the default oscillator behaviour is
    lone-colluder badmouthing (``G = 1`` rows over a ``fraction`` of
    peers). During an honest phase :meth:`apply` returns a clean copy,
    so under shared-seed measurement the off-phase impact is exactly 0.

    ``inner`` shapes the **static** transform only. The dynamic hook
    (:meth:`on_epoch`) always models oscillating *raters* — inflated
    published opinions on attack phases, fresh honest draws off —
    because matrix-level inner families have no counterpart in the
    runtime's scalar opinion state; ``victim_fraction``-style inner
    parameters do not apply to dynamic runs.
    """

    name: ClassVar[str] = "on-off"

    fraction: float = 0.2
    period: int = 2
    on_epochs: int = 1
    inner: Optional[AttackModel] = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_fraction(self.fraction, "fraction")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0 < self.on_epochs <= self.period:
            raise ValueError(
                f"on_epochs must be in 1..period ({self.period}), got {self.on_epochs}"
            )

    @property
    def affects_topology(self) -> bool:  # type: ignore[override]
        """Propagated from the inner family (a duty-cycled sybil flood
        still needs the overlay on its attack phases)."""
        return self.inner.affects_topology if self.inner is not None else False

    def is_on(self, epoch: int) -> bool:
        """Whether ``epoch`` falls in an attack phase of the duty cycle."""
        return (int(epoch) % self.period) < self.on_epochs

    def _default_inner(self) -> AttackModel:
        return CollusionModel(fraction=self.fraction, group_size=1, seed=self.seed)

    def apply(self, trust, overlay=None, *, epoch: int = 0) -> WorldTransform:
        if not self.is_on(epoch):
            return trust.copy(), overlay
        inner = self.inner if self.inner is not None else self._default_inner()
        return inner.apply(trust, overlay, epoch=epoch)

    def on_epoch(self, runtime, epoch: int, rng: np.random.Generator) -> int:
        """Oscillating raters on a live runtime (``inner`` is static-only).

        Membership is the *persistent* seeded cohort
        (:meth:`AttackModel.persistent_members`) — an oscillator is the
        same identity in every phase, which is what makes the duty cycle
        observable: attack phases re-publish the inflated opinion (1.0),
        honest phases re-publish a fresh honest draw **for the same
        identities**, resetting the inflation. (Per-epoch sampling would
        leave previous oscillators stuck at 1.0 through honest phases —
        an attack that never turns off.)
        """
        oscillators = self.persistent_members(runtime.overlay.peer_ids(), self.fraction)
        if oscillators.size == 0:
            return 0
        published = (
            np.ones(oscillators.size)
            if self.is_on(epoch)
            else rng.random(oscillators.size)
        )
        for pid, value in zip(oscillators, published):
            runtime.republish_opinion(int(pid), float(value))
        return int(oscillators.size)


@dataclass(frozen=True)
class SybilFloodModel(AttackModel):
    """Sybil join flood: one operator spawns a swarm of fake identities.

    The swarm (``round(sybil_fraction * N)`` identities, or an explicit
    ``num_sybils``) joins the overlay by preferential attachment, each
    sybil praising the operator (report 1), praising up to
    ``collude_width`` fellow sybils and badmouthing up to
    ``slander_width`` random honest peers — bounded per-sybil fan-out,
    so the poisoned matrix stays sparse at any scale. Honest peers hold
    *no* opinion about the strangers, which is precisely the paper's
    zero-initial-trust defence: sybils dilute the ``"all"`` denominator
    but start from reputation 0 themselves.

    The only built-in family with ``affects_topology = True``:
    :meth:`apply` returns an *enlarged* trust matrix plus an overlay
    copy with the sybils wired in (ids ``N .. N+S-1``).
    """

    name: ClassVar[str] = "sybil"
    affects_topology: ClassVar[bool] = True

    sybil_fraction: float = 0.1
    num_sybils: Optional[int] = None
    attach_m: int = 2
    collude_width: int = 20
    slander_width: int = 20
    flood_epoch: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fraction(self.sybil_fraction, "sybil_fraction")
        if self.num_sybils is not None and self.num_sybils < 1:
            raise ValueError(f"num_sybils must be >= 1, got {self.num_sybils}")
        if self.attach_m < 1:
            raise ValueError(f"attach_m must be >= 1, got {self.attach_m}")
        if self.collude_width < 0 or self.slander_width < 0:
            raise ValueError("collude_width/slander_width must be >= 0")
        if self.flood_epoch < 0:
            raise ValueError(f"flood_epoch must be >= 0, got {self.flood_epoch}")

    def sybil_count(self, num_nodes: int) -> int:
        """Swarm size at honest population ``N``."""
        if self.num_sybils is not None:
            return self.num_sybils
        return max(1, int(round(self.sybil_fraction * num_nodes)))

    def apply(self, trust, overlay=None, *, epoch: int = 0) -> WorldTransform:
        from repro.network.mutable import MutableOverlay  # cycle guard

        n = trust.num_nodes
        if overlay is None:
            raise ValueError(
                "sybil floods grow the topology; pass the overlay (or let "
                "attack_impact wrap the graph) so the swarm has somewhere to join"
            )
        if overlay.max_peer_id + 1 != n:
            raise ValueError(
                f"overlay peer ids (max {overlay.max_peer_id}) must align with the "
                f"trust matrix ({n} nodes); wrap a fresh snapshot via "
                "MutableOverlay.from_graph"
            )
        swarm = self.sybil_count(n)
        rng = self.base_rng()
        operator = int(rng.integers(n))
        poisoned = trust.resized(n + swarm)
        flooded: MutableOverlay = overlay.copy()
        sybil_ids = np.arange(n, n + swarm, dtype=np.int64)
        for sid in sybil_ids:
            pid = flooded.add_peer(m=self.attach_m, rng=rng)
            assert pid == int(sid)  # fresh wrap + contiguous joins
            poisoned.set(int(sid), operator, 1.0)
            if swarm > 1 and self.collude_width > 0:
                # Draw fellow *indices* from range(S-1) and remap around
                # self — materialising the swarm-sized candidate array
                # per sybil would make the wiring O(S^2).
                self_index = int(sid) - n
                width = min(self.collude_width, swarm - 1)
                for draw in rng.choice(swarm - 1, size=width, replace=False):
                    fellow = sybil_ids[draw if draw < self_index else draw + 1]
                    poisoned.set(int(sid), int(fellow), 1.0)
            if self.slander_width > 0:
                width = min(self.slander_width, n)
                for victim in rng.choice(n, size=width, replace=False):
                    if int(victim) != operator:
                        poisoned.set(int(sid), int(victim), 0.0)
        return poisoned, flooded

    def on_epoch(self, runtime, epoch: int, rng: np.random.Generator) -> int:
        """Dynamic flood: the swarm joins the live overlay at
        ``flood_epoch``, each sybil publishing the inflated opinion 1.0.

        A join flood is an *event*, not a per-epoch faucet: sizing a
        fresh swarm against the (already sybil-inflated) population
        every epoch would compound ``(1 + fraction)^epochs`` and the
        trace would blow up instead of modelling one attack wave.
        """
        if epoch != self.flood_epoch:
            return 0
        swarm = self.sybil_count(runtime.overlay.num_peers)
        for _ in range(swarm):
            runtime.join_attacker(1.0, rng, m=self.attach_m)
        return swarm


@dataclass(frozen=True)
class ComposedAttack(AttackModel):
    """Sequential stack of attacks: later members see the earlier poison.

    The composability contract in one object — e.g. a sybil flood
    *plus* slandering of the flood's victims, or an on–off wrapper
    around a collusion ring. ``on_epoch`` fans out to every member.
    """

    name: ClassVar[str] = "composed"

    attacks: Tuple[AttackModel, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.attacks:
            raise ValueError("ComposedAttack needs at least one member attack")

    @property
    def affects_topology(self) -> bool:  # type: ignore[override]
        return any(a.affects_topology for a in self.attacks)

    def apply(self, trust, overlay=None, *, epoch: int = 0) -> WorldTransform:
        for attack in self.attacks:
            trust, overlay = attack.apply(trust, overlay, epoch=epoch)
        return trust, overlay

    def on_epoch(self, runtime, epoch: int, rng: np.random.Generator) -> int:
        return sum(a.on_epoch(runtime, epoch, rng) for a in self.attacks)


def stack_attacks(*attacks: AttackModel) -> ComposedAttack:
    """Convenience constructor for :class:`ComposedAttack`."""
    return ComposedAttack(attacks=tuple(attacks))


# -- registry ----------------------------------------------------------------

AttackFactory = Callable[..., AttackModel]

#: The attack-family table. ``factory`` is any callable building an
#: :class:`AttackModel` from keyword parameters (typically the model
#: class itself). After :func:`register_attack` the family is
#: selectable everywhere an attack kind is accepted — :func:`make_attack`,
#: the scenario :class:`~repro.scenarios.spec.AttackSpec` axis and the
#: attack benchmark sweep.
_ATTACKS: Registry[AttackFactory] = Registry("attack family", UnknownAttackError)

register_attack = _ATTACKS.register
resolve_attack_name = _ATTACKS.resolve
get_attack = _ATTACKS.get
available_attacks = _ATTACKS.names


def make_attack(name: str, **params) -> AttackModel:
    """Build an attack model from a registered family name.

    Examples
    --------
    >>> make_attack("slandering", fraction=0.25, seed=1).fraction
    0.25
    """
    return get_attack(name)(**params)


register_attack("collusion", CollusionModel)
register_attack("whitewashing", WhitewashingAttackModel)
register_attack("slandering", SlanderingModel)
register_attack("cross-channel-slander", CrossChannelSlanderModel)
register_attack("on-off", OnOffModel)
register_attack("sybil", SybilFloodModel)
