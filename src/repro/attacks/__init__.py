"""Adversary engine: composable, registered attack families.

Section 5.2 analyses collusion; Figures 5 and 6 measure it. Section
4.1.2 motivates the zero initial trust value with whitewashing. Beyond
the paper's two adversaries, :mod:`repro.attacks.models` registers
slandering/bad-mouthing, on–off oscillation and sybil join floods —
each a seeded, pure transform on ``(TrustMatrix, MutableOverlay,
epoch)``, so attacks stack, replay deterministically, and are
measurable on any registered gossip backend via
:func:`repro.attacks.evaluate.attack_impact` (eq.-18 RMS error, clean
vs poisoned runs under identical seeds).
"""

from repro.attacks.collusion import (
    CollusionAttack,
    apply_collusion,
    group_colluders,
    select_colluders,
)
from repro.attacks.evaluate import (
    AttackImpact,
    as_attack_model,
    attack_impact,
    attack_impact_series,
)
from repro.attacks.models import (
    AttackModel,
    CollusionModel,
    ComposedAttack,
    CrossChannelSlanderModel,
    OnOffModel,
    SlanderingModel,
    SybilFloodModel,
    UnknownAttackError,
    WhitewashingAttackModel,
    available_attacks,
    get_attack,
    make_attack,
    register_attack,
    resolve_attack_name,
    stack_attacks,
)
from repro.attacks.whitewashing import WhitewashingModel

__all__ = [
    "AttackImpact",
    "AttackModel",
    "CollusionAttack",
    "CollusionModel",
    "ComposedAttack",
    "CrossChannelSlanderModel",
    "OnOffModel",
    "SlanderingModel",
    "SybilFloodModel",
    "UnknownAttackError",
    "WhitewashingAttackModel",
    "WhitewashingModel",
    "apply_collusion",
    "as_attack_model",
    "attack_impact",
    "attack_impact_series",
    "available_attacks",
    "get_attack",
    "group_colluders",
    "make_attack",
    "register_attack",
    "resolve_attack_name",
    "select_colluders",
    "stack_attacks",
]
