"""The seeded scenario catalogue.

Sixteen scenarios ship with the repro, spanning the design space the
ROADMAP names; each composes the same axes (topology × workload ×
churn × network × attack × dynamics × service × algorithm × backend),
so new scenarios are a registration call away — no new plumbing. The two
dynamic scenarios (``flash-crowd``, ``steady-churn-100k``) run the
epoch runtime of :mod:`repro.runtime` instead of a single static round,
``service-soak`` streams a seeded report workload through the serving
layer of :mod:`repro.service` (bounded ingest, snapshot swaps,
backpressure), ``million-peer`` runs the sparse engine at a million
peers, twenty times the paper's largest world, three adversary
scenarios (``slander-under-churn``, ``sybil-flood-100k``,
``oscillating-colluders``) sweep the attack registry of
:mod:`repro.attacks.models` across the backend spectrum,
``computing-vs-delegating`` gossips Golem-style computing + delegating
dual ranks as two channels of a single multi-channel pass under a
cross-channel slander coalition (the honest rank must stay clean), and
three network-conditions scenarios (``wan-vs-lan``, ``flaky-region``,
``partition-under-attack``) drive the link models of
:mod:`repro.network.conditions` — regional latency on the event-driven
async backend, a lossy region, and a scheduled partition healing under
an active adversary. ``absolute-trust-powerlaw`` pins the algorithm
axis: the static-powerlaw world executed by the Absolute Trust fixpoint
through the registry of :mod:`repro.algorithms`.
"""

from __future__ import annotations

from repro.scenarios.spec import (
    AlgorithmSpec,
    AttackSpec,
    ChurnSpec,
    DynamicSpec,
    NetworkSpec,
    Scenario,
    ServiceSpec,
    TopologySpec,
    WorkloadSpec,
    register_scenario,
)

STATIC_POWERLAW = register_scenario(
    Scenario(
        name="static-powerlaw",
        description=(
            "Baseline: vector-global reputation aggregation over sampled targets "
            "on a static preferential-attachment overlay, backend auto-selected."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=2000, small_num_nodes=200, m=2),
        workload=WorkloadSpec(kind="trust-global", num_targets=20, observations="edge-local"),
        backend="auto",
        xi=1e-5,
        seed=411,
    )
)

CHURN_HEAVY = register_scenario(
    Scenario(
        name="churn-heavy",
        description=(
            "Uniform mean gossip with 30% of pushes lost to churn; the "
            "mass-conserving self-push repair must keep the estimate exact."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=2000, small_num_nodes=250, m=2),
        workload=WorkloadSpec(kind="mean"),
        churn=ChurnSpec(loss_probability=0.3),
        backend="auto",
        xi=1e-5,
        seed=412,
    )
)

COLLUSION_UNDER_CHURN = register_scenario(
    Scenario(
        name="collusion-under-churn",
        description=(
            "Full DGT (vector-gclr) against 30% colluders in groups of 5 while "
            "20% of pushes are lost — eq.-18 RMS error, clean vs poisoned runs "
            "under identical seeds."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=250, small_num_nodes=80, m=2),
        workload=WorkloadSpec(kind="trust-gclr", num_targets=20, observations="complete"),
        churn=ChurnSpec(loss_probability=0.2),
        attack=AttackSpec(fraction=0.3, group_size=5),
        backend="auto",
        xi=1e-4,
        seed=413,
    )
)

FLASH_CROWD = register_scenario(
    Scenario(
        name="flash-crowd",
        description=(
            "Dynamic network: a 30% arrival surge hits at epoch 2 and churns back "
            "out; epochs warm-start from the pre-surge reputation state."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=5000, small_num_nodes=400, m=2),
        workload=WorkloadSpec(kind="mean"),
        dynamic=DynamicSpec(
            epochs=8,
            join_rate=0.005,
            leave_rate=0.005,
            flash=True,
            spike_epoch=2,
            spike_fraction=0.3,
            opinion_drift=0.01,
            newcomer_trust=0.2,
        ),
        backend="auto",
        xi=1e-5,
        max_steps=400,
        seed=415,
    )
)

STEADY_CHURN_100K = register_scenario(
    Scenario(
        name="steady-churn-100k",
        description=(
            "Dynamic network at 100 000 peers on the sparse CSR backend: 0.2% of "
            "sessions join/leave per epoch, 1% of opinions drift, and warm-start "
            "epochs re-converge in a fraction of the cold-start rounds."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=100_000, small_num_nodes=2000, m=2),
        workload=WorkloadSpec(kind="mean"),
        dynamic=DynamicSpec(
            epochs=6,
            join_rate=0.002,
            leave_rate=0.002,
            opinion_drift=0.01,
            newcomer_trust=0.2,
        ),
        backend="sparse",
        xi=1e-5,
        max_steps=400,
        seed=416,
    )
)

MILLION_PEER = register_scenario(
    Scenario(
        name="million-peer",
        description=(
            "Scale ceiling: uniform mean gossip over a 1M-peer, ~8M-edge "
            "power-law overlay on the sparse CSR backend."
        ),
        topology=TopologySpec(
            kind="powerlaw-fast", num_nodes=1_000_000, small_num_nodes=3000, m=8
        ),
        workload=WorkloadSpec(kind="mean"),
        backend="sparse",
        xi=1e-4,
        max_steps=50_000,
        seed=417,
    )
)

SLANDER_UNDER_CHURN = register_scenario(
    Scenario(
        name="slander-under-churn",
        description=(
            "Targeted bad-mouthing while 20% of pushes are lost: 25% slanderers "
            "plant zero-trust reports about a 15% victim set — eq.-18 RMS error, "
            "clean vs poisoned runs under identical seeds."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=250, small_num_nodes=80, m=2),
        workload=WorkloadSpec(kind="trust-gclr", num_targets=30, observations="complete"),
        churn=ChurnSpec(loss_probability=0.2),
        attack=AttackSpec(kind="slandering", fraction=0.25, victim_fraction=0.15),
        backend="auto",
        xi=1e-4,
        seed=418,
    )
)

SYBIL_FLOOD_100K = register_scenario(
    Scenario(
        name="sybil-flood-100k",
        description=(
            "Sybil join flood at 100 000 peers on the sparse CSR backend: a 10% "
            "sybil swarm joins by preferential attachment, praises its operator "
            "and badmouths sampled honest peers; honest peers grant the "
            "strangers the paper's zero initial trust."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=100_000, small_num_nodes=2000, m=2),
        workload=WorkloadSpec(kind="trust-gclr", num_targets=20, observations="edge-local"),
        attack=AttackSpec(kind="sybil", sybil_fraction=0.1, attach_m=2),
        backend="sparse",
        xi=1e-3,
        max_steps=50_000,
        seed=419,
    )
)

OSCILLATING_COLLUDERS = register_scenario(
    Scenario(
        name="oscillating-colluders",
        description=(
            "On-off adversaries on the sparse backend: 5% oscillators slander a "
            "capped victim set on even epochs and behave honestly on odd ones; "
            "the off-phase rms collapses to 0 under shared seeds (rms_gclr_off)."
        ),
        topology=TopologySpec(
            kind="powerlaw-fast", num_nodes=100_000, small_num_nodes=1500, m=2
        ),
        workload=WorkloadSpec(kind="trust-gclr", num_targets=20, observations="edge-local"),
        attack=AttackSpec(
            kind="on-off",
            fraction=0.05,
            victim_fraction=0.1,
            max_victims=50,
            period=2,
            on_epochs=1,
        ),
        backend="sparse",
        xi=1e-3,
        max_steps=50_000,
        seed=420,
    )
)

SERVICE_SOAK = register_scenario(
    Scenario(
        name="service-soak",
        description=(
            "Serving-layer soak: a seeded report stream is pushed through the "
            "reputation service's bounded ingest queue in chunks (watermark "
            "shedding included); every tick folds a batch, runs one warm-start "
            "epoch and swaps an immutable snapshot — measured for ingest "
            "throughput, staleness, and lock-free query rate."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=2000, small_num_nodes=150, m=2),
        workload=WorkloadSpec(kind="mean"),
        service=ServiceSpec(
            num_reports=20_000,
            small_num_reports=1_200,
            batch_size=512,
            high_watermark=768,  # < stream size at both scales: shedding is exercised
            submit_chunk=256,
        ),
        backend="auto",
        xi=1e-4,
        max_steps=400,
        seed=421,
    )
)

COMPUTING_VS_DELEGATING = register_scenario(
    Scenario(
        name="computing-vs-delegating",
        description=(
            "Golem-style dual rank: independent computing and delegating trust "
            "matrices gossiped as two reputation channels of one V=2 pass "
            "(every sampling draw shared) while a 20% cross-channel slander "
            "coalition bad-mouths a 10% victim set on the computing rank only — "
            "the delegating rank's shift must stay at gossip-noise level."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=2000, small_num_nodes=200, m=2),
        workload=WorkloadSpec(kind="dual-rank", num_targets=20, observations="edge-local"),
        attack=AttackSpec(
            kind="cross-channel-slander",
            fraction=0.2,
            victim_fraction=0.1,
            target_channel=0,
        ),
        backend="auto",
        xi=1e-5,
        seed=422,
    )
)

WAN_VS_LAN = register_scenario(
    Scenario(
        name="wan-vs-lan",
        description=(
            "Network realism on the event-driven async backend: a regional "
            "overlay (dense LAN blocks, sparse WAN links) where intra-region "
            "pushes land after a short exponential delay and cross-region "
            "pushes take 10x longer through a bandwidth-capped WAN pipe — "
            "mass stays exactly conserved across all in-flight traffic."
        ),
        topology=TopologySpec(
            kind="regional",
            num_nodes=1000,
            small_num_nodes=150,
            num_regions=4,
            intra_p=0.08,
            inter_p=0.005,
        ),
        workload=WorkloadSpec(kind="mean"),
        network=NetworkSpec(
            kind="regional",
            num_regions=4,
            latency_kind="exponential",
            latency_mean=0.05,
            inter_latency_mean=0.5,
            inter_bandwidth=50.0,
        ),
        backend="auto",  # latency steers this to "async"
        xi=1e-4,
        max_steps=5_000,
        seed=423,
    )
)

FLAKY_REGION = register_scenario(
    Scenario(
        name="flaky-region",
        description=(
            "One region of four drops 40% of the pushes it sends or receives "
            "(on top of mild uniform loss) while everyone gossips the network "
            "mean: the mass-conserving self-redirect keeps the estimate exact, "
            "the flaky region just converges last."
        ),
        topology=TopologySpec(
            kind="regional",
            num_nodes=1000,
            small_num_nodes=150,
            num_regions=4,
            intra_p=0.08,
            inter_p=0.005,
        ),
        workload=WorkloadSpec(kind="mean"),
        network=NetworkSpec(
            kind="regional",
            num_regions=4,
            loss=0.02,
            inter_loss=0.05,
            latency_kind="exponential",
            latency_mean=0.05,
            inter_latency_mean=0.2,
            flaky_region=2,
            flaky_loss=0.4,
        ),
        backend="auto",
        xi=1e-4,
        max_steps=5_000,
        seed=424,
    )
)

PARTITION_UNDER_ATTACK = register_scenario(
    Scenario(
        name="partition-under-attack",
        description=(
            "A scheduled partition splits the dynamic overlay into two groups "
            "for epochs 3-6 while on-off slanderers keep poisoning reports; "
            "overlay repair stays group-scoped during the window, the cut "
            "edges heal at epoch 7, and the re-joined network re-converges "
            "warm to one global estimate."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=2000, small_num_nodes=300, m=2),
        workload=WorkloadSpec(kind="mean"),
        network=NetworkSpec(
            kind="regional",
            num_regions=2,
            partition_start=3,
            partition_duration=4,
            partition_groups=2,
        ),
        attack=AttackSpec(
            kind="on-off",
            fraction=0.05,
            victim_fraction=0.1,
            max_victims=20,
            period=2,
            on_epochs=1,
        ),
        dynamic=DynamicSpec(
            epochs=10,
            join_rate=0.005,
            leave_rate=0.005,
            opinion_drift=0.01,
            newcomer_trust=0.2,
        ),
        backend="auto",
        xi=1e-5,
        max_steps=400,
        seed=425,
    )
)

ABSOLUTE_TRUST_POWERLAW = register_scenario(
    Scenario(
        name="absolute-trust-powerlaw",
        description=(
            "Algorithm axis: the static-powerlaw trust-global world executed by "
            "the Absolute Trust fixpoint baseline (arXiv:1601.01419) through the "
            "algorithm registry — seeded random start, oscillation-damped "
            "iteration, messages counted as iterations x explicit reports."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=2000, small_num_nodes=200, m=2),
        workload=WorkloadSpec(kind="trust-global", num_targets=20, observations="edge-local"),
        algorithm=AlgorithmSpec(kind="absolute-trust"),
        backend="auto",
        xi=1e-5,
        seed=426,
    )
)

FREE_RIDING_500K = register_scenario(
    Scenario(
        name="free-riding-500k",
        description=(
            "Free-riding detection at 500 000 nodes on the sparse CSR backend: "
            "every node gossips its contribution score and flags itself against "
            "the learned network mean."
        ),
        topology=TopologySpec(kind="powerlaw", num_nodes=500_000, small_num_nodes=2000, m=2),
        workload=WorkloadSpec(kind="free-riding", free_rider_fraction=0.2),
        backend="sparse",
        xi=1e-3,
        max_steps=50_000,
        seed=414,
    )
)
