"""Network substrate: graphs, generators and network conditions.

The paper evaluates Differential Gossip Trust exclusively on power-law
networks produced by the preferential-attachment (PA) process, so this
package provides:

- :class:`repro.network.graph.Graph` — an immutable CSR-backed undirected
  graph with the degree statistics the differential push rule needs;
- :func:`repro.network.preferential_attachment.preferential_attachment_graph`
  — the Barabási–Albert / Bollobás PA generator (``m >= 2``);
- :mod:`repro.network.degree_sequence` — Havel–Hakimi construction,
  Erdős–Gallai graphicality test and a power-law exponent estimator;
- :func:`repro.network.topology_example.example_network` — the 10-node
  network of the paper's Figure 2 (degree sequence 4,4,7,3,3,2,2,2,3,2);
- :mod:`repro.network.conditions` — seeded link models for network
  realism: :class:`~repro.network.conditions.PacketLossModel` (the
  mass-conserving packet-loss model of Figure 4, formerly in
  ``churn``), plus latency/bandwidth/region/partition-aware
  :class:`~repro.network.conditions.LinkModel` implementations
  (:class:`~repro.network.conditions.InstantLink`,
  :class:`~repro.network.conditions.HomogeneousLink`,
  :class:`~repro.network.conditions.RegionalLinkModel`) that the
  event-driven async backend executes natively;
- :func:`repro.network.random_graphs.regional_graph` — a
  planted-partition topology whose blocks line up with
  :class:`~repro.network.conditions.RegionalLinkModel` regions.
"""

from repro.network.conditions import (
    EpochPartition,
    HomogeneousLink,
    InstantLink,
    LatencySpec,
    LinkModel,
    PacketLossModel,
    PartitionWindow,
    RegionalLinkModel,
    block_regions,
)
from repro.network.mutable import MutableOverlay
from repro.network.degree_sequence import (
    estimate_power_law_exponent,
    havel_hakimi_graph,
    is_graphical,
)
from repro.network.graph import Graph
from repro.network.preferential_attachment import (
    preferential_attachment_graph,
    preferential_attachment_graph_fast,
)
from repro.network.random_graphs import (
    erdos_renyi_graph,
    random_regular_graph,
    regional_graph,
)
from repro.network.topology_example import EXAMPLE_DEGREES, EXAMPLE_K_VALUES, example_network

__all__ = [
    "Graph",
    "MutableOverlay",
    "PacketLossModel",
    "LinkModel",
    "LatencySpec",
    "InstantLink",
    "HomogeneousLink",
    "RegionalLinkModel",
    "PartitionWindow",
    "EpochPartition",
    "block_regions",
    "preferential_attachment_graph",
    "preferential_attachment_graph_fast",
    "erdos_renyi_graph",
    "random_regular_graph",
    "regional_graph",
    "havel_hakimi_graph",
    "is_graphical",
    "estimate_power_law_exponent",
    "example_network",
    "EXAMPLE_DEGREES",
    "EXAMPLE_K_VALUES",
]
