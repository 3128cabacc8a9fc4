#!/usr/bin/env python
"""Network-routing backbone — the paper's second motivating domain.

Multi-destination routing (Bharath-Kumar & Jaffe, the paper's [2]) uses
a minimum spanning tree as the broadcast backbone of a network.  This
example models a regional road/fiber network as a perturbed lattice
(the structure of the paper's roadNet-* datasets), extracts the MST
backbone with the AMST simulator, and reports:

* construction cost of the backbone vs the full network;
* per-component backbone statistics (road networks are disconnected);
* the accelerator's iteration/traffic profile on this graph class —
  road networks are the hard case (many Borůvka rounds, low degree).

Run:  python examples/network_backbone.py
"""

import numpy as np

from repro import Amst, AmstConfig
from repro.graph import road_lattice
from repro.mst import kruskal, validate_mst
from repro.mst.union_find import UnionFind


def main() -> None:
    network = road_lattice(220, 220, diagonal_prob=0.06, drop_prob=0.12,
                           rng=7)
    total_cost = float(network.weight.sum()) / 2  # half-edges count twice
    print(f"network: {network.num_vertices:,} junctions, "
          f"{network.num_edges:,} links, "
          f"total link cost {total_cost:,.0f}")

    out = Amst(AmstConfig.full(parallelism=16, cache_vertices=8192)).run(
        network
    )
    validate_mst(network, out.result, reference=kruskal(network))

    backbone_cost = out.result.total_weight
    print(f"\nbackbone: {out.result.num_edges:,} links, "
          f"cost {backbone_cost:,.0f} "
          f"({100 * backbone_cost / total_cost:.1f} % of the network)")

    # per-component statistics (real road networks are disconnected too)
    u, v, _ = network.edge_endpoints()
    tree = out.result.edge_ids
    dsu = UnionFind(network.num_vertices)
    dsu.union_all(u[tree].tolist(), v[tree].tolist())
    labels = dsu.component_labels()
    _, sizes = np.unique(labels, return_counts=True)
    sizes = np.sort(sizes)[::-1]
    print(f"components: {sizes.size:,} "
          f"(largest {sizes[0]:,} junctions, "
          f"{100 * sizes[0] / network.num_vertices:.1f} % of the network)")

    r = out.report
    print(f"\naccelerator profile on the road-network class:")
    print(f"  Borůvka iterations : {r.num_iterations} "
          f"(low-degree graphs converge slowly)")
    print(f"  modelled time      : {r.seconds * 1e3:.2f} ms, "
          f"{r.meps:,.1f} MEPS")
    print(f"  DRAM traffic       : {r.dram_blocks:,} blocks, "
          f"{100 * r.dram_random_blocks / max(r.dram_blocks, 1):.0f} % random")
    print(f"  cycles hidden by FM/CM overlap: "
          f"{r.overlap_cycles_hidden:,.0f}")


if __name__ == "__main__":
    main()
