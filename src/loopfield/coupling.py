"""Couple a loop soup at intensity 1/2 with a Gaussian free field.

The construction: sample the soup, take its occupation field L and its loop
clusters; open every untraversed edge {x, y} independently with probability
``1 - exp(-2 C(x, y) sqrt(L_x L_y))``; merge clusters across the opened
edges; draw an independent uniform sign per merged cluster; and set
``phi_x = sign * sqrt(2 L_x)``.  The resulting field is a free field whose
sign is constant on every loop cluster.

The occupation field must include the trivial-loop Gamma mass; without it the
marginal of ``phi`` is wrong, which the single-vertex case pins down (a
signed ``sqrt(2 Gamma(1/2, kappa))`` is exactly a centred normal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clusters import ClusterPartition
from .gff import FieldSample, cable_open_probability, cluster_edges
from .green import GreenOperator, normalized_green
from .loopsoup import (
    LoopSoupSample,
    LoopSoupSampler,
    OccupationField,
    loop_clusters,
    occupation_field,
)
from .network import Network
from .stats import TestRecord, ks_record, mc_mean, normal_cdf, z_record
from .streams import replicate

__all__ = [
    "CoupledSample",
    "couple",
    "collect_coupled_fields",
    "field_law_records",
]

COUPLING_ALPHA = 0.5


@dataclass(frozen=True, eq=False)
class CoupledSample:
    """Soup, its loop clusters, the merged sign clusters and the field.

    ``base_clusters.edges`` are the loop-traversed edges and
    ``merged_clusters.edges`` the open ones, so the edges the coupling opened
    are ``merged_clusters.edges & ~base_clusters.edges``; each merged
    cluster's sign is the sign of the field on it.
    """

    soup: LoopSoupSample
    occupation: OccupationField
    base_clusters: ClusterPartition
    merged_clusters: ClusterPartition
    field: FieldSample


def couple(net: Network, soup: LoopSoupSample, rng: np.random.Generator) -> CoupledSample:
    """Run the soup-to-field construction on one soup realization.

    Only soups at intensity 1/2 are accepted; the square-root identity
    between occupation and field holds at that intensity alone.

    Randomness is consumed in a fixed order: one uniform per untraversed edge
    in edge-id order, then one sign per merged cluster in increasing label
    order, so a fixed stream reproduces the field exactly.
    """
    if soup.alpha != COUPLING_ALPHA:
        raise ValueError(f"coupling requires a soup at intensity 1/2, got alpha={soup.alpha}")

    occ = occupation_field(soup)
    base = loop_clusters(soup, net)
    candidates = np.flatnonzero(~base.edges)
    # one array call over every edge; only the candidates' entries are used
    a, b = net.edge_ends.T
    probs = cable_open_probability(net.conductances, np.sqrt(occ.values[a] * occ.values[b]))
    is_open = base.edges.copy()
    is_open[candidates[rng.random(candidates.size) < probs[candidates]]] = True
    merged = cluster_edges(is_open, net)

    roots = np.flatnonzero(merged.labels == np.arange(net.vertex_count))
    vertex_sign = np.zeros(net.vertex_count)
    vertex_sign[roots] = rng.integers(0, 2, size=roots.size) * 2 - 1

    alive = net.alive
    values = np.zeros(net.vertex_count)
    values[alive] = vertex_sign[merged.labels[alive]] * np.sqrt(2.0 * occ.values[alive])

    return CoupledSample(soup, occ, base, merged, FieldSample(values))


def collect_coupled_fields(
    net: Network, gop: GreenOperator, replicas: int, seed: int
) -> tuple[np.ndarray, int]:
    """Replicate the coupling; return fields on alive vertices and the number
    of replicas whose field sign fails to be constant on some loop cluster.

    The sign check recomputes constancy from the realized field and clusters,
    so it would catch a miswired construction rather than restating it.
    """
    sampler = LoopSoupSampler(net, gop, COUPLING_ALPHA)

    def one(_i, rng):
        coupled = couple(net, sampler.sample(rng), rng)
        # each cluster label is a vertex of its cluster, so the sign is constant on
        # every cluster exactly when each vertex agrees with its label vertex
        sign = np.sign(coupled.field.values)
        broken = bool((sign != sign[coupled.base_clusters.labels]).any())
        return coupled.field.values[net.alive], broken

    results = replicate(replicas, seed, one)
    return np.array([f for f, _ in results]), sum(bad for _, bad in results)


def field_law_records(
    net: Network,
    gop: GreenOperator,
    fields: np.ndarray,
    violations: int,
) -> list[TestRecord]:
    """Statistical records for a matrix of coupled fields.

    Per-vertex marginals are tested by Kolmogorov-Smirnov against the normal
    with variance G(x, x); covariances and sign correlations by z-scores
    against G(x, y) and ``(2/pi) arcsin(g(x, y))``; sign constancy on loop
    clusters is exact and must have zero violations.
    """
    alive = net.alive
    records = [
        TestRecord(
            test_id="sign-constant-on-loop-clusters",
            formula="sign(phi) constant on each loop cluster",
            passed=violations == 0,
            exact=0.0,
            estimate=float(violations),
        )
    ]
    for i, x in enumerate(alive):
        sigma = math.sqrt(gop.entry(x, x))
        records.append(
            ks_record(
                f"marginal-normal-v{x}",
                "phi_x ~ Normal(0, G(x,x))",
                fields[:, i],
                lambda t, s=sigma: normal_cdf(t, s),
                exact=sigma**2,
                estimate=float(fields[:, i].var(ddof=1)),
            )
        )
    for i in range(alive.size):
        for j in range(i, alive.size):
            x, y = int(alive[i]), int(alive[j])
            records.append(
                z_record(
                    f"covariance-v{x}-v{y}",
                    "E[phi_x phi_y] = G(x,y)",
                    gop.entry(x, y),
                    *mc_mean(fields[:, i] * fields[:, j]),
                )
            )
            if j > i:
                records.append(
                    z_record(
                        f"sign-correlation-v{x}-v{y}",
                        "E[sign(phi_x) sign(phi_y)] = (2/pi) arcsin(g(x,y))",
                        (2.0 / math.pi) * math.asin(normalized_green(gop, x, y)),
                        *mc_mean(np.sign(fields[:, i]) * np.sign(fields[:, j])),
                    )
                )
    return records

