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
from .gff import cable_open_probability, cluster_edges
from .green import GreenOperator, normalized_green
from .loopsoup import (
    _OBJECT_VALUES,
    LoopSoupSample,
    LoopSoupSampler,
    occupation_field,
    traversed_edges,
)
from .network import Network
from .stats import TestRecord, ks_record, mc_mean, normal_cdf, z_record
from .streams import replicate_chunks

__all__ = [
    "CoupledSample",
    "couple",
    "coupled_blocks",
    "collect_coupled_fields",
    "field_law_records",
]

COUPLING_ALPHA = 0.5


@dataclass(frozen=True, eq=False)
class CoupledSample:
    """Soup, its occupation field, its loop clusters, the merged sign clusters
    and the free field; ``occupation`` and ``field`` are values per vertex.

    ``base_clusters.edges`` are the loop-traversed edges and
    ``merged_clusters.edges`` the open ones, so the edges the coupling opened
    are ``merged_clusters.edges & ~base_clusters.edges``; each merged
    cluster's sign is the sign of the field on it.
    """

    soup: LoopSoupSample
    occupation: np.ndarray
    base_clusters: ClusterPartition
    merged_clusters: ClusterPartition
    field: np.ndarray


def _word_count(net: Network, count) -> int:
    """Raw words a coupling reads for ``count`` untraversed edges."""
    return count + (net.vertex_count + 1) // 2


def _coupling_draws(net: Network, traversed: np.ndarray, words: np.ndarray) -> tuple:
    """The coupling draws of a block of replicas from the raw 64-bit Philox
    words their generators give after their soups' draws, one row of
    ``words`` per replica: one uniform per untraversed edge in edge-id order,
    then ``vertex_count`` sign bits.

    The words are those ``Generator.random(count)`` and then
    ``Generator.integers(0, 2, vertex_count)`` read, bit for bit.  A row's
    k-th untraversed edge takes word k as ``random`` does, ``(w >> 11) *
    2**-53``.  The sign bits start at word ``count``, the row's untraversed
    edge count; each is the top bit of one 32-bit half, the low half first,
    as ``integers`` draws them (Lemire's method never rejects at range 2).
    So a row reads ``count + ceil(vertex_count / 2)`` words and may hold
    more.  Raw words bypass the 32-bit half a generator buffers after an odd
    number of 32-bit draws, so they equal those calls only when the
    generator held no such half; no draw in this package leaves one.  The
    traversed edges read uniform -1, below every opening probability, so
    they are open."""
    untraversed = ~traversed
    # a row's k-th untraversed edge takes its word k
    ranks = np.maximum(np.cumsum(untraversed, axis=1) - 1, 0)
    picked = np.take_along_axis(words, ranks, axis=1)
    uniforms = np.where(untraversed, (picked >> 11) * 2.0**-53, -1.0)
    counts = np.count_nonzero(untraversed, axis=1)
    sign_words = np.take_along_axis(words, counts[:, None] + np.arange(_word_count(net, 0)), axis=1)
    # shifts rather than a uint32 view, which would put the high half first on big-endian machines
    halves = np.stack([(sign_words >> 31) & 1, sign_words >> 63], axis=2)
    bits = halves.reshape(len(words), -1)[:, : net.vertex_count].astype(np.int64)
    return uniforms, bits


def _couple_block(net: Network, occ: np.ndarray, uniforms: np.ndarray, bits: np.ndarray) -> tuple:
    """Couple a block of replicas from their occupation fields and
    ``_coupling_draws``: loop clusters, merged clusters and fields, each with
    a leading replica axis."""
    n, alive = net.vertex_count, net.alive
    a, b = net.edge_ends.T
    probs = cable_open_probability(net.conductances, np.sqrt(occ[:, a] * occ[:, b]))
    base = cluster_edges(uniforms < 0, net)
    merged = cluster_edges(uniforms < probs, net)
    # a replica's k-th cluster root, in increasing label order, takes its k-th sign bit
    rank = np.cumsum(merged.labels == np.arange(n), axis=1) - 1
    sign = np.take_along_axis(bits, np.take_along_axis(rank, merged.labels, axis=1), axis=1)
    field = np.zeros_like(occ)
    field[:, alive] = (sign[:, alive] * 2 - 1) * np.sqrt(2.0 * occ[:, alive])
    return base, merged, field


def couple(net: Network, soup: LoopSoupSample, rng: np.random.Generator) -> CoupledSample:
    """Run the soup-to-field construction on one soup realization: the
    one-replica block of ``coupled_blocks``.

    Only soups at intensity 1/2 are accepted; the square-root identity
    between occupation and field holds at that intensity alone.

    Randomness is consumed in a fixed order: one uniform per untraversed edge
    in edge-id order, then ``vertex_count`` sign bits, of which the merged
    clusters take the first ones in increasing label order.  A fixed stream
    reproduces the field exactly, and the signs are those of a draw of one
    bit per merged cluster.

    The draws are ``count + ceil(vertex_count / 2)`` raw words of
    ``rng.bit_generator`` (``_coupling_draws``), ``count`` the untraversed
    edge count, and equal ``rng.random(count)`` followed by
    ``rng.integers(0, 2, vertex_count)``.  Raw words bypass the 32-bit half
    a generator buffers after an odd number of 32-bit draws: if ``rng``
    holds one, it stays buffered and the sign bits differ from those
    ``integers`` would draw.  For odd ``vertex_count``, ``integers`` would
    leave the last word's high half buffered; the raw read does not.  No
    draw in this package leaves a half buffered before a coupling.
    """
    if soup.alpha != COUPLING_ALPHA:
        raise ValueError(f"coupling requires a soup at intensity 1/2, got alpha={soup.alpha}")
    occ = occupation_field(soup)[None]
    traversed = traversed_edges(soup, net)[None]
    words = rng.bit_generator.random_raw(_word_count(net, np.count_nonzero(~traversed)))
    uniforms, bits = _coupling_draws(net, traversed, words[None])
    base, merged, field = _couple_block(net, occ, uniforms, bits)
    clusters = [ClusterPartition(p.labels[0], p.edges[0]) for p in (base, merged)]
    return CoupledSample(soup, occ[0], *clusters, field[0])


def coupled_blocks(net: Network, gop: GreenOperator, replicas: int, seed: int):
    """Couple replicas ``0 .. replicas - 1`` of ``seed`` chunk by chunk; yield
    each chunk's ``(occupation, base clusters, merged clusters, field)``, each
    with a leading replica axis.

    Replica r draws what ``couple(net, sampler.sample(rng), rng)`` draws on
    ``derive_stream(seed, r)``: its soup's draws, and then its coupling
    draws.  The untraversed edges are known only once the chunk's skeletons
    are built, so each replica's draw pass reads the ``edge_count +
    ceil(vertex_count / 2)`` raw words its coupling can use at most, all
    edges untraversed, and ``_coupling_draws`` takes from them the words
    ``couple`` reads.  The soup's draws are 64-bit ones and leave no 32-bit
    half buffered, so the raw words are the coupling's draws bit for bit.
    """
    sampler = LoopSoupSampler(net, gop, COUPLING_ALPHA)
    width = _word_count(net, net.edge_count)

    def one(_i, rng):
        return sampler.draw(rng), rng.bit_generator.random_raw(width)

    # a replica's words are held twice, as its own array and as a row of the block's
    words_values = 2 * width + _OBJECT_VALUES
    values = sampler.values_per_replica + 2 * net.vertex_count + net.edge_count + words_values
    for chunk in replicate_chunks(replicas, seed, one, values):
        soup_draws, words = zip(*chunk)
        # a chunk's soup draws are not needed once its block is built
        del chunk
        soups = sampler.assemble(soup_draws)
        del soup_draws
        occ = occupation_field(soups)
        uniforms, bits = _coupling_draws(net, traversed_edges(soups, net), np.stack(words))
        yield (occ, *_couple_block(net, occ, uniforms, bits))


def collect_coupled_fields(
    net: Network, gop: GreenOperator, replicas: int, seed: int
) -> tuple[np.ndarray, int]:
    """Replicate the coupling; return fields on alive vertices and the number
    of replicas whose field sign fails to be constant on some loop cluster.

    The sign check recomputes constancy from the realized field and
    clusters, so it would catch a miswired construction rather than
    restating it.
    """
    fields, violations = [], 0
    for _occ, base, _merged, field in coupled_blocks(net, gop, replicas, seed):
        # each cluster label is a vertex of its cluster, so the sign is constant on
        # every cluster exactly when each vertex agrees with its label vertex
        sign = np.sign(field)
        broken = (sign != np.take_along_axis(sign, base.labels, axis=1)).any(axis=1)
        violations += int(np.count_nonzero(broken))
        fields.append(field[:, net.alive])
    return np.concatenate(fields), violations


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

