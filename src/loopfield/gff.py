"""Gaussian free field sampling and the cable-edge percolation it induces.

The free field on a network is the centred Gaussian vector with covariance
equal to the Green matrix.  On the metric graph the field continues across
each cable as an independent variance-2 Brownian bridge; an edge is "open"
when the interpolated field has no zero on the cable, which happens with
probability ``1 - exp(-2 C(x, y) phi_x phi_y)`` when the endpoint values have
the same sign and never otherwise.  Two vertices lie in the same open cluster
with probability ``(2 / pi) arcsin(g(x, y))`` exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .clusters import ClusterPartition, build_partition
from .green import GreenOperator, normalized_green
from .network import Network

__all__ = [
    "sample_gff",
    "sample_edge_configuration",
    "cable_open_probability",
    "connectivity_probability",
    "cluster_edges",
]


def sample_gff(
    gop: GreenOperator,
    rng: np.random.Generator | None = None,
    *,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """Draw one free field: ``phi = chol(G) z`` with z standard normal; the
    values per vertex, zero at absorbing vertices.

    Given ``normals`` instead of ``rng``, a ``(..., alive count)`` block of
    the draws ``rng`` would make (one row per replica), the fields of all rows
    come from one solve; the result then has shape ``(..., vertex_count)``.
    """
    net = gop.network
    z = rng.standard_normal(net.alive.size) if normals is None else normals
    values = np.zeros(z.shape[:-1] + (net.vertex_count,))
    values[..., net.alive] = gop.apply_chol(z)
    return values


def cable_open_probability(conductance, product):
    """Probability ``1 - exp(-2 C max(product, 0))`` that a cable is open, elementwise.

    For the free field ``product`` is ``phi_x phi_y``: the variance-2 bridge
    interpolating the field across the cable has no zero with this
    probability, which is zero when the endpoint values do not share a strict
    sign (exact zeros of the field, a null event, close all incident edges).
    For a loop soup's occupation field ``product`` is ``sqrt(L_x L_y)``.
    """
    return -np.expm1(-2.0 * conductance * np.maximum(product, 0.0))


def sample_edge_configuration(
    phi: np.ndarray,
    net: Network,
    rng: np.random.Generator | None = None,
    *,
    uniforms: np.ndarray | None = None,
) -> np.ndarray:
    """Open each edge independently given the field ``phi`` (values per
    vertex); the boolean open mask.

    One uniform draw is consumed per edge, in edge-id order, so the
    configuration is reproducible for a fixed stream.  Given ``uniforms``
    instead of ``rng``, a ``(..., edge_count)`` block of those draws with a
    field block of the same leading shape, every row is opened at once.
    """
    a, b = net.edge_ends.T
    probs = cable_open_probability(net.conductances, phi[..., a] * phi[..., b])
    draws = rng.random(net.edge_count) if uniforms is None else uniforms
    return draws < probs


def connectivity_probability(gop: GreenOperator, x: int, y: int) -> float:
    """Exact probability that x and y share a cable-percolation cluster."""
    return (2.0 / math.pi) * math.asin(normalized_green(gop, x, y))


def cluster_edges(open_mask: np.ndarray, net: Network) -> ClusterPartition:
    """Connected components over the edges of a boolean mask, with
    deterministic labels; the mask is the partition's merged edges.

    A ``(replicas, edge_count)`` mask is labelled in one call, each row as a
    graph of its own; the labels then have shape ``(replicas, vertex_count)``.
    """
    n, replicas = net.vertex_count, math.prod(open_mask.shape[:-1])
    rows, edges = np.nonzero(open_mask.reshape(replicas, net.edge_count))
    labels = build_partition(replicas * n, net.edge_ends[edges] + (rows * n)[:, None])
    labels = labels.reshape(replicas, n) - np.arange(0, replicas * n, n)[:, None]
    return ClusterPartition(labels.reshape(open_mask.shape[:-1] + (n,)), open_mask)
