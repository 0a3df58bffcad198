"""Finite-volume random interlacements and their free-field couplings.

Infinity is approximated in two independent ways and their agreement is
itself a test:

* an absorbing box: trajectories hitting a set K arrive as a Poisson cloud of
  rate ``u * cap(K)``, start on K under the equilibrium measure and run
  forward until absorbed at the boundary;
* a star graph: the box with its whole boundary identified to one vertex
  ``x_*``, where the walk is run from ``x_*`` until its time there reaches
  ``u`` and the excursions between departures and returns are collected.

The equilibrium measure used throughout carries the vertex rate,
``e_K(x) = lambda(x) P_x(no return to K)``, which is the normalization under
which ``sum_y G(x, y) e_K(y) = 1`` on K, the expected occupation equals u,
and the Ray-Knight identity holds with the box Green function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gff import cable_open_probability, cluster_edges
from .green import compute_green
from .network import Network, NetworkError, build_box_network
from .stats import TestRecord, mc_mean, z_record
from .streams import derive_stream

__all__ = [
    "StarGraph",
    "CapacityReport",
    "build_star_graph",
    "compute_capacity",
    "trace_occupation_batch",
    "star_excursion_batch",
    "isomorphism_check",
    "levelset_field",
    "levelset_containment_check",
]


@dataclass(frozen=True, eq=False)
class StarGraph:
    """Box with identified boundary.

    ``network`` is the absorbing box; its absorbing boundary plays the role
    of the single identified vertex ``x_*``.  ``entry_vertices`` lists the
    alive endpoint of every boundary edge, so a uniform choice among them is
    the conductance-weighted jump out of ``x_*``.  ``star_rate`` is the total
    jump rate at ``x_*``, equal to ``2 d (2n - 1)^(d-1)``.
    """

    network: Network
    star_rate: int
    entry_vertices: np.ndarray
    entry_edges: np.ndarray


def build_star_graph(dimension: int, half_width: int) -> StarGraph:
    if half_width < 2:
        raise NetworkError("star graph needs half_width >= 2")
    net = build_box_network(dimension, half_width, 1.0, 0.0, "absorbing")
    # the boundary edges: exactly one end absorbing
    absorbing = ~np.isfinite(net.killing)[net.edge_ends]
    entry = absorbing[:, 0] != absorbing[:, 1]
    entry_vertices = np.where(absorbing[entry, 0], net.edge_ends[entry, 1], net.edge_ends[entry, 0])
    rate = entry_vertices.size
    expected = 2 * dimension * (2 * half_width - 1) ** (dimension - 1)
    assert rate == expected, (rate, expected)
    return StarGraph(net, rate, entry_vertices, np.flatnonzero(entry))


# -- capacity ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Equilibrium weights on K (sorted vertex ids) and their total mass."""

    vertices: tuple[int, ...]
    equilibrium: np.ndarray
    capacity: float


def compute_capacity(net: Network, k_vertices) -> CapacityReport:
    """Equilibrium measure ``e_K(x) = lambda(x) P_x(no return to K)`` and its
    total mass on ``net``, from ``G_KK e_K = 1`` with k columns of its Green
    matrix."""
    k_ids = sorted({int(x) for x in k_vertices})
    if not k_ids:
        raise ValueError("K must be non-empty")
    for x in k_ids:
        if net.alive_pos[x] < 0:
            raise ValueError(f"vertex {x} of K is absorbing")

    # e_K solves G_KK e_K = 1, which is sum_y G(x, y) e_K(y) = 1 on K
    gop = compute_green(net)
    g_kk = np.array([[gop.entry(x, y) for y in k_ids] for x in k_ids])
    weights = np.linalg.solve(g_kk, np.ones(len(k_ids)))
    if weights.min() < -1e-10:
        raise ArithmeticError(f"negative equilibrium weight {weights.min()!r}")
    weights = np.clip(weights, 0.0, None)
    capacity = float(weights.sum())
    if capacity <= 0:
        raise ArithmeticError("capacity must be positive")
    return CapacityReport(tuple(k_ids), weights, capacity)


# -- batched walkers ---------------------------------------------------------
#
# The batch engines require the uniform-slot structure of unit-conductance
# boxes with no interior killing: every alive vertex then has total rate 2d
# and its 2d slots are its lattice edges, some of which lead into the
# absorbing boundary.  The walker reads the slot tables flat: slot s of alive
# position p is entry ``p * 2d + s``.  Every hold is a positive exponential
# time, so a column is visited exactly when its occupation is positive.


def _slot_tables(net: Network) -> tuple[np.ndarray, np.ndarray, int]:
    """``(target, edge, 2d)``: the (alive, 2d) tables of each slot's alive
    target position (-1 in the absorbing boundary) and edge id."""
    # each alive vertex's slots are its edges in edge-id order: a stable sort
    # of the edge ends groups them by vertex and keeps that order
    alive = net.alive
    if np.any(net.killing[alive] != 0.0):
        raise NetworkError("batch walker requires zero interior killing")
    ends = net.edge_ends.ravel()
    degree = np.bincount(ends, minlength=net.vertex_count)
    two_d = int(degree[alive[0]])
    if np.any(degree[alive] != two_d):
        raise NetworkError("batch walker requires uniform degree")
    first = np.cumsum(degree) - degree
    half_edges = np.argsort(ends, kind="stable")[first[alive][:, None] + np.arange(two_d)]
    edge = half_edges // 2
    if np.any(net.conductances[edge] != 1.0):
        raise NetworkError("batch walker requires unit conductances")
    # the other end of half-edge h is h ^ 1
    target = net.alive_pos[ends[half_edges ^ 1]]
    return target, edge, two_d


def _run_batch(
    net: Network,
    pos: np.ndarray,
    rep: np.ndarray,
    replicas: int,
    rng: np.random.Generator,
    cols: np.ndarray,
    track_edges: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Advance the walkers at alive positions ``pos`` of replicas ``rep`` to
    absorption.  ``cols`` maps every alive position to an output column.
    Returns each replica's occupation and visit flags (positive occupation)
    per column, and its traversed-edge flags if ``track_edges``, else None.

    Each step draws the holds, then the slots, of the walkers still alive, in
    walker order.  Outputs are flat (replicas * width) arrays indexed by
    ``rep * width + col``: a 1-D ``np.add.at`` adds in the same order as a
    (rep, col) one, so the sums are the same bit for bit."""
    target, edge, two_d = _slot_tables(net)
    target, edge = target.ravel(), edge.ravel()
    width = int(cols.max()) + 1
    occ = np.zeros(replicas * width)
    edges = net.edge_count
    edge_hit = np.zeros(replicas * edges, dtype=bool) if track_edges else None
    mean_hold = 1.0 / two_d
    while pos.size:
        np.add.at(occ, rep * width + cols[pos], rng.exponential(mean_hold, pos.size))
        slot = pos * two_d + rng.integers(0, two_d, pos.size)
        if track_edges:
            edge_hit[rep * edges + edge[slot]] = True
        nxt = target[slot]
        keep = nxt >= 0
        pos = nxt[keep]
        rep = rep[keep]
    if track_edges:
        edge_hit = edge_hit.reshape(replicas, edges)
    occ = occ.reshape(replicas, width)
    return occ, occ > 0.0, edge_hit


def trace_occupation_batch(
    net: Network,
    cap_report: CapacityReport,
    u: float,
    replicas: int,
    seed: int,
):
    """Replicated trace sampler, tracking occupation and visits on K only.

    Each replica draws ``Poisson(u cap(K))`` forward trajectories started on K
    under the normalized equilibrium measure.  Backward parts are conditioned
    never to return to K, so they contribute nothing to any statistic on K and
    are not simulated.  The walk tallies all vertices outside K in one spare
    column, dropped here.  Returns ``(occ, visited)`` of shapes (replicas, |K|).
    """
    rng = derive_stream(seed, 0)
    counts = rng.poisson(u * cap_report.capacity, replicas)
    rep_ids = np.repeat(np.arange(replicas), counts)
    e_cdf = np.cumsum(cap_report.equilibrium) / cap_report.capacity
    k_alive = net.alive_pos[list(cap_report.vertices)]
    start_pos = k_alive[np.searchsorted(e_cdf, rng.random(rep_ids.size), side="right")]

    cols = np.full(net.alive.size, k_alive.size)
    cols[k_alive] = np.arange(k_alive.size)
    occ, visited, _ = _run_batch(net, start_pos, rep_ids, replicas, rng, cols)
    return occ[:, : k_alive.size], visited[:, : k_alive.size]


def star_excursion_batch(
    star: StarGraph,
    u: float,
    replicas: int,
    seed: int,
    track_edges: bool = False,
):
    """Replicated star-excursion sampler over the whole interior.

    Returns ``(occ, edge_hit, vertex_hit)``; ``occ`` has one column per alive
    vertex, ``edge_hit`` is None unless requested.
    """
    net = star.network
    rng = derive_stream(seed, 0)
    counts = rng.poisson(u * star.star_rate, replicas)
    rep_ids = np.repeat(np.arange(replicas), counts)
    picks = rng.integers(0, star.star_rate, rep_ids.size)
    start_pos = net.alive_pos[star.entry_vertices[picks]]

    cols = np.arange(net.alive.size)
    occ, vertex_hit, edge_hit = _run_batch(
        net, start_pos, rep_ids, replicas, rng, cols, track_edges
    )
    if track_edges:
        edge_hit[rep_ids, star.entry_edges[picks]] = True
    return occ, edge_hit, vertex_hit


# -- verification reports -----------------------------------------------------


def isomorphism_check(star: StarGraph, u: float, replicas: int, seed: int) -> list[TestRecord]:
    """Compare moments of ``L + phi'^2 / 2`` against ``(phi - sqrt(2u))^2 / 2``.

    The field is the free field of the box killed at the identified boundary;
    the occupation comes from the star excursions run to local time u.  First
    and second moments are compared per vertex with two-sample z scores.
    """
    net = star.network
    gop = compute_green(net)
    occ, _, _ = star_excursion_batch(star, u, replicas, seed)

    rng_fields = derive_stream(seed, 1)
    n = net.alive.size
    phi_prime = gop.apply_chol(rng_fields.standard_normal((replicas, n)))
    phi = gop.apply_chol(rng_fields.standard_normal((replicas, n)))
    lhs = occ + 0.5 * phi_prime**2
    rhs = 0.5 * (phi - math.sqrt(2.0 * u)) ** 2

    records = []
    for moment, name in ((1, "mean"), (2, "second-moment")):
        a = lhs**moment
        b = rhs**moment
        for i, x in enumerate(net.alive):
            ma, sa = mc_mean(a[:, i])
            mb, sb = mc_mean(b[:, i])
            records.append(
                z_record(
                    f"isomorphism-{name}-v{x}",
                    "L_tau_u + phi'^2/2 =law= (phi - sqrt(2u))^2/2",
                    mb,
                    ma,
                    math.hypot(sa, sb),
                )
            )
    return records


def levelset_field(
    star: StarGraph,
    u: float,
    replicas: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Free field built from the star excursions at level u, and their visits.

    Realizes ``|phi - sqrt(2u)| = sqrt(2 (L + phi'^2 / 2))``, opens the
    untraversed edges with the cable no-zero probabilities (the occupation at
    the identified boundary is exactly u), and assigns one uniform sign per
    ``cluster_edges`` cluster in increasing label order, with every cluster
    that meets the boundary (together, the cluster of ``x_*``) forced negative.
    Returns ``(phi, vertex_hit)``, both of shape (replicas, alive vertices).
    """
    if u <= 0:
        raise ValueError("u must be positive")
    net = star.network
    gop = compute_green(net)
    occ, edge_hit, vertex_hit = star_excursion_batch(star, u, replicas, seed, track_edges=True)

    rng_fields = derive_stream(seed, 1)
    phi_prime = gop.apply_chol(rng_fields.standard_normal((replicas, net.alive.size)))
    s_full = np.full((replicas, net.vertex_count), float(u))
    s_full[:, net.alive] = occ + 0.5 * phi_prime**2

    # edges between absorbing vertices may open too: their ends lie in
    # clusters that are negative whatever happens
    a, b = net.edge_ends.T
    open_draws = derive_stream(seed, 2).random((replicas, net.edge_count))
    probs = cable_open_probability(net.conductances, np.sqrt(s_full[:, a] * s_full[:, b]))
    is_open = edge_hit | (open_draws < probs)

    # every cluster holding an absorbing vertex is negative; the roots of the
    # others, replica by replica and in increasing order within one, take one
    # sign draw each
    labels = cluster_edges(is_open, net).labels
    absorbing = np.flatnonzero(~np.isfinite(net.killing))
    free = labels == np.arange(net.vertex_count)
    free[np.arange(replicas)[:, None], labels[:, absorbing]] = False
    label_sign = np.full(labels.shape, -1.0)
    label_sign[free] = derive_stream(seed, 3).integers(0, 2, size=np.count_nonzero(free)) * 2 - 1
    signs = np.take_along_axis(label_sign, labels, axis=1)

    phi = math.sqrt(2.0 * u) + signs * np.sqrt(2.0 * s_full)
    return phi[:, net.alive], vertex_hit


def levelset_containment_check(
    star: StarGraph,
    u: float,
    replicas: int,
    seed: int,
) -> list[TestRecord]:
    """Structural containment of the visited set in the low side of the field.

    Every vertex visited by an excursion must end below ``sqrt(2u)`` in the
    field of ``levelset_field``, and every vertex above the level must be
    vacant; both counts are exact.
    """
    phi, vertex_hit = levelset_field(star, u, replicas, seed)
    level = math.sqrt(2.0 * u)
    above = phi > level
    violations = int(np.count_nonzero(vertex_hit & (phi >= level)))
    level_total = int(np.count_nonzero(above))
    vacant_hits = int(np.count_nonzero(above & ~vertex_hit))

    vacant_fraction = 1.0 if level_total == 0 else vacant_hits / level_total
    return [
        TestRecord(
            test_id="levelset-containment-violations",
            formula="visited vertices satisfy phi < sqrt(2u)",
            passed=violations == 0,
            exact=0.0,
            estimate=float(violations),
        ),
        TestRecord(
            test_id="levelset-vacant-fraction",
            formula="{phi > sqrt(2u)} is contained in the vacant set",
            passed=vacant_fraction == 1.0,
            exact=1.0,
            estimate=float(vacant_fraction),
        ),
    ]
