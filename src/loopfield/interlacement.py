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

from .clusters import build_partition
from .gff import cable_open_probability
from .green import compute_green
from .network import Network, NetworkError, box_vertex_coords, box_vertex_index, build_box_network
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

CAPACITY_MARGIN = 2


@dataclass(frozen=True, eq=False)
class StarGraph:
    """Box with identified boundary.

    ``network`` is the absorbing box; its absorbing boundary plays the role
    of the single identified vertex ``x_*``.  ``entry_vertices`` lists the
    alive endpoint of every boundary edge, so a uniform choice among them is
    the conductance-weighted jump out of ``x_*``.  ``star_rate`` is the total
    jump rate at ``x_*``, equal to ``2 d (2n - 1)^(d-1)``.
    """

    dimension: int
    half_width: int
    network: Network
    star_rate: int
    entry_vertices: np.ndarray
    entry_edges: np.ndarray


def build_star_graph(dimension: int, half_width: int) -> StarGraph:
    if half_width < 2:
        raise NetworkError("star graph needs half_width >= 2")
    net = build_box_network(dimension, half_width, 1.0, 0.0, "absorbing")
    entry_vertices = []
    entry_edges = []
    for eid, (a, b, _) in enumerate(net.edges):
        a_abs, b_abs = net.is_absorbing(a), net.is_absorbing(b)
        if a_abs != b_abs:
            entry_vertices.append(b if a_abs else a)
            entry_edges.append(eid)
    rate = len(entry_vertices)
    expected = 2 * dimension * (2 * half_width - 1) ** (dimension - 1)
    assert rate == expected, (rate, expected)
    return StarGraph(
        dimension,
        half_width,
        net,
        rate,
        np.array(entry_vertices),
        np.array(entry_edges),
    )


# -- capacity ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CapacityReport:
    """Equilibrium weights on K, their total mass and a boundary-drift probe."""

    vertices: tuple[int, ...]
    equilibrium: np.ndarray
    capacity: float
    margin: int | None
    capacity_refined: float | None
    drift: float | None


def _equilibrium_from_green(net: Network, k_ids: list[int]) -> np.ndarray:
    # e_K solves G_KK e_K = 1, which is sum_y G(x, y) e_K(y) = 1 on K
    gop = compute_green(net)
    g_kk = np.array([[gop.entry(x, y) for y in k_ids] for x in k_ids])
    weights = np.linalg.solve(g_kk, np.ones(len(k_ids)))
    if weights.min() < -1e-10:
        raise ArithmeticError(f"negative equilibrium weight {weights.min()!r}")
    return np.clip(weights, 0.0, None)


def compute_capacity(net: Network, k_vertices) -> CapacityReport:
    """Equilibrium measure ``e_K(x) = lambda(x) P_x(no return to K)`` and its
    total mass, from ``G_KK e_K = 1`` with k columns of the Green matrix.

    For box networks the distance of K to the absorbing boundary is checked
    (margin of at least 2 layers) and the capacity is recomputed on a box
    enlarged by 4 to estimate the truncation drift.
    """
    k_ids = sorted({int(x) for x in k_vertices})
    if not k_ids:
        raise ValueError("K must be non-empty")
    for x in k_ids:
        if net.alive_pos[x] < 0:
            raise ValueError(f"vertex {x} of K is absorbing")

    margin = None
    refined = None
    drift = None
    meta = net.meta if net.meta and net.meta.get("kind") == "box" else None
    if meta is not None:
        d, n = meta["dimension"], meta["half_width"]
        reach = max(max(abs(c) for c in box_vertex_coords(d, n, x)) for x in k_ids)
        margin = n - reach
        if margin < CAPACITY_MARGIN:
            raise ValueError(
                f"K reaches within {margin} layers of the absorbing boundary "
                f"(need {CAPACITY_MARGIN})"
            )

    weights = _equilibrium_from_green(net, k_ids)
    capacity = float(weights.sum())
    if capacity <= 0:
        raise ArithmeticError("capacity must be positive")

    if meta is not None:
        big = build_box_network(
            meta["dimension"],
            meta["half_width"] + 4,
            meta["conductance"],
            meta["killing"],
            meta["boundary_mode"],
        )
        remap = [
            box_vertex_index(
                meta["dimension"],
                meta["half_width"] + 4,
                box_vertex_coords(meta["dimension"], meta["half_width"], x),
            )
            for x in k_ids
        ]
        refined = float(_equilibrium_from_green(big, remap).sum())
        drift = abs(refined - capacity) / capacity

    return CapacityReport(tuple(k_ids), weights, capacity, margin, refined, drift)


# -- batched walkers ---------------------------------------------------------
#
# The batch engines require the uniform-slot structure of unit-conductance
# boxes with no interior killing: every alive vertex then has total rate 2d
# and its 2d slots are its lattice edges, some of which lead into the
# absorbing boundary.


def _slot_tables(net: Network) -> tuple[np.ndarray, np.ndarray, int]:
    alive = net.alive
    if np.any(net.killing[alive] != 0.0):
        raise NetworkError("batch walker requires zero interior killing")
    two_d = len(net.neighbors[alive[0]])
    n = alive.size
    target = np.empty((n, two_d), dtype=np.int64)
    edge = np.empty((n, two_d), dtype=np.int64)
    for i, x in enumerate(alive):
        nbs = net.neighbors[x]
        if len(nbs) != two_d:
            raise NetworkError("batch walker requires uniform degree")
        for k, (y, c, eid) in enumerate(nbs):
            if c != 1.0:
                raise NetworkError("batch walker requires unit conductances")
            target[i, k] = net.alive_pos[y]
            edge[i, k] = eid
    return target, edge, two_d


def _run_batch(
    net: Network,
    start_pos: np.ndarray,
    rep_ids: np.ndarray,
    replicas: int,
    rng: np.random.Generator,
    occ_cols: np.ndarray | None,
    edge_hit: np.ndarray | None,
    vertex_hit: np.ndarray | None,
):
    """Advance all walkers to absorption, accumulating per-replica tallies.

    ``occ_cols`` maps alive positions to occupation columns (-1 untracked).
    """
    target, edge, two_d = _slot_tables(net)
    n_cols = int(occ_cols.max()) + 1 if occ_cols is not None and occ_cols.size else 0
    occ = np.zeros((replicas, max(n_cols, 1)))
    pos = start_pos
    rep = rep_ids
    mean_hold = 1.0 / two_d
    while pos.size:
        holds = rng.exponential(mean_hold, pos.size)
        if occ_cols is not None:
            cols = occ_cols[pos]
            sel = cols >= 0
            if sel.any():
                np.add.at(occ, (rep[sel], cols[sel]), holds[sel])
        if vertex_hit is not None:
            vertex_hit[rep, pos] = True
        slots = rng.integers(0, two_d, pos.size)
        if edge_hit is not None:
            edge_hit[rep, edge[pos, slots]] = True
        nxt = target[pos, slots]
        keep = nxt >= 0
        pos = nxt[keep]
        rep = rep[keep]
    return occ


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
    are not simulated.  Returns ``(occ, visited)`` of shapes (replicas, |K|).
    """
    rng = derive_stream(seed, 0)
    counts = rng.poisson(u * cap_report.capacity, replicas)
    total = int(counts.sum())
    rep_ids = np.repeat(np.arange(replicas), counts)
    e_cdf = np.cumsum(cap_report.equilibrium) / cap_report.capacity
    k_alive = net.alive_pos[list(cap_report.vertices)]
    start_pos = k_alive[np.searchsorted(e_cdf, rng.random(total), side="right")]

    occ_cols = np.full(net.alive.size, -1, dtype=np.int64)
    occ_cols[k_alive] = np.arange(len(cap_report.vertices))
    vertex_hit = np.zeros((replicas, net.alive.size), dtype=bool)
    occ = _run_batch(net, start_pos, rep_ids, replicas, rng, occ_cols, None, vertex_hit)
    return occ, vertex_hit[:, k_alive]


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
    total = int(counts.sum())
    rep_ids = np.repeat(np.arange(replicas), counts)
    picks = rng.integers(0, star.star_rate, total)
    start_pos = net.alive_pos[star.entry_vertices[picks]]

    edge_hit = np.zeros((replicas, net.edge_count), dtype=bool) if track_edges else None
    if track_edges:
        edge_hit[rep_ids, star.entry_edges[picks]] = True
    vertex_hit = np.zeros((replicas, net.alive.size), dtype=bool)
    occ_cols = np.arange(net.alive.size, dtype=np.int64)
    occ = _run_batch(net, start_pos, rep_ids, replicas, rng, occ_cols, edge_hit, vertex_hit)
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
    merged cluster in increasing label order, with the boundary cluster forced
    to the negative side.  Returns ``(phi, vertex_hit)``, both of shape
    (replicas, alive vertices).
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

    # edges between absorbing vertices may open too: their ends share the
    # boundary cluster whatever happens
    a, b = net.edge_ends.T
    open_draws = derive_stream(seed, 2).random((replicas, net.edge_count))
    probs = cable_open_probability(net.conductances, np.sqrt(s_full[:, a] * s_full[:, b]))
    is_open = edge_hit | (open_draws < probs)
    rng_signs = derive_stream(seed, 3)

    absorbing = np.flatnonzero(~np.isfinite(net.killing))
    boundary_pairs = [(int(absorbing[0]), int(x)) for x in absorbing[1:]]
    vertex_ids = np.arange(net.vertex_count)
    signs = np.empty((replicas, net.vertex_count))
    for r in range(replicas):
        pairs = boundary_pairs + net.edge_ends[is_open[r]].tolist()
        labels = build_partition(net.vertex_count, pairs)
        # the cluster roots other than the boundary's, in increasing order
        free = np.flatnonzero((labels == vertex_ids) & (vertex_ids != labels[absorbing[0]]))
        label_sign = np.full(net.vertex_count, -1.0)
        label_sign[free] = rng_signs.integers(0, 2, size=free.size) * 2 - 1
        signs[r] = label_sign[labels]

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
