import math

import numpy as np
import pytest
from scipy import stats as sps

from loopfield import (
    build_box_network,
    build_star_graph,
    compute_capacity,
    compute_green,
    isomorphism_check,
    levelset_containment_check,
    two_vertex_network,
)
from loopfield.interlacement import (
    _run_batch,
    _slot_tables,
    levelset_field,
    star_excursion_batch,
    trace_occupation_batch,
)
from loopfield.network import NetworkError, box_vertex_coords, box_vertex_index
from loopfield.stats import mc_mean, z_score
from loopfield.streams import derive_stream

# escape probability of simple random walk on Z^3 (1 - Watson's return
# probability 0.3405373296...), times the vertex rate 2d = 6
CAP_SINGLE_Z3 = 6.0 * (1.0 - 0.3405373296)


@pytest.fixture(scope="module")
def box3():
    net = build_box_network(3, 5, 1.0, 0.0, "absorbing")
    return net, compute_green(net)


def test_star_graph_rate():
    for d, n in [(2, 2), (2, 5), (3, 3)]:
        star = build_star_graph(d, n)
        assert star.star_rate == 2 * d * (2 * n - 1) ** (d - 1)
        assert star.entry_vertices.size == star.star_rate
        # each entry edge joins the boundary to its entry vertex, in edge-id order
        net = star.network
        absorbing = ~np.isfinite(net.killing)
        assert np.all(np.diff(star.entry_edges) > 0)
        for eid, x in zip(star.entry_edges.tolist(), star.entry_vertices.tolist()):
            a, b = net.edge_ends[eid].tolist()
            assert absorbing[a] != absorbing[b]
            assert x in (a, b) and not absorbing[x]


def test_capacity_single_vertex_inverse_green(box3):
    net, gop = box3
    center = box_vertex_index(3, 5, (0, 0, 0))
    report = compute_capacity(net, [center])
    # exact identity on the box: cap({x}) = 1 / G(x, x)
    assert report.capacity == pytest.approx(1.0 / gop.entry(center, center), rel=1e-10)


def test_capacity_extrapolates_to_lattice_value(box3):
    net, _ = box3
    center = box_vertex_index(3, 5, (0, 0, 0))
    cap1 = compute_capacity(net, [center]).capacity
    big = build_box_network(3, 9, 1.0, 0.0, "absorbing")
    cap2 = compute_capacity(big, [box_vertex_index(3, 9, (0, 0, 0))]).capacity
    # box capacities decrease toward the lattice value; extrapolate in 1/n
    n1, n2 = 5, 9
    slope = (cap2 - cap1) / (1.0 / n2 - 1.0 / n1)
    extrapolated = cap2 - slope / n2
    assert extrapolated == pytest.approx(CAP_SINGLE_Z3, rel=0.02)


def test_capacity_pair_identities(box3):
    net, gop = box3
    pair = [box_vertex_index(3, 5, (0, 0, 0)), box_vertex_index(3, 5, (1, 0, 0))]
    report = compute_capacity(net, pair)
    # last-exit decomposition: sum_y G(x, y) e_K(y) = 1 for x in K
    for x in report.vertices:
        acc = sum(gop.entry(x, y) * w for y, w in zip(report.vertices, report.equilibrium))
        assert acc == pytest.approx(1.0, abs=1e-9)
    single = compute_capacity(net, pair[:1])
    assert single.capacity < report.capacity  # monotone in K
    assert np.all(report.equilibrium >= 0)


def _escape_weights(net, k_ids):
    """Equilibrium weights lambda(x) P_x(no return to K) from the harmonic
    system of the jump chain, dense: the route that does not use G."""
    alive = [int(x) for x in net.alive]
    jump = np.zeros((net.vertex_count, net.vertex_count))
    for (u, v), c in zip(net.edge_ends.tolist(), net.conductances.tolist()):
        jump[u, v] = c / net.lambda_total[u]
        jump[v, u] = c / net.lambda_total[v]
    outside = [x for x in alive if x not in k_ids]
    # h(y) = P_y(hit K), harmonic off K, 0 at absorbing vertices
    h_out = np.linalg.solve(
        np.eye(len(outside)) - jump[np.ix_(outside, outside)],
        jump[np.ix_(outside, k_ids)].sum(axis=1),
    )
    hit = np.zeros(net.vertex_count)
    hit[k_ids] = 1.0
    hit[outside] = h_out
    return np.array([net.lambda_total[x] * (1.0 - jump[x] @ hit) for x in k_ids])


def test_capacity_matches_escape_probabilities(box3):
    net, _ = box3
    k_ids = [box_vertex_index(3, 5, c) for c in ((0, 0, 0), (1, 0, 0), (0, 1, 1))]
    report = compute_capacity(net, k_ids)
    expected = _escape_weights(net, sorted(k_ids))
    assert np.allclose(report.equilibrium, expected, rtol=1e-10, atol=0)


def test_capacity_rejections(box3):
    net, _ = box3
    with pytest.raises(ValueError):
        compute_capacity(net, [])
    absorbing = box_vertex_index(3, 5, (5, 0, 0))
    with pytest.raises(ValueError):
        compute_capacity(net, [absorbing])


def test_trace_sampler_empty_at_zero(box3):
    net, _ = box3
    center = box_vertex_index(3, 5, (0, 0, 0))
    cap = compute_capacity(net, [center])
    occ, visited = trace_occupation_batch(net, cap, 0.0, 50, 61)
    assert occ.shape == visited.shape == (50, 1)
    assert np.all(occ == 0.0)
    assert not visited.any()


def test_trace_sampler_single_consistency(box3):
    net, _ = box3
    center = box_vertex_index(3, 5, (0, 0, 0))
    cap = compute_capacity(net, [center])
    # trajectories start on K = {center} and hold there for a positive time,
    # so the centre is visited exactly when it carries occupation
    occ, visited = trace_occupation_batch(net, cap, 0.2, 2_000, 62)
    assert np.array_equal(visited[:, 0], occ[:, 0] > 0.0)
    assert 0 < visited.sum() < visited.size


def test_trace_columns_are_the_k_columns_of_a_full_width_run(box3):
    # the trace sampler tallies K alone; a full-width walk on the same draws
    # must give the same numbers in K's columns, vertex by vertex
    net, _ = box3
    k_ids = [box_vertex_index(3, 5, c) for c in ((1, 0, 0), (0, 0, 0), (0, 1, 1))]
    cap = compute_capacity(net, k_ids)
    u, replicas, seed = 0.5, 500, 60
    occ, visited = trace_occupation_batch(net, cap, u, replicas, seed)

    rng = derive_stream(seed, 0)
    rep = np.repeat(np.arange(replicas), rng.poisson(u * cap.capacity, replicas))
    k_alive = net.alive_pos[list(cap.vertices)]
    e_cdf = np.cumsum(cap.equilibrium) / cap.capacity
    pos = k_alive[np.searchsorted(e_cdf, rng.random(rep.size), side="right")]
    full_occ, full_visited, _ = _run_batch(net, pos, rep, replicas, rng, np.arange(net.alive.size))
    assert np.array_equal(occ, full_occ[:, k_alive])
    assert np.array_equal(visited, full_visited[:, k_alive])
    # each column is its own vertex's: the tallies differ between columns
    assert not np.array_equal(occ[:, 0], occ[:, 1])


def test_trace_occupation_mean_is_u(box3):
    net, _ = box3
    pair = [box_vertex_index(3, 5, (0, 0, 0)), box_vertex_index(3, 5, (1, 0, 0))]
    cap = compute_capacity(net, pair)
    u = 0.5
    occ, visited = trace_occupation_batch(net, cap, u, 20_000, 63)
    for j in range(2):
        est, sem = mc_mean(occ[:, j])
        assert abs(z_score(est, u, sem)) < 3.9
    # void probability of the generating set is exactly exp(-u cap)
    est, sem = mc_mean((~visited.any(axis=1)).astype(float))
    assert abs(z_score(est, math.exp(-u * cap.capacity), sem)) < 3.9


def test_star_excursions_empty_at_zero():
    star = build_star_graph(2, 4)
    occ, edge_hit, vertex_hit = star_excursion_batch(star, 0.0, 50, 64, track_edges=True)
    assert np.all(occ == 0.0)
    assert not edge_hit.any() and not vertex_hit.any()


def test_star_vacancy_matches_capacity():
    # the excursions visiting K form a Poisson(u cap(K)) count, so K is
    # vacant with probability exp(-u cap(K))
    star = build_star_graph(3, 5)
    net = star.network
    k_ids = [box_vertex_index(3, 5, (0, 0, 0))]
    cap = compute_capacity(net, k_ids)
    u = 0.5
    _, _, hit = star_excursion_batch(star, u, 4_000, 65)
    est, sem = mc_mean((~hit[:, net.alive_pos[k_ids[0]]]).astype(float))
    assert abs(z_score(est, math.exp(-u * cap.capacity), sem)) < 3.9


def test_star_occupation_mean_is_u():
    star = build_star_graph(2, 5)
    u = 0.8
    occ, _, _ = star_excursion_batch(star, u, 20_000, 66)
    # the radius-2 window: every coordinate within 2 of the centre
    window = [
        star.network.alive_pos[x]
        for x in range(star.network.vertex_count)
        if max(abs(c) for c in box_vertex_coords(2, 5, x)) <= 2
    ]
    for col in window:
        est, sem = mc_mean(occ[:, col])
        assert abs(z_score(est, u, sem)) < 3.9


def test_two_samplers_agree(box3):
    net, _ = box3
    star = build_star_graph(3, 5)
    pair = [box_vertex_index(3, 5, (0, 0, 0)), box_vertex_index(3, 5, (1, 0, 0))]
    cap = compute_capacity(net, pair)
    u = 0.25
    occ_t, vis_t = trace_occupation_batch(net, cap, u, 20_000, 67)
    occ_s, _, hit_s = star_excursion_batch(star, u, 4_000, 68)
    cols = net.alive_pos[pair]
    for j in range(2):
        m1, s1 = mc_mean(occ_t[:, j])
        m2, s2 = mc_mean(occ_s[:, cols[j]])
        assert abs(z_score(m1, m2, math.hypot(s1, s2))) < 3.9
    v1, sv1 = mc_mean((~vis_t.any(axis=1)).astype(float))
    v2, sv2 = mc_mean((~hit_s[:, cols].any(axis=1)).astype(float))
    assert abs(z_score(v1, v2, math.hypot(sv1, sv2))) < 3.9
    assert abs(z_score(v2, math.exp(-u * cap.capacity), sv2)) < 3.9


def test_batch_walker_requires_uniform_unit_box():
    with pytest.raises(NetworkError, match="zero interior killing"):
        _slot_tables(two_vertex_network())
    with pytest.raises(NetworkError, match="unit conductances"):
        _slot_tables(build_box_network(2, 2, 1.5, 0.0, "absorbing"))


def test_slot_tables_in_edge_id_order():
    # the slot draw integers(0, 2d) indexes a vertex's edges in edge-id order,
    # not in neighbour order: at the centre of the d=2, n=2 box, 17 before 13
    net = build_box_network(2, 2, 1.0, 0.0, "absorbing")
    target, edge, two_d = _slot_tables(net)
    centre = net.alive_pos[12]
    assert two_d == 4
    assert net.alive[target[centre]].tolist() == [7, 11, 17, 13]
    assert edge[centre].tolist() == [13, 21, 22, 23]
    assert edge[centre].tolist() == net.edge_ids([12] * 4, [7, 11, 17, 13]).tolist()
    # a neighbour in the absorbing boundary has no alive position
    corner = net.alive_pos[6]
    assert target[corner].tolist() == [-1, -1, net.alive_pos[11], net.alive_pos[7]]


def _walk_reference(net, pos, rep, replicas, rng, cols, track_edges):
    """The batch walker's step loop on 2-D (rep, col) and (pos, slot) indices,
    with the same draws in the same order."""
    target, edge, two_d = _slot_tables(net)
    occ = np.zeros((replicas, int(cols.max()) + 1))
    visited = np.zeros(occ.shape, dtype=bool)
    edge_hit = np.zeros((replicas, net.edge_count), dtype=bool) if track_edges else None
    mean_hold = 1.0 / two_d
    while pos.size:
        holds = rng.exponential(mean_hold, pos.size)
        col = cols[pos]
        sel = col >= 0
        if sel.any():
            at = (rep[sel], col[sel])
            np.add.at(occ, at, holds[sel])
            visited[at] = True
        slots = rng.integers(0, two_d, pos.size)
        if edge_hit is not None:
            edge_hit[rep, edge[pos, slots]] = True
        nxt = target[pos, slots]
        keep = nxt >= 0
        pos = nxt[keep]
        rep = rep[keep]
    return occ, visited, edge_hit


def _walker_case(case):
    """``(net, pos, rep, replicas, cols, track_edges)`` of one walker run."""
    rng = derive_stream(76, 0)
    if case == "trace-partial":
        # trace style: only the 27 vertices of the unit cube at the centre
        # are tracked, and the walkers start on them
        net = build_box_network(3, 5, 1.0, 0.0, "absorbing")
        k_ids = [
            x for x in range(net.vertex_count) if max(map(abs, box_vertex_coords(3, 5, x))) <= 1
        ]
        replicas, mean_walkers, track_edges = 300, 4.0, False
        starts = net.alive_pos[k_ids]
        cols = np.full(net.alive.size, -1, dtype=np.int64)
        cols[starts] = np.arange(starts.size)
    else:
        # star style: every alive vertex tracked, walkers enter from the
        # boundary; the long tail leaves a handful of walkers for most steps
        d, n, replicas, mean_walkers = (2, 4, 200, 6.0) if case == "star-edges" else (2, 12, 3, 4.0)
        star = build_star_graph(d, n)
        net, track_edges = star.network, True
        starts = net.alive_pos[star.entry_vertices]
        cols = np.arange(net.alive.size)
    rep = np.repeat(np.arange(replicas), rng.poisson(mean_walkers, replicas))
    pos = starts[rng.integers(0, starts.size, rep.size)]
    return net, pos, rep, replicas, cols, track_edges


@pytest.mark.parametrize("case", ["trace-partial", "star-edges", "long-tail"])
def test_flat_walker_equals_2d_reference(case):
    # the flat-index walker adds each step's holds in the same order as a
    # 2-D np.add.at, so every sum is the same bit for bit, duplicates included.
    # The reference skips untracked (-1) columns; the walker tallies them in
    # a spare column past the others, which is left out of the comparison.
    net, pos, rep, replicas, cols, track_edges = _walker_case(case)
    width = int(cols.max()) + 1
    spare_cols = np.where(cols >= 0, cols, width)
    rng, ref_rng = derive_stream(77, 0), derive_stream(77, 0)
    got = _run_batch(net, pos, rep, replicas, rng, spare_cols, track_edges)
    ref = _walk_reference(net, pos, rep, replicas, ref_rng, cols, track_edges)
    assert np.array_equal(got[0][:, :width], ref[0])
    # the reference's per-step visits are the columns of positive occupation
    assert np.array_equal(ref[1], got[0][:, :width] > 0.0)
    assert np.array_equal(got[1][:, :width], ref[1])
    if track_edges:
        assert np.array_equal(got[2], ref[2])
    else:
        assert got[2] is None and ref[2] is None
    # both consumed the same draws
    assert rng.random() == ref_rng.random()
    assert ref[1].any() and ref[0].sum() > 0


def test_isomorphism_check_passes():
    star = build_star_graph(2, 4)
    records = isomorphism_check(star, 0.5, 10_000, 69)
    assert all(r.passed for r in records)
    assert len(records) == 2 * star.network.alive.size


def test_isomorphism_degenerate_u_zero():
    # u = 0: no excursions, both sides are half a squared field
    star = build_star_graph(2, 4)
    gop = compute_green(star.network)
    occ, _, _ = star_excursion_batch(star, 0.0, 4_000, 70)
    assert np.all(occ == 0.0)
    rng = derive_stream(70, 1)
    n = star.network.alive.size
    lhs = occ + 0.5 * gop.apply_chol(rng.standard_normal((4_000, n))) ** 2
    rhs = 0.5 * gop.apply_chol(rng.standard_normal((4_000, n))) ** 2
    center = star.network.alive_pos[box_vertex_index(2, 4, (0, 0))]
    assert sps.ks_2samp(lhs[:, center], rhs[:, center]).pvalue > 1e-3


def test_levelset_containment_exact():
    star = build_star_graph(2, 4)
    for u, seed in ((0.1, 71), (1.0, 72)):
        records = levelset_containment_check(star, u, 1_000, seed)
        by_id = {r.test_id: r for r in records}
        assert by_id["levelset-containment-violations"].estimate == 0.0
        assert by_id["levelset-vacant-fraction"].estimate == 1.0
        assert all(r.passed for r in records)
    with pytest.raises(ValueError):
        levelset_containment_check(star, 0.0, 10, 73)


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def _union(parent, x, y):
    rx, ry = _root(parent, x), _root(parent, y)
    parent[max(rx, ry)] = min(rx, ry)


def _levelset_reference(star, u, replicas, seed):
    """The level-set field built replica by replica with a union-find over
    every edge and one scalar sign draw per cluster."""
    net = star.network
    gop = compute_green(net)
    occ, edge_hit, _ = star_excursion_batch(star, u, replicas, seed, track_edges=True)
    phi_prime = gop.apply_chol(derive_stream(seed, 1).standard_normal((replicas, net.alive.size)))
    s_alive = occ + 0.5 * phi_prime**2
    open_draws = derive_stream(seed, 2).random((replicas, net.edge_count))
    rng_signs = derive_stream(seed, 3)
    is_absorbing = ~np.isfinite(net.killing)
    absorbing = np.flatnonzero(is_absorbing).tolist()
    phi = np.empty((replicas, net.alive.size))
    for r in range(replicas):
        s_full = np.full(net.vertex_count, float(u))
        s_full[net.alive] = s_alive[r]
        parent = list(range(net.vertex_count))
        for x in absorbing[1:]:
            _union(parent, absorbing[0], x)
        for eid, ((a, b), c) in enumerate(zip(net.edge_ends.tolist(), net.conductances.tolist())):
            if edge_hit[r, eid]:
                _union(parent, a, b)
            elif not (is_absorbing[a] and is_absorbing[b]):
                if open_draws[r, eid] < -math.expm1(-2.0 * c * math.sqrt(s_full[a] * s_full[b])):
                    _union(parent, a, b)
        labels = np.array([_root(parent, x) for x in range(net.vertex_count)])
        signs = np.empty(net.vertex_count)
        for label in sorted(set(labels.tolist())):
            if label == labels[absorbing[0]]:
                signs[labels == label] = -1.0
            else:
                signs[labels == label] = float(rng_signs.integers(0, 2) * 2 - 1)
        phi[r] = (math.sqrt(2.0 * u) + signs * np.sqrt(2.0 * s_full))[net.alive]
    return phi


def test_levelset_field_equals_reference():
    # the records of levelset-check hold for any sign law that keeps the
    # boundary cluster negative; this pins the construction draw for draw.
    # In d = 1 the two boundary vertices share no edge, so only the
    # identification of the boundary puts them in one cluster.
    for d, n, replicas, u, seed in (
        (2, 4, 300, 0.1, 74),
        (2, 4, 300, 1.0, 75),
        (1, 3, 300, 1.0, 78),
        (3, 3, 100, 1.0, 79),
    ):
        star = build_star_graph(d, n)
        phi, hit = levelset_field(star, u, replicas, seed)
        assert np.array_equal(phi, _levelset_reference(star, u, replicas, seed))
        assert np.array_equal(hit, star_excursion_batch(star, u, replicas, seed)[2])
        # the construction is not trivial: both sides of the level occur
        level = math.sqrt(2.0 * u)
        assert (phi > level).any() and (phi < level).any()
