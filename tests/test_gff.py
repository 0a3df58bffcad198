import math

import numpy as np
import pytest
from scipy import stats as sps

from loopfield import (
    Network,
    cluster_edges,
    compute_green,
    connectivity_probability,
    modified_network,
    sample_edge_configuration,
    sample_gff,
)
from loopfield.gff import cable_open_probability
from loopfield.harness import parse_network_spec
from loopfield.stats import mc_mean, z_score
from loopfield.streams import derive_stream


def test_block_draws_match_one_replica_at_a_time():
    # absorbing boundary, so the block path must place zeros there too
    net = parse_network_spec("box:d=2,n=4,mode=absorbing")
    gop = compute_green(net)
    fields, masks = [], []
    for r in range(5):
        rng = derive_stream(8, r)
        fields.append(sample_gff(gop, rng))
        masks.append(sample_edge_configuration(fields[-1], net, rng))
    z, u = [], []
    for r in range(5):
        rng = derive_stream(8, r)
        z.append(rng.standard_normal(net.alive.size))
        u.append(rng.random(net.edge_count))
    block = sample_gff(gop, normals=np.array(z))
    assert np.array_equal(block, fields)
    assert np.array_equal(sample_edge_configuration(block, net, uniforms=np.array(u)), masks)


def test_sampling_is_deterministic(two_vertex):
    _, gop = two_vertex
    a = sample_gff(gop, derive_stream(123, 0))
    b = sample_gff(gop, derive_stream(123, 0))
    assert np.array_equal(a, b)
    c = sample_gff(gop, derive_stream(123, 1))
    assert not np.array_equal(a, c)


def test_single_vertex_marginal():
    net = Network(1, (), np.array([3.0]))
    gop = compute_green(net)
    rng = derive_stream(21, 0)
    draws = np.array([sample_gff(gop, rng)[0] for _ in range(30_000)])
    p = sps.kstest(draws, "norm", args=(0.0, math.sqrt(1.0 / 3.0))).pvalue
    assert p > 1e-3


def test_two_vertex_covariance(two_vertex):
    net, gop = two_vertex
    rng = derive_stream(22, 0)
    z = rng.standard_normal((100_000, 2))
    phi = gop.apply_chol(z)
    for i in range(2):
        for j in range(i, 2):
            est, sem = mc_mean(phi[:, i] * phi[:, j])
            assert abs(z_score(est, gop.entry(i, j), sem)) < 3.9


def test_edge_probability_values():
    # sign disagreement forces an interior zero of the interpolating bridge
    assert cable_open_probability(1.0, 1.0 * -1.0) == 0.0
    assert cable_open_probability(1.0, 0.0 * 1.0) == 0.0
    assert cable_open_probability(1.0, 1.0 * 1.0) == pytest.approx(
        1.0 - math.exp(-2.0), abs=1e-12
    )
    # elementwise over edge arrays
    probs = cable_open_probability(np.array([1.0, 0.5, 2.0]), np.array([-0.3, 2.0, 0.25]))
    expected = [0.0, 1.0 - math.exp(-2.0), 1.0 - math.exp(-1.0)]
    assert np.allclose(probs, expected, rtol=0, atol=1e-12)


def test_edge_configuration_structural(two_vertex):
    net, _ = two_vertex
    rng = derive_stream(23, 0)
    disagree = np.array([1.0, -1.0])
    assert not any(
        sample_edge_configuration(disagree, net, rng)[0] for _ in range(2000)
    )
    agree = np.array([1.0, 1.0])
    hits = np.array(
        [sample_edge_configuration(agree, net, rng)[0] for _ in range(50_000)],
        dtype=float,
    )
    est, sem = mc_mean(hits)
    assert abs(z_score(est, 1.0 - math.exp(-2.0), sem)) < 3.9


def test_edge_probability_vs_discretized_bridge_oracle():
    # independent oracle: a variance-2 Brownian bridge of length rho from a to b,
    # sampled on a grid, with the exact conditional no-zero probability per step
    conductance, a, b = 1.0, 1.0, 0.8
    rho = 1.0 / (2.0 * conductance)
    steps, reps = 64, 40_000
    dt = rho / steps
    rng = derive_stream(24, 0)
    total = np.zeros(reps)
    cur = np.full(reps, a)
    survive = np.ones(reps)
    for k in range(1, steps + 1):
        remaining = rho - k * dt
        if k < steps:
            mean = (cur * remaining + b * dt) / (remaining + dt)
            var = 2.0 * dt * remaining / (remaining + dt)
            nxt = mean + math.sqrt(var) * rng.standard_normal(reps)
        else:
            nxt = np.full(reps, b)
        same_sign = (cur > 0) & (nxt > 0)
        # P(variance-2 bridge over dt from x to y hits 0) = exp(-x y / dt)
        survive *= np.where(same_sign, 1.0 - np.exp(-cur * nxt / dt), 0.0)
        cur = nxt
    est, sem = mc_mean(survive)
    exact = cable_open_probability(conductance, a * b)
    assert abs(z_score(est, exact, sem)) < 3.9


def test_connectivity_probability_values(two_vertex):
    net, gop = two_vertex
    assert connectivity_probability(gop, 0, 0) == pytest.approx(1.0, abs=1e-12)
    assert connectivity_probability(gop, 0, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # g = 0 across a removed edge: the components decouple
    cut = compute_green(modified_network(net, [(0, 1)]))
    assert connectivity_probability(cut, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_cluster_edges_cases(path3):
    net, _ = path3
    closed = cluster_edges(np.array([False, False]), net)
    assert closed.cluster_count == 3
    both = cluster_edges(np.array([True, True]), net)
    assert both.cluster_count == 1
    first = cluster_edges(np.array([True, False]), net)
    assert first.same_cluster(0, 1) and not first.same_cluster(1, 2)
    # clusters {0, 1} and {2}, labelled by their smallest vertex
    assert first.labels.tolist() == [0, 0, 2]
    assert first.edges.tolist() == [True, False]


def test_sign_correlation_identity(grid3):
    # E[sign(phi_x) sign(phi_y)] = (2/pi) arcsin(g), directly on fields
    net, gop = grid3
    rng = derive_stream(25, 0)
    z = rng.standard_normal((100_000, 9))
    phi = gop.apply_chol(z)
    for x, y in [(0, 4), (0, 8), (3, 5)]:
        target = connectivity_probability(gop, x, y)
        est, sem = mc_mean(np.sign(phi[:, x]) * np.sign(phi[:, y]))
        assert abs(z_score(est, target, sem)) < 3.9


def test_connectivity_mc_two_vertex(two_vertex):
    net, gop = two_vertex
    exact = connectivity_probability(gop, 0, 1)
    hits = np.empty(20_000)
    for r in range(hits.size):
        rng = derive_stream(26, r)
        phi = sample_gff(gop, rng)
        config = sample_edge_configuration(phi, net, rng)
        hits[r] = 1.0 if cluster_edges(config, net).same_cluster(0, 1) else 0.0
    est, sem = mc_mean(hits)
    assert abs(z_score(est, exact, sem)) < 3.9
