import math

import numpy as np
import pytest

from loopfield import (
    LoopSkeleton,
    LoopSoupSample,
    LoopSoupSampler,
    Network,
    compute_green,
    couple,
    verify_gff_law,
)
from loopfield.coupling import collect_coupled_fields
from loopfield.gff import cable_open_probability
from loopfield.stats import mc_mean, z_score
from loopfield.streams import derive_stream


def test_rejects_wrong_intensity(two_vertex):
    net, gop = two_vertex
    soup = LoopSoupSampler(net, gop, 0.25).sample(derive_stream(51, 0))
    with pytest.raises(ValueError):
        couple(net, soup, derive_stream(51, 1))


def test_opening_probability_values():
    # the coupling passes sqrt(L_x L_y) as the product
    assert cable_open_probability(1.0, math.sqrt(0.5 * 0.5)) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-12
    )
    assert cable_open_probability(1.0, math.sqrt(0.0 * 0.7)) == 0.0


def test_zero_occupation_edge_never_opens(path3):
    net, _ = path3
    # handcrafted soup: occupation zero at vertex 2, so edge {1,2} stays closed
    soup = LoopSoupSample(
        ((LoopSkeleton((0, 1)), np.array([0.3, 0.2])),),
        np.array([0.1, 0.05, 0.0]),
        0.5,
    )
    for r in range(500):
        coupled = couple(net, soup, derive_stream(52, r))
        assert net.edge_id(1, 2) not in coupled.extra_open_edges
        assert coupled.field.values[2] == 0.0


def test_structural_invariants(path3):
    net, gop = path3
    sampler = LoopSoupSampler(net, gop, 0.5)
    for r in range(400):
        rng = derive_stream(53, r)
        coupled = couple(net, sampler.sample(rng), rng)
        traversed = set()
        for ids in coupled.base_clusters.edge_sets.values():
            traversed.update(ids)
        # opened edges are disjoint from loop-traversed edges
        assert not (set(coupled.extra_open_edges) & traversed)
        # field magnitude is sqrt(2 occupation) everywhere
        assert np.allclose(
            np.abs(coupled.field.values), np.sqrt(2.0 * coupled.occupation.values)
        )
        # base clusters refine merged clusters
        for members in coupled.base_clusters.members.values():
            labels = {coupled.merged_clusters.labels[x] for x in members}
            assert len(labels) == 1
        # sign constant on every loop cluster
        for members in coupled.base_clusters.members.values():
            signs = {np.sign(coupled.field.values[x]) for x in members}
            assert len(signs) == 1
        # a traversed edge's endpoints already share a merged cluster
        for eid in traversed:
            u, v, _ = net.edges[eid]
            assert coupled.merged_clusters.same_cluster(u, v)


def test_verify_gff_law_two_vertex(two_vertex):
    net, gop = two_vertex
    records = verify_gff_law(net, gop, 20_000, seed=54)
    assert all(r.passed for r in records)
    ids = {r.test_id for r in records}
    assert "sign-constant-on-loop-clusters" in ids
    assert any(t.startswith("covariance") for t in ids)
    assert any(t.startswith("sign-correlation") for t in ids)
    with pytest.raises(ValueError):
        verify_gff_law(net, gop, 10, seed=54)


def test_single_vertex_field_is_normal():
    # sign flip of sqrt(2 Gamma(1/2, kappa)) reconstructs a centred normal
    from scipy import stats as sps

    net = Network(1, (), np.array([4.0]))
    gop = compute_green(net)
    fields, violations = collect_coupled_fields(net, gop, 30_000, seed=55)
    assert violations == 0
    p = sps.kstest(fields[:, 0], "norm", args=(0.0, 0.5)).pvalue
    assert p > 1e-3


def test_absent_edge_functional_identity(path3):
    # P(edge stays outside all merged clusters), estimated from the coupling,
    # equals E[exp(-C (|psi_x psi_y| + psi_x psi_y))] over independent fields
    net, gop = path3
    eid = net.edge_id(0, 1)
    sampler = LoopSoupSampler(net, gop, 0.5)
    hits = np.empty(30_000)
    for r in range(hits.size):
        rng = derive_stream(56, r)
        coupled = couple(net, sampler.sample(rng), rng)
        traversed = set()
        for ids in coupled.base_clusters.edge_sets.values():
            traversed.update(ids)
        hits[r] = 0.0 if (eid in traversed or eid in coupled.extra_open_edges) else 1.0
    lhs, sem_lhs = mc_mean(hits)

    rng = derive_stream(57, 0)
    psi = gop.apply_chol(rng.standard_normal((200_000, 3)))
    prod = psi[:, 0] * psi[:, 1]
    rhs_samples = np.exp(-1.0 * (np.abs(prod) + prod))
    rhs, sem_rhs = mc_mean(rhs_samples)

    assert abs(z_score(lhs, rhs, math.hypot(sem_lhs, sem_rhs))) < 3.9


def test_coupling_determinism(two_vertex):
    net, gop = two_vertex
    sampler = LoopSoupSampler(net, gop, 0.5)

    def one():
        rng = derive_stream(58, 9)
        return couple(net, sampler.sample(rng), rng)

    a, b = one(), one()
    assert np.array_equal(a.field.values, b.field.values)
    assert a.extra_open_edges == b.extra_open_edges
    assert a.signs == b.signs
