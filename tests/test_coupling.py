import math

import numpy as np
import pytest

from loopfield import (
    LoopSoupSample,
    LoopSoupSampler,
    Network,
    compute_green,
    couple,
    occupation_field,
)
from loopfield.coupling import (
    _coupling_draws,
    _word_count,
    collect_coupled_fields,
    coupled_blocks,
    field_law_records,
)
from loopfield.gff import cable_open_probability
from loopfield.harness import parse_network_spec
from loopfield.stats import mc_mean, z_score
from loopfield.streams import derive_stream, replicate


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
    # one loop 0 -> 1 -> 0
    soup = LoopSoupSample(
        np.array([0, 1]), np.array([0, 2]), np.array([0.3, 0.2]), np.array([0.1, 0.05, 0.0]), 0.5
    )
    for r in range(500):
        coupled = couple(net, soup, derive_stream(52, r))
        assert not coupled.merged_clusters.edges[net.edge_id(1, 2)]
        assert coupled.field[2] == 0.0


def test_structural_invariants(path3):
    # 400 replicas in one coupled block; replica r is couple(net,
    # sampler.sample(rng), rng) on derive_stream(53, r)
    net, gop = path3
    ((occupation, base, merged, field),) = coupled_blocks(net, gop, 400, 53)
    assert field.shape == occupation.shape == (400, net.vertex_count)
    # loop-traversed edges stay open: the coupling only adds edges
    assert not (base.edges & ~merged.edges).any()
    # field magnitude is sqrt(2 occupation) everywhere
    assert np.allclose(np.abs(field), np.sqrt(2.0 * occupation))
    # base clusters refine merged clusters: every vertex shares its merged
    # cluster with the label vertex of its loop cluster
    assert np.array_equal(np.take_along_axis(merged.labels, base.labels, axis=1), merged.labels)
    # sign constant on every loop cluster
    sign = np.sign(field)
    assert np.array_equal(np.take_along_axis(sign, base.labels, axis=1), sign)
    # a traversed edge's endpoints already share a merged cluster
    u, v = net.edge_ends.T
    assert (merged.labels[:, u] == merged.labels[:, v])[base.edges].all()
    assert base.edges.any()


def test_verify_gff_law_two_vertex(two_vertex):
    net, gop = two_vertex
    fields, violations = collect_coupled_fields(net, gop, 20_000, seed=54)
    records = field_law_records(net, gop, fields, violations)
    assert all(r.passed for r in records)
    ids = {r.test_id for r in records}
    assert "sign-constant-on-loop-clusters" in ids
    assert any(t.startswith("covariance") for t in ids)
    assert any(t.startswith("sign-correlation") for t in ids)


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
    # replica r draws what couple(net, sampler.sample(rng), rng) draws on derive_stream(56, r);
    # the merged edges are the traversed ones plus the opened ones
    blocks = coupled_blocks(net, gop, 30_000, 56)
    hits = [~merged.edges[:, eid] for _occ, _base, merged, _field in blocks]
    lhs, sem_lhs = mc_mean(np.concatenate(hits).astype(float))

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
    assert np.array_equal(a.field, b.field)
    assert np.array_equal(a.merged_clusters.edges, b.merged_clusters.edges)
    # the same clusters with the same signs
    assert np.array_equal(a.merged_clusters.labels, b.merged_clusters.labels)
    assert np.array_equal(np.sign(a.field), np.sign(b.field))


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def _union(parent, x, y):
    rx, ry = _root(parent, x), _root(parent, y)
    parent[max(rx, ry)] = min(rx, ry)


def _reference_couple(net, soup, rng):
    """The coupling with per-cluster member and edge-set dicts: union-find over
    the loop steps, one uniform per untraversed edge in edge-id order, then
    one sign per merged cluster in ``sorted(members)`` order.  Returns the
    field and the open-edge mask."""
    occ = occupation_field(soup)
    parent = list(range(net.vertex_count))
    traversed = set()
    bounds = soup.starts.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        verts = soup.vertices[a:b].tolist()
        for i in range(len(verts)):
            u, v = verts[i], verts[(i + 1) % len(verts)]
            _union(parent, u, v)
            traversed.add(net.edge_id(u, v))
    is_open = np.zeros(net.edge_count, dtype=bool)
    is_open[sorted(traversed)] = True
    candidates = (~is_open).nonzero()[0]
    a, b = net.edge_ends.T
    probs = cable_open_probability(net.conductances, np.sqrt(occ[a] * occ[b]))
    for eid in candidates[rng.random(candidates.size) < probs[candidates]]:
        is_open[eid] = True
        _union(parent, *net.edge_ends[eid].tolist())
    members = {}
    for x in range(net.vertex_count):
        members.setdefault(_root(parent, x), []).append(x)
    labels = sorted(members)
    signs = dict(zip(labels, (rng.integers(0, 2, size=len(labels)) * 2 - 1).tolist()))
    values = np.zeros(net.vertex_count)
    for label, xs in members.items():
        for x in xs:
            if net.alive_pos[x] >= 0:
                values[x] = signs[label] * np.sqrt(2.0 * occ[x])
    return values, is_open


@pytest.mark.parametrize("spec", ["grid:3x3", "path:3"])
def test_couple_equals_dict_reference(spec):
    net = parse_network_spec(spec)
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)
    for r in range(500):
        soup = sampler.sample(derive_stream(59, r))
        coupled = couple(net, soup, derive_stream(60, r))
        values, is_open = _reference_couple(net, soup, derive_stream(60, r))
        assert np.array_equal(coupled.field, values)
        assert np.array_equal(coupled.merged_clusters.edges, is_open)


@pytest.mark.parametrize("spec", ["grid:3x3", "path:3", "box:d=2,n=2,mode=absorbing"])
def test_collected_fields_equal_couple_replica_by_replica(spec):
    # the chunked coupling against couple on each replica's own stream; the
    # box's absorbing vertices are singleton clusters and take sign bits too
    net = parse_network_spec(spec)
    gop = compute_green(net)
    sampler = LoopSoupSampler(net, gop, 0.5)
    fields, violations = collect_coupled_fields(net, gop, 300, seed=61)
    broken = 0
    for r in range(300):
        rng = derive_stream(61, r)
        coupled = couple(net, sampler.sample(rng), rng)
        assert np.array_equal(fields[r], coupled.field[net.alive])
        sign = np.sign(coupled.field)
        broken += bool((sign != sign[coupled.base_clusters.labels]).any())
    assert violations == broken == 0


def _twin_generators(state, count):
    """``count`` generators, each continuing from the Philox ``state``."""
    twins = []
    for _ in range(count):
        bitgen = np.random.Philox(key=0)
        bitgen.state = state
        twins.append(np.random.Generator(bitgen))
    return twins


@pytest.mark.parametrize("spec", ["path:3", "path:4"])
def test_coupling_draws_equal_numpy_calls(spec):
    # the mapping of raw words against rng.random(count) then rng.integers(0, 2, V)
    # on a twin generator, for V odd (path:3) and even (path:4)
    net = parse_network_spec(spec)
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)

    def after_draw(_i, rng):
        sampler.draw(rng)
        return rng.bit_generator.state

    # the soup's draws are 64-bit ones: no 32-bit half is left buffered
    after_soup = replicate(20, 63, after_draw)
    assert all(state["has_uint32"] == 0 for state in after_soup)
    mid_buffer = derive_stream(63, 1)
    mid_buffer.random(3)
    assert mid_buffer.bit_generator.state["buffer_pos"] != 4
    states = [derive_stream(63, 0).bit_generator.state, mid_buffer.bit_generator.state, *after_soup]

    e = net.edge_count
    # count = 0, 1 and E untraversed edges
    masks = [np.ones(e, dtype=bool), np.arange(e) < e - 1, np.zeros(e, dtype=bool)]
    for state in states:
        for traversed in masks:
            count = int(np.count_nonzero(~traversed))
            calls, exact, wide = _twin_generators(state, 3)
            expected = np.full(e, -1.0)
            expected[~traversed] = calls.random(count)
            expected_bits = calls.integers(0, 2, size=net.vertex_count)
            # couple reads the words it maps, coupled_blocks the most a replica can use
            for rng, width in ((exact, _word_count(net, count)), (wide, _word_count(net, e))):
                words = rng.bit_generator.random_raw(width)
                uniforms, bits = _coupling_draws(net, traversed[None], words[None])
                assert np.array_equal(uniforms[0], expected)
                assert np.array_equal(bits[0], expected_bits)
            # couple has read the same 64-bit words as the calls
            assert exact.random() == calls.random()


@pytest.mark.parametrize("spec", ["grid:3x3", "path:3", "box:d=2,n=2,mode=absorbing", "one-vertex"])
def test_coupled_blocks_equal_reference_on_replica_streams(spec):
    # the reference draws its coupling on each replica's own stream right after
    # sampler.sample(rng), the draw order of a replica of coupled_blocks
    if spec == "one-vertex":
        net = Network(1, (), np.array([4.0]))
    else:
        net = parse_network_spec(spec)
    gop = compute_green(net)
    sampler = LoopSoupSampler(net, gop, 0.5)
    blocks = list(coupled_blocks(net, gop, 200, 64))
    fields = np.concatenate([field for *_, field in blocks])
    opened = np.concatenate([merged.edges for _occ, _base, merged, _field in blocks])
    assert fields.shape == (200, net.vertex_count)
    for r in range(200):
        rng = derive_stream(64, r)
        values, is_open = _reference_couple(net, sampler.sample(rng), rng)
        assert np.array_equal(fields[r], values)
        assert np.array_equal(opened[r], is_open)
