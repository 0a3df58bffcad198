import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from loopfield import (
    LoopSoupSample,
    LoopSoupSampler,
    Network,
    compute_green,
    loop_clusters,
    occupation_field,
    path_network,
    sqrt_det_ratio,
    traversed_edges,
)
from loopfield import loopsoup
from loopfield.harness import parse_network_spec
from loopfield.loopsoup import LENGTH_CUTOFF_EPS
from loopfield.stats import half_square_cdf, mc_mean, z_score
from loopfield.streams import CHUNK_VALUES, derive_stream, replicate, replicate_chunks


def _soup(loops, vertex_count, holds=None):
    """Soup at intensity 1/2 of the handcrafted ``loops`` (vertex tuples), with
    ``holds`` (default all ones) and no trivial occupation."""
    vertices = np.array([x for loop in loops for x in loop], dtype=np.int64)
    starts = np.cumsum([0] + [len(loop) for loop in loops])
    holds = np.ones(vertices.size) if holds is None else np.array(holds, dtype=float)
    return LoopSoupSample(vertices, starts, holds, np.zeros(vertex_count), 0.5)


def _draw_pass(sampler):
    """``replicate``'s function for the draw pass: replica r's soup is
    ``sampler.sample(derive_stream(seed, r))``."""
    return lambda _i, rng: sampler.draw(rng)


def test_two_vertex_loop_mass(two_vertex):
    net, gop = two_vertex
    sampler = LoopSoupSampler(net, gop, 0.5)
    # det(I - P) = 1 - 1/4 for P = [[0, 1/2], [1/2, 0]]
    assert sampler.mass == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    assert sampler.spectral_radius == pytest.approx(0.5, abs=1e-12)
    # mass also equals log det G + sum log lambda
    assert sampler.mass == pytest.approx(
        gop.log_det_g + np.log(net.lambda_total).sum(), abs=1e-10
    )
    rng = derive_stream(31, 0)
    soups = sampler.assemble([sampler.draw(rng) for _ in range(40_000)])
    counts = np.diff(soups.replica_starts).astype(float)
    est, sem = mc_mean(counts)
    assert abs(z_score(est, 0.5 * sampler.mass, sem)) < 3.9


def test_truncation_bound():
    # grid:20x20:k=0.1 has a length cutoff above 700
    for spec in ("two-vertex", "grid:20x20:k=0.1"):
        net = parse_network_spec(spec)
        sampler = LoopSoupSampler(net, compute_green(net), 0.5)
        assert sampler.truncated_tail < LENGTH_CUTOFF_EPS * sampler.mass


def test_single_vertex_soup():
    net = Network(1, (), np.array([2.5]))
    gop = compute_green(net)
    sampler = LoopSoupSampler(net, gop, 0.5)
    assert sampler.mass == 0.0
    rng = derive_stream(32, 0)
    occ = occupation_field(sampler.assemble([sampler.draw(rng) for _ in range(40_000)]))[:, 0]
    est, sem = mc_mean(occ)
    assert abs(z_score(est, 0.5 / 2.5, sem)) < 3.9
    # Laplace transform of Gamma(alpha, lambda): (lambda / (lambda + s))^alpha
    for s in (0.7, 2.0):
        est, sem = mc_mean(np.exp(-s * occ))
        target = (2.5 / (2.5 + s)) ** 0.5
        assert abs(z_score(est, target, sem)) < 3.9


def test_skeletons_are_adjacent_cycles(grid3):
    net, gop = grid3
    sampler = LoopSoupSampler(net, gop, 0.5)
    seen = 0
    for r in range(300):
        soup = sampler.sample(derive_stream(33, r))
        verts, starts = soup.vertices, soup.starts
        assert verts.dtype == starts.dtype == np.int64
        assert starts[0] == 0 and starts[-1] == verts.size == soup.holds.size
        assert np.all(np.diff(starts) >= 2)
        assert np.all(soup.holds > 0)
        seen += starts.size - 1
        # each visit's successor in its loop, the last visit's being the first
        there = [np.roll(verts[a:b], -1) for a, b in zip(starts[:-1], starts[1:])]
        net.edge_ids(verts, np.concatenate([verts[:0], *there]))  # raises if not adjacent
        assert np.all(soup.trivial_occupation >= 0)
    assert seen > 50


def test_occupation_field_summation():
    assert np.array_equal(occupation_field(_soup([], 3)), np.zeros(3))
    one = _soup([(0, 1)], 3, holds=[0.4, 0.6])
    assert np.allclose(occupation_field(one), [0.4, 0.6, 0.0])
    # visits of vertex 1 by two loops add up
    two = _soup([(0, 1), (1, 2)], 3, holds=[0.4, 0.6, 0.5, 0.25])
    assert np.allclose(occupation_field(two), [0.4, 1.1, 0.25])


def test_loop_clusters_cases():
    net = path_network(4)
    assert loop_clusters(_soup([], 4), net).cluster_count == 4

    chain = _soup([(0, 1), (1, 2)], 4)
    part = loop_clusters(chain, net)
    assert part.same_cluster(0, 2) and not part.same_cluster(0, 3)
    # the traversed edges attached to cluster 0
    assert np.flatnonzero(part.edges & (part.labels[net.edge_ends[:, 0]] == 0)).tolist() == [0, 1]

    disjoint = _soup([(0, 1), (2, 3)], 4)
    part = loop_clusters(disjoint, net)
    assert part.cluster_count == 2
    assert not part.same_cluster(1, 2)


def test_traversed_edges_flags_closing_step():
    # triangle 0-1-2 plus a pendant vertex 3 on vertex 2
    net = Network(4, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)), np.ones(4))
    assert traversed_edges(_soup([], 4), net).tolist() == [False] * 4
    # the closing step 2 -> 0 crosses edge {0, 2}, which no other step does
    triangle = _soup([(0, 1, 2)], 4)
    assert traversed_edges(triangle, net).tolist() == [True, True, True, False]
    # a two-step loop closes back over the edge it took
    back = _soup([(3, 2)], 4)
    assert traversed_edges(back, net).tolist() == [False, False, False, True]
    part = loop_clusters(back, net)
    assert part.labels.tolist() == [0, 1, 2, 2]
    assert part.edges.tolist() == [False, False, False, True]


def test_occupation_mean_alpha_green(grid3):
    # E[occupation at x] = alpha G(x, x) at any intensity, not just 1/2
    net, gop = grid3
    alpha = 0.7
    sampler = LoopSoupSampler(net, gop, alpha)
    # replica r is sampler.sample(derive_stream(34, r))
    occ = occupation_field(sampler.assemble(replicate(20_000, 34, _draw_pass(sampler))))
    for x in range(9):
        est, sem = mc_mean(occ[:, x])
        assert abs(z_score(est, alpha * gop.entry(x, x), sem)) < 3.9


def test_half_intensity_occupation_is_half_square_field(two_vertex):
    net, gop = two_vertex
    sampler = LoopSoupSampler(net, gop, 0.5)
    occ = occupation_field(sampler.assemble(replicate(30_000, 35, _draw_pass(sampler))))
    for x in range(2):
        var = gop.entry(x, x)
        p = sps.kstest(occ[:, x], lambda t, v=var: half_square_cdf(t, v)).pvalue
        assert p > 1e-3
    # cross moment E[L^x L^y] = (Gxx Gyy + 2 Gxy^2) / 4
    target = (gop.entry(0, 0) * gop.entry(1, 1) + 2.0 * gop.entry(0, 1) ** 2) / 4.0
    est, sem = mc_mean(occ[:, 0] * occ[:, 1])
    assert abs(z_score(est, target, sem)) < 3.9


def test_edge_avoidance_matches_det_ratio(two_vertex):
    net, gop = two_vertex
    sampler = LoopSoupSampler(net, gop, 0.5)
    exact = sqrt_det_ratio(net, [(0, 1)])
    soups = sampler.assemble(replicate(30_000, 36, _draw_pass(sampler)))
    hits = (np.diff(soups.replica_starts) == 0).astype(float)
    est, sem = mc_mean(hits)
    assert abs(z_score(est, exact, sem)) < 3.9


def test_sampler_rejects_bad_parameters(two_vertex):
    net, gop = two_vertex
    with pytest.raises(ValueError):
        LoopSoupSampler(net, gop, 0.0)
    with pytest.raises(ValueError):
        LoopSoupSampler(net, gop, math.inf)


def test_sample_determinism(two_vertex):
    net, gop = two_vertex
    sampler = LoopSoupSampler(net, gop, 0.5)
    a = sampler.sample(derive_stream(37, 4))
    b = LoopSoupSampler(net, gop, 0.5).sample(derive_stream(37, 4))
    assert np.array_equal(a.starts, b.starts)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.holds, b.holds)
    assert np.array_equal(a.trivial_occupation, b.trivial_occupation)


def _reference_sampler(net, alpha, cutoff):
    """Reference for the sampler's draws: caches every dense power
    P^0..P^cutoff and draws one scalar uniform per root and per step.
    Returns ``draw(rng)``."""
    alive, pos = net.alive, net.alive_pos
    lam = net.lambda_total[alive]
    n = alive.size
    p = np.zeros((n, n))
    for (u, v), c in zip(net.edge_ends.tolist(), net.conductances.tolist()):
        if pos[u] >= 0 and pos[v] >= 0:
            p[pos[u], pos[v]] = c / lam[pos[u]]
            p[pos[v], pos[u]] = c / lam[pos[v]]
    mass = -np.linalg.slogdet(np.eye(n) - p)[1]
    powers = [np.eye(n), p]
    for _ in range(2, cutoff + 1):
        powers.append(powers[-1] @ p)
    q = np.clip([np.trace(powers[k]) / k for k in range(2, cutoff + 1)], 0.0, None)
    length_cdf = np.cumsum(q) / q.sum()

    def draw(rng):
        loops = []
        for _ in range(int(rng.poisson(alpha * mass))):
            pick = min(int(np.searchsorted(length_cdf, rng.random(), side="right")), cutoff - 2)
            length = pick + 2
            diag = np.clip(np.diag(powers[length]), 0.0, None)
            root = int(np.searchsorted(np.cumsum(diag) / diag.sum(), rng.random(), side="right"))
            verts = [root]
            for i in range(1, length):
                cs = np.cumsum(p[verts[-1]] * powers[length - i][:, root])
                verts.append(int(np.searchsorted(cs, rng.random() * cs[-1], side="right")))
            holds = rng.exponential(1.0 / lam[verts])
            loops.append((tuple(int(g) for g in alive[verts]), holds))
        trivial = np.zeros(net.vertex_count)
        trivial[alive] = rng.gamma(alpha, 1.0 / lam)
        return loops, trivial

    return draw


# not bipartite, so loops of odd length occur
TRIANGLE = {
    "vertices": 3,
    "edges": [[0, 1, 1.0], [1, 2, 2.0], [0, 2, 0.5]],
    "killing": [0.3, 0.2, 0.4],
}


@pytest.mark.parametrize(
    "spec", ["two-vertex", "path:3", "grid:3x3", "grid:6x6:k=0.1", TRIANGLE],
    ids=["two-vertex", "path3", "grid3x3", "grid6x6-k0.1", "triangle"],
)
def test_draws_equal_cached_power_reference(spec):
    net = parse_network_spec(spec)
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)
    reference = _reference_sampler(net, 0.5, sampler.length_cutoff)
    lengths = set()
    for r in range(500):
        soup = sampler.sample(derive_stream(38, r))
        loops, trivial = reference(derive_stream(38, r))
        starts = soup.starts
        assert starts.size - 1 == len(loops) and starts[-1] == soup.vertices.size
        for a, b, (ref_verts, ref_holds) in zip(starts[:-1], starts[1:], loops):
            assert tuple(soup.vertices[a:b].tolist()) == ref_verts
            assert np.array_equal(soup.holds[a:b], ref_holds)
            lengths.add(len(ref_verts))
        assert np.array_equal(soup.trivial_occupation, trivial)
        # occupation and traversed edges summed loop by loop
        occ, crossed = trivial.copy(), np.zeros(net.edge_count, dtype=bool)
        for verts, holds in loops:
            np.add.at(occ, list(verts), holds)
            for u, v in zip(verts, verts[1:] + verts[:1]):
                crossed[net.edge_id(u, v)] = True
        assert np.array_equal(occupation_field(soup), occ)
        assert np.array_equal(traversed_edges(soup, net), crossed)
    if spec is TRIANGLE:
        assert any(k % 2 for k in lengths)


def _dense_power_laws(net):
    """The sampler's laws from dense powers of the jump matrix: ``(mass,
    spectral radius, cutoff, length CDF, {length: root CDF})``, with no root
    CDF for a length whose powers have a zero diagonal."""
    alive, pos = net.alive, net.alive_pos
    lam = net.lambda_total[alive]
    n = alive.size
    p = np.zeros((n, n))
    for (a, b), c in zip(net.edge_ends.tolist(), net.conductances.tolist()):
        if pos[a] >= 0 and pos[b] >= 0:
            p[pos[a], pos[b]], p[pos[b], pos[a]] = c / lam[pos[a]], c / lam[pos[b]]
    mass = -np.linalg.slogdet(np.eye(n) - p)[1]
    radius = np.abs(np.linalg.eigvals(p)).max()
    cutoff = 2
    while n * radius ** (cutoff + 1) / ((cutoff + 1) * (1.0 - radius)) >= LENGTH_CUTOFF_EPS * mass:
        cutoff += 1
    q, root_cdfs, power = [], {}, p
    for k in range(2, cutoff + 1):
        power = power @ p
        diag = np.diag(power)
        q.append(diag.sum() / k)
        if diag.sum() > 0:
            root_cdfs[k] = np.cumsum(diag) / diag.sum()
    return mass, radius, cutoff, np.cumsum(q) / np.sum(q), root_cdfs


@pytest.mark.parametrize(
    "spec",
    ["two-vertex", "path:3", "grid:3x3", "grid:6x6:k=0.1", TRIANGLE, "box:d=2,n=3,mode=absorbing"],
    ids=["two-vertex", "path3", "grid3x3", "grid6x6-k0.1", "triangle", "box-absorbing"],
)
def test_laws_equal_dense_power_reference(spec):
    net = parse_network_spec(spec)
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)
    mass, radius, cutoff, length_cdf, root_cdfs = _dense_power_laws(net)
    assert sampler.mass == pytest.approx(mass, rel=1e-12)
    assert sampler.spectral_radius == pytest.approx(radius, rel=1e-12)
    assert sampler.length_cutoff == cutoff
    np.testing.assert_allclose(sampler._length_cdf, length_cdf, rtol=1e-12)
    assert sorted(sampler._root_cdfs) == sorted(root_cdfs)
    for k, cdf in root_cdfs.items():
        np.testing.assert_allclose(sampler._root_cdfs[k], cdf, rtol=1e-12)
    odd = [k for k in sampler._root_cdfs if k % 2]
    if spec is TRIANGLE:
        assert odd
    else:
        # a bipartite network has no loop of odd length, whatever the rounding
        # of the eigendecomposition
        pmf = np.diff(sampler._length_cdf, prepend=0.0)
        assert not pmf[1::2].any() and not odd


class _TopUniforms:
    """A generator drawing one loop per soup whose length uniform is the
    largest double below 1; its other draws come from ``rng``."""

    def __init__(self, rng):
        self._rng = rng

    def poisson(self, lam):
        return 1

    def random(self, size=None):
        return 1.0 - 2.0**-53 if size is None else self._rng.random(size)

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size)

    def standard_gamma(self, shape, size):
        return self._rng.standard_gamma(shape, size=size)


def test_top_length_uniform_draws_a_length_with_a_root_law():
    # the cutoff of this bipartite grid is odd, so it has no root law; a
    # length uniform at or above cdf[-1] must take the last even length
    net = parse_network_spec("grid:20x20:k=0.02")
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)
    assert sampler.length_cutoff == 3661 and 3661 not in sampler._root_cdfs
    assert 1.0 - 2.0**-53 >= sampler._length_cdf[-1]
    draws = sampler.draw(_TopUniforms(derive_stream(39, 0)))
    soup = sampler.assemble([draws])
    assert draws[0] == [3660] and soup.starts.tolist() == [0, 3660]


def test_sampler_build_peak_memory():
    # caching the (cutoff + 1) dense n x n powers would take about 960 MB here
    net = parse_network_spec("grid:20x20:k=0.1")
    gop = compute_green(net)
    tracemalloc.start()
    try:
        sampler = LoopSoupSampler(net, gop, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampler.length_cutoff > 700
    assert peak < 32 * 2**20


def test_block_pass_peak_memory():
    # walking the chunk's 31k visits in one batch would hold about 99 MB of
    # skeleton columns here; the block pass holds at most _SKELETON_VALUES
    net = parse_network_spec("grid:20x20:k=0.1")
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)
    (draws,) = replicate_chunks(150, 41, _draw_pass(sampler), sampler.values_per_replica)
    drawn = sum(d[1].nbytes + d[2].nbytes + d[3].nbytes for d in draws)
    assert net.alive.size * sum(d[1].nbytes for d in draws) > 64 * 2**20
    tracemalloc.start()
    try:
        sampler.assemble(draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * loopsoup._SKELETON_VALUES + 4 * drawn


def _skeleton_reference(net, cutoff):
    """``walk(u)``: the alive positions of a skeleton from its uniforms, by
    cached dense powers and one scalar pick per step."""
    alive, pos = net.alive, net.alive_pos
    lam = net.lambda_total[alive]
    p = np.zeros((alive.size, alive.size))
    for (a, b), c in zip(net.edge_ends.tolist(), net.conductances.tolist()):
        if pos[a] >= 0 and pos[b] >= 0:
            p[pos[a], pos[b]], p[pos[b], pos[a]] = c / lam[pos[a]], c / lam[pos[b]]
    powers = [np.eye(alive.size)]
    for _ in range(cutoff):
        powers.append(powers[-1] @ p)

    def walk(u):
        length = u.size
        diag = np.clip(np.diag(powers[length]), 0.0, None)
        root = int(np.searchsorted(np.cumsum(diag) / diag.sum(), u[0], side="right"))
        verts = [root]
        for i in range(1, length):
            cs = np.cumsum(p[verts[-1]] * powers[length - i][:, root])
            verts.append(int(np.searchsorted(cs, u[i] * cs[-1], side="right")))
        return verts

    return walk


@pytest.mark.parametrize("alpha", [0.5, 1.0, 0.3])
@pytest.mark.parametrize(
    "spec",
    [
        "grid:3x3",
        "path:3",
        "box:d=2,n=2,mode=absorbing",
        {"vertices": 1, "edges": [], "killing": [2.5]},
    ],
    ids=["grid3x3", "path3", "box-absorbing", "single-vertex"],
)
def test_block_equals_one_replica_blocks(spec, alpha):
    # one block pass over many replicas' draws against each replica's own
    # one-replica block, array for array, and its skeletons against the
    # dense-power reference walk
    net = parse_network_spec(spec)
    sampler = LoopSoupSampler(net, compute_green(net), alpha)
    replicas = 300
    draws = replicate(replicas, 39, _draw_pass(sampler))
    block = sampler.assemble(draws)
    occ, crossed = occupation_field(block), traversed_edges(block, net)
    assert block.trivial_occupation.shape == occ.shape == (replicas, net.vertex_count)
    assert crossed.shape == (replicas, net.edge_count)
    assert block.replica_starts[0] == 0 and block.replica_starts[-1] == block.starts.size - 1
    loop_counts = np.diff(block.replica_starts)
    assert (loop_counts == 0).any()
    if sampler.mass > 0:
        assert loop_counts.max() > 1
    for r in range(replicas):
        one = sampler.sample(derive_stream(39, r))
        first, last = block.replica_starts[r : r + 2]
        starts = block.starts[first : last + 1]
        visits = slice(starts[0], starts[-1])
        assert np.array_equal(starts - starts[0], one.starts)
        assert np.array_equal(block.vertices[visits], one.vertices)
        assert np.array_equal(block.holds[visits], one.holds)
        assert np.array_equal(block.trivial_occupation[r], one.trivial_occupation)
        assert np.array_equal(occ[r], occupation_field(one))
        assert np.array_equal(crossed[r], traversed_edges(one, net))
    # the first replicas' skeletons from their own uniforms
    walk = _skeleton_reference(net, sampler.length_cutoff)
    u = np.concatenate([d[1] for d in draws[:30]])
    stop = block.starts[block.replica_starts[30]]
    assert u.size == stop
    for a, b in zip(block.starts[:-1].tolist(), block.starts[1:].tolist()):
        if a < stop:
            assert np.array_equal(block.vertices[a:b], net.alive[walk(u[a:b])])


def _one_length_skeletons(sampler, u):
    """Alive positions of k skeletons of one length L from their (k, L)
    uniforms, one sparse product per power: the first uniform picks the root,
    each other one step."""
    k, length = u.shape
    roots = sampler._root_cdfs[length].searchsorted(u[:, 0], side="right")
    p = sampler._p
    loops = np.arange(k)
    cols = [np.zeros((p.shape[0], k))]
    cols[0][roots, loops] = 1.0
    for _ in range(1, length):
        cols.append(p @ cols[-1])
    nbrs, weights = sampler._neighbour_table
    verts = np.empty((k, length), dtype=np.int64)
    verts[:, 0] = cur = roots
    for i in range(1, length):
        row = nbrs[cur]
        cs = (weights[cur] * cols[length - i][row, loops[:, None]]).cumsum(axis=1)
        pick = np.count_nonzero(cs <= (u[:, i] * cs[:, -1])[:, None], axis=1)
        verts[:, i] = cur = row[loops, pick]
    return verts


def _per_length_positions(sampler, draws):
    """Alive positions of a chunk's visits walked one length at a time, in
    batches whose columns hold no more values than the chunk's draws."""
    lengths = np.array([length for d in draws for length in d[0]], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)])
    uniforms = np.concatenate([d[1] for d in draws])
    n = sampler._p.shape[0]
    budget = min(CHUNK_VALUES, 2 * uniforms.size + n * len(draws))
    positions = np.empty(starts[-1], dtype=np.int64)
    for length in np.unique(lengths).tolist():
        loops = np.flatnonzero(lengths == length)
        batch = max(1, budget // (n * length))
        for first in range(0, loops.size, batch):
            visits = starts[loops[first : first + batch], None] + np.arange(length)
            positions[visits] = _one_length_skeletons(sampler, uniforms[visits])
    return positions


@pytest.mark.parametrize(
    "spec",
    ["grid:6x6:k=0.1", "path:3", "box:d=2,n=2,mode=absorbing"],
    ids=["grid6x6-k0.1", "path3", "box-absorbing"],
)
def test_packed_batches_equal_per_length_batches(spec, monkeypatch):
    # limits of a few visits' columns split a length's loops across batches,
    # mix lengths in a batch and leave the longest loops alone in theirs
    net = parse_network_spec(spec)
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)
    draws = replicate(300, 42, _draw_pass(sampler))
    n = net.alive.size
    batches = []
    walk = sampler._walk

    def recorded(lengths, *rest):
        batches.append((loopsoup._SKELETON_VALUES // n, lengths.tolist()))
        walk(lengths, *rest)

    reference = sampler.assemble(draws)
    assert np.array_equal(reference.vertices, net.alive[_per_length_positions(sampler, draws)])
    monkeypatch.setattr(sampler, "_walk", recorded)
    for visits in range(3, 14):
        monkeypatch.setattr(loopsoup, "_SKELETON_VALUES", n * visits)
        block = sampler.assemble(draws)
        for name in ("vertices", "starts", "holds", "trivial_occupation", "replica_starts"):
            assert np.array_equal(getattr(block, name), getattr(reference, name))
    split, mixed, alone = set(), False, False
    for (limit, lengths), (next_limit, next_lengths) in zip(batches, batches[1:]):
        if limit == next_limit and lengths[-1] == next_lengths[0] and len(lengths) > 1:
            split.add(lengths[-1])
    for limit, lengths in batches:
        assert sum(lengths) <= limit or len(lengths) == 1
        mixed |= len(set(lengths)) > 1
        alone |= lengths[0] > limit
    assert split and mixed and alone
    # a chunk without loops walks nothing
    batches.clear()
    empty = [d for d in draws if not d[0]]
    block = sampler.assemble(empty)
    assert block.vertices.size == 0 and not batches
    assert np.array_equal(block.starts, [0])
    assert np.array_equal(block.replica_starts, np.zeros(len(empty) + 1))
