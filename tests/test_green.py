import itertools
import math
import tracemalloc

import numpy as np
import pytest

from loopfield import (
    Network,
    RecurrentNetworkError,
    compute_green,
    grid_network,
    modified_network,
    normalized_green,
    path_network,
    sqrt_det_ratio,
    two_vertex_network,
)
from loopfield.harness import parse_network_spec
from loopfield.interlacement import build_star_graph
from loopfield.streams import derive_stream

# hand inversion of A = [[2,-1],[-1,2]]
G_TWO_VERTEX = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
# hand inversion of A = [[2,-1,0],[-1,3,-1],[0,-1,2]], det A = 8
G_PATH3 = np.array([[5.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 5.0]]) / 8.0


def _green_entries(net, gop):
    """The Green matrix over alive positions, entry by entry."""
    return np.array([[gop.entry(x, y) for y in net.alive] for x in net.alive])


def _chol_g(gop):
    """The lower Cholesky factor of G, column by column from ``apply_chol``."""
    return gop.apply_chol(np.eye(gop.matrix_a.shape[0])).T


def test_two_vertex_green(two_vertex):
    net, gop = two_vertex
    assert np.allclose(gop.matrix_a.toarray(), [[2.0, -1.0], [-1.0, 2.0]], atol=1e-15)
    assert np.allclose(_green_entries(net, gop), G_TWO_VERTEX, atol=1e-12)


def test_single_vertex_green():
    net = Network(1, (), np.array([3.0]))
    gop = compute_green(net)
    assert gop.entry(0, 0) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_path3_green_vs_solve_oracle(path3):
    net, gop = path3
    # independent route: dense solve of the energy form
    oracle = np.linalg.solve(gop.matrix_a.toarray(), np.eye(3))
    green = _green_entries(net, gop)
    assert np.allclose(green, oracle, atol=1e-12)
    assert np.allclose(green, G_PATH3, atol=1e-12)


def test_green_operator_invariants(grid3):
    net, gop = grid3
    n = net.alive.size
    green = _green_entries(net, gop)
    assert np.abs(gop.matrix_a @ green - np.eye(n)).max() < 1e-10
    assert np.abs(green - green.T).max() < 1e-14
    assert np.all(np.diag(green) > 0)
    chol = _chol_g(gop)
    assert np.abs(chol @ chol.T - green).max() < 1e-10
    sign, logdet = np.linalg.slogdet(green)
    assert sign > 0
    assert gop.log_det_g == pytest.approx(logdet, abs=1e-10)


def test_normalized_green(two_vertex, path3):
    _, gop = two_vertex
    assert normalized_green(gop, 0, 1) == pytest.approx(0.5, abs=1e-12)
    assert normalized_green(gop, 0, 0) == pytest.approx(1.0, abs=1e-15)
    _, gop3 = path3
    # endpoints of the 3-path: G13 / sqrt(G11 G33) = (1/8) / (5/8)
    assert normalized_green(gop3, 0, 2) == pytest.approx(0.2, abs=1e-12)


def test_sqrt_det_ratio_values(two_vertex, path3):
    net, _ = two_vertex
    assert sqrt_det_ratio(net, []) == 1.0
    assert sqrt_det_ratio(net, [(0, 1)]) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    net3, _ = path3
    assert sqrt_det_ratio(net3, [(0, 1)]) == pytest.approx(math.sqrt(0.8), abs=1e-12)


def test_sqrt_det_ratio_monotone_under_more_edges():
    # square with four edges: every chain of subsets is nonincreasing
    square = Network(
        4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (0, 3, 1.0)), np.full(4, 0.7)
    )
    for net in (square, path_network(4, killing=0.4)):
        ids = range(net.edge_count)
        ratio = {
            frozenset(sub): sqrt_det_ratio(net, list(sub))
            for k in range(net.edge_count + 1)
            for sub in itertools.combinations(ids, k)
        }
        for sub, value in ratio.items():
            assert 0.0 < value <= 1.0
            for extra in ids:
                if extra not in sub:
                    assert ratio[sub | {extra}] <= value + 1e-12


def test_near_recurrent_rejected():
    net = two_vertex_network(killing=1e-16)
    with pytest.raises(RecurrentNetworkError):
        compute_green(net)


@pytest.mark.parametrize(
    "net, message",
    [
        # 1 + 1e-16 rounds to 1: A is exactly singular and the factorisation fails
        (two_vertex_network(killing=1e-16), "not positive definite"),
        # a pivot of about 2.5e-12 against the diagonal's 4
        (grid_network(5, 5, killing=1e-13), "numerically singular"),
    ],
    ids=["singular", "near-singular"],
)
def test_recurrent_networks_rejected(net, message):
    with pytest.raises(RecurrentNetworkError, match=message):
        compute_green(net)
    with pytest.raises(RecurrentNetworkError, match=message):
        sqrt_det_ratio(net, [0])


def _dense_reference(net):
    """The energy form assembled dense from the edge list, with its inverse and
    the inverse's Cholesky factor: the construction the band factor replaces."""
    pos = net.alive_pos
    a = np.diag(net.lambda_total[net.alive])
    for (u, v), c in zip(net.edge_ends.tolist(), net.conductances.tolist()):
        if pos[u] >= 0 and pos[v] >= 0:
            a[pos[u], pos[v]] = a[pos[v], pos[u]] = -c
    green = np.linalg.inv(a)
    return a, green, np.linalg.cholesky(green)


BAND_NETWORKS = {
    "path:3": lambda: parse_network_spec("path:3"),
    "grid:4x4": lambda: parse_network_spec("grid:4x4"),
    # the absorbing layer leaves alive ids 6-8, 11-13, 16-18: not contiguous
    "box-d2-n2-absorbing": lambda: parse_network_spec("box:d=2,n=2,mode=absorbing"),
    "grid:20x20:k=0.1": lambda: parse_network_spec("grid:20x20:k=0.1"),
}


@pytest.mark.parametrize("name", sorted(BAND_NETWORKS))
def test_band_operator_matches_dense_reference(name):
    net = BAND_NETWORKS[name]()
    gop = compute_green(net)
    a, green, chol = _dense_reference(net)
    assert np.array_equal(gop.matrix_a.toarray(), a)
    assert np.abs(_green_entries(net, gop) - green).max() < 1e-12 * np.abs(green).max()
    assert gop.log_det_g == pytest.approx(np.linalg.slogdet(green)[1], abs=1e-10)
    z = derive_stream(80, 0).standard_normal((5, 3, net.alive.size))
    phi = gop.apply_chol(z)
    assert phi.shape == z.shape
    assert np.abs(phi - z @ chol.T).max() < 1e-12 * np.abs(phi).max()
    # a single field is the last axis too
    assert np.array_equal(gop.apply_chol(z[0, 0]), phi[0, 0])
    # absorbing vertices carry no Green value
    for x in np.flatnonzero(net.alive_pos < 0):
        assert gop.entry(int(x), int(net.alive[0])) == 0.0


def test_sqrt_det_ratio_without_alive_edges():
    # removing every edge leaves a diagonal form: bandwidth 0
    net = parse_network_spec("grid:3x3")
    ids = list(range(net.edge_count))
    assert compute_green(modified_network(net, ids)).factor.shape == (1, 9)
    a, _, _ = _dense_reference(net)
    expected = math.exp(0.5 * (np.linalg.slogdet(a)[1] - np.log(net.lambda_total).sum()))
    assert sqrt_det_ratio(net, ids) == pytest.approx(expected, rel=1e-12)


def test_compute_green_peak_memory():
    # a dense inverse and a dense Cholesky of the 3481 x 3481 Green matrix
    # peaked at about 485 MB
    net = build_star_graph(2, 30).network
    tracemalloc.start()
    try:
        gop = compute_green(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gop.matrix_a.shape[0] == 3481
    assert peak < 32 * 2**20
