import math

import numpy as np
import pytest

from loopfield import (
    Network,
    NetworkError,
    build_box_network,
    modified_network,
    network_from_json,
    network_to_json,
    path_network,
    two_vertex_network,
)
from loopfield.network import box_vertex_coords, box_vertex_index


def test_two_vertex_rates():
    # lambda = kappa + sum C = 1 + 1 = 2 at both vertices
    net = two_vertex_network()
    assert net.lambda_total[0] == 2.0
    assert net.lambda_total[1] == 2.0


def test_absorbing_box_counts():
    net = build_box_network(2, 2, 1.0, 0.0, "absorbing")
    assert net.vertex_count == 25
    assert net.alive.size == 9
    assert sum(net.is_absorbing(x) for x in range(25)) == 16


def test_halfplane_floor_kills_floor_layer():
    net = build_box_network(2, 2, 1.0, 0.0, "halfplane_floor")
    for idx in range(net.vertex_count):
        coords = box_vertex_coords(2, 2, idx)
        assert net.is_absorbing(idx) == (coords[-1] == -2)


def test_transience_certificate():
    with pytest.raises(NetworkError):
        Network(2, ((0, 1, 1.0),), np.zeros(2))
    with pytest.raises(NetworkError):
        build_box_network(2, 1, 1.0, 0.0, "killed_uniform")
    # absorbing boundary certifies transience with zero interior killing
    build_box_network(2, 1, 1.0, 0.0, "absorbing")


def test_rejects_bad_edges():
    with pytest.raises(NetworkError):
        Network(2, ((0, 0, 1.0),), np.ones(2))
    with pytest.raises(NetworkError):
        Network(2, ((0, 1, 1.0), (1, 0, 2.0)), np.ones(2))
    with pytest.raises(NetworkError):
        Network(2, ((0, 1, -1.0),), np.ones(2))
    with pytest.raises(NetworkError):
        Network(3, ((0, 1, 1.0),), np.ones(3))  # disconnected vertex 2


def test_edge_ids_match_edge_list():
    # edges listed out of key order, so the sorted-key index must permute
    net = Network(4, ((2, 3, 1.0), (0, 1, 1.0), (1, 3, 2.0), (0, 2, 1.0)), np.ones(4))
    u = np.array([3, 0, 1, 3, 2, 0])
    v = np.array([2, 1, 3, 1, 0, 1])
    assert net.edge_ids(u, v).tolist() == [0, 1, 2, 2, 3, 1]
    assert [net.edge_id(a, b) for a, b in zip(u, v)] == [0, 1, 2, 2, 3, 1]
    assert net.edge_ids([], []).size == 0
    with pytest.raises(NetworkError, match="no edge between 0 and 3"):
        net.edge_ids([0, 0], [1, 3])
    with pytest.raises(NetworkError, match="no edge between 3 and 0"):
        net.edge_id(3, 0)
    # -1 * 4 + 5 is the key of edge (0, 1): out-of-range vertices must not alias it
    with pytest.raises(NetworkError):
        net.edge_id(-1, 5)
    with pytest.raises(NetworkError):
        path_network(2).edge_ids([1], [1])


def test_modified_network_two_vertex():
    net = two_vertex_network()
    cut = modified_network(net, [(0, 1)])
    assert cut.edge_count == 0
    assert np.allclose(cut.killing, [2.0, 2.0])
    assert np.allclose(cut.lambda_total, net.lambda_total)


def test_modified_network_identity_and_path():
    net = path_network(3)
    same = modified_network(net, [])
    assert same.edges == net.edges
    assert np.allclose(same.killing, net.killing)

    cut = modified_network(net, [(0, 1)])
    assert np.allclose(cut.killing, [2.0, 2.0, 1.0])
    assert cut.edges == ((1, 2, 1.0),)
    assert np.allclose(cut.lambda_total, net.lambda_total)

    with pytest.raises(NetworkError):
        modified_network(net, [17])
    with pytest.raises(NetworkError):
        modified_network(net, [(0, 2)])


def test_jump_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        edges = [(i, i + 1, float(rng.uniform(0.2, 3.0))) for i in range(n - 1)]
        extra = [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.3]
        edges += [(i, j, float(rng.uniform(0.2, 3.0))) for i, j in extra]
        kappa = rng.uniform(0.1, 2.0, n)
        net = Network(n, tuple(edges), kappa)
        for x in range(n):
            total = sum(c for _, c, _ in net.neighbors[x]) + kappa[x]
            probs = sum(c / net.lambda_total[x] for _, c, _ in net.neighbors[x])
            assert probs + kappa[x] / net.lambda_total[x] == pytest.approx(1.0, abs=1e-12)
            assert net.lambda_total[x] == pytest.approx(total, abs=1e-12)

        # removing any one edge moves conductance to killing, lambda unchanged
        cut = modified_network(net, [0])
        assert np.allclose(cut.lambda_total, net.lambda_total, atol=1e-12)


def test_json_round_trip_exact():
    net = Network(3, ((0, 1, 0.1), (1, 2, 1.0 / 3.0)), np.array([0.2, math.inf, 5.5]),
                  allow_disconnected=True)
    back = network_from_json(network_to_json(net))
    assert back.vertex_count == net.vertex_count
    assert back.edges == net.edges  # exact float round trip
    assert back.killing[0] == net.killing[0]
    assert math.isinf(back.killing[1])
    assert back.killing[2] == net.killing[2]


def test_box_meta_round_trip():
    net = build_box_network(2, 2, 1.5, 0.25, "absorbing")
    back = network_from_json(network_to_json(net))
    assert back.meta == net.meta
    assert back.alive.size == net.alive.size


def test_box_index_bijection():
    for d, n in [(1, 3), (2, 2), (3, 2)]:
        side = 2 * n + 1
        for idx in range(side**d):
            coords = box_vertex_coords(d, n, idx)
            assert box_vertex_index(d, n, coords) == idx


def test_box_index_needs_one_coordinate_per_axis():
    # a short point used to land on another vertex, a long one outside the box
    for coords in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(NetworkError, match="3 coordinates"):
            box_vertex_index(3, 5, coords)
