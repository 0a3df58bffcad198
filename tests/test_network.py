import json
import math

import numpy as np
import pytest

from loopfield import (
    Network,
    NetworkError,
    build_box_network,
    grid_network,
    modified_network,
    network_from_json,
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
    assert np.count_nonzero(~np.isfinite(net.killing)) == 16


def test_halfplane_floor_kills_floor_layer():
    net = build_box_network(2, 2, 1.0, 0.0, "halfplane_floor")
    absorbing = ~np.isfinite(net.killing)
    for idx in range(net.vertex_count):
        coords = box_vertex_coords(2, 2, idx)
        assert absorbing[idx] == (coords[-1] == -2)


def test_transience_certificate():
    with pytest.raises(NetworkError):
        Network(2, ((0, 1, 1.0),), np.zeros(2))
    with pytest.raises(NetworkError):
        build_box_network(2, 1, 1.0, 0.0, "killed_uniform")
    # absorbing boundary certifies transience with zero interior killing
    build_box_network(2, 1, 1.0, 0.0, "absorbing")
    with pytest.raises(NetworkError, match="at least one vertex must be alive"):
        path_network(3, killing=math.inf)


def test_rejects_bad_edges():
    with pytest.raises(NetworkError):
        Network(2, ((0, 0, 1.0),), np.ones(2))
    with pytest.raises(NetworkError):
        Network(2, ((0, 1, 1.0), (1, 0, 2.0)), np.ones(2))
    with pytest.raises(NetworkError):
        Network(2, ((0, 1, -1.0),), np.ones(2))
    with pytest.raises(NetworkError):
        Network(3, ((0, 1, 1.0),), np.ones(3))  # disconnected vertex 2
    with pytest.raises(NetworkError, match="graph must be connected"):
        Network(4, ((0, 1, 1.0), (2, 3, 1.0)), np.ones(4))
    # each check names the first offending edge, in edge-id order
    with pytest.raises(NetworkError, match=r"edge \(3, 5\) out of range"):
        Network(4, ((0, 1, 1.0), (3, 5, 1.0), (1, 1, 1.0)), np.ones(4))
    with pytest.raises(NetworkError, match=r"parallel edge \(0, 1\)"):
        Network(3, ((0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0), (2, 2, 1.0)), np.ones(3))
    with pytest.raises(NetworkError, match=r"edge \(0, 2\) needs finite conductance"):
        Network(3, ((0, 1, 1.0), (0, 2, math.nan)), np.ones(3))
    with pytest.raises(NetworkError, match="edges must be"):
        Network(2, ((0, 1),), np.ones(2))


def test_rejects_non_integral_vertices():
    doc = {"vertices": 2, "edges": [[0, 1, 1.0]], "killing": [1.0, 1.0]}
    # integral floats are integers
    assert Network.from_dict({**doc, "vertices": 2.0}).vertex_count == 2
    assert Network.from_dict({**doc, "edges": [[0.0, 1.0, 1.0]]}).edge_ends.tolist() == [[0, 1]]
    with pytest.raises(NetworkError, match="vertices must be an integer"):
        Network.from_dict({**doc, "vertices": 2.7})
    with pytest.raises(NetworkError, match=r"edge \(0.5, 1\) needs integer ends"):
        Network.from_dict({**doc, "edges": [[0.5, 1, 1.0]]})


def test_lattice_edges_in_edge_id_order():
    # vertex ascending, then axis ascending: the walker's slot order
    box = build_box_network(2, 1, 1.0, 0.5, "killed_uniform")
    assert box.edge_ends.tolist() == [
        [0, 3], [0, 1], [1, 4], [1, 2], [2, 5], [3, 6],
        [3, 4], [4, 7], [4, 5], [5, 8], [6, 7], [7, 8],
    ]
    # the grid lists each vertex's edge to the right before its edge down
    grid = grid_network(2, 3)
    assert grid.edge_ends.tolist() == [[0, 1], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4], [4, 5]]
    assert path_network(4, 0.5).edge_ends.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert path_network(4, 0.5).conductances.tolist() == [0.5, 0.5, 0.5]


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
    assert np.array_equal(same.edge_ends, net.edge_ends)
    assert np.array_equal(same.conductances, net.conductances)
    assert np.allclose(same.killing, net.killing)

    cut = modified_network(net, [(0, 1)])
    assert np.allclose(cut.killing, [2.0, 2.0, 1.0])
    assert cut.edge_ends.tolist() == [[1, 2]]
    assert cut.conductances.tolist() == [1.0]
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
            # the conductances at x in edge-id order, summed in that order
            at_x = net.conductances[(net.edge_ends == x).any(axis=1)].tolist()
            total = sum(at_x) + kappa[x]
            probs = sum(c / net.lambda_total[x] for c in at_x)
            assert probs + kappa[x] / net.lambda_total[x] == pytest.approx(1.0, abs=1e-12)
            assert net.lambda_total[x] == total

        # removing any one edge moves conductance to killing, lambda unchanged
        cut = modified_network(net, [0])
        assert np.allclose(cut.lambda_total, net.lambda_total, atol=1e-12)


def test_lambda_sums_in_edge_id_order():
    # vertex 1 is the u-end of edges 0 and 2 and the v-end of edge 1: summing
    # its u-ends first would give (0.1 + 0.6) + 0.2, which differs in the last bit
    net = Network(4, ((1, 2, 0.1), (0, 1, 0.2), (1, 3, 0.6)), np.array([1.0, 0.0, 1.0, 1.0]))
    assert net.lambda_total[1] == (0.1 + 0.2) + 0.6
    assert net.lambda_total[1] != (0.1 + 0.6) + 0.2
    # removed conductances join the killing in edge-id order, u before v
    cut = modified_network(net, [2, 0, 1])
    assert cut.edge_count == 0
    assert cut.killing[1] == (0.1 + 0.2) + 0.6


def test_json_round_trip_exact():
    edges, killing = [[0, 1, 0.1], [1, 2, 1.0 / 3.0]], [0.2, math.inf, 5.5]
    net = Network(3, edges, np.array(killing), allow_disconnected=True)
    back = network_from_json(json.dumps({"vertices": 3, "edges": edges, "killing": killing}))
    assert back.vertex_count == net.vertex_count
    assert np.array_equal(back.edge_ends, net.edge_ends)
    assert np.array_equal(back.conductances, net.conductances)  # exact float round trip
    assert back.killing[0] == net.killing[0]
    assert math.isinf(back.killing[1])
    assert back.killing[2] == net.killing[2]


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
