import numpy as np

from loopfield.clusters import ClusterPartition, build_partition
from loopfield.streams import derive_stream


def _bfs_labels(vertex_count, pairs):
    # breadth-first search from each vertex in increasing order, so the first
    # vertex reached in a component is its smallest
    adjacent = [[] for _ in range(vertex_count)]
    for x, y in pairs:
        adjacent[x].append(y)
        adjacent[y].append(x)
    labels = [-1] * vertex_count
    for start in range(vertex_count):
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adjacent[x]:
                if labels[y] < 0:
                    labels[y] = start
                    queue.append(y)
    return labels


def _random_pairs(rng, n):
    pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)).tolist()
    # repeated pairs, reversed pairs and self-pairs
    pairs += pairs[: len(pairs) // 3] + [[y, x] for x, y in pairs[:2]]
    pairs += [[x, x] for x in rng.integers(0, n, size=2).tolist()]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def test_build_partition_matches_bfs_reference():
    rng = derive_stream(71, 0)
    isolated = 0
    for _ in range(200):
        n = int(rng.integers(1, 25))
        pairs = _random_pairs(rng, n)
        expected = _bfs_labels(n, pairs)
        labels = build_partition(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        assert labels.tolist() == expected
        partition = ClusterPartition(labels, np.zeros(0, dtype=bool))
        assert partition.cluster_count == len(set(expected))
        touched = {v for pair in pairs for v in pair if pair[0] != pair[1]}
        isolated += n - len(touched)
    assert isolated > 100
    assert build_partition(1, np.empty((0, 2), dtype=np.int64)).tolist() == [0]

    # replica graphs stacked with their vertex ids offset by r * n: each
    # replica's labels come back offset by r * n and otherwise unchanged
    for _ in range(50):
        n, replicas = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        graphs = [[] if rng.random() < 0.3 else _random_pairs(rng, n) for _ in range(replicas)]
        stacked = [[x + r * n, y + r * n] for r, pairs in enumerate(graphs) for x, y in pairs]
        ends = np.array(stacked, dtype=np.int64).reshape(-1, 2)
        labels = build_partition(replicas * n, ends[rng.permutation(len(ends))])
        for r, pairs in enumerate(graphs):
            assert (labels[r * n : (r + 1) * n] - r * n).tolist() == _bfs_labels(n, pairs)
