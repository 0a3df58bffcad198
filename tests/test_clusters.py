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


def test_build_partition_matches_bfs_reference():
    rng = derive_stream(71, 0)
    isolated = 0
    for _ in range(200):
        n = int(rng.integers(1, 25))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)).tolist()
        # repeated pairs, reversed pairs and self-pairs
        pairs += pairs[: len(pairs) // 3] + [[y, x] for x, y in pairs[:2]]
        pairs += [[x, x] for x in rng.integers(0, n, size=2).tolist()]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        expected = _bfs_labels(n, pairs)
        labels = build_partition(n, pairs)
        assert labels.tolist() == expected
        partition = ClusterPartition(labels, np.zeros(0, dtype=bool))
        assert partition.cluster_count == len(set(expected))
        touched = {v for pair in pairs for v in pair if pair[0] != pair[1]}
        isolated += n - len(touched)
    assert isolated > 100
