"""The benchmark's workloads: seeded experiment configs and their set-up calls.

A workload is a list of experiments run one after another in one process.
Each experiment's seed is derived from the workload seed through a
``SeedSequence`` whose spawn key names the workload and the experiment, so no
two experiments share a stream and no seed is formed by arithmetic.  The
program under test receives only the resulting ``ExperimentConfig`` objects.

``tiny=True`` shrinks every workload to a few replicas on small networks; the
smoke test uses it to check the benchmark's plumbing in seconds.
"""

from __future__ import annotations

import math

import numpy as np

from loopfield.bridges import LastZeroSampler
from loopfield.green import compute_green
from loopfield.harness import ExperimentConfig, parse_network_spec
from loopfield.interlacement import build_star_graph, compute_capacity
from loopfield.loopsoup import LoopSoupSampler
from loopfield.network import box_vertex_index, build_box_network

LAMBDA_GRID = [1e-4, 1e-2, 0.25, 1.0, 4.0, 25.0]


def _name_key(name: str) -> int:
    return int.from_bytes(name.encode(), "big")


def experiment_seed(workload_seed: int, workload: str, experiment: str) -> int:
    """64-bit seed of one experiment, named by (workload, experiment id)."""
    seq = np.random.SeedSequence(
        entropy=int(workload_seed), spawn_key=(_name_key(workload), _name_key(experiment))
    )
    return int(seq.generate_state(1, np.uint64)[0])


# Each workload lists (experiment id, network spec, parameters, replicas); an
# experiment id occurs once per workload and names the experiment's seed stream.


def _small_net(tiny: bool) -> list[tuple]:
    # Acceptance-style configs on networks of at most 16 alive vertices with
    # many replicas.  Set-up is a fraction of a second; the wall time is
    # per-replica Python in streams, loopsoup.sample, coupling.couple,
    # clusters.build_partition and gff, the path that batching replicas
    # targets.  Green factorisation and the soup power cache do almost nothing.
    # Replica counts keep one repetition near 3 s, so a run holds about ten.
    return [
        ("coupling-law", "grid:3x3", {}, 300 if tiny else 4_000),
        ("connectivity", "grid:4x4", {"x": 5, "y": 10}, 300 if tiny else 4_000),
        ("det-ratio", "path:3", {"edges": [[0, 1]]}, 300 if tiny else 4_000),
        ("occupation-field", "grid:3x3", {"alpha": 0.5}, 300 if tiny else 4_000),
        ("bridge-check", None, {"lambda_grid": LAMBDA_GRID}, 300 if tiny else 100_000),
    ]


def _soup_large(tiny: bool) -> list[tuple]:
    # det-ratio at alpha = 1/2 on a 400-vertex grid with light killing, one
    # central edge.  The sampler build caches 747 dense 400x400 jump-matrix
    # powers (seconds and about 1 GB), after which each replica costs a few
    # milliseconds of skeleton sampling: set-up and memory dominate.  It uses
    # the soup layer the opposite way from small-net (few replicas on a large
    # network), so a change trading build cost for per-sample cost shows on
    # one of the two.  k=0.02 (5.5 GB) does not fit a shared 7 GB machine.
    if tiny:
        return [("det-ratio", "grid:6x6:k=0.1", {"edges": [[14, 15]]}, 30)]
    # vertices 189 and 190 are (9, 9) and (9, 10) of the 20x20 grid
    return [("det-ratio", "grid:20x20:k=0.1", {"edges": [[189, 190]]}, 150)]


def _box_walk(tiny: bool) -> list[tuple]:
    # No loop soup.  The time goes to the dense Green factorisation of a
    # 3481-vertex box (d=2, n=30), the batched interlacement walkers and the
    # per-replica union-find of the level-set check.  A soup-only change must
    # read as unchanged here.  The large box runs levelset-check (2 exact
    # records) rather than isomorphism-check, whose 6962 z-records at
    # |z| < 3.9 fail by chance in about half of all seeds.  Replica counts
    # keep one repetition near 9 s, about 3.5 s of it set-up, so a run of
    # 35 s holds three.
    k = [[0, 0, 0], [1, 0, 0]]
    return [
        ("interlacement", None,
         {"d": 3, "n": 5, "u": 0.25, "k": k, "star_replicas": 500 if tiny else 2_000},
         2_000 if tiny else 10_000),
        ("isomorphism-check", None,
         {"d": 2, "n": 5 if not tiny else 3, "u": 0.5}, 500 if tiny else 10_000),
        ("levelset-check", None,
         {"d": 2, "n": 6 if tiny else 30, "u": 1.0}, 5 if tiny else 40),
    ]


WORKLOADS = {
    "small-net": _small_net,
    "soup-large": _soup_large,
    "box-walk": _box_walk,
}


def make_configs(workload: str, seed: int, tiny: bool = False) -> list[ExperimentConfig]:
    """The experiment configs of one workload at one workload seed."""
    return [
        ExperimentConfig(
            experiment=exp,
            seed=experiment_seed(seed, workload, exp),
            replicas=replicas,
            network=network,
            parameters=params,
        )
        for exp, network, params, replicas in WORKLOADS[workload](tiny)
    ]


def construct(cfg: ExperimentConfig):
    """Make the construction calls ``cfg``'s experiment makes before its first
    replica, with the same arguments, and return what they built."""
    p = cfg.parameters
    if cfg.experiment == "bridge-check":
        # the harness realizes lambda with T = 1/2 and l2 = sqrt(lambda)
        return [LastZeroSampler(math.sqrt(lam), 0.5) for lam in p["lambda_grid"]]
    if cfg.experiment == "interlacement":
        d, n = p["d"], p["n"]
        net = build_box_network(d, n, 1.0, 0.0, "absorbing")
        cap = compute_capacity(net, [box_vertex_index(d, n, c) for c in p["k"]])
        return net, cap, build_star_graph(d, n)
    if cfg.experiment in ("isomorphism-check", "levelset-check"):
        star = build_star_graph(p["d"], p["n"])
        return star, compute_green(star.network)
    net = parse_network_spec(cfg.network)
    gop = compute_green(net)
    if cfg.experiment == "connectivity":
        return net, gop
    return net, gop, LoopSoupSampler(net, gop, p.get("alpha", 0.5))
