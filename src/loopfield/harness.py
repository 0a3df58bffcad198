"""Experiment configuration, replication discipline and report emission.

Each experiment verifies a family of closed-form identities by seeded Monte
Carlo and returns one record per identity.  A report is a pure function of
(experiment, seed, parameters): rerunning with the same seed reproduces it
byte for byte, which is itself one of the acceptance checks.  Wall-clock
timing is therefore never written into a report.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bridges
from .coupling import collect_coupled_fields, field_law_records
from .gff import cluster_edges, connectivity_probability, sample_edge_configuration, sample_gff
from .green import compute_green, sqrt_det_ratio
from .interlacement import (
    build_star_graph,
    compute_capacity,
    isomorphism_check,
    levelset_containment_check,
    star_excursion_batch,
    trace_occupation_batch,
)
from .loopsoup import LoopSoupSampler, occupation_field, traversed_edges
from .network import (
    Network,
    NetworkError,
    box_vertex_index,
    build_box_network,
    grid_network,
    network_from_json,
    path_network,
    two_vertex_network,
)
from .stats import TestRecord, half_square_cdf, ks_record, mc_mean, z_record
from .streams import derive_stream, replicate

__all__ = [
    "ExperimentConfig",
    "Report",
    "check_seed_and_replicas",
    "run_experiment",
    "parse_network_spec",
    "EXPERIMENTS",
    "PARAMETERS",
]


class ConfigError(ValueError):
    """Configuration document does not validate."""


def check_seed_and_replicas(seed, replicas) -> tuple[int, int]:
    """``(seed, replicas)`` as integers; a seed outside 0..2^64 - 1 or fewer
    than one replica is a ConfigError."""
    try:
        seed, replicas = int(seed), int(replicas)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fields 'seed' and 'replicas': must be integers ({exc})") from exc
    if replicas < 1:
        raise ConfigError("field 'replicas': must be >= 1")
    if not (0 <= seed < 2**64):
        raise ConfigError("field 'seed': must be a 64-bit value")
    return seed, replicas


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment deterministically."""

    experiment: str
    seed: int
    replicas: int = 100_000
    network: str | dict | None = None
    parameters: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self) -> None:
        # the echoed config holds the integers the experiment runs with
        seed, replicas = check_seed_and_replicas(self.seed, self.replicas)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "replicas", replicas)
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"field 'experiment': unknown id {self.experiment!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )
        if self.network is not None and self.experiment not in NETWORK_EXPERIMENTS:
            raise ConfigError(
                f"field 'network': not read by experiment {self.experiment!r}; "
                f"only by {sorted(NETWORK_EXPERIMENTS)}"
            )
        if not isinstance(self.parameters, dict):
            raise ConfigError("field 'parameters': must be an object")
        accepted = PARAMETERS[self.experiment]
        for name in self.parameters:
            if name not in accepted:
                raise ConfigError(
                    f"parameter {name!r}: not accepted by experiment {self.experiment!r}; "
                    f"accepted: {sorted(accepted)}"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
        if "experiment" not in doc or "seed" not in doc:
            raise ConfigError("config needs at least 'experiment' and 'seed'")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ConfigError(f"field {key!r}: not a config field")
        return cls(**{**doc, "experiment": str(doc["experiment"])})

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"config file {str(path)!r}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigError(f"config file {str(path)!r}: not JSON ({exc})") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class Report:
    experiment: str
    seed: int
    config: dict
    records: tuple[TestRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "seed": self.seed,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "all_passed": self.all_passed,
        }
        return json.dumps(doc, indent=2)

    def csv_rows(self):
        yield ["test", "formula", "exact", "estimate", "stderr", "z", "p", "pass"]
        for r in self.records:
            yield [
                r.test_id,
                r.formula,
                _fmt(r.exact),
                _fmt(r.estimate),
                _fmt(r.stderr),
                _fmt(r.z),
                _fmt(r.p_value),
                str(r.passed).lower(),
            ]

    def write(self, out: str | Path) -> tuple[Path, Path]:
        """Write the CSV rows and the JSON report next to each other."""
        out = Path(out)
        csv_path = out if out.suffix == ".csv" else out.with_suffix(out.suffix + ".csv")
        json_path = csv_path.with_suffix(".json")
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(self.csv_rows())
        json_path.write_text(self.to_json() + "\n")
        return csv_path, json_path


def _fmt(value) -> str:
    # 17 significant digits round-trips doubles exactly
    return "" if value is None else format(float(value), ".17g")


# -- network shorthand -------------------------------------------------------

# the options each shorthand accepts
_SHORTHAND_OPTIONS = {
    "two-vertex": {"c", "k"},
    "path": {"c", "k"},
    "grid": {"c", "k"},
    "box": {"d", "n", "c", "k", "mode"},
}


def parse_network_spec(spec) -> Network:
    """Accept a dict, inline JSON, a file path or a shorthand string.

    Shorthands: ``two-vertex[:c=..][:k=..]``, ``path:N[:c=..][:k=..]``,
    ``grid:RxC[:c=..][:k=..]`` and
    ``box:d=..,n=..[,c=..][,k=..][,mode=killed_uniform|absorbing|halfplane_floor]``.
    An unknown or repeated option is a ConfigError.
    """
    if isinstance(spec, dict):
        return Network.from_dict(spec)
    if not isinstance(spec, str):
        raise ConfigError("field 'network': must be a dict or string")
    text = spec.strip()
    if text.startswith("{"):
        return network_from_json(text)
    if Path(text).is_file():
        return network_from_json(Path(text).read_text())

    parts = text.split(":")
    kind = parts[0]
    if kind not in _SHORTHAND_OPTIONS:
        raise ConfigError(f"field 'network': no such file and not a shorthand: {spec!r}")
    if kind == "box":
        items = ":".join(parts[1:]).split(",")
    else:
        # path and grid give their size before the options
        items = parts[1:] if kind == "two-vertex" else parts[2:]
    opts: dict[str, str] = {}
    for item in filter(None, items):
        key, _, val = item.partition("=")
        if key not in _SHORTHAND_OPTIONS[kind]:
            raise ConfigError(
                f"field 'network': unknown option {key!r} in {spec!r}; "
                f"known: {sorted(_SHORTHAND_OPTIONS[kind])}"
            )
        if key in opts:
            raise ConfigError(f"field 'network': option {key!r} repeated in {spec!r}")
        opts[key] = val
    try:
        if kind == "two-vertex":
            return two_vertex_network(float(opts.get("c", 1.0)), float(opts.get("k", 1.0)))
        if kind == "path":
            return path_network(int(parts[1]), float(opts.get("c", 1.0)), float(opts.get("k", 1.0)))
        if kind == "grid":
            rows, cols = parts[1].lower().split("x")
            return grid_network(
                int(rows), int(cols), float(opts.get("c", 1.0)), float(opts.get("k", 1.0))
            )
        return build_box_network(
            int(opts["d"]),
            int(opts["n"]),
            float(opts.get("c", 1.0)),
            float(opts.get("k", 0.0)),
            opts.get("mode", "killed_uniform"),
        )
    except (IndexError, KeyError, ValueError, NetworkError) as exc:
        raise ConfigError(f"field 'network': bad shorthand {spec!r}: {exc}") from exc


# -- experiments ---------------------------------------------------------------


_REQUIRED = object()


def _param(cfg: ExperimentConfig, name: str, convert, default=_REQUIRED):
    """Parameter ``name`` (or ``default``) passed through ``convert``; a missing
    required parameter or a value that ``convert`` rejects is a ConfigError."""
    if name not in cfg.parameters:
        if default is _REQUIRED:
            raise ConfigError(f"parameter {name!r}: required by experiment {cfg.experiment!r}")
        return convert(default)
    value = cfg.parameters[name]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"parameter {name!r}: bad value {value!r} ({exc})") from exc


def _positive(convert):
    """``convert`` followed by a check that the value is > 0."""

    def checked(value):
        value = convert(value)
        if not value > 0:
            raise ValueError("must be positive")
        return value

    return checked


def _vertex(cfg: ExperimentConfig, net: Network, name: str) -> int:
    x = _param(cfg, name, int)
    if not 0 <= x < net.vertex_count:
        raise ConfigError(
            f"parameter {name!r}: vertex {x} outside the network's {net.vertex_count} vertices"
        )
    return x


def _exp_connectivity(cfg: ExperimentConfig) -> list[TestRecord]:
    net = parse_network_spec(cfg.network)
    x = _vertex(cfg, net, "x")
    y = _vertex(cfg, net, "y")
    gop = compute_green(net)
    exact = connectivity_probability(gop, x, y)

    def one(_i, rng):
        phi = sample_gff(gop, rng)
        config = sample_edge_configuration(phi, net, rng)
        return 1.0 if cluster_edges(config, net).same_cluster(x, y) else 0.0

    hits = np.array(replicate(cfg.replicas, cfg.seed, one))
    return [
        z_record(
            f"connectivity-v{x}-v{y}",
            "P(x <-> y) = (2/pi) arcsin(g(x,y))",
            exact,
            *mc_mean(hits),
        )
    ]


def _exp_det_ratio(cfg: ExperimentConfig) -> list[TestRecord]:
    net = parse_network_spec(cfg.network)
    edges = _param(cfg, "edges", lambda v: [(int(a), int(b)) for a, b in v])
    gop = compute_green(net)
    edge_ids = sorted(net.edge_id(u, v) for u, v in edges)
    exact = sqrt_det_ratio(net, edge_ids)
    sampler = LoopSoupSampler(net, gop, 0.5)

    def one(_i, rng):
        return 0.0 if traversed_edges(sampler.sample(rng), net)[edge_ids].any() else 1.0

    hits = np.array(replicate(cfg.replicas, cfg.seed, one))
    return [
        z_record(
            "edge-avoidance",
            "P(no loop crosses removed edges) = sqrt(det G_removed / det G)",
            exact,
            *mc_mean(hits),
        )
    ]


def _exp_coupling_law(cfg: ExperimentConfig) -> list[TestRecord]:
    net = parse_network_spec(cfg.network)
    gop = compute_green(net)
    fields, violations = collect_coupled_fields(net, gop, cfg.replicas, cfg.seed)
    return field_law_records(net, gop, fields, violations)


def _exp_occupation(cfg: ExperimentConfig) -> list[TestRecord]:
    net = parse_network_spec(cfg.network)
    gop = compute_green(net)
    alpha = _param(cfg, "alpha", _positive(float), 0.5)
    sampler = LoopSoupSampler(net, gop, alpha)
    alive = net.alive

    def one(_i, rng):
        return occupation_field(sampler.sample(rng)).values[alive]

    occ = np.array(replicate(cfg.replicas, cfg.seed, one))

    records = [
        z_record(
            f"occupation-mean-v{x}",
            "E[L^x] = alpha G(x,x)",
            alpha * gop.entry(x, x),
            *mc_mean(occ[:, i]),
        )
        for i, x in enumerate(alive)
    ]
    if alpha == 0.5:
        for i, x in enumerate(alive):
            var = gop.entry(x, x)
            records.append(
                ks_record(
                    f"occupation-half-square-v{x}",
                    "L^x =law= phi_x^2 / 2",
                    occ[:, i],
                    lambda t, v=var: half_square_cdf(t, v),
                )
            )
        for i in range(alive.size):
            for j in range(i + 1, alive.size):
                x, y = int(alive[i]), int(alive[j])
                gxx, gyy, gxy = gop.entry(x, x), gop.entry(y, y), gop.entry(x, y)
                records.append(
                    z_record(
                        f"occupation-cross-v{x}-v{y}",
                        "E[L^x L^y] = (G(x,x)G(y,y) + 2 G(x,y)^2) / 4",
                        (gxx * gyy + 2.0 * gxy**2) / 4.0,
                        *mc_mean(occ[:, i] * occ[:, j]),
                    )
                )
    return records


# relative error below which the bridge quadrature matches its closed form
QUAD_REL_ERR = 1e-8


def _exp_bridge(cfg: ExperimentConfig) -> list[TestRecord]:
    grid = _param(
        cfg, "lambda_grid", lambda v: [float(t) for t in v], [1e-4, 1e-2, 0.25, 1.0, 4.0, 25.0]
    )
    records = []
    for idx, lam in enumerate(grid):
        # realize lambda with T = 1/2 and l1 = l2 = sqrt(lam)
        problem = bridges.BridgeProblem(0.5, math.sqrt(lam), math.sqrt(lam))
        closed = bridges.zero_probability_closed_form(problem)
        quad = bridges.zero_probability_quadrature(problem, rel_tol=1e-11)
        rel = abs(quad - closed) / closed
        records.append(
            TestRecord(
                test_id=f"bridge-quadrature-lambda-{lam:g}",
                formula="integral exp(-lam/s - s) ds/sqrt(s) = sqrt(pi) exp(-2 sqrt(lam))",
                passed=rel < QUAD_REL_ERR,
                exact=closed,
                estimate=quad,
                stderr=rel,
            )
        )
        rng = derive_stream(cfg.seed, idx)
        records.append(
            z_record(
                f"bridge-first-vs-last-zero-lambda-{lam:g}",
                "P(t1 <= t2) = exp(-2 sqrt(lam))",
                closed,
                *bridges.three_process_zero_mc(problem, cfg.replicas, rng),
            )
        )
    return records


def _exp_interlacement(cfg: ExperimentConfig) -> list[TestRecord]:
    d = _param(cfg, "d", _positive(int), 3)
    n = _param(cfg, "n", _positive(int), 6)
    u = _param(cfg, "u", _positive(float), 0.25)
    coords = _param(cfg, "k", lambda v: [[int(c) for c in point] for point in v], [[0] * d])
    if any(len(point) != d for point in coords):
        raise ConfigError(f"parameter 'k': every point needs {d} coordinates")
    star_replicas = _param(cfg, "star_replicas", int, max(cfg.replicas // 4, 1))

    net = build_box_network(d, n, 1.0, 0.0, "absorbing")
    k_ids = [box_vertex_index(d, n, c) for c in coords]
    cap = compute_capacity(net, k_ids)
    records = [
        TestRecord(
            test_id="capacity-boundary-drift",
            formula="cap(K) stability under box growth (informational)",
            passed=True,
            exact=cap.capacity,
            estimate=cap.capacity_refined,
            stderr=cap.drift,
        )
    ]

    occ_trace, visited_trace = trace_occupation_batch(net, cap, u, cfg.replicas, cfg.seed)
    star = build_star_graph(d, n)
    occ_star_full, _, hit_star = star_excursion_batch(star, u, star_replicas, cfg.seed + 1)
    k_alive = net.alive_pos[k_ids]
    occ_star = occ_star_full[:, k_alive]
    hit_star_k = hit_star[:, k_alive]

    for j, x in enumerate(cap.vertices):
        est, sem = mc_mean(occ_trace[:, j])
        records.append(z_record(f"occupation-mean-u-v{x}", "E[L^x(I^u)] = u", u, est, sem))

    target_void = math.exp(-u * cap.capacity)
    vacant = "P(K in V^u) = exp(-u cap(K))"
    est_star, sem_star = mc_mean((~hit_star_k.any(axis=1)).astype(float))
    est_tr, sem_tr = mc_mean((~visited_trace.any(axis=1)).astype(float))
    records.append(z_record("vacant-probability-star", vacant, target_void, est_star, sem_star))
    records.append(z_record("vacant-probability-trace", vacant, target_void, est_tr, sem_tr))

    # the two finite-volume samplers must agree with each other
    records.append(
        z_record(
            "sampler-agreement-vacancy",
            "trace and star samplers give the same P(K vacant)",
            est_tr,
            est_star,
            math.hypot(sem_star, sem_tr),
        )
    )
    for j, x in enumerate(cap.vertices):
        m_star, s_star = mc_mean(occ_star[:, j])
        m_tr, s_tr = mc_mean(occ_trace[:, j])
        records.append(
            z_record(
                f"sampler-agreement-occupation-v{x}",
                "trace and star samplers give the same E[L^x]",
                m_tr,
                m_star,
                math.hypot(s_star, s_tr),
            )
        )
    return records


def _exp_isomorphism(cfg: ExperimentConfig) -> list[TestRecord]:
    d = _param(cfg, "d", _positive(int), 2)
    n = _param(cfg, "n", _positive(int), 5)
    u = _param(cfg, "u", _positive(float), 0.5)
    star = build_star_graph(d, n)
    return isomorphism_check(star, u, cfg.replicas, cfg.seed)


def _exp_levelset(cfg: ExperimentConfig) -> list[TestRecord]:
    d = _param(cfg, "d", _positive(int), 2)
    n = _param(cfg, "n", _positive(int), 5)
    u = _param(cfg, "u", _positive(float), 1.0)
    star = build_star_graph(d, n)
    return levelset_containment_check(star, u, cfg.replicas, cfg.seed)


EXPERIMENTS = {
    "connectivity": _exp_connectivity,
    "det-ratio": _exp_det_ratio,
    "coupling-law": _exp_coupling_law,
    "occupation-field": _exp_occupation,
    "bridge-check": _exp_bridge,
    "interlacement": _exp_interlacement,
    "isomorphism-check": _exp_isomorphism,
    "levelset-check": _exp_levelset,
}

# the experiments that read the 'network' field; the others build their own
NETWORK_EXPERIMENTS = {"connectivity", "det-ratio", "coupling-law", "occupation-field"}

# the parameter names each experiment reads; any other name is rejected
PARAMETERS = {
    "connectivity": {"x", "y"},
    "det-ratio": {"edges"},
    "coupling-law": set(),
    "occupation-field": {"alpha"},
    "bridge-check": {"lambda_grid"},
    "interlacement": {"d", "n", "u", "k", "star_replicas"},
    "isomorphism-check": {"d", "n", "u"},
    "levelset-check": {"d", "n", "u"},
}


def run_experiment(config: ExperimentConfig) -> Report:
    """Dispatch to the experiment, aggregate records, optionally write files."""
    records = EXPERIMENTS[config.experiment](config)
    report = Report(
        experiment=config.experiment,
        seed=config.seed,
        config=config.to_dict(),
        records=tuple(records),
    )
    if config.output:
        report.write(config.output)
    return report
