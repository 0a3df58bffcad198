"""Command-line surface.

Each entry of ``harness.EXPERIMENTS`` is one verification subcommand, with a
flag per parameter (``--lambda-grid`` sets ``lambda_grid``) and ``--net``
when the experiment reads a network.  It runs the config those flags stand
for, emits CSV rows plus the JSON report, and exits 0 exactly when every
check passed.  ``green``, ``sample-gff``, ``sample-loops`` and ``couple`` are
written out by hand and emit per-replica CSV rows instead.  Any rejected
input, a malformed command line included, prints one ``error:`` line and
exits 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .coupling import collect_coupled_fields, field_law_records
from .gff import cluster_edges, sample_gff
from .green import compute_green, normalized_green, sqrt_det_ratio
from .harness import (
    EXPERIMENTS,
    REQUIRED,
    ConfigError,
    ExperimentConfig,
    Param,
    _fmt,
    check_output,
    check_seed_and_replicas,
    edge_pairs,
    parse_network_spec,
    run_experiment,
)
from .loopsoup import LoopSoupSampler, occupation_field, traversed_edges
from .network import NetworkError
from .streams import replicate


def _emit(lines, out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(sub, replicas_default=100_000):
    sub.add_argument("--seed", type=int, default=1, help="master seed, 0..2^64 - 1")
    sub.add_argument("--replicas", type=int, default=replicas_default)
    sub.add_argument("--out", default=None, help="output path (CSV; report JSON alongside)")


class _Parser(argparse.ArgumentParser):
    """Rejects bad command lines like any other bad input: one ``error:``
    line and exit code 2, without the usage block.  Each flag has one
    spelling: a prefix of a flag is an unknown argument.  Subcommand parsers
    are built from this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _add_experiment(subs, name: str, entry) -> None:
    p = subs.add_parser(name, help=entry.run.__doc__)
    if entry.network:
        p.add_argument("--net", required=True)
    for param in entry.params:
        p.add_argument(
            "--" + param.name.replace("_", "-"),
            required=param.default is REQUIRED,
            help=None if param.parse in (int, float) else param.parse.__doc__,
        )
    _add_common(p, entry.replicas)


def _parameters(args, entry) -> dict:
    """The config's parameters: each given flag through its parser, and each
    constant default as it stands; a computed default stays out."""
    parameters = {}
    for param in entry.params:
        text = getattr(args, param.name)
        if text is not None:
            parameters[param.name] = param.from_text(text)
        elif param.default is not None:
            parameters[param.name] = param.default
    return parameters


def _emit_bridge_table(report, out: str | None) -> None:
    """bridge-check's own output: one CSV row per lambda, then the report."""
    lines = ["lambda,closed,quadrature,mc,stderr,z"]
    grid = report.config["parameters"]["lambda_grid"]
    # the records alternate: quadrature, then Monte Carlo, for each lambda
    for lam, quad, mc in zip(grid, report.records[::2], report.records[1::2]):
        values = (lam, quad.exact, quad.estimate, mc.estimate, mc.stderr, mc.z)
        lines.append(",".join(_fmt(v) for v in values))
    _emit(lines, out)
    if out:
        Path(out).with_suffix(".json").write_text(report.to_json() + "\n")
    else:
        print(report.to_json())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopfield",
        description="Loop soups, free fields and interlacements on finite networks, "
        "with seeded statistical verification of their exact couplings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("green", help="print Green matrix, correlations and det ratios as CSV")
    p.add_argument("--net", required=True)
    p.add_argument("--remove", default=None, help="edges to remove, e.g. '0-1;1-2'")
    p.add_argument("--out", default=None)

    p = subs.add_parser("sample-gff", help="emit sampled free fields, one CSV row per replica")
    p.add_argument("--net", required=True)
    _add_common(p, replicas_default=10)

    p = subs.add_parser("sample-loops", help="emit per-replica loop soup summaries")
    p.add_argument("--net", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    _add_common(p, replicas_default=10)

    p = subs.add_parser("couple", help="emit coupled fields and verify the field law")
    p.add_argument("--net", required=True)
    _add_common(p, replicas_default=20_000)

    for name, entry in EXPERIMENTS.items():
        _add_experiment(subs, name, entry)

    p = subs.add_parser("run", help="run an experiment from a JSON config file")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        return _dispatch(parser.parse_args(argv))
    except (ConfigError, NetworkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    # the sampling subcommands build no ExperimentConfig; check them by its rule
    if "seed" in args:
        check_seed_and_replicas(args.seed, args.replicas)
    # an output that cannot be written is bad input, found before the run
    if getattr(args, "out", None):
        check_output(args.out)

    if cmd == "green":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        lines = ["section,i,j,value"]
        alive = net.alive
        for section, value in (("G", gop.entry), ("g", partial(normalized_green, gop))):
            for i, x in enumerate(alive):
                for y in alive[i:]:
                    lines.append(f"{section},{x},{y},{_fmt(value(int(x), int(y)))}")
        if args.remove:
            pairs = Param("remove", edge_pairs, None).from_text(args.remove)
            ids = [net.edge_id(u, v) for u, v in pairs]
            lines.append(f"det-ratio,,,{_fmt(sqrt_det_ratio(net, ids))}")
        _emit(lines, args.out)
        return 0

    if cmd == "sample-gff":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        header = "replica," + ",".join(f"phi_{x}" for x in range(net.vertex_count))

        def row(r, rng):
            return f"{r}," + ",".join(_fmt(v) for v in sample_gff(gop, rng))

        _emit([header] + replicate(args.replicas, args.seed, row), args.out)
        return 0

    if cmd == "sample-loops":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        sampler = LoopSoupSampler(net, gop, args.alpha)
        lines = [
            "replica,loop_count,"
            + ",".join(f"occ_{x}" for x in range(net.vertex_count))
            + ",cluster_count"
        ]
        for soups in sampler.blocks(args.replicas, args.seed):
            loop_counts = np.diff(soups.replica_starts).tolist()
            cluster_counts = cluster_edges(traversed_edges(soups, net), net).cluster_count.tolist()
            for occ, loops, clusters in zip(occupation_field(soups), loop_counts, cluster_counts):
                values = ",".join(_fmt(v) for v in occ)
                lines.append(f"{len(lines) - 1},{loops},{values},{clusters}")
        _emit(lines, args.out)
        return 0

    if cmd == "couple":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        fields, violations = collect_coupled_fields(net, gop, args.replicas, args.seed)
        header = "replica," + ",".join(f"phi_{x}" for x in range(net.vertex_count))
        lines = [header]
        phi = np.zeros(net.vertex_count)
        for r, values in enumerate(fields):
            phi[net.alive] = values
            lines.append(f"{r}," + ",".join(_fmt(v) for v in phi))
        _emit(lines, args.out)
        records = field_law_records(net, gop, fields, violations)
        doc = json.dumps([rec.to_dict() for rec in records], indent=2)
        if args.out:
            Path(args.out).with_suffix(".verify.json").write_text(doc + "\n")
        else:
            print(doc)
        return 0 if all(rec.passed for rec in records) else 1

    if cmd == "run":
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = ExperimentConfig(
            experiment=cmd,
            seed=args.seed,
            replicas=args.replicas,
            network=getattr(args, "net", None),
            parameters=_parameters(args, EXPERIMENTS[cmd]),
            # bridge-check writes its own files
            output=None if cmd == "bridge-check" else args.out,
        )
    started = time.perf_counter()
    report = run_experiment(cfg)
    # runtime goes to stderr only; report files stay byte-identical per seed
    print(f"runtime: {time.perf_counter() - started:.2f}s", file=sys.stderr)
    if cmd == "bridge-check":
        _emit_bridge_table(report, args.out)
    elif not cfg.output:
        csv.writer(sys.stdout).writerows(report.csv_rows())
        print(report.to_json())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
