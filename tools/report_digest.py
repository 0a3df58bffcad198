"""Digests of the benchmark's reports, to show that a change leaves them byte-identical.

Run from any directory:

    python3 tools/report_digest.py --workload small-net --seeds 1:10
    python3 tools/report_digest.py --workload all --seeds 1:10 > digests.txt

For each workload seed from A to B inclusive and each experiment config that
``bench/workloads.make_configs`` builds for it, one line
``<workload> <seed> <experiment> <sha1>`` gives the sha1 of
``run_experiment(cfg).to_json()``.  Two checkouts give the same lines exactly
when every report is the same byte for byte.  The package is imported from this
checkout's ``src`` and the configs from its ``bench``, which is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from loopfield.harness import run_experiment  # noqa: E402


def digests(workload: str, seeds, tiny: bool = False):
    """Yield ``(seed, experiment, sha1 hex)`` for each config of ``workload``
    at each seed, in order."""
    for seed in seeds:
        for cfg in workloads.make_configs(workload, seed, tiny=tiny):
            text = run_experiment(cfg).to_json()
            yield seed, cfg.experiment, hashlib.sha1(text.encode()).hexdigest()


def _seed_range(text: str) -> range:
    first, sep, last = text.partition(":")
    if not sep:
        last = first
    return range(int(first), int(last) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seeds", type=_seed_range, default="1", help="A:B, inclusive")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for seed, experiment, digest in digests(name, args.seeds):
            print(name, seed, experiment, digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
