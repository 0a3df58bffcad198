"""Smoke test of ``tools/report_digest.py`` on the benchmark's tiny configs."""

import hashlib
import importlib.util
from pathlib import Path

from loopfield.harness import run_experiment

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_hashes_each_tiny_config():
    tool = _load()
    assert tool._seed_range("1:10") == range(1, 11)
    assert tool._seed_range("4") == range(4, 5)
    for name in tool.workloads.WORKLOADS:
        configs = tool.workloads.make_configs(name, 1, tiny=True)
        lines = list(tool.digests(name, [1], tiny=True))
        assert [experiment for _, experiment, _ in lines] == [cfg.experiment for cfg in configs]
        assert all(seed == 1 and len(digest) == 40 for seed, _, digest in lines)
    # the digest is the sha1 of the report's JSON text
    text = run_experiment(configs[-1]).to_json()
    assert lines[-1][2] == hashlib.sha1(text.encode()).hexdigest()
