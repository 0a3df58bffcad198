"""The benchmark's view of the package: names it wraps and configs it runs.

``bench/tracer.py`` wraps loopfield functions by name and ``bench/workloads.py``
builds experiment configs and makes their set-up calls; a rename, deletion,
signature change or stricter validation that breaks either shows up here in
seconds instead of in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from loopfield.green import compute_green
from loopfield.harness import parse_network_spec
from loopfield.loopsoup import LoopSoupSampler
from loopfield.streams import derive_stream

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module_name, qualname, _bucket in _load("tracer").WRAPPED:
        module = importlib.import_module(f"loopfield.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            # methods are wrapped on the class that defines them
            assert attr in getattr(module, owner_name).__dict__, (module_name, qualname)
        else:
            assert callable(getattr(module, attr, None)), (module_name, qualname)


@pytest.mark.parametrize("tiny", [False, True])
def test_workload_configs_validate(tiny):
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        assert workloads.make_configs(name, 1, tiny=tiny)


def test_workload_construction_calls_run():
    # the set-up calls the benchmark times, with the arguments it passes
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        for cfg in workloads.make_configs(name, 1, tiny=True):
            assert workloads.construct(cfg), (name, cfg.experiment)


def test_green_operator_reports_its_size():
    # bench/tracer.py reads green.alive_n_max from the energy form's shape
    net = parse_network_spec("box:d=2,n=3,mode=absorbing")
    assert compute_green(net).matrix_a.shape[0] == net.alive.size == 25


def test_tracer_counts_loops_of_a_soup():
    # bench/tracer.py reads loopsoup.loops and loopsoup.loop_steps from each sample
    net = parse_network_spec("grid:3x3")
    sampler = LoopSoupSampler(net, compute_green(net), 0.5)
    soup = sampler.sample(derive_stream(1, 8))
    assert soup.starts.size - 1 == 2  # a replica with two loops
    tracer = _load("tracer").Tracer()
    tracer._after_sample((sampler,), soup)
    assert tracer.loops == soup.starts.size - 1
    assert tracer.loop_steps == soup.vertices.size
