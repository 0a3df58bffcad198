import argparse
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from loopfield import streams
from loopfield.cli import build_parser, main
from loopfield.harness import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    parse_network_spec,
    run_experiment,
)
from loopfield.network import box_vertex_index
from loopfield.streams import derive_stream, replicate


def test_derive_stream_properties():
    a = derive_stream(99, 0).random(4)
    b = derive_stream(99, 1).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, derive_stream(99, 0).random(4))
    # equidistribution smoke test: chi-square over 16 equal bins
    u = derive_stream(99, 7).random(200_000)
    counts, _ = np.histogram(u, bins=16, range=(0.0, 1.0))
    assert sps.chisquare(counts).pvalue > 1e-4
    with pytest.raises(ValueError):
        derive_stream(99, -1)


def test_replicate_runs_replicas_in_index_order():
    calls = []

    def fn(i, rng):
        calls.append(i)
        return i, float(rng.random())

    results = replicate(40, 7, fn)
    assert calls == list(range(40))
    assert results == [(i, float(derive_stream(7, i).random())) for i in range(40)]


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig("no-such-experiment", seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig("connectivity", seed=1, replicas=0)
    with pytest.raises(ConfigError):
        ExperimentConfig("connectivity", seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "connectivity"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "connectivity", "seed": 1, "bogus": 2})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "connectivity", "seed": None})
    with pytest.raises(ConfigError):
        ExperimentConfig("connectivity", seed=1, parameters=[("x", 0)])
    # built directly, not through from_dict
    with pytest.raises(ConfigError, match="'seed'"):
        ExperimentConfig("connectivity", seed=None)
    with pytest.raises(ConfigError, match="'replicas'"):
        ExperimentConfig("connectivity", seed=1, replicas="many")
    assert ExperimentConfig.from_dict({"experiment": "connectivity", "seed": "7"}).seed == 7


def test_unknown_parameters_are_rejected():
    # a misspelled name must fail before any work, not be ignored
    with pytest.raises(ConfigError, match="'star_replica'"):
        ExperimentConfig("interlacement", seed=1, parameters={"star_replica": 500})
    with pytest.raises(ConfigError, match="'ks_pvalue'"):
        ExperimentConfig("connectivity", seed=1, parameters={"x": 0, "y": 1, "ks_pvalue": 0.1})


def test_config_round_trip():
    cfg = ExperimentConfig(
        "connectivity",
        seed=5,
        replicas=100,
        network="two-vertex",
        parameters={"x": 0, "y": 1},
    )
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


def test_parse_network_spec(tmp_path):
    assert parse_network_spec("two-vertex").vertex_count == 2
    assert parse_network_spec("two-vertex:k=0.5").killing.tolist() == [0.5, 0.5]
    two = parse_network_spec("two-vertex:c=5")
    assert two.edge_ends.tolist() == [[0, 1]] and two.conductances.tolist() == [5.0]
    assert parse_network_spec("path:4:k=2").killing[0] == 2.0
    assert parse_network_spec("grid:2x3").vertex_count == 6
    box = parse_network_spec("box:d=2,n=1,k=1,mode=killed_uniform")
    assert box.vertex_count == 9
    inline = parse_network_spec('{"vertices": 2, "edges": [[0, 1, 1.0]], "killing": [1, 1]}')
    assert inline.vertex_count == 2
    path = tmp_path / "net.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1, 2.0]], "killing": [0.5, 0.5]}')
    from_file = parse_network_spec(str(path))
    assert from_file.conductances[0] == 2.0
    with pytest.raises(ConfigError):
        parse_network_spec("no-such-thing")
    with pytest.raises(ConfigError):
        parse_network_spec("grid:wrong")


def test_run_experiment_connectivity_and_det_ratio():
    cfg = ExperimentConfig(
        "connectivity",
        seed=101,
        replicas=20_000,
        network="two-vertex",
        parameters={"x": 0, "y": 1},
    )
    report = run_experiment(cfg)
    assert report.all_passed
    assert report.records[0].exact == pytest.approx(1.0 / 3.0, abs=1e-12)

    cfg = ExperimentConfig(
        "det-ratio",
        seed=102,
        replicas=20_000,
        network="two-vertex",
        parameters={"edges": [[0, 1]]},
    )
    report = run_experiment(cfg)
    assert report.all_passed
    assert report.records[0].exact == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_connectivity_report_does_not_depend_on_chunk(monkeypatch):
    cfg = ExperimentConfig(
        "connectivity", seed=7, replicas=50, network="grid:3x3", parameters={"x": 0, "y": 8}
    )
    whole = run_experiment(cfg).to_json()
    # 9 vertices + 12 edges: chunks of 3 replicas, the last one short
    monkeypatch.setattr(streams, "CHUNK_VALUES", 3 * 21)
    assert run_experiment(cfg).to_json() == whole


def test_coupling_law_report_does_not_depend_on_chunk(monkeypatch):
    cfg = ExperimentConfig("coupling-law", seed=8, replicas=50, network="grid:3x3")
    whole = run_experiment(cfg).to_json()
    # a row of 9 occupations, 12 uniforms and 9 sign bits: chunks of 3 replicas
    monkeypatch.setattr(streams, "CHUNK_VALUES", 3 * 30)
    assert run_experiment(cfg).to_json() == whole


def test_reports_are_byte_identical():
    cfg = dict(
        experiment="occupation-field", seed=103, replicas=2_000, network="two-vertex"
    )
    a = run_experiment(ExperimentConfig(**cfg)).to_json()
    b = run_experiment(ExperimentConfig(**cfg)).to_json()
    assert a == b
    c = run_experiment(ExperimentConfig(**{**cfg, "seed": 104})).to_json()
    assert a != c


def test_report_csv_has_full_precision(tmp_path):
    cfg = ExperimentConfig(
        "connectivity",
        seed=105,
        replicas=2_000,
        network="two-vertex",
        parameters={"x": 0, "y": 1},
        output=str(tmp_path / "report.csv"),
    )
    report = run_experiment(cfg)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    assert csv_path.exists() and json_path.exists()
    import csv as csvmod

    with csv_path.open() as fh:
        rows = list(csvmod.reader(fh))
    exact = float(rows[1][2])
    assert exact == report.records[0].exact  # 17 significant digits round-trip
    doc = json.loads(json_path.read_text())
    assert doc["all_passed"] is True
    assert doc["config"]["seed"] == 105


def test_every_acceptance_experiment_is_registered():
    for name, entry in EXPERIMENTS.items():
        # the run function takes the table's parameters, and the network if it reads one
        names = [param.name for param in entry.params]
        expected = ["cfg"] + (["net"] if entry.network else []) + names
        assert list(inspect.signature(entry.run).parameters) == expected, name
        assert entry.replicas >= 1 and entry.run.__doc__, name
    assert set(EXPERIMENTS) == {
        "connectivity",
        "det-ratio",
        "coupling-law",
        "occupation-field",
        "bridge-check",
        "interlacement",
        "isomorphism-check",
        "levelset-check",
    }


def test_cli_green_and_connectivity(tmp_path, capsys):
    assert main(["green", "--net", "two-vertex"]) == 0
    out = capsys.readouterr().out
    # G(0, 1) = 1/3, printed to 17 digits as the double nearest 1/3
    assert "G,0,1,0.33333333333333331" in out

    code = main(
        [
            "connectivity",
            "--net",
            "two-vertex",
            "--x",
            "0",
            "--y",
            "1",
            "--replicas",
            "5000",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "conn.csv"),
        ]
    )
    assert code == 0
    assert (tmp_path / "conn.csv").exists()
    assert (tmp_path / "conn.json").exists()


def test_cli_run_config_and_errors(tmp_path, capsys):
    cfg = {
        "experiment": "bridge-check",
        "seed": 9,
        "replicas": 5000,
        "parameters": {"lambda_grid": [0.25, 1.0]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["green", "--net", "garbage-spec"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


PARAMETER = "error: parameter "
NETWORK = "error: field 'network': "
REPLICAS = "error: field 'replicas': "
SEED = "error: field 'seed': "
OUTPUT = "error: output '/nonexistent/"
GRID = PARAMETER + "'lambda_grid': "


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["connectivity", "--net", "two-vertex", "--x", "0", "--y", "7"], None, PARAMETER),
        (
            None,
            {"experiment": "connectivity", "network": "two-vertex", "parameters": {"y": 1}},
            PARAMETER,
        ),
        (None, {"experiment": "det-ratio", "network": "two-vertex"}, PARAMETER),
        (
            None,
            {"experiment": "det-ratio", "network": "two-vertex", "parameters": {"edges": 5}},
            PARAMETER,
        ),
        (
            None,
            {"experiment": "connectivity", "network": "path:2", "parameters": {"x": None}},
            PARAMETER,
        ),
        (None, {"experiment": "bridge-check", "parameters": {"lambda_grid": 3}}, PARAMETER),
        (None, {"experiment": "interlacement", "parameters": {"star_replica": 500}}, PARAMETER),
        (
            None,
            {"experiment": "interlacement", "parameters": {"d": 3, "n": 5, "k": [[0, 0]]}},
            PARAMETER,
        ),
        (None, {"experiment": "interlacement", "parameters": {"u": -0.5}}, PARAMETER),
        (None, {"experiment": "isomorphism-check", "parameters": {"u": -0.5}}, PARAMETER),
        (None, {"experiment": "levelset-check", "parameters": {"u": 0.0}}, PARAMETER),
        (
            None,
            {"experiment": "occupation-field", "network": "path:3", "parameters": {"alpha": 0}},
            PARAMETER,
        ),
        (None, {"experiment": "isomorphism-check", "parameters": {"d": 0}}, PARAMETER),
        (None, {"experiment": "levelset-check", "parameters": {"n": -1}}, PARAMETER),
        (["green", "--net", "path:3:q=2"], None, NETWORK + "unknown option 'q'"),
        (["green", "--net", "box:d=2,n=2,k=1,zz=1"], None, NETWORK + "unknown option 'zz'"),
        (["green", "--net", "path:3:c=2:c=9"], None, NETWORK + "option 'c' repeated"),
        # neither argv nor config: the config file does not exist
        (None, None, "error: config file "),
        (None, "5", "error: config must be a JSON object"),
        (None, {"experiment": "bridge-check", "network": "two-vertex"}, NETWORK),
        (None, {"experiment": "interlacement", "network": "two-vertex"}, NETWORK),
        (None, {"experiment": "isomorphism-check", "network": "two-vertex"}, NETWORK),
        (None, {"experiment": "levelset-check", "network": 7}, NETWORK),
        (["sample-gff", "--net", "two-vertex", "--replicas", "0"], None, REPLICAS),
        (["sample-loops", "--net", "two-vertex", "--replicas", "-3"], None, REPLICAS),
        (["couple", "--net", "two-vertex", "--replicas", "0"], None, REPLICAS),
        (["sample-gff", "--net", "two-vertex", "--seed", "-1"], None, SEED),
        (["sample-loops", "--net", "two-vertex", "--seed", str(2**64)], None, SEED),
        (["couple", "--net", "two-vertex", "--seed", "-1"], None, SEED),
        (["green", "--net", "path:3", "--out", "/nonexistent/x.csv"], None, OUTPUT),
        (
            ["connectivity", "--net", "path:3", "--x", "0", "--y", "2",
             "--out", "/nonexistent/x.csv"],
            None,
            OUTPUT,
        ),
        (["couple", "--net", "path:3", "--out", "/nonexistent/d/x.csv"], None, OUTPUT),
        (
            None,
            {"experiment": "bridge-check", "output": "/nonexistent/x.csv"},
            OUTPUT,
        ),
        (None, {"experiment": "bridge-check", "output": 5}, "error: field 'output': "),
        (
            None,
            {
                "experiment": "connectivity",
                "network": "two-vertex",
                "parameters": {"x": 0, "y": 1, "z_limit": 5.0},
            },
            PARAMETER + "'z_limit'",
        ),
        (None, {"experiment": "coupling-law", "parameters": {"ks_pvalue": 0.1}}, PARAMETER),
        (None, {"experiment": "bridge-check", "parameters": {"quad_rel_err": 1e-8}}, PARAMETER),
        (["bridge-check", "--lambda-grid", "inf"], None, GRID),
        (["bridge-check", "--lambda-grid", "1,-1"], None, GRID),
        (["bridge-check", "--lambda-grid", "0"], None, GRID),
        (None, {"experiment": "bridge-check", "parameters": {"lambda_grid": [math.nan]}}, GRID),
        (["bridge-check", "--lambda-grid", "1e-4,1.000001e-4"], None, GRID),
        (["bridge-check", "--lambda-grid", ""], None, GRID),
        (["bridge-check", "--lambda-grid", "abc"], None, GRID),
        (["interlacement", "--u", "inf"], None, PARAMETER + "'u'"),
        (["isomorphism-check", "--u", "inf"], None, PARAMETER + "'u'"),
        (["levelset-check", "--u", "inf"], None, PARAMETER + "'u'"),
        (
            None,
            {
                "experiment": "occupation-field",
                "network": "path:3",
                "parameters": {"alpha": math.inf},
            },
            PARAMETER + "'alpha'",
        ),
        (
            ["sample-loops", "--net", "two-vertex", "--alpha", "nan"],
            None,
            "error: alpha must be finite and positive",
        ),
        (["det-ratio", "--net", "two-vertex", "--edges", "abc"], None, PARAMETER + "'edges'"),
        (["green", "--net", "path:3", "--remove", "0-x"], None, PARAMETER + "'remove'"),
        (["interlacement", "--k", "a,b"], None, PARAMETER + "'k'"),
        (["interlacement", "--k", ";"], None, PARAMETER + "'k'"),
        (["interlacement", "--n", "5", "--k", "4,0,0"], None, PARAMETER + "'k'"),
        (["interlacement", "--n", "5", "--k", "7,0,0"], None, PARAMETER + "'k'"),
        (
            [
                "connectivity",
                "--net",
                '{"vertices": 2, "edges": [[0, 1, 1.0]], "killing": [1, 1], "bogus": 3}',
                "--x",
                "0",
                "--y",
                "1",
            ],
            None,
            "error: network key 'bogus'",
        ),
        (
            ["green", "--net", "path:3:k=inf"],
            None,
            NETWORK + "bad shorthand 'path:3:k=inf': at least one vertex must be alive",
        ),
        (
            None,
            {
                "experiment": "connectivity",
                "network": {"vertices": 2.7, "edges": [[0, 1, 1.0]], "killing": [1, 1]},
                "parameters": {"x": 0, "y": 1},
            },
            "error: vertices must be an integer",
        ),
        (
            None,
            {
                "experiment": "connectivity",
                "network": {"vertices": 2, "edges": [[0.5, 1, 1.0]], "killing": [1, 1]},
                "parameters": {"x": 0, "y": 1},
            },
            "error: edge (0.5, 1) needs integer ends",
        ),
        (
            None,
            {"experiment": "connectivity", "network": "path:3", "parameters": {"x": 0.7, "y": 2}},
            PARAMETER + "'x': bad value 0.7 (must be an integer)",
        ),
        (["connectivity", "--net", "two-vertex", "--x", "a", "--y", "1"], None, PARAMETER + "'x'"),
        (["interlacement", "--d", "2.5"], None, PARAMETER + "'d'"),
        (
            ["sample-gff", "--net", "two-vertex", "--replicas", "abc"],
            None,
            "error: argument --replicas: invalid int value",
        ),
        (["det-ratio", "--net", "path:3"], None, "error: the following arguments are required"),
        ([], None, "error: the following arguments are required: command"),
        (["det-ratio", "--net", "path:3", "--edges", ";"], None, PARAMETER + "'edges'"),
        (
            None,
            {"experiment": "det-ratio", "network": "path:3", "parameters": {"edges": []}},
            PARAMETER + "'edges'",
        ),
        (["connectivity", "--net", "path:3", "--x", "1", "--y", "1"], None, PARAMETER + "'y'"),
        # a box of size 1 has no interior, so no star graph
        (["interlacement", "--n", "1"], None, PARAMETER + "'n'"),
        (["levelset-check", "--n", "1"], None, PARAMETER + "'n'"),
        # a prefix of --star-replicas is not another spelling of it
        (
            ["interlacement", "--star-replica", "50"],
            None,
            "error: unrecognized arguments: --star-replica",
        ),
        # one replica has no standard error, so every z-record would pass
        (["occupation-field", "--net", "path:3", "--replicas", "1"], None, REPLICAS),
        (
            ["connectivity", "--net", "two-vertex", "--x", "0", "--y", "1", "--replicas", "1"],
            None,
            REPLICAS,
        ),
        (["det-ratio", "--net", "path:3", "--edges", "0-1", "--replicas", "1"], None, REPLICAS),
        (["interlacement", "--replicas", "1"], None, REPLICAS),
        (["couple", "--net", "two-vertex", "--replicas", "1"], None, REPLICAS),
        (None, {"experiment": "coupling-law", "network": "path:3", "replicas": 1}, REPLICAS),
        (["interlacement", "--star-replicas", "1"], None, PARAMETER + "'star_replicas'"),
    ],
    ids=[
        "vertex-out-of-range",
        "connectivity-without-x",
        "det-ratio-without-edges",
        "det-ratio-edges-not-pairs",
        "connectivity-x-null",
        "bridge-check-grid-not-list",
        "interlacement-unknown-name",
        "interlacement-short-point",
        "interlacement-negative-u",
        "isomorphism-negative-u",
        "levelset-zero-u",
        "occupation-zero-alpha",
        "isomorphism-zero-d",
        "levelset-negative-n",
        "shorthand-unknown-option",
        "box-shorthand-unknown-option",
        "shorthand-repeated-option",
        "config-file-missing",
        "config-not-an-object",
        "bridge-check-network-unread",
        "interlacement-network-unread",
        "isomorphism-network-unread",
        "levelset-network-unread",
        "sample-gff-zero-replicas",
        "sample-loops-negative-replicas",
        "couple-zero-replicas",
        "sample-gff-negative-seed",
        "sample-loops-seed-2^64",
        "couple-negative-seed",
        "green-out-unwritable",
        "connectivity-out-unwritable",
        "couple-out-unwritable",
        "config-output-unwritable",
        "config-output-not-a-string",
        "connectivity-z_limit",
        "coupling-law-ks_pvalue",
        "bridge-check-quad_rel_err",
        "bridge-check-infinite-lambda",
        "bridge-check-negative-lambda",
        "bridge-check-zero-lambda",
        "bridge-check-nan-lambda",
        "bridge-check-repeated-record-id",
        "bridge-check-empty-grid",
        "bridge-check-grid-not-a-number",
        "interlacement-infinite-u",
        "isomorphism-infinite-u",
        "levelset-infinite-u",
        "occupation-infinite-alpha",
        "sample-loops-nan-alpha",
        "det-ratio-edges-not-a-number",
        "green-remove-not-a-number",
        "interlacement-k-not-a-number",
        "interlacement-empty-k",
        "interlacement-k-within-margin",
        "interlacement-k-outside-box",
        "network-unknown-key",
        "green-no-alive-vertex",
        "network-non-integral-vertices",
        "network-non-integral-edge-end",
        "connectivity-non-integral-x",
        "connectivity-x-not-a-number",
        "interlacement-fractional-d-flag",
        "sample-gff-replicas-not-a-number",
        "det-ratio-edges-flag-missing",
        "no-subcommand",
        "det-ratio-no-edge-flag",
        "det-ratio-no-edge",
        "connectivity-x-equals-y",
        "interlacement-n-1",
        "levelset-n-1",
        "interlacement-abbreviated-flag",
        "occupation-one-replica",
        "connectivity-one-replica",
        "det-ratio-one-replica",
        "interlacement-one-replica",
        "couple-one-replica",
        "config-one-replica",
        "interlacement-one-star-replica",
    ],
)
def test_cli_bad_input_exits_2(tmp_path, capsys, argv, config, message):
    path = tmp_path / "cfg.json"
    if isinstance(config, str):
        path.write_text(config)
    elif config is not None:
        path.write_text(json.dumps({"seed": 1, "replicas": 10, **config}))
    if argv is None:
        argv = ["run", "--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)


@pytest.mark.parametrize(
    "experiment, name, value",
    [
        ("interlacement", "u", -0.5),
        ("interlacement", "star_replicas", 0),
        ("isomorphism-check", "u", 0.0),
        ("levelset-check", "d", 0),
        ("levelset-check", "n", -1),
        ("occupation-field", "alpha", -1.0),
        ("occupation-field", "alpha", float("nan")),
    ],
)
def test_parameter_ranges_name_the_parameter(experiment, name, value):
    network = "path:3" if EXPERIMENTS[experiment].network else None
    cfg = ExperimentConfig(experiment, seed=1, network=network, parameters={name: value})
    with pytest.raises(ConfigError, match=f"parameter '{name}'.*must be positive"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "experiment, parameters, name",
    [
        ("connectivity", {"x": 0.7, "y": 2}, "x"),
        ("connectivity", {"x": 0, "y": 2.9}, "y"),
        ("det-ratio", {"edges": [[0.5, 1.2]]}, "edges"),
        ("interlacement", {"d": 2.5}, "d"),
        ("interlacement", {"n": 4.5}, "n"),
        ("interlacement", {"d": 2, "k": [[0, 0.5]]}, "k"),
        ("interlacement", {"star_replicas": 10.5}, "star_replicas"),
        ("isomorphism-check", {"d": 1.5}, "d"),
        ("levelset-check", {"n": 3.9, "d": 2}, "n"),
        ("levelset-check", {"n": 3, "d": 2.2}, "d"),
        ("levelset-check", {"n": math.inf}, "n"),
    ],
)
def test_integer_parameters_reject_fractions(experiment, parameters, name):
    # int() would truncate these to another vertex, edge or box size
    network = "path:3" if EXPERIMENTS[experiment].network else None
    cfg = ExperimentConfig(experiment, seed=1, network=network, parameters=parameters)
    with pytest.raises(ConfigError, match=f"parameter '{name}'.*must be an integer"):
        run_experiment(cfg)


def test_integer_parameters_accept_integral_floats():
    cfg = ExperimentConfig(
        "connectivity", seed=1, replicas=10, network="path:3", parameters={"x": 0.0, "y": 2.0}
    )
    assert [r.test_id for r in run_experiment(cfg).records] == ["connectivity-v0-v2"]
    cfg = ExperimentConfig(
        "det-ratio", seed=1, replicas=10, network="path:3", parameters={"edges": [[1.0, 2.0]]}
    )
    assert [r.test_id for r in run_experiment(cfg).records] == ["edge-avoidance"]


def test_cli_sampling_commands(tmp_path, capsys):
    assert (
        main(["sample-gff", "--net", "two-vertex", "--replicas", "3", "--seed", "1"]) == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "replica,phi_0,phi_1"
    assert len(out) == 4

    assert (
        main(
            [
                "sample-loops",
                "--net",
                "two-vertex",
                "--alpha",
                "0.5",
                "--replicas",
                "5",
                "--seed",
                "2",
                "--out",
                str(tmp_path / "loops.csv"),
            ]
        )
        == 0
    )
    lines = (tmp_path / "loops.csv").read_text().splitlines()
    assert lines[0] == "replica,loop_count,occ_0,occ_1,cluster_count"
    assert len(lines) == 6

    code = main(
        [
            "couple",
            "--net",
            "two-vertex",
            "--replicas",
            "4000",
            "--seed",
            "4",
            "--out",
            str(tmp_path / "fields.csv"),
        ]
    )
    assert code == 0
    assert (tmp_path / "fields.csv").exists()
    verify = json.loads((tmp_path / "fields.verify.json").read_text())
    assert all(rec["pass"] for rec in verify)


def test_sampling_commands_accept_one_replica(capsys):
    # they print per-replica rows and test nothing, so one replica is enough
    for argv in (["sample-gff", "--net", "two-vertex"], ["sample-loops", "--net", "path:3"]):
        assert main([*argv, "--replicas", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


def test_default_star_replicas_have_a_standard_error():
    # a quarter of 5 replicas rounds down to 1; the star sampler gets 2
    cfg = ExperimentConfig("interlacement", seed=3, replicas=5, parameters={"d": 2, "n": 4})
    assert all(math.isfinite(r.stderr) for r in run_experiment(cfg).records)


def test_cli_interlacement_default_k_is_the_origin(tmp_path, capsys):
    # the default K is the origin in --d dimensions, not a fixed 3-d point
    out = tmp_path / "inter.csv"
    argv = ["interlacement", "--d", "2", "--n", "4", "--replicas", "400", "--out", str(out)]
    assert main(argv) in (0, 1)
    report = json.loads(out.with_suffix(".json").read_text())
    origin = box_vertex_index(2, 4, [0, 0])
    assert report["config"]["parameters"] == {"d": 2, "n": 4, "u": 0.25}
    assert f"occupation-mean-u-v{origin}" in [r["test"] for r in report["records"]]


# one case per experiment id: the subcommand's flags and the config they stand for
TABLE_VIEWS = [
    ("connectivity", ["--net", "grid:3x3", "--x", "0", "--y", "8"], "grid:3x3", {"x": 0, "y": 8}),
    ("det-ratio", ["--net", "path:3", "--edges", "0-1;1-2"], "path:3", {"edges": [[0, 1], [1, 2]]}),
    ("coupling-law", ["--net", "path:3"], "path:3", {}),
    ("occupation-field", ["--net", "two-vertex"], "two-vertex", {"alpha": 0.5}),
    ("bridge-check", ["--lambda-grid", "0.25,4"], None, {"lambda_grid": [0.25, 4.0]}),
    (
        "interlacement",
        ["--d", "2", "--n", "4", "--star-replicas", "100"],
        None,
        {"d": 2, "n": 4, "u": 0.25, "star_replicas": 100},
    ),
    ("isomorphism-check", ["--n", "3", "--u", "0.75"], None, {"d": 2, "n": 3, "u": 0.75}),
    ("levelset-check", ["--n", "4"], None, {"d": 2, "n": 4, "u": 1.0}),
]


@pytest.mark.parametrize(
    "experiment, flags, network, parameters", TABLE_VIEWS, ids=[c[0] for c in TABLE_VIEWS]
)
def test_cli_is_a_view_of_the_table(tmp_path, capsys, experiment, flags, network, parameters):
    # a constant default is written into the parameters, a computed one is not
    out = str(tmp_path / "report.csv")
    code = main([experiment, *flags, "--seed", "13", "--replicas", "300", "--out", out])
    written = (tmp_path / "report.json").read_text()
    cfg = ExperimentConfig(
        experiment,
        seed=13,
        replicas=300,
        network=network,
        parameters=parameters,
        # bridge-check writes its own files and echoes no output
        output=None if experiment == "bridge-check" else out,
    )
    report = run_experiment(cfg)
    assert written == report.to_json() + "\n"
    assert code == (0 if report.all_passed else 1)


def test_cli_subcommands_are_the_table_and_the_hand_written_ones():
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    hand_written = {"green", "sample-gff", "sample-loops", "couple", "run"}
    assert set(subs.choices) == set(EXPERIMENTS) | hand_written
    assert {entry[0] for entry in TABLE_VIEWS} == set(EXPERIMENTS)


def test_readme_command_lines_are_accepted(tmp_path, monkeypatch, capsys):
    # every documented command line but `run` (which needs a config file)
    # parses and runs; a renamed flag or subcommand would exit 2
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("loopfield ")]
    lines = [argv for argv in lines if argv[0] != "run"]
    assert len(lines) >= len(EXPERIMENTS)
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    monkeypatch.chdir(tmp_path)
    rejected = []
    for argv in lines:
        sub = subs.choices.get(argv[0])
        if sub is not None and "--replicas" in sub._option_string_actions:
            argv = [*argv, "--replicas", "300"]
        code, err = main(argv), capsys.readouterr().err
        if code == 2:
            rejected.append((argv, err))
    assert rejected == []


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # only the runs that test a law by KS or integrate a bridge pay for these
    code = (
        "import sys, loopfield, loopfield.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
