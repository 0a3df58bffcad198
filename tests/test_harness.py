import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from loopfield.cli import main
from loopfield.harness import (
    ConfigError,
    EXPERIMENTS,
    NETWORK_EXPERIMENTS,
    PARAMETERS,
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
    assert parse_network_spec("two-vertex:c=5").edges == ((0, 1, 5.0),)
    assert parse_network_spec("path:4:k=2").killing[0] == 2.0
    assert parse_network_spec("grid:2x3").vertex_count == 6
    box = parse_network_spec("box:d=2,n=1,k=1,mode=killed_uniform")
    assert box.vertex_count == 9
    inline = parse_network_spec('{"vertices": 2, "edges": [[0, 1, 1.0]], "killing": [1, 1]}')
    assert inline.vertex_count == 2
    path = tmp_path / "net.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1, 2.0]], "killing": [0.5, 0.5]}')
    from_file = parse_network_spec(str(path))
    assert from_file.edges[0][2] == 2.0
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
    assert set(PARAMETERS) == set(EXPERIMENTS)
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
        "connectivity-z_limit",
        "coupling-law-ks_pvalue",
        "bridge-check-quad_rel_err",
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
        ("isomorphism-check", "u", 0.0),
        ("levelset-check", "d", 0),
        ("levelset-check", "n", -1),
        ("occupation-field", "alpha", -1.0),
        ("occupation-field", "alpha", float("nan")),
    ],
)
def test_parameter_ranges_name_the_parameter(experiment, name, value):
    network = "path:3" if experiment in NETWORK_EXPERIMENTS else None
    cfg = ExperimentConfig(experiment, seed=1, network=network, parameters={name: value})
    with pytest.raises(ConfigError, match=f"parameter '{name}'.*must be positive"):
        run_experiment(cfg)


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


def test_cli_interlacement_default_k_is_the_origin(tmp_path, capsys):
    # the default K is the origin in --d dimensions, not a fixed 3-d point
    out = tmp_path / "inter.csv"
    argv = ["interlacement", "--d", "2", "--n", "4", "--replicas", "400", "--out", str(out)]
    assert main(argv) in (0, 1)
    report = json.loads(out.with_suffix(".json").read_text())
    origin = box_vertex_index(2, 4, [0, 0])
    assert report["config"]["parameters"] == {"d": 2, "n": 4, "u": 0.25}
    assert f"occupation-mean-u-v{origin}" in [r["test"] for r in report["records"]]
