"""Config parsing, output files, exit codes, and run-to-run determinism."""

import csv
import datetime
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from pathscat import capture, cli
from pathscat.born import born_differential_cross_section
from pathscat.errors import ConfigError
from pathscat.potentials import Yukawa

DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs")
                      .glob("*.yaml"))

BORN_CONFIG = {
    "command": "born-elastic",
    "potential": {"family": "yukawa", "V0": -2.0, "alpha": 1.0},
    "mass": 1.0,
    "p": 1.0,
    "angles": {"min": 0.0, "max": 3.141592653589793, "n": 9, "spacing": "linear"},
}

ORACLE_CONFIG = {
    "command": "oracle",
    "system": {"A": 1.0, "B": 1.0, "Z_a": 1.0, "Z_b": 1.0},
    "v": 2.0,
    "interaction": "ProtonElectron",
    "mode": "obk",
    "lam": 1.0,
    "theta": 0.001,
    "samples": 131072,
    "seed": 7,
}


def _write_config(tmp_path, mapping, name="job.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


def test_parse_config_extracts_command():
    command, params = cli.parse_config(yaml.safe_dump(BORN_CONFIG))
    assert command == "born-elastic"
    assert "command" not in params
    assert params["p"] == 1.0


def test_parse_config_rejects_bad_input():
    with pytest.raises(ConfigError, match="mapping"):
        cli.parse_config("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="line"):
        cli.parse_config("command: [unclosed\n")
    with pytest.raises(ConfigError, match="born-elastic"):
        cli.parse_config("command: born-elastc\n")


def test_apply_overrides_types_and_nesting():
    params = {"p": 1.0, "angles": {"n": 9}}
    cli.apply_overrides(
        params, ["p=2.5", "angles.n=17", "potential.family=yukawa"]
    )
    assert params["p"] == 2.5
    assert params["angles"]["n"] == 17
    assert params["potential"] == {"family": "yukawa"}
    with pytest.raises(ConfigError):
        cli.apply_overrides(params, ["no_equals_sign"])


def test_unknown_key_names_the_nearest_field(tmp_path):
    bad = dict(BORN_CONFIG)
    bad["mas"] = 1.0
    del bad["mass"]
    with pytest.raises(ConfigError, match="mass"):
        cli.run("born-elastic", {k: v for k, v in bad.items() if k != "command"},
                str(tmp_path / "out"))


def test_run_writes_matching_csv_and_json(tmp_path):
    params = {k: v for k, v in BORN_CONFIG.items() if k != "command"}
    out = tmp_path / "out"
    document = cli.run("born-elastic", params, str(out))
    saved = json.loads((out / "born-elastic.json").read_text())
    assert saved == document
    assert saved["schema_version"] == "1"
    assert saved["payload"]["kind"] == "ElasticBorn"

    with open(out / "born-elastic.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta_rad", "dsigma_dOmega_au"]
    # the 17-digit format must reproduce the binary values exactly
    thetas = np.linspace(0.0, np.pi, 9)
    dsigma = born_differential_cross_section(Yukawa(-2.0, 1.0), 1.0, 1.0, thetas)
    for row, theta, dcs in zip(rows[1:], thetas, dsigma):
        assert float(row[0]) == theta
        assert float(row[1]) == dcs


def test_exit_code_for_missing_config(tmp_path, capsys):
    code = cli.main(
        ["born-elastic", "--config", str(tmp_path / "absent.yaml"),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"


def test_exit_code_for_command_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, BORN_CONFIG)
    code = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "born-elastic" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_exit_code_for_closed_channel(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "command": "charge-transfer",
        "system": {"A": 1.0, "B": 1.0, "Z_a": 1.0, "Z_b": 0.1},
        "v": 0.001,
        "interaction": "ProtonElectron",
        "mode": "jacobi",
        "lam": 0.0,
        "angles": {"min": 0.0, "max": 0.005, "n": 3, "spacing": "linear"},
    })
    code = cli.main(
        ["charge-transfer", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "DomainError"


def test_negative_screening_exits_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the oracle drew samples")

    monkeypatch.setattr(capture, "_oracle_block_means", no_sampling)
    oracle = next(p for p in DEMO_CONFIGS if p.stem == "oracle")
    out = tmp_path / "out"
    code = cli.main(["oracle", "--config", str(oracle), "--out", str(out),
                     "--set", "lam=-0.5"])
    assert code == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "DomainError",
                     "message": "screening constant must be non-negative"}
    assert not any(out.iterdir())


def test_non_finite_potential_exits_without_output(tmp_path, capsys):
    # every other sample of the ion path -2 -> 2 sits on an electron node,
    # and every sample on the midpoint of some node pair, where the Yukawa
    # V_B(r - R) is infinite
    influence = next(p for p in DEMO_CONFIGS if p.stem == "influence")
    for sampling in ("endpoint", "midpoint"):
        out = tmp_path / sampling
        code = cli.main([
            "influence", "--config", str(influence), "--out", str(out),
            "--set", "potentials.V_B={family: yukawa, V0: 0.2, alpha: 1.0}",
            "--set", f"scheme.sampling={sampling}",
        ])
        assert code == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DomainError"
        assert "not finite at coordinate 0.0" in error["message"]
        assert not any(out.iterdir())


def test_exit_code_for_numerical_failure(tmp_path, capsys):
    # the soft-core transform has no finite forward limit, so asking for
    # theta = 0 (momentum transfer zero) must fail loudly, not quietly
    cfg = dict(BORN_CONFIG)
    cfg["potential"] = {"family": "soft-coulomb", "Z": 1.0, "soft": 0.5}
    path = _write_config(tmp_path, cfg)
    code = cli.main(
        ["born-elastic", "--config", str(path), "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NumericalError"


def test_outputs_are_run_and_thread_invariant(tmp_path):
    cfg = _write_config(tmp_path, ORACLE_CONFIG)
    outs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / tag
        assert cli.main(
            ["oracle", "--config", str(cfg), "--out", str(out),
             "--threads", threads]
        ) == 0
        outs.append(out)
    ref_json = (outs[0] / "oracle.json").read_bytes()
    ref_csv = (outs[0] / "oracle.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "oracle.json").read_bytes() == ref_json
        assert (out / "oracle.csv").read_bytes() == ref_csv


def test_oracle_reports_its_z_score(tmp_path):
    def payload(name, **changes):
        out = tmp_path / name
        cfg = _write_config(tmp_path, {**ORACLE_CONFIG, **changes})
        assert cli.main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads((out / "oracle.json").read_text())["payload"]

    pe = payload("pe")
    assert pe["statistical_error"] > 0
    assert pe["z_score"] == pe["route_deviation"] / pe["statistical_error"]
    # at theta = 0 the obk Sum's two terms cancel on every sample
    total = payload("sum", interaction="Sum", theta=0.0)
    assert total["statistical_error"] == 0.0
    assert total["z_score"] is None


def test_set_override_reaches_the_computation(tmp_path):
    cfg = _write_config(tmp_path, BORN_CONFIG)
    base = tmp_path / "base"
    bumped = tmp_path / "bumped"
    assert cli.main(
        ["born-elastic", "--config", str(cfg), "--out", str(base)]
    ) == 0
    assert cli.main(
        ["born-elastic", "--config", str(cfg), "--out", str(bumped),
         "--set", "p=2.0"]
    ) == 0
    doc_base = json.loads((base / "born-elastic.json").read_text())
    doc_bumped = json.loads((bumped / "born-elastic.json").read_text())
    assert doc_bumped["config"]["p"] == 2.0
    assert doc_bumped["payload"]["sigma_total"] != doc_base["payload"]["sigma_total"]


def test_exponent_floats_without_a_dot_are_numbers(tmp_path):
    # YAML 1.1 reads 1e-5 as a string; the config loader reads it as 1.0e-5
    demo = next(p for p in DEMO_CONFIGS if p.stem == "charge-transfer")
    text = demo.read_text()
    assert "min: 1.0e-5" in text
    bare = tmp_path / "bare.yaml"
    bare.write_text(text.replace("min: 1.0e-5", "min: 1e-5"))
    runs = {"dotted": (demo, []), "file": (bare, []),
            "override": (demo, ["--set", "angles.min=1e-5"])}
    outputs = []
    for tag, (config, sets) in runs.items():
        out = tmp_path / tag
        assert cli.main(["charge-transfer", "--config", str(config), "--out", str(out),
                         *sets]) == 0
        outputs.append([(out / f"charge-transfer.{ext}").read_bytes()
                        for ext in ("csv", "json")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_failed_write_leaves_no_csv_without_its_json(tmp_path, capsys):
    cfg = _write_config(tmp_path, BORN_CONFIG)
    out = tmp_path / "out"
    (out / "born-elastic.json").mkdir(parents=True)
    code = cli.main(["born-elastic", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"
    assert sorted(p.name for p in out.iterdir()) == ["born-elastic.json"]


def test_path_values_must_be_finite_numbers(tmp_path, capsys):
    influence = next(p for p in DEMO_CONFIGS if p.stem == "influence")
    for values, bad in (("[-2,-1,0,1,2,a,1,1,1]", "path.values[5]"),
                        ("[-2,-1,.nan,1,2,0,1,1,1]", "path.values[2]")):
        code = cli.main(
            ["influence", "--config", str(influence), "--out", str(tmp_path / "o"),
             "--set", "path.kind=samples", "--set", f"path.values={values}"]
        )
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigError"
        assert bad in error["message"]


@pytest.mark.parametrize("where", ["override", "file"])
def test_values_json_cannot_hold_are_config_errors(tmp_path, capsys, where):
    # path.start is ignored by the static path kind, so only this check sees it
    influence = next(p for p in DEMO_CONFIGS if p.stem == "influence")
    config, sets = influence, ["path.kind=static", "path.value=0.0"]
    if where == "override":
        sets.append("path.start=2020-01-01")
    else:
        mapping = yaml.safe_load(influence.read_text())
        mapping["path"] = {"kind": "static", "value": 0.0,
                           "start": datetime.date(2020, 1, 1)}
        config = _write_config(tmp_path, mapping)
    out = tmp_path / "out"
    argv = ["influence", "--config", str(config), "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert "config.path.start must be a string, number" in error["message"]
    assert not out.exists()


def test_only_json_types_pass_parsing():
    for text, where in (("command: oracle\nseed: !!binary aGk=\n", "config.seed"),
                        ("command: oracle\nquad: !!set {a, b}\n", "config.quad"),
                        ("command: oracle\nsystem: {1: 2}\n", "config.system")):
        with pytest.raises(ConfigError, match=where):
            cli.parse_config(text)
    params = cli.apply_overrides({}, ["a.b=[1, x, {c: null}]", "d=true"])
    assert params == {"a": {"b": [1, "x", {"c": None}]}, "d": True}
    with pytest.raises(ConfigError, match=r"config.a\[1\]"):
        cli.apply_overrides({}, ["a=[1, 2001-02-03]"])


_DROP = object()

# command, dotted key, value (_DROP deletes the key), text the message must hold
INVALID_CONFIGS = [
    ("propagator", "lattice.pointz", 512,
     "unknown key 'pointz' in config.lattice; did you mean 'points'?"),
    ("propagator", "time.slices", _DROP,
     "missing required key 'slices' in config.time"),
    ("propagator", "mass", "heavy",
     "config.mass must be a number"),
    ("propagator", "mass", math.nan,
     "config.mass must be a finite number"),
    ("propagator", "mass", 10**400,
     "config.mass must be a finite number"),
    ("propagator", "scheme.kinetic", "pade3",
     "config.scheme.kinetic must be one of"),
    ("propagator", "scheme.kinetic", "sampled",
     "config.scheme.kinetic must be one of"),
    ("propagator", "time.slices", True,
     "config.time.slices must be an integer, got True"),
    ("propagator", "time.slices", 10**400,
     "config.time.slices must be an integer within int64"),
    ("propagator", "lattice.points", 10**400,
     "config.lattice.points must be an integer within int64"),
    ("evolve", "packet.x00", 0.0,
     "unknown key 'x00' in config.packet; did you mean 'x0'?"),
    ("evolve", "packet.sigma0", _DROP,
     "missing required key 'sigma0' in config.packet"),
    ("evolve", "lattice.points", 1.5,
     "config.lattice.points must be an integer"),
    ("evolve", "scheme.sampling", "endpont",
     "config.scheme.sampling must be one of ('endpoint', 'midpoint', 'symmetric'), "
     "got 'endpont'; did you mean 'endpoint'?"),
    ("born-elastic", "potential.alpah", 1.0,
     "unknown key 'alpah' in config.potential; did you mean 'alpha'?"),
    ("born-elastic", "p", _DROP,
     "missing required key 'p' in config"),
    ("born-elastic", "angles", [0.0, 1.0],
     "config.angles must be a mapping"),
    ("born-elastic", "route", "quadratur",
     "config.route must be one of ('auto', 'quadrature'), got 'quadratur'; "
     "did you mean 'quadrature'?"),
    ("influence", "endpoints.c", 0.0,
     "unknown key 'c' in config.endpoints"),
    ("influence", "path.kind", _DROP,
     "missing required key 'kind' in config.path"),
    ("influence", "path.start", "left",
     "config.path.start must be a number"),
    ("influence", "potentials.V_A.family", "gausian",
     "config.potentials.V_A.family must be one of"),
    ("charge-transfer", "quad.nkk", 96,
     "unknown key 'quad' in config"),
    ("charge-transfer", "total.seg_node", 24,
     "unknown key 'total' in config"),
    ("charge-transfer", "v", 1e-200,
     "config: relative speed v=1e-200 puts the collision energy out of range"),
    ("charge-transfer", "v", 1e200,
     "config: relative speed v=1e+200 puts the collision energy out of range"),
    ("charge-transfer", "system.Z_b", _DROP,
     "missing required key 'Z_b' in config.system"),
    ("charge-transfer", "flux_ratio_power", True,
     "unknown key 'flux_ratio_power' in config"),
    ("charge-transfer", "flux_ratio_power", 3,
     "unknown key 'flux_ratio_power' in config"),
    ("charge-transfer", "mode", "jacobbi",
     "config.mode must be one of ('obk', 'jacobi'), got 'jacobbi'; "
     "did you mean 'jacobi'?"),
    ("oracle", "sed", 7,
     "unknown key 'sed' in config; did you mean 'seed'?"),
    ("oracle", "theta", _DROP,
     "missing required key 'theta' in config"),
    ("oracle", "samples", 262144.0,
     "config.samples must be an integer"),
    ("oracle", "v", math.inf,
     "config.v must be a finite number"),
    ("oracle", "samples", 10**400,
     "config.samples must be an integer within int64"),
    ("oracle", "quad.nk", 96,
     "unknown key 'quad' in config"),
    ("oracle", "v", 1e-200,
     "config: relative speed v=1e-200 puts the collision energy out of range"),
    ("oracle", "seed", -1,
     "config.seed must be an integer >= 0, got -1"),
    ("oracle", "interaction", "Internuclaer",
     "config.interaction must be one of ('ProtonElectron', 'Internuclear', 'Sum'), "
     "got 'Internuclaer'; did you mean 'Internuclear'?"),
]


@pytest.mark.parametrize(
    "command,key,value,message", INVALID_CONFIGS,
    ids=[f"{c}-{k}-{'drop' if v is _DROP else v}" for c, k, v, _ in INVALID_CONFIGS],
)
def test_invalid_config_is_a_config_error(tmp_path, capsys, command, key, value,
                                         message):
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    config = yaml.safe_load(demo.read_text())
    *parents, last = key.split(".")
    target = config
    for name in parents:
        target = target.setdefault(name, {})
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(_write_config(tmp_path, config)),
                     "--out", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert message in error["message"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_configs_run_and_echo_their_config(tmp_path, capsys, path):
    config = yaml.safe_load(path.read_text())
    command = config.pop("command")
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().out
    assert json.loads((tmp_path / f"{command}.json").read_text())["config"] == config


@pytest.mark.parametrize("command,key,want", [
    ("charge-transfer", "evaluations", 705),
    # 769 is prime: the evolve demo's DST-I runs on a slow FFT length
    ("evolve", "dst_largest_prime_factor", 769),
    ("propagator", "dst_largest_prime_factor", 19),
])
def test_demo_payloads_report_their_counts(tmp_path, command, key, want):
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    assert cli.main([command, "--config", str(demo), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"{command}.json").read_text())["payload"]
    assert payload[key] == want


def test_largest_prime_factor():
    cases = {2: 2, 4: 2, 210: 7, 257: 257, 513: 19, 769: 769, 1024: 2, 1025: 41}
    assert {n: cli._largest_prime_factor(n) for n in cases} == cases
