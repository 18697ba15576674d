"""Config parsing, output files, exit codes, and run-to-run determinism."""

import csv
import datetime
import json
import math
import re
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
    assert saved["schema_version"] == "2"
    assert saved["command"] == "born-elastic"

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


@pytest.mark.parametrize("command", ["propagator", "evolve", "born-elastic"])
@pytest.mark.parametrize("mass", ["-1", "0"])
def test_a_mass_that_is_not_positive_exits_without_output(tmp_path, capsys, command,
                                                          mass):
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(demo), "--out", str(out),
                     "--set", f"mass={mass}"])
    assert code == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "DomainError",
                     "message": f"mass must be positive, got {float(mass)}"}
    assert not any(out.iterdir())


def test_non_finite_potential_exits_without_output(tmp_path, capsys):
    # every other sample of the ion path -2 -> 2 sits on an electron node,
    # where the Yukawa V_B(r - R) is infinite
    influence = next(p for p in DEMO_CONFIGS if p.stem == "influence")
    for sampling in ("endpoint", "symmetric"):
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


@pytest.mark.parametrize("command,points,node", [
    ("evolve", 769, 384),
    ("propagator", 513, 256),
])
def test_non_finite_kernel_sample_names_its_slice_and_node(tmp_path, capsys, command,
                                                           points, node):
    # an odd point count puts the middle node at x = 0.0, where the Yukawa
    # is infinite; a static potential is read from the first slice on
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    out = tmp_path / "out"
    code = cli.main([
        command, "--config", str(demo), "--out", str(out),
        "--set", f"lattice.points={points}",
        "--set", "potential={family: yukawa, V0: -1.0, alpha: 1.0}",
    ])
    assert code == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {
        "type": "DomainError",
        "message": f"slice 1, lattice node {node} (x = 0.0): potential = "
                   "Yukawa(V0=-1.0, alpha=1.0) is not finite at coordinate 0.0",
    }
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


def test_obk_total_at_zero_screening_on_a_resonant_channel_exits_3(tmp_path, capsys):
    # the demo channel is resonant (p_a = p_b), so the obk total diverges
    # at lam = 0; it once exited 0 with a finite total
    demo = next(p for p in DEMO_CONFIGS if p.stem == "charge-transfer")
    out = tmp_path / "out"
    code = cli.main(["charge-transfer", "--config", str(demo), "--out", str(out),
                     "--set", "mode=obk"])
    assert code == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "NumericalError", "message":
                     "unscreened Coulomb transform diverges at zero momentum transfer"}
    assert not any(out.iterdir())


@pytest.mark.parametrize("setting", ["lam=1e-4", "interaction=Sum"])
def test_obk_total_with_a_narrow_or_cancelling_forward_peak_exits_0(tmp_path,
                                                                     setting):
    # lam = 1e-4 puts the forward peak far under 1e-7 (it once exited 3);
    # the Sum's two terms cancel at q = 0, so lam = 0 is finite there
    demo = next(p for p in DEMO_CONFIGS if p.stem == "charge-transfer")
    code = cli.main(["charge-transfer", "--config", str(demo), "--out", str(tmp_path),
                     "--set", "mode=obk", "--set", setting])
    assert code == 0
    payload = json.loads((tmp_path / "charge-transfer.json").read_text())["payload"]
    assert math.isfinite(payload["sigma_total"]) and payload["sigma_total"] > 0


def test_obk_sum_at_zero_screening_is_finite_at_theta_0(tmp_path):
    # its two 1/q^2 terms cancel exactly; it once exited 3 as divergent
    demo = next(p for p in DEMO_CONFIGS if p.stem == "charge-transfer")
    code = cli.main(["charge-transfer", "--config", str(demo), "--out", str(tmp_path),
                     "--set", "mode=obk", "--set", "interaction=Sum", "--set", "lam=0.0",
                     "--set", "angles.min=0.0", "--set", "angles.spacing=linear"])
    assert code == 0
    payload = json.loads((tmp_path / "charge-transfer.json").read_text())["payload"]
    rows = (tmp_path / "charge-transfer.csv").read_text().splitlines()
    theta, dcs = map(float, rows[1].split(","))
    assert theta == 0.0
    assert dcs == pytest.approx(payload["mu_b"] ** 2, rel=1e-14)


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
    # path.start is ignored by the static path kind, but the linear kind's
    # node still checks it
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
    assert error["message"] == ("config.path.start must be a number, "
                                "got datetime.date(2020, 1, 1)")
    assert not any(out.iterdir())


def test_only_json_types_pass_parsing(tmp_path, capsys):
    # YAML loads what the JSON config echo cannot hold; the schema refuses
    # it when the config runs
    for command, key, text, sets, message in (
        ("oracle", "seed", "!!binary aGk=", [],
         "config.seed must be an integer, got b'hi'"),
        ("oracle", "quad", "!!set {a, b}", [], "unknown key 'quad' in config"),
        ("oracle", "system", "{1: 2}", [], "unknown key 1 in config.system"),
        ("influence", None, None, ["path.kind=samples", "path.values=[1, 2001-02-03]"],
         "config.path.values[1] must be a number, got datetime.date(2001, 2, 3)"),
    ):
        demo = next(p for p in DEMO_CONFIGS if p.stem == command)
        mapping = yaml.safe_load(demo.read_text())
        mapping.pop(key, None)
        config = tmp_path / "job.yaml"
        config.write_text(yaml.safe_dump(mapping) + (f"{key}: {text}\n" if key else ""))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        for item in sets:
            argv += ["--set", item]
        assert cli.main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "ConfigError", "message": message}
    params = cli.apply_overrides({}, ["a.b=[1, x, {c: null}]", "d=true"])
    assert params == {"a": {"b": [1, "x", {"c": None}]}, "d": True}


@pytest.mark.parametrize("command,sets,echoed", [
    ("evolve", ["lattice.boundary.type=hard"],
     ("lattice", "boundary", {"type": "hard", "width": 5.0, "strength": 2.0})),
    ("influence", ["path.kind=static", "path.value=0.0"],
     ("path", {"kind": "static", "value": 0.0, "start": -2.0, "end": 2.0})),
], ids=["boundary", "path"])
def test_another_kinds_keys_of_their_type_are_ignored_and_echoed(tmp_path, capsys,
                                                                 command, sets,
                                                                 echoed):
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    argv = [command, "--config", str(demo), "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 0, capsys.readouterr().out
    config = json.loads((tmp_path / f"{command}.json").read_text())["config"]
    *keys, want = echoed
    for key in keys:
        config = config[key]
    assert config == want


@pytest.mark.parametrize("command,sets,message", [
    ("evolve", ["lattice.boundary.type=hard", "lattice.boundary.width=wide"],
     "config.lattice.boundary.width must be a number, got 'wide'"),
    ("influence", ["path.kind=static", "path.value=0.0", "path.start=left"],
     "config.path.start must be a number, got 'left'"),
], ids=["boundary", "path"])
def test_another_kinds_keys_of_the_wrong_type_are_refused(tmp_path, capsys, command,
                                                          sets, message):
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    out = tmp_path / "out"
    argv = [command, "--config", str(demo), "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": message}
    assert not any(out.iterdir())


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
    ("propagator", "scheme.sampling", "midpoint",
     "config.scheme.sampling must be one of ('endpoint', 'symmetric'), "
     "got 'midpoint'"),
    ("evolve", "scheme.sampling", "endpont",
     "config.scheme.sampling must be one of ('endpoint', 'symmetric'), "
     "got 'endpont'; did you mean 'endpoint'?"),
    ("evolve", "scheme.sampling", "midpoint",
     "config.scheme.sampling must be one of ('endpoint', 'symmetric'), "
     "got 'midpoint'"),
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
    ("influence", "scheme.sampling", "midpoint",
     "config.scheme.sampling must be one of ('endpoint', 'symmetric'), "
     "got 'midpoint'"),
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


# the payload holds only what a run computed; `command` and `config`
# already record what was asked
@pytest.mark.parametrize("command,keys", [
    ("propagator", {"source_node", "symmetry_defect", "free_kernel_max_rel_deviation"}),
    ("evolve", {"norm_initial", "norm_final", "width_final", "boundary_leak_fraction"}),
    ("born-elastic", {"sigma_total", "quadrature_error", "n_theta"}),
    ("influence", {"amplitude", "effective_phase", "free_reference"}),
    ("charge-transfer", {"sigma_total", "quadrature_error", "evaluations",
                         "p_a", "p_b", "mu_a", "mu_b"}),
    ("oracle", {"samples", "blocks", "value", "statistical_error", "route_value",
                "route_deviation", "z_score"}),
])
def test_demo_payloads_hold_only_computed_values(tmp_path, command, keys):
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    assert cli.main([command, "--config", str(demo), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"{command}.json").read_text())["payload"]
    assert set(payload) == keys


@pytest.mark.parametrize("command,key,want", [
    ("charge-transfer", "evaluations", 704),
])
def test_demo_payloads_report_their_counts(tmp_path, command, key, want):
    demo = next(p for p in DEMO_CONFIGS if p.stem == command)
    assert cli.main([command, "--config", str(demo), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"{command}.json").read_text())["payload"]
    assert payload[key] == want


# the reference twin of cli._Loader: PyYAML's pure-Python SafeLoader with
# the same implicit resolvers
PurePythonLoader = type("PurePythonLoader", (yaml.SafeLoader,),
                        {"yaml_implicit_resolvers": cli._Loader.yaml_implicit_resolvers})


def _typed(value):
    """value with the type of every node kept, so 1 and 1.0 differ."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


def test_loader_parses_in_libyaml_where_pyyaml_has_it():
    assert issubclass(cli._Loader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_yaml_bases_read_demo_configs_alike(path):
    text = path.read_text()
    want = yaml.load(text, Loader=PurePythonLoader)
    assert _typed(yaml.load(text, Loader=cli._Loader)) == _typed(want)


@pytest.mark.parametrize("text", ["1e-5", "1.0e-5", ".5", "-3", "obk", "true", "null",
                                  "[1, 2]"])
def test_yaml_bases_read_set_values_alike(text):
    want = yaml.load(text, Loader=PurePythonLoader)
    assert _typed(yaml.load(text, Loader=cli._Loader)) == _typed(want)


MALFORMED = {
    "unclosed-bracket": "command: [unclosed\n",
    "nested-mapping": "command: oracle\na: b: c\n",
    "tab-indent": "command: oracle\nsystem:\n\tA: 1.0\n",
    "unterminated-quote": 'command: "oracle\n',
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_yaml_bases_place_a_syntax_error_alike(monkeypatch, text):
    prefixes = []
    for loader in (PurePythonLoader, cli._Loader):
        monkeypatch.setattr(cli, "_Loader", loader)
        with pytest.raises(ConfigError) as excinfo:
            cli.parse_config(text)
        prefix = re.match(r"config is not valid YAML at line \d+, column \d+: ",
                          str(excinfo.value))
        assert prefix
        prefixes.append(prefix.group())
    assert prefixes[0] == prefixes[1]


@pytest.mark.parametrize("loader", [PurePythonLoader, cli._Loader],
                         ids=["pure-python", "loader"])
def test_yaml_bases_refuse_a_bare_list_alike(monkeypatch, loader):
    monkeypatch.setattr(cli, "_Loader", loader)
    with pytest.raises(ConfigError, match="^config must be a mapping at the top level$"):
        cli.parse_config("- just\n- a\n- list\n")


def test_one_parser_serves_many_calls(tmp_path, monkeypatch):
    demo = next(p for p in DEMO_CONFIGS if p.stem == "charge-transfer")
    configs = []
    for tag, sets in (("set", ["--set", "v=3.0"]), ("plain", [])):
        out = tmp_path / tag
        assert cli.main(["charge-transfer", "--config", str(demo), "--out", str(out),
                         *sets]) == 0
        configs.append(json.loads((out / "charge-transfer.json").read_text())["config"])
    assert configs[0]["v"] == 3.0
    # --set items do not carry over to the next call
    assert configs[1]["v"] == yaml.safe_load(demo.read_text())["v"] == 2.0

    threads = []
    oracle = cli.brute_force_oracle

    def recording(*args, n_threads, **kwargs):
        threads.append(n_threads)
        return oracle(*args, n_threads=n_threads, **kwargs)

    monkeypatch.setattr(cli, "brute_force_oracle", recording)
    cfg = _write_config(tmp_path, ORACLE_CONFIG)
    outputs = []
    for tag, flags in (("two", ["--threads", "2"]), ("default", [])):
        out = tmp_path / tag
        assert cli.main(["oracle", "--config", str(cfg), "--out", str(out), *flags]) == 0
        outputs.append([(out / f"oracle.{ext}").read_bytes() for ext in ("csv", "json")])
    assert threads == [2, 1]
    assert outputs[0] == outputs[1]
