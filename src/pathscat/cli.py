"""Config-driven command line front end.

One YAML config describes one computation. `_COMMANDS` lists the keys
each command accepts, and `_validate` checks a config against them; it
is the only judge of a config, so every value the JSON echo holds has
passed a schema node. A `path` or `lattice.boundary` mapping may keep
another kind's keys: they are checked by the variant that declares
them, then ignored.
Physical parameters have no defaults; an optional numerical knob that a
config leaves out is not passed on, so the library's default applies.
Neither born-elastic nor charge-transfer sets the angular rule of its
total: both use the library's fixed rule, and charge-transfer's flux
factor is fixed too.

Every run writes a plot-ready CSV and a JSON document, each through a
temporary file renamed into place. The JSON, schema_version "2", names
the `command` and holds `config` (what was asked), `payload` (only what
the run computed) and `diagnostics` (the warnings it raised). Outputs
are byte-deterministic for a fixed config and seed: wall time goes to
stderr, never into the files. --threads, at least 1, is a flag of the
oracle command alone: it dispatches sample blocks, each drawn from its
own child of SeedSequence(seed), whose means reduce in index order.

Configs and --set values are read by libyaml (PyYAML's CSafeLoader)
with the YAML 1.2 float resolver added; a PyYAML built without libyaml
falls back to its pure-Python SafeLoader, which reads the same values.
The argument parser is built at the first `main` call and serves every
later call in the process.

Exit codes: 0 success, 2 config error, 3 numerical error, 4 domain
error. Every invalid key, type or value in a config exits with code 2,
naming the nearest valid key or value where one is close. Code 4 is
left for well-formed configs that the computation rejects, such as a
closed capture channel.
"""

import argparse
import contextlib
import difflib
import functools
import json
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .born import born_differential_cross_section, born_total_cross_section, ROUTES
from .capture import (
    brute_force_oracle,
    capture_amplitude,
    ct_differential_cross_section,
    ct_total_cross_section,
    INTERACTIONS,
    make_capture_spec,
    MODES,
)
from .errors import _finite, ConfigError, DomainError, NumericalError
from .influence import FixedPath, influence_K1, influence_K2
from .potentials import Gaussian, PairPotentials, SoftCoulomb, SquareWell, Yukawa
from .propagator import (
    AbsorbingLayer,
    boundary_leak_fraction,
    ComplexField1D,
    evolve,
    free_deviation_diagnostic,
    gaussian_packet,
    HardWall,
    KINETIC_FACTORS,
    LatticeSpec,
    packet_width,
    SEPARABLE_SAMPLING_MODES,
    TimeGrid,
    time_sliced_propagator,
)

# Schema nodes: `float`, `int` and `str` are leaves (a float leaf takes
# any finite number and yields a float); a tuple lists the allowed
# values; a one-element list is a list of that node; a dict maps keys to
# nodes, and a key ending in "?" is optional. `Built` and `Tagged` below
# complete the set.


@dataclass(frozen=True)
class Built:
    """A node whose validated mapping is passed as keywords to `build`."""

    schema: dict
    build: object


@dataclass(frozen=True)
class Tagged:
    """A mapping whose `tag` key picks one `Built` of `variants`. Keys of
    the other variants are rejected, or, if `lenient`, checked by the
    variant that declares them, then ignored."""

    tag: str
    variants: dict
    lenient: bool = False


def _hint(word, options):
    close = isinstance(word, str) and difflib.get_close_matches(word, options, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _names(fields):
    return {key.rstrip("?") for key in fields}


def _reject_unknown(mapping, names, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a mapping")
    for key in mapping:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {context}{_hint(key, names)}")


def _built(context, build, *args, **kwargs):
    """build(*args, **kwargs), with its DomainError reported as a config error."""
    try:
        return build(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


_LEAVES = {float: "a number", int: "an integer", str: "a string"}
# Integer keys size grids and sample counts, which numpy holds as int64.
_INT64 = range(-(2**63), 2**63)
# Oracle blocks draw from SeedSequence(seed), which takes no negative seed.
_SEED = range(0, 2**63)


def _leaf(value, kind, context):
    types = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{context} must be {_LEAVES[kind]}, got {value!r}")
    if kind is int and value not in _INT64:
        raise ConfigError(f"{context} must be an integer within int64, got {value!r}")
    if kind is not float:
        return value
    if not _finite(value):
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return float(value)


def _validate(value, schema, context):
    """Check value against schema; return plain values with builders applied."""
    if isinstance(schema, Built):
        return _built(context, schema.build, **_validate(value, schema.schema, context))
    if isinstance(schema, Tagged):
        tag, variants = schema.tag, schema.variants
        if not isinstance(value, dict):
            raise ConfigError(f"{context} must be a mapping")
        if tag not in value:
            raise ConfigError(f"missing required key {tag!r} in {context}")
        variant = variants[_validate(value[tag], tuple(variants), f"{context}.{tag}")]
        rest = {k: v for k, v in value.items() if k != tag}
        if schema.lenient:
            # another variant's keys are checked by its nodes, then dropped
            mine = _names(variant.schema)
            every = {k.rstrip("?") + "?": node for b in variants.values()
                     for k, node in b.schema.items()}
            _validate({k: v for k, v in rest.items() if k not in mine}, every, context)
            rest = {k: v for k, v in rest.items() if k in mine}
        return _validate(rest, variant, context)
    if isinstance(schema, dict):
        _reject_unknown(value, _names(schema), context)
        out = {}
        for key, node in schema.items():
            name = key.rstrip("?")
            if name in value:
                out[name] = _validate(value[name], node, f"{context}.{name}")
            elif name == key:
                raise ConfigError(f"missing required key {name!r} in {context}")
        return out
    if isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"{context} must be a list")
        return [_validate(v, schema[0], f"{context}[{i}]") for i, v in enumerate(value)]
    if isinstance(schema, range):
        value = _leaf(value, int, context)
        if value not in schema:
            raise ConfigError(f"{context} must be an integer >= {schema.start}, "
                              f"got {value!r}")
        return value
    if isinstance(schema, tuple):
        # the type check first: a number given for a string choice is a type error
        value = _leaf(value, type(schema[0]), context)
        if value not in schema:
            hint = _hint(value, schema)
            raise ConfigError(f"{context} must be one of {schema}, got {value!r}{hint}")
        return value
    return _leaf(value, schema, context)


def _theta_list(n, spacing="linear", **span):
    lo, hi = span["min"], span["max"]
    if n < 2 or hi <= lo:
        raise DomainError("need n >= 2 and max > min")
    if spacing == "log":
        if lo <= 0:
            raise DomainError("log spacing needs min > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


_FAMILIES = {
    "yukawa": Built({"V0": float, "alpha": float}, Yukawa),
    "gaussian": Built({"V0": float, "width": float}, Gaussian),
    "soft-coulomb": Built({"Z": float, "soft": float}, SoftCoulomb),
    "square-well": Built({"V0": float, "radius": float}, SquareWell),
}
_POTENTIAL = Tagged("family", {"none": Built({}, lambda: None), **_FAMILIES})
_LATTICE = Built(
    {
        "x_min": float,
        "x_max": float,
        "points": int,
        "boundary?": Tagged(
            "type",
            {
                "hard": Built({}, HardWall),
                "absorbing": Built({"width": float, "strength": float}, AbsorbingLayer),
            },
            lenient=True,
        ),
    },
    LatticeSpec,
)
_TIME = Built(
    {"t_a": float, "t_b": float, "slices": int},
    lambda t_a, t_b, slices: TimeGrid(t_a, t_b, slices),
)
# Midpoint sampling is not separable and is left to the library.
_SCHEME = {"kinetic?": KINETIC_FACTORS, "sampling?": SEPARABLE_SAMPLING_MODES}
_ANGLES = Built(
    {"min": float, "max": float, "n": int, "spacing?": ("linear", "log")}, _theta_list
)
# Each path kind builds a function of the sample count, which the time
# grid fixes.
_PATH = Tagged(
    "kind",
    {
        "static": Built({"value": float}, lambda value: lambda n: np.full(n, value)),
        "linear": Built(
            {"start": float, "end": float},
            lambda start, end: lambda n: np.linspace(start, end, n),
        ),
        "samples": Built({"values": [float]}, lambda values: lambda n: values),
    },
    lenient=True,
)
_KERNEL = {
    "lattice": _LATTICE,
    "time": _TIME,
    "mass": float,
    "potential": _POTENTIAL,
    "scheme?": _SCHEME,
}
_CAPTURE = {
    "system": {"A": float, "B": float, "Z_a": float, "Z_b": float},
    "v": float,
    "interaction": INTERACTIONS,
    "mode": MODES,
    "lam": float,
}


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe YAML that also reads YAML 1.2 floats, such as 1e-5, as numbers.

    PyYAML follows YAML 1.1, which wants a dot and a signed exponent and
    so reads 1e-5 as a string. The 1.2 resolver is tried after the 1.1
    ones, so every value those read keeps its type. The base parses in
    libyaml where PyYAML has it; resolving and constructing stay in
    Python, so both bases give the same values.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def parse_config(text):
    """YAML text to a (command, parameters) pair; `run` validates the parameters."""
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config is not valid YAML{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at the top level")
    if "command" not in raw:
        raise ConfigError("missing required key 'command' in config")
    command = _validate(raw["command"], COMMANDS, "config.command")
    params = {k: v for k, v in raw.items() if k != "command"}
    return command, params


def apply_overrides(params, overrides):
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects path.to.key=value, got {item!r}")
        path, _, raw_value = item.partition("=")
        try:
            value = yaml.load(raw_value, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set value {raw_value!r} is not YAML") from exc
        keys = path.split(".")
        target = params
        for key in keys[:-1]:
            if key not in target or not isinstance(target[key], dict):
                target[key] = {}
            target = target[key]
        target[keys[-1]] = value
    return params


def _field_rows(field):
    v = field.values
    return list(zip(range(field.lattice.points), field.lattice.nodes, v.real, v.imag))


def _complex(z):
    return {"re": z.real, "im": z.imag}


def _kernel(cfg):
    return time_sliced_propagator(
        cfg["potential"], cfg["lattice"], cfg["time"], cfg["mass"],
        **cfg.get("scheme", {}),
    )


def _run_propagator(cfg):
    lattice, pot, mass = cfg["lattice"], cfg["potential"], cfg["mass"]
    K = _kernel(cfg)
    nodes = lattice.nodes
    j = int(np.argmin(np.abs(nodes - cfg["source"])))
    column = ComplexField1D(lattice, K.entries[:, j])
    payload = {
        "source_node": float(nodes[j]),
        "symmetry_defect": K.symmetry_defect(),
    }
    if pot is None:
        payload["free_kernel_max_rel_deviation"] = free_deviation_diagnostic(K, mass)
    return payload, ("index", "x", "Re", "Im"), _field_rows(column)


def _run_evolve(cfg):
    psi0 = _built("config.packet", gaussian_packet, cfg["lattice"], **cfg["packet"])
    psi = evolve(psi0, _kernel(cfg))
    payload = {
        "norm_initial": psi0.norm(),
        "norm_final": psi.norm(),
        "width_final": packet_width(psi),
        "boundary_leak_fraction": boundary_leak_fraction(psi),
    }
    return payload, ("index", "x", "Re", "Im"), _field_rows(psi)


def _run_born(cfg):
    pot, p, mass, angles = cfg["potential"], cfg["p"], cfg["mass"], cfg["angles"]
    route = {"route": cfg["route"]} if "route" in cfg else {}
    total = born_total_cross_section(pot, p, mass, **route)
    dsigma = born_differential_cross_section(pot, p, mass, angles, **route)
    payload = {
        "sigma_total": total.value,
        "quadrature_error": total.error,
        "n_theta": total.nodes,
    }
    return payload, ("theta_rad", "dsigma_dOmega_au"), list(zip(angles, dsigma))


def _run_influence(cfg):
    grid, ends = cfg["time"], cfg["endpoints"]
    path = _built("config.path", FixedPath, grid, cfg["path"](grid.N + 1))
    fn = influence_K1 if cfg["kind"] == "K1" else influence_K2
    result = fn(
        cfg["potentials"], path, ends["a"], ends["b"], cfg["lattice"], grid,
        cfg["mass"], **cfg.get("scheme", {}),
    )
    amp, phase = result.amplitude, result.effective_phase
    payload = {
        "amplitude": _complex(amp),
        "effective_phase": _complex(phase),
        "free_reference": _complex(result.free_reference),
    }
    rows = [(amp.real, amp.imag, phase.real, phase.imag)]
    return payload, ("amplitude_re", "amplitude_im", "phase_re", "phase_im"), rows


def _capture_spec(cfg):
    return _built(
        "config", make_capture_spec, **cfg["system"], v=cfg["v"],
        interaction=cfg["interaction"],
    )


def _run_charge_transfer(cfg):
    spec = _capture_spec(cfg)
    mode, lam, angles = cfg["mode"], cfg["lam"], cfg["angles"]
    total = ct_total_cross_section(spec, lam=lam, mode=mode)
    dsigma = ct_differential_cross_section(spec, angles, lam=lam, mode=mode)
    rows = list(zip(angles, dsigma))
    payload = {
        "sigma_total": total.value,
        "quadrature_error": total.error,
        "evaluations": total.evaluations,
        "p_a": spec.energetics.p_a,
        "p_b": spec.energetics.p_b,
        "mu_a": spec.kin.mu_a,
        "mu_b": spec.kin.mu_b,
    }
    return payload, ("theta_rad", "dsigma_dOmega_au"), rows


def _run_oracle(cfg, threads):
    spec = _capture_spec(cfg)
    mode, lam, theta = cfg["mode"], cfg["lam"], cfg["theta"]
    est = brute_force_oracle(
        spec, theta, samples=cfg["samples"], lam=lam, mode=mode, seed=cfg["seed"],
        n_threads=threads,
    )
    route = capture_amplitude(spec, theta, lam=lam, mode=mode)
    deviation = abs(est.value - route)
    payload = {
        "samples": est.samples,
        "blocks": est.blocks,
        "value": _complex(est.value),
        "statistical_error": est.error,
        "route_value": _complex(route),
        "route_deviation": deviation,
        "z_score": deviation / est.error if est.error > 0 else None,
    }
    rows = [(est.value.real, est.value.imag, est.error, deviation)]
    return payload, ("value_re", "value_im", "stat_error", "route_deviation"), rows


# Each command's runner and the config keys it accepts.
_COMMANDS = {
    "propagator": (_run_propagator, {**_KERNEL, "source": float}),
    "evolve": (
        _run_evolve,
        {**_KERNEL, "packet": {"x0": float, "p0": float, "sigma0": float}},
    ),
    "born-elastic": (_run_born, {
        "potential": Tagged("family", _FAMILIES),
        "mass": float,
        "p": float,
        "angles": _ANGLES,
        "route?": ROUTES,
    }),
    "influence": (_run_influence, {
        "kind": ("K1", "K2"),
        "lattice": _LATTICE,
        "time": _TIME,
        "mass": float,
        "potentials": Built(
            {"V_A?": _POTENTIAL, "V_B?": _POTENTIAL, "V_AB?": _POTENTIAL},
            lambda V_A=None, V_B=None, V_AB=None: PairPotentials(V_A, V_B, V_AB),
        ),
        "path": _PATH,
        "endpoints": {"a": float, "b": float},
        "scheme?": _SCHEME,
    }),
    "charge-transfer": (_run_charge_transfer, {**_CAPTURE, "angles": _ANGLES}),
    "oracle": (
        _run_oracle, {**_CAPTURE, "theta": float, "samples": int, "seed": _SEED}
    ),
}
COMMANDS = tuple(_COMMANDS)


def _write_outputs(base, header, rows, document):
    """Write base.json, then base.csv, each through a renamed temporary file.

    JSON first: a failure must never leave a new CSV without its JSON.
    """
    lines = [",".join(header)] + [",".join(f"{float(c):.17g}" for c in r) for r in rows]
    texts = {
        base + ".json": json.dumps(document, sort_keys=True, indent=2) + "\n",
        base + ".csv": "\n".join(lines) + "\n",
    }
    try:
        for path, text in texts.items():
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.write(text)
        for path in texts:
            os.replace(path + ".tmp", path)
    finally:
        for path in texts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + ".tmp")


def run(command, params, out_dir, threads=1):
    """Validate one config, run it, and write csv + json into out_dir.

    The JSON holds `config` (what was asked), `payload` (only what the
    run computed) and `diagnostics`, under schema_version "2"; the same
    document is returned.

    threads reaches the oracle command alone, whose sample blocks it
    dispatches; every other command runs on the caller's thread.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir!r} is not writable")
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runner, schema = _COMMANDS[command]
        extra = (threads,) if runner is _run_oracle else ()
        payload, header, rows = runner(_validate(params, schema, "config"), *extra)
    elapsed = time.perf_counter() - started
    document = {
        "schema_version": "2",
        "command": command,
        "config": params,
        "payload": payload,
        "diagnostics": {"warnings": sorted(str(w.message) for w in caught)},
    }
    _write_outputs(os.path.join(out_dir, command), header, rows, document)
    print(f"elapsed_seconds={elapsed:.3f}", file=sys.stderr)
    return document


# Exit code of each error type; an OSError is reported as a config error.
_EXIT_CODES = {ConfigError: 2, NumericalError: 3, DomainError: 4}


def _thread_count(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache
def _parser():
    """The command line parser, built once per process at first use."""
    parser = argparse.ArgumentParser(
        prog="pathscat",
        description="Path-integral scattering and electron-capture calculations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} computation")
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override a config key, e.g. --set time.slices=128",
        )
    sub.choices["oracle"].add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads for oracle sample blocks (results unchanged)",
    )
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        command, params = parse_config(text)
        if command != args.command:
            raise ConfigError(
                f"config declares command {command!r} but {args.command!r} was invoked"
            )
        params = apply_overrides(params, args.set)
        run(command, params, args.out, threads=getattr(args, "threads", 1))
    except (OSError, *_EXIT_CODES) as exc:
        kind = next((k for k in _EXIT_CODES if isinstance(exc, k)), ConfigError)
        error = {"type": kind.__name__, "message": str(exc)}
        if getattr(exc, "estimate", None) is not None:
            error["estimate"] = float(exc.estimate)
        print(json.dumps({"error": error}))
        return _EXIT_CODES[kind]
    return 0


if __name__ == "__main__":
    sys.exit(main())
