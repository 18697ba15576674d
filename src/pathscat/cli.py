"""Config-driven command line front end.

One YAML config describes one computation. `_COMMANDS` lists the keys
each command accepts, and `_validate` checks a config against them.
Physical parameters have no defaults; an optional numerical knob that a
config leaves out is not passed on, so the library's default applies.
charge-transfer has no optional key: its angular rule and flux factor
are the library's fixed ones.

Every run writes a plot-ready CSV and a JSON document with the echoed
config, payload, and diagnostics, each through a temporary file renamed
into place. Outputs are byte-deterministic for a fixed config and seed:
wall time goes to stderr, never into the files, and --threads only
dispatches oracle sample blocks, each drawn from its own child of
SeedSequence(seed), whose means reduce in index order.

Exit codes: 0 success, 2 config error, 3 numerical error, 4 domain
error. Every invalid key, type or value in a config exits with code 2,
naming the nearest valid key or value where one is close. Code 4 is
left for well-formed configs that the computation rejects, such as a
closed capture channel.
"""

import argparse
import contextlib
import difflib
import json
import math
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
from .errors import ConfigError, DomainError, NumericalError
from .influence import FixedPath, influence_K1, influence_K2
from .potentials import (
    Gaussian,
    PairPotentials,
    ScreenedCoulomb,
    SoftCoulomb,
    SquareWell,
    Yukawa,
)
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
    SAMPLING_MODES,
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
    the other variants are rejected, or ignored if `lenient`."""

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
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return number


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
            every = set().union(*(_names(b.schema) for b in variants.values()))
            _reject_unknown(rest, every, context)
            rest = {k: v for k, v in rest.items() if k in _names(variant.schema)}
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
    "screened-coulomb": Built({"Z": float, "screen": float}, ScreenedCoulomb),
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
_SCHEME = {"kinetic?": KINETIC_FACTORS, "sampling?": SAMPLING_MODES}
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


def _require_json(value, context):
    """Reject what YAML loads but the JSON config echo cannot hold, such as
    dates, binary strings, sets and non-string keys, wherever it sits."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigError(f"{context} has key {key!r}; keys must be strings")
            _require_json(item, f"{context}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_json(item, f"{context}[{i}]")
    elif value is not None and not isinstance(value, (str, int, float)):
        raise ConfigError(
            f"{context} must be a string, number, boolean, list, mapping or null, "
            f"got {type(value).__name__} {value!r}"
        )


class _Loader(yaml.SafeLoader):
    """Safe YAML that also reads YAML 1.2 floats, such as 1e-5, as numbers.

    PyYAML follows YAML 1.1, which wants a dot and a signed exponent and
    so reads 1e-5 as a string. The 1.2 resolver is tried after the 1.1
    ones, so every value those read keeps its type.
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
    _require_json(raw, "config")
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
        _require_json(value, f"config.{path}")
        keys = path.split(".")
        target = params
        for key in keys[:-1]:
            if key not in target or not isinstance(target[key], dict):
                target[key] = {}
            target = target[key]
        target[keys[-1]] = value
    return params


def _optional(cfg, *keys):
    return {key: cfg[key] for key in keys if key in cfg}


def _field_rows(field):
    v = field.values
    return list(zip(range(field.lattice.points), field.lattice.nodes, v.real, v.imag))


def _complex(z):
    return {"re": z.real, "im": z.imag}


def _largest_prime_factor(n):
    """Largest prime factor of n >= 2. A lattice of n - 1 points runs its
    DST-I through FFTs of length 2n, which slow down several-fold when n
    has a large prime factor."""
    largest, factor = 1, 2
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def _kernel(cfg):
    return time_sliced_propagator(
        cfg["potential"], cfg["lattice"], cfg["time"], cfg["mass"],
        **cfg.get("scheme", {}),
    )


def _run_propagator(cfg, threads):
    lattice, pot, mass = cfg["lattice"], cfg["potential"], cfg["mass"]
    K = _kernel(cfg)
    nodes = lattice.nodes
    j = int(np.argmin(np.abs(nodes - cfg["source"])))
    column = ComplexField1D(lattice, K.entries[:, j])
    payload = {
        "kind": "propagator_column",
        "source_node": float(nodes[j]),
        "symmetry_defect": K.symmetry_defect(),
        "dst_largest_prime_factor": _largest_prime_factor(lattice.points + 1),
    }
    if pot is None:
        payload["free_kernel_max_rel_deviation"] = free_deviation_diagnostic(K, mass)
    return payload, ("index", "x", "Re", "Im"), _field_rows(column)


def _run_evolve(cfg, threads):
    psi0 = _built("config.packet", gaussian_packet, cfg["lattice"], **cfg["packet"])
    psi = evolve(psi0, _kernel(cfg))
    payload = {
        "kind": "evolved_field",
        "norm_initial": psi0.norm(),
        "norm_final": psi.norm(),
        "width_final": packet_width(psi),
        "boundary_leak_fraction": boundary_leak_fraction(psi),
        "dst_largest_prime_factor": _largest_prime_factor(cfg["lattice"].points + 1),
    }
    return payload, ("index", "x", "Re", "Im"), _field_rows(psi)


def _run_born(cfg, threads):
    pot, p, mass, angles = cfg["potential"], cfg["p"], cfg["mass"], cfg["angles"]
    route = _optional(cfg, "route")
    total = born_total_cross_section(pot, p, mass, **_optional(cfg, "n_theta"), **route)
    dsigma = born_differential_cross_section(pot, p, mass, angles, **route)
    payload = {
        "kind": "ElasticBorn",
        "sigma_total": total.value,
        "quadrature_error": total.error,
        "n_theta": total.nodes,
    }
    return payload, ("theta_rad", "dsigma_dOmega_au"), list(zip(angles, dsigma))


def _run_influence(cfg, threads):
    kind, grid, ends = cfg["kind"], cfg["time"], cfg["endpoints"]
    path = _built("config.path", FixedPath, grid, cfg["path"](grid.N + 1))
    fn = influence_K1 if kind == "K1" else influence_K2
    result = fn(
        cfg["potentials"], path, ends["a"], ends["b"], cfg["lattice"], grid,
        cfg["mass"], **cfg.get("scheme", {}),
    )
    amp, phase = result.amplitude, result.effective_phase
    payload = {
        "kind": f"influence_{kind}",
        "endpoints": list(result.endpoints),
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


def _run_charge_transfer(cfg, threads):
    spec = _capture_spec(cfg)
    mode, lam, angles = cfg["mode"], cfg["lam"], cfg["angles"]
    total = ct_total_cross_section(spec, lam=lam, mode=mode)
    dsigma = ct_differential_cross_section(spec, angles, lam=lam, mode=mode)
    rows = list(zip(angles, dsigma))
    payload = {
        "kind": "ChargeTransferBorn",
        "mode": mode,
        "lam": lam,
        "interaction": spec.interaction,
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
    mode, lam, theta, seed = cfg["mode"], cfg["lam"], cfg["theta"], cfg["seed"]
    est = brute_force_oracle(
        spec, theta, samples=cfg["samples"], lam=lam, mode=mode, seed=seed,
        n_threads=threads,
    )
    route = capture_amplitude(spec, theta, lam=lam, mode=mode)
    deviation = abs(est.value - route)
    payload = {
        "kind": "capture_oracle",
        "mode": mode,
        "lam": lam,
        "theta": theta,
        "seed": seed,
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
        "n_theta?": int,
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
    """Validate one config, run it, and write csv + json into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir!r} is not writable")
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runner, schema = _COMMANDS[command]
        payload, header, rows = runner(_validate(params, schema, "config"), threads)
    elapsed = time.perf_counter() - started
    document = {
        "schema_version": "1",
        "command": command,
        "config": params,
        "payload": payload,
        "diagnostics": {"warnings": sorted(str(w.message) for w in caught)},
    }
    _write_outputs(os.path.join(out_dir, command), header, rows, document)
    print(f"elapsed_seconds={elapsed:.3f}", file=sys.stderr)
    return document


def main(argv=None):
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
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker threads for oracle sample blocks (results unchanged)",
        )
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        command, params = parse_config(text)
        if command != args.command:
            raise ConfigError(
                f"config declares command {command!r} but {args.command!r} was invoked"
            )
        params = apply_overrides(params, args.set)
        run(command, params, args.out, threads=max(1, args.threads))
    except (OSError, ConfigError) as exc:
        print(json.dumps({"error": {"type": "ConfigError", "message": str(exc)}}))
        return 2
    except NumericalError as exc:
        doc = {"error": {"type": "NumericalError", "message": str(exc)}}
        if exc.estimate is not None:
            doc["error"]["estimate"] = float(exc.estimate)
        print(json.dumps(doc))
        return 3
    except DomainError as exc:
        print(json.dumps({"error": {"type": "DomainError", "message": str(exc)}}))
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
