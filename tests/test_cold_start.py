"""Process start-up: importing pathscat loads numpy but no scipy
subpackage, and each one loads at its first use.

Every check runs in a fresh interpreter, because this test process
already holds scipy through the other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from pathscat import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"
SCIPY = ("scipy.fft", "scipy.special", "scipy.integrate", "scipy.stats")
# prints the scipy subpackages the interpreter holds, as a JSON list
LOADED = f"print(json.dumps([m for m in {SCIPY!r} if m in sys.modules]))"


def _fresh(*argv, cwd=None):
    """Run python with argv in a new interpreter that finds src/ first;
    it must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run


def _loaded(code):
    """The scipy subpackages held after code runs in a fresh interpreter."""
    out = _fresh("-c", f"import json, sys\n{code}\n{LOADED}").stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_scipy_subpackage():
    assert _loaded("import pathscat") == []


def test_scattering_and_propagator_demos_load_neither_stats_nor_integrate(tmp_path):
    runs = "\n".join(
        f"assert cli.main([{c!r}, '--config', {str(CONFIGS / f'{c}.yaml')!r}, "
        f"'--out', {str(tmp_path / c)!r}]) == 0"
        for c in ("charge-transfer", "born-elastic", "propagator")
    )
    loaded = _loaded(f"from pathscat import cli\n{runs}")
    assert "scipy.stats" not in loaded
    assert "scipy.integrate" not in loaded


def test_threaded_oracle_as_first_scipy_call_matches_one_thread():
    # the 2-thread call imports scipy.stats and builds the radius table
    # before its pool starts; its result must equal the 1-thread call's
    code = """
from pathscat import capture
assert "scipy.stats" not in sys.modules
assert capture._log_gamma3_table.cache_info().currsize == 0
spec = capture.make_capture_spec(1.0, 1.0, 1.0, 1.0, 2.0, "Sum")
runs = [capture.brute_force_oracle(spec, 0.01, samples=131072, mode="jacobi",
                                   seed=5, n_threads=n) for n in (2, 1)]
print(json.dumps([[r.value.real.hex(), r.value.imag.hex(), r.error.hex(), r.samples]
                  for r in runs]))
"""
    threaded, single = json.loads(_fresh("-c", f"import json, sys\n{code}").stdout)
    assert threaded == single


def test_module_entry_point_writes_the_in_process_bytes(tmp_path):
    config = str(CONFIGS / "charge-transfer.yaml")
    assert cli.main(["charge-transfer", "--config", config,
                     "--out", str(tmp_path / "in")]) == 0
    _fresh("-m", "pathscat", "charge-transfer", "--config", config,
           "--out", str(tmp_path / "module"), cwd=tmp_path)
    for suffix in ("csv", "json"):
        name = f"charge-transfer.{suffix}"
        assert (tmp_path / "module" / name).read_bytes() == \
            (tmp_path / "in" / name).read_bytes()
