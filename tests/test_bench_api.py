"""The benchmark's calls into pathscat still work.

`bench/workloads.py` drives the public API with the keywords a user
would pass. Building all four workloads, and running one traced pass of
each through its own checks, makes an API change that would break the
benchmark's calls or its tracer's reads fail here as well.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds(tmp_path, name):
    workload = workloads.WORKLOADS[name](SEED, str(ROOT), str(tmp_path))
    assert workload.steps


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_traced_pass_has_no_failed_step(tmp_path, name):
    workload = workloads.WORKLOADS[name](SEED, str(ROOT), str(tmp_path))
    result = run.run_pass(workload, tracing.Tracer())
    assert result["failed"] == 0, result["failures"]
