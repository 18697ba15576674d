"""Every narrative demo runs to completion against the current API."""

import runpy
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, monkeypatch, demo):
    # In-process, as __main__; TMPDIR, tempfile's cached default and the
    # working directory keep every file a demo writes inside tmp_path.
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(demo), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{demo.name} exited with {exc.code}"
