"""The demo output digests of tools/demo_digests.py."""

import hashlib
import importlib.util
import re
from pathlib import Path

from pathscat import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "demo_digests", ROOT / "tools" / "demo_digests.py")
demo_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(demo_digests)


def test_main_prints_a_digest_of_each_demo_output(capsys, tmp_path):
    demo_digests.main()
    rows = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    stems = sorted(p.stem for p in (ROOT / "demos" / "configs").glob("*.yaml"))
    assert [name for _, name in rows] == [
        f"{stem}/{stem}.{ext}" for stem in stems for ext in ("csv", "json")]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in rows)
    # each digest is that of the file the CLI writes for the config
    config = ROOT / "demos" / "configs" / "born-elastic.yaml"
    assert cli.main(["born-elastic", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for digest, name in rows:
        if name.startswith("born-elastic/"):
            path = tmp_path / name.split("/")[1]
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
