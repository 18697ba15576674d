"""Print the sha256 of every CSV and JSON the CLI writes for the demo configs.

Runs `pathscat.cli.main` in-process on each demos/configs/*.yaml, each
into its own temporary directory, and prints one line per output file,
`<sha256>  <config stem>/<file name>`, in config order. Run as a script
it imports the package from this tree's src/, so comparing the byte
output of two trees is one run on each and a diff:

    python3 tools/demo_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"


def digests():
    """(config stem/file name, sha256 hex digest) of each output file of
    each demo config, in config and file-name order."""
    from pathscat import cli

    rows = []
    for config in sorted(CONFIGS.glob("*.yaml")):
        command, _ = cli.parse_config(config.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory() as out:
            # the run reports its time on stderr and any failure on stdout
            report = io.StringIO()
            with contextlib.redirect_stdout(report), contextlib.redirect_stderr(report):
                code = cli.main([command, "--config", str(config), "--out", out])
            if code != 0:
                raise RuntimeError(f"{config.name} exited with {code}: {report.getvalue()}")
            for path in sorted(pathlib.Path(out).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                rows.append((f"{config.stem}/{path.name}", digest))
    return rows


def main():
    for name, digest in digests():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
