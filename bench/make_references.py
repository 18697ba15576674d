"""Recompute the stored references in bench/references.json.

Run from the repository root:

    python3 bench/make_references.py

The capture workload draws its velocity from CAPTURE_VELOCITIES, so each
velocity needs one reference total. It is the same angular rule the
workload uses, evaluated with every momentum-quadrature node count
doubled (nk, nmu, nphi). The workload's tolerance admits the default
rule's error against it, about 1e-3, so a more accurate momentum rule
also passes. This takes about half a minute per velocity.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pathscat.capture import (  # noqa: E402
    CaptureQuadrature,
    ct_total_cross_section,
    make_capture_spec,
)

from workloads import CAPTURE_CASE, CAPTURE_VELOCITIES  # noqa: E402

DOUBLED = CaptureQuadrature(nk=192, nmu=128, nphi=96)


def main():
    case = CAPTURE_CASE
    values = {}
    for v in CAPTURE_VELOCITIES:
        started = time.perf_counter()
        spec = make_capture_spec(1.0, 1.0, 1.0, 1.0, v, case["interaction"])
        total = ct_total_cross_section(
            spec, lam=case["lam"], mode=case["mode"], quad=DOUBLED, **case["rule"]
        )
        values[repr(v)] = total.value
        print(f"v={v}: {total.value!r} ({time.perf_counter() - started:.1f} s)",
              file=sys.stderr)
    doc = {
        "capture_total": {
            "how": (
                "ct_total_cross_section for p + H(1s), Internuclear, jacobi, at "
                "the workload's lam and angular rule, with CaptureQuadrature("
                "nk=192, nmu=128, nphi=96): the default momentum nodes doubled"
            ),
            "case": case,
            "quad": {"nk": DOUBLED.nk, "nmu": DOUBLED.nmu, "nphi": DOUBLED.nphi,
                     "k_scale": DOUBLED.k_scale},
            "values": values,
        }
    }
    path = os.path.join(ROOT, "bench", "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
