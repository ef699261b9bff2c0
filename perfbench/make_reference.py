"""Regenerate reference.json, the exact answers every run is checked against.

Run from the root of a checkout:  python3 perfbench/make_reference.py

Each workload runs once in this process with answer recording in place of
checking.  Spectrum entries also record whether the shape is a centipede,
so that runs can assert the paper's invariant that h2_dim > 0 occurs only
on centipede shapes.  The file was generated once from the seed commit
and must not be regenerated to make a failing check pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from arbocoh.shapes import classify_shape, star_shape  # noqa: E402

from passes import Pass  # noqa: E402
from workloads import LARGE_GROUP, RUNNERS, spectrum_shapes  # noqa: E402

GENERATION_SEED = 0


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    answers = {}
    for name, runner in RUNNERS.items():
        p = Pass(None)
        runner(p, GENERATION_SEED, 0)
        if p.failures:
            print(f"{name}: {p.failures}", file=sys.stderr)
            return 1
        answers.update(p.recorded)
    spectra = dict(spectrum_shapes(), **{LARGE_GROUP[0]: star_shape(LARGE_GROUP[1])})
    for key, s in spectra.items():
        entry = answers[key]
        entry["centipede"] = classify_shape(s).tag == "centipede"
        if not entry["centipede"] and any(h2 for _deg, h2 in entry["spectrum"]):
            print(f"{key}: h2_dim > 0 on a non-centipede shape", file=sys.stderr)
            return 1
    answers["_generated_from"] = {"commit": commit(), "seed": GENERATION_SEED}
    lines = [f" {json.dumps(k)}: {json.dumps(answers[k])}" for k in sorted(answers)]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
