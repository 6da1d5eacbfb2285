"""Regenerate tests/data/desk_sweep_digest.json, the frozen desk-scale sweep.

Runs `equivkit simulate --design univariate-sweep --desk --seed 1` (168
cells of 10^4 replicates: four methods, 21 standard errors, nu2 10 to 80,
theta 0 and c0) and records the SHA-256 of the CSV it writes, with its
line count and the numpy and scipy versions it ran on.  The digest is
exact on those versions only.  Run from the repository root:

    python3 scripts/gen_desk_sweep_digest.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from equivkit.cli import main as cli_main  # noqa: E402

OUT = ROOT / "tests" / "data" / "desk_sweep_digest.json"
ARGV = ["simulate", "--design", "univariate-sweep", "--desk", "--seed", "1"]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = pathlib.Path(tmp) / "desk.csv"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):  # the command's JSON echo
            code = cli_main([*ARGV, "--out", str(csv_path)])
        if code != 0:
            raise SystemExit("the desk sweep failed")
        elapsed = time.perf_counter() - start
        blob = csv_path.read_bytes()
    frozen = {
        "argv": ARGV,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "lines": blob.count(b"\n"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    OUT.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}: {frozen['sha256']} ({frozen['lines']} lines, {elapsed:.1f}s)")


if __name__ == "__main__":
    main()
