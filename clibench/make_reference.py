"""Regenerate the reference artifacts in ``reference/``.

Usage (from the root of a checkout): python3 clibench/make_reference.py

Runs cycle 0 of the reference seed of every workload, one fresh CLI
process per operation, and stores a digest of each artifact (see
``checks.digest``). Run it only when a change to the program is meant
to change its outputs beyond the tolerance stated in ``checks.py``, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import REFERENCE_DIR, REFERENCE_SEED, digest, read_artifact  # noqa: E402
from workloads import WORKLOADS, cycle_ops  # noqa: E402


def main() -> int:
    root = Path.cwd().resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".clibench_work" / "reference"
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        ops = {}
        for op in cycle_ops(workload, REFERENCE_SEED, 0):
            out_dir = work / op.op_id
            out_dir.mkdir(parents=True)
            subprocess.run(
                [sys.executable, "-m", "ringpair.cli", *op.argv(out_dir.relative_to(root))],
                cwd=root, env=env, check=True, timeout=120,
            )
            ops[op.op_id] = {
                art.name: digest(read_artifact(out_dir / art.name, art), art)
                for art in op.artifacts
            }
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"seed": REFERENCE_SEED, "ops": ops}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(root)}")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
