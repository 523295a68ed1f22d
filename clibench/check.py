"""Self-check of the benchmark: exact counts repeat, tracing changes nothing.

Usage (from the root of a checkout): python3 clibench/check.py

For every workload, runs ``run.py --trace 1`` twice with the reference
seed and requires that:

* both runs are correct: every artifact passes its checks (including the
  reference comparison), traced and untraced artifacts are byte-identical,
  and no operation's summed self time exceeds its wall time;
* every ``.calls``, ``.evals``, ``comb_lines``, ``rows`` and ``bytes``
  count of every operation is exactly the same in both runs;
* each 401-point sweep makes 1203 ``resonance_comb`` calls, and each
  rates sweep 1203 ``pair_rate_integral`` calls.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import REFERENCE_SEED  # noqa: E402
from run import RESULTS_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Run length handed to run.py; it gives the minimum of two cycles.
SECONDS = 1.0
EXACT = (".calls", ".evals", "comb_lines", "rows", "bytes_written", "errors")


def traced_run(workload: str) -> tuple[dict, dict]:
    cmd = [sys.executable, "clibench/run.py", "--workload", workload,
           "--seed", str(REFERENCE_SEED), "--seconds", str(SECONDS), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    name = f"{workload}-seed{REFERENCE_SEED}-trace1.json"
    report = json.loads((Path(RESULTS_DIR) / name).read_text(encoding="utf-8"))
    return result, report


def exact_counts(report: dict) -> dict:
    return {
        op: {k: v for k, v in counts.items() if k.endswith(EXACT)}
        for op, counts in report["details"]["per_op_counts"].items()
    }


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        runs = [traced_run(workload) for _ in range(2)]
        for n, (result, report) in enumerate(runs, 1):
            if not result["correct"]:
                problems.append(f"{workload} run {n}: {report['failures']}")
        first, second = (exact_counts(report) for _, report in runs)
        if first != second:
            diff = [op for op in first if first[op] != second.get(op)]
            problems.append(f"{workload}: counts differ between runs for {diff}")
        for op, counts in first.items():
            if "sweep-suppression" in op or "sweep-rates" in op:
                if counts.get("geometry.resonance_comb.calls") != 1203:
                    problems.append(f"{op}: {counts.get('geometry.resonance_comb.calls')} "
                                    "resonance_comb calls, expected 1203")
            if "sweep-rates" in op and counts.get("sfwm.pair_rate_integral.calls") != 1203:
                problems.append(f"{op}: {counts.get('sfwm.pair_rate_integral.calls')} "
                                "pair_rate_integral calls, expected 1203")
        print(f"{workload}: {len(first)} operations traced twice, "
              f"overhead {runs[0][1]['metrics']['trace.overhead_s']:.3f} s")
    for problem in problems:
        print("FAIL", problem)
    print("check passed" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
