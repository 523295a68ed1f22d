"""Fresh-process benchmark of the ringpair command line.

Usage (from the root of a checkout):

    python3 clibench/run.py --workload {oneshot,sweep,spectrum_wide} \
        --seed N --seconds S --trace {0,1}

Every operation is a fresh ``python -m ringpair.cli ...`` process with
``PYTHONPATH=src``, run by one client in a closed loop: the next one
starts when the previous one has exited, so one child runs at a time.
The inputs come from ``workloads.py`` and depend only on the workload
and the seed. A run makes a whole number of workload cycles, sized from
``--seconds`` by a fixed nominal cycle cost, so every run of a workload
has the same sample count and mix of operation kinds, however fast the
host is.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every operation twice, untraced and through
``trace_boot.py`` (alternating which goes first), checks that both wrote
byte-identical artifacts and reports the per-layer metrics and the
tracing overhead.

Output: a ``{"report": ...}`` line with the environment, sample counts
and details, then, as the last line, ``{"correct", "attempted",
"failed", "metrics"}``. The report is also written to
``.clibench_results/``. Scratch files live in ``.clibench_work/`` and are
removed at exit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import REFERENCE_SEED, CheckFailed, check_operation, load_reference  # noqa: E402
from workloads import WORKLOADS, Operation, cycle_count, cycle_ops  # noqa: E402

BENCH_DIR = "clibench"
WORK_DIR = ".clibench_work"
RESULTS_DIR = ".clibench_results"
SETUP_SAMPLES = 9
OP_TIMEOUT_S = 25.0
# Every run makes all its planned cycles. Only a stalled host stops one
# early: no operation starts later than HARD_LIMIT_S after the run began,
# so with OP_TIMEOUT_S per process (two in a traced operation) a run ends
# within three minutes. A run that stops early is reported as failed.
HARD_LIMIT_S = 120.0
# Computed, not measured: the numpy kernel materializes three
# points-by-lines float64 arrays (offsets, denominators, profiles).
LORENTZIAN_BYTES_PER_ELEM = 3 * 8

E2E_UNITS = {
    "setup_s": "s",
    "cmd_wall_p50_s": "s",
    "cmd_wall_tail_s": "s",
    "cmd_cpu_p50_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "cli", "deviceio", "geometry", "linear_cmt", "enhancement", "kernels",
    "quadrature", "nonlinear", "sfwm", "design",
)
SELF_SPANS = (
    "cli.main", "deviceio.load_device", "deviceio.device_from_dict",
    "deviceio.write_text_atomic", "geometry.resonance_comb",
    "enhancement.intensity_spectrum", "enhancement.spectrum_to_csv",
    "kernels.lorentzian_comb", "kernels.pair_kernel", "kernels.dc_overlap_integrand",
    "quadrature.integrate_adaptive", "sfwm.pair_rate_integral", "sfwm.noise_budget",
    "nonlinear.z_overlap_integral", "nonlinear.j_quadrature", "nonlinear.resonant_config",
    "design.optimize_device", "design.tune_for_energy_conservation",
    "design.evaluate_design",
)
COUNTS = (
    "deviceio.device_from_dict.calls", "deviceio.bytes_written",
    "geometry.resonance_comb.calls", "geometry.comb_lines", "enhancement.rows",
    "kernels.lorentzian_comb.elems", "kernels.pair_kernel.evals",
    "kernels.dc_overlap_integrand.evals", "quadrature.integrate_adaptive.calls",
    "sfwm.pair_rate_integral.calls",
)

PER_LAYER_UNITS = {
    "import.s": "s",
    "import.scipy_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_SPANS},
    "linear_cmt.self_s": "s",
    **{name: ("bytes" if name.endswith("bytes_written") else "count") for name in COUNTS},
    "kernels.lorentzian_comb.bytes_computed": "bytes",
    "quadrature.evals_per_call": "count",
    "geometry.combs_per_point": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "fail_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.untraced_wall_p50_s": "s",
    "trace.self_over_wall_max": "ratio",
}


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    stderr: str


def spawn(argv: list[str], root: Path, env: dict, err_path: Path) -> Proc:
    """Run one child to exit; wall from spawn to reap, CPU and peak RSS
    from its rusage (which covers all of the child's threads)."""
    timed_out = threading.Event()
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        timed_out=timed_out.is_set(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(op: Operation, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "ringpair.cli", *op.argv(out_dir)]


def traced_argv(op: Operation, out_dir: Path, trace_json: Path) -> list[str]:
    return [
        sys.executable, "-X", "importtime", f"{BENCH_DIR}/trace_boot.py",
        str(trace_json), op.op_id, "--", *op.argv(out_dir),
    ]


def scipy_import_s(importtime_log: str) -> float:
    """Import time of scipy modules from ``-X importtime``.

    Lines come children first; a module's nesting is its indent. A
    scipy entry counts with its cumulative time less that of the
    ``numpy`` package imported under it, which the program needs
    without scipy too; numpy submodules that scipy pulls in count as
    scipy's. Any other entry passes up the totals of its children."""
    pending: list[tuple[int, float, float]] = []  # (level, scipy s, numpy s)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" "))) // 2
        scipy_s = numpy_s = 0.0
        while pending and pending[-1][0] > level:
            _, s, n = pending.pop()
            scipy_s += s
            numpy_s += n
        module = name.strip()
        if module.split(".")[0] == "scipy":
            scipy_s = int(cumulative) * 1e-6 - numpy_s
        elif module == "numpy":
            numpy_s = int(cumulative) * 1e-6
        pending.append((level, scipy_s, numpy_s))
    return sum(s for _, s, _ in pending)


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop; context for drift only."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
        "host_probe_ms_start": host_probe_ms(),
    }


# ---------------------------------------------------------------- setup


def check_checkout(root: Path, env: dict) -> None:
    """Fail unless a fresh interpreter imports this checkout's ringpair."""
    probe = subprocess.run(
        [sys.executable, "-c", "import ringpair; print(ringpair.__file__)"],
        cwd=root, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    expected = (root / "src" / "ringpair" / "__init__.py").resolve()
    if probe.returncode != 0 or Path(probe.stdout.strip()).resolve() != expected:
        raise SystemExit(
            f"cannot import ringpair from {expected}: {probe.stderr.strip()[-400:]}"
        )


def time_setup(root: Path, env: dict, work: Path) -> float:
    """Wall time of one fresh ``python -c "import ringpair"``."""
    res = spawn([sys.executable, "-c", "import ringpair"], root, env, work / "setup.err")
    if res.code != 0:
        raise SystemExit(f"import ringpair failed: {res.stderr[-400:]}")
    return res.wall


# ---------------------------------------------------------------- runs


@dataclass
class OpRecord:
    op: Operation
    proc: Proc
    ok: bool = True
    error: str = ""
    traced: Proc | None = None
    self_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    import_s: float = 0.0
    scipy_s: float = 0.0
    self_total: float = 0.0


def _fail(rec: OpRecord, message: str) -> None:
    rec.ok = False
    rec.error = rec.error or message


def _check(rec: OpRecord, proc: Proc, out_dir: Path, reference) -> None:
    if proc.timed_out:
        _fail(rec, f"timed out after {OP_TIMEOUT_S} s")
    elif proc.code != 0:
        _fail(rec, f"exit {proc.code}: {proc.stderr.strip()[-400:]}")
    else:
        try:
            check_operation(rec.op, out_dir, reference)
        except CheckFailed as exc:
            _fail(rec, str(exc))


def _self_times(spans: list) -> tuple[dict, float]:
    """Self time per span name: duration minus that of its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out, sum(out.values())


def _same_artifacts(op: Operation, a: Path, b: Path) -> bool:
    return all(
        (a / art.name).read_bytes() == (b / art.name).read_bytes() for art in op.artifacts
    )


def run_ops(ops: list[Operation], root: Path, env: dict, work: Path, trace: bool,
            reference: dict | None, deadline: float) -> tuple[list[OpRecord], list[float]]:
    """Run the operations in order; untraced runs also take SETUP_SAMPLES
    set-up samples, spread over the cycles so they span the whole run."""
    records: list[OpRecord] = []
    setup_walls: list[float] = []
    n_cycles = ops[-1].cycle + 1
    for op in ops:
        if time.perf_counter() > deadline:
            break
        if op.index == 0:
            due = 0 if trace else -(-SETUP_SAMPLES * (op.cycle + 1) // n_cycles)
            while len(setup_walls) < due:
                setup_walls.append(time_setup(root, env, work))
        out_dir = work / op.op_id
        plain, traced = out_dir / "plain", out_dir / "traced"
        plain.mkdir(parents=True)
        ref = reference if op.cycle == 0 else None

        def run_plain() -> Proc:
            return spawn(cli_argv(op, plain.relative_to(root)), root, env, out_dir / "plain.err")

        if not trace:
            rec = OpRecord(op, run_plain())
            _check(rec, rec.proc, plain, ref)
        else:
            traced.mkdir()
            trace_json = out_dir / "trace.json"

            def run_traced() -> Proc:
                argv = traced_argv(op, traced.relative_to(root), trace_json)
                return spawn(argv, root, env, out_dir / "traced.err")

            # Alternate which side runs first, so an order effect cancels
            # out of the overhead.
            if len(records) % 2 == 0:
                plain_proc = run_plain()
                traced_proc = run_traced()
            else:
                traced_proc = run_traced()
                plain_proc = run_plain()
            rec = OpRecord(op, plain_proc, traced=traced_proc)
            _check(rec, rec.proc, plain, ref)
            _check(rec, rec.traced, traced, ref)
            if rec.ok and not _same_artifacts(op, plain, traced):
                _fail(rec, "traced artifacts differ from untraced ones")
            if trace_json.is_file():
                data = json.loads(trace_json.read_text(encoding="utf-8"))
                rec.self_s, rec.self_total = _self_times(data["spans"])
                rec.counts = data["counts"]
                rec.import_s = rec.self_s.get("import", 0.0)
                rec.scipy_s = scipy_import_s(rec.traced.stderr)
                if rec.self_total > rec.traced.wall:
                    _fail(rec, f"self times {rec.self_total} s exceed wall {rec.traced.wall} s")
            elif rec.ok:
                _fail(rec, "trace file missing")
        shutil.rmtree(out_dir)
        records.append(rec)
    return records, setup_walls


# ---------------------------------------------------------------- metrics


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it,
    and its percentile; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    i = n - 11
    return ordered[i], 100.0 * i / (n - 1)


def end_to_end(records: list[OpRecord], setup_walls: list[float]) -> tuple[dict, dict]:
    walls = [r.proc.wall for r in records]
    tail, pct = _tail(walls)
    rows = sum(r.op.rows for r in records if r.ok)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "cmd_wall_p50_s": statistics.median(walls),
        "cmd_wall_tail_s": tail,
        "cmd_cpu_p50_s": statistics.median(r.proc.cpu for r in records),
        "rows_per_s": rows / sum(walls),
        "peak_rss_mb": max(r.proc.rss_mb for r in records),
    }
    details = {
        "samples": len(walls),
        "setup_samples": len(setup_walls),
        "tail_percentile": pct,
        "rows": rows,
        "run_wall_s": sum(walls),
        "fail_ratio": sum(not r.ok for r in records) / len(records),
        "setup_walls_s": setup_walls,
        "op_walls_s": {r.op.op_id: r.proc.wall for r in records},
    }
    return metrics, details


def per_layer(records: list[OpRecord]) -> tuple[dict, dict]:
    """Per-operation figures: times are the median over cycles of the
    cycle's mean per operation; counts are means over all operations,
    which repeat exactly for a fixed seed and run length."""
    n = len(records)
    totals: dict[str, float] = {}
    cycles: dict[int, list[OpRecord]] = {}
    for r in records:
        cycles.setdefault(r.op.cycle, []).append(r)
        for key, value in r.counts.items():
            totals[key] = totals.get(key, 0) + value

    def cycle_median(get) -> float:
        return statistics.median(
            sum(get(r) for r in recs) / len(recs) for recs in cycles.values()
        )

    m: dict[str, float] = {
        "import.s": statistics.median(r.import_s for r in records),
        "import.scipy_s": statistics.median(r.scipy_s for r in records),
    }
    for name in SELF_SPANS:
        m[f"{name}.self_s"] = cycle_median(lambda r, k=name: r.self_s.get(k, 0.0))
    m["linear_cmt.self_s"] = cycle_median(
        lambda r: sum(v for k, v in r.self_s.items() if k.startswith("linear_cmt."))
    )
    for name in COUNTS:
        m[name] = totals.get(name, 0) / n
    m["kernels.lorentzian_comb.bytes_computed"] = (
        m["kernels.lorentzian_comb.elems"] * LORENTZIAN_BYTES_PER_ELEM
    )
    calls = totals.get("quadrature.integrate_adaptive.calls", 0)
    m["quadrature.evals_per_call"] = totals.get("quadrature.evals", 0) / calls if calls else 0.0
    sweeps = [r for r in records if r.op.sweep_points]
    points = sum(r.op.sweep_points for r in sweeps)
    combs = sum(r.counts.get("geometry.resonance_comb.calls", 0) for r in sweeps)
    m["geometry.combs_per_point"] = combs / points if points else 0.0
    for layer in LAYERS:
        m[f"{layer}.errors"] = totals.get(f"{layer}.errors", 0) / n
    m["fail_ratio"] = sum(not r.ok for r in records) / n
    # Each operation runs untraced and then traced back to back, so the
    # paired difference cancels most host drift.
    m["trace.overhead_s"] = statistics.median(r.traced.wall - r.proc.wall for r in records)
    m["trace.untraced_wall_p50_s"] = statistics.median(r.proc.wall for r in records)
    m["trace.self_over_wall_max"] = max(r.self_total / r.traced.wall for r in records)
    details = {
        "samples": n,
        "traced_wall_p50_s": statistics.median(r.traced.wall for r in records),
        "per_op_counts": {r.op.op_id: r.counts for r in records},
    }
    return m, details


# ---------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = Path.cwd().resolve()
    if not (root / "src" / "ringpair" / "cli.py").is_file():
        print(f"no ringpair sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / WORK_DIR / str(os.getpid())
    work.mkdir(parents=True)
    try:
        env_block = environment()
        check_checkout(root, env)
        trace = bool(args.trace)
        passes = 2 if trace else 1
        n_cycles = cycle_count(args.workload, args.seconds, passes)
        ops = [op for c in range(n_cycles) for op in cycle_ops(args.workload, args.seed, c)]
        reference = load_reference(args.workload) if args.seed == REFERENCE_SEED else None
        deadline = started + HARD_LIMIT_S
        t0 = time.perf_counter()
        records, setup_walls = run_ops(ops, root, env, work, trace, reference, deadline)
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    if not records:
        print(f"no operation started within {HARD_LIMIT_S} s", file=sys.stderr)
        return 3
    env_block["loadavg_end"] = list(os.getloadavg())
    env_block["host_probe_ms_end"] = host_probe_ms()
    if trace:
        metrics, details = per_layer(records)
        units = PER_LAYER_UNITS
    else:
        metrics, details = end_to_end(records, setup_walls)
        units = E2E_UNITS
    failures = [{"op": r.op.op_id, "error": r.error} for r in records if not r.ok]
    skipped = len(ops) - len(records)
    if skipped:
        failures.append({"op": "run", "error": f"hard limit of {HARD_LIMIT_S} s reached; "
                                               f"{skipped} of {len(ops)} operations not run"})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": n_cycles,
        "operations_run": len(records),
        "measured_s": measured_s,
        "reference_checked": reference is not None,
        "environment": env_block,
        "details": details,
        "failures": failures,
        "metrics": metrics,
    }
    results = root / RESULTS_DIR
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    summary = {k: v for k, v in report.items() if k != "details"}
    summary["details"] = {k: v for k, v in details.items() if k != "per_op_counts"}
    print(json.dumps({"report": summary}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(not r.ok for r in records) + skipped,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
