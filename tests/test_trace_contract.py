"""The benchmark's contract with ``ringpair``: names and command lines.

trace_boot patches functions by module and name and fails with a
``KeyError`` or ``AttributeError`` when one is dropped or renamed, and
every operation of ``clibench/workloads.py`` is a command line that the
CLI must accept and, for the operations that solve combs, run to exit 0.
These tests catch a rename, a dropped flag or a refused band in the
suite instead of in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import ringpair.cli  # imports every module trace_boot patches

from conftest import DEVICE_JSON, REPO

TRACE_BOOT = REPO / "clibench" / "trace_boot.py"
WORKLOADS = REPO / "clibench" / "workloads.py"
# The benchmark's run length (BENCHMARK.json) and the seeds checked.
RUN_SECONDS = 20
SEEDS = (0, 1, 2)
# Operations that solve combs and pick pump and partner lines over a
# seeded band. Spectra are left out: they pick no line, and the wide ones
# take seconds each.
COMB_OPS = ("overlap", "rates", "suppression", "optimize", "sweep-suppression", "sweep-rates")


def _load(path):
    spec = importlib.util.spec_from_file_location(f"clibench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _targets() -> dict:
    return _load(TRACE_BOOT).TARGETS


@pytest.mark.parametrize("layer, names", _targets().items())
def test_every_target_exists(layer, names):
    module = sys.modules[f"ringpair.{layer}"]
    if names is None:
        names = [n for n, f in vars(module).items()
                 if inspect.isfunction(f) and not n.startswith("_")]
        assert names
    for name in names:
        assert inspect.isfunction(getattr(module, name))


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--band", "192THz", "195THz", "--points", "101"],
        ["rates", "--band", "192THz", "195THz", "--photons", "5e4"],
    ],
    ids=["spectrum", "rates"],
)
def test_trace_boot_runs(argv, tmp_path):
    trace = tmp_path / "trace.json"
    out = tmp_path / "artifact"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(TRACE_BOOT), str(trace), "op", "--",
         argv[0], "--device", str(DEVICE_JSON), *argv[1:], "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    spans = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert {"import", "cli.main", "deviceio.load_device", "geometry.resonance_comb"} <= spans


def _benchmark_ops(workload, seed):
    """The operations of a benchmark run of ``RUN_SECONDS`` with ``seed``."""
    workloads = _load(WORKLOADS)
    return [op for cycle in range(workloads.cycle_count(workload, RUN_SECONDS))
            for op in workloads.cycle_ops(workload, seed, cycle)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["oneshot", "sweep", "spectrum_wide"])
def test_every_benchmark_command_line_parses(workload, seed, tmp_path):
    # Parsing only: argparse exits 2 on a dropped flag or choice, such as
    # overlap --method, which would make the benchmark fail.
    parser = ringpair.cli.build_parser()
    ops = _benchmark_ops(workload, seed)
    assert ops
    for op in ops:
        args = parser.parse_args(op.argv(tmp_path))
        assert args.op == op.args[0]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["oneshot", "sweep"])
def test_every_comb_operation_of_the_benchmark_succeeds(workload, seed, tmp_path, monkeypatch,
                                                         capsys):
    # A refused band or side-band partner would fail benchmark operations;
    # here it fails the suite first. Operations name the device relative
    # to the checkout root.
    monkeypatch.chdir(REPO)
    ops = [op for op in _benchmark_ops(workload, seed) if op.label in COMB_OPS]
    assert ops
    for op in ops:
        assert ringpair.cli.main(op.argv(tmp_path)) == 0, (op.op_id, capsys.readouterr().err)
    capsys.readouterr()
