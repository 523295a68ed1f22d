"""Seeded operation lists for the three benchmark workloads.

An operation is one ``python -m ringpair.cli ...`` invocation. A workload
is a fixed cycle of operation kinds; cycle ``k`` of seed ``s`` draws its
band positions and parameter values from ``random.Random`` seeded with
``"<workload>:<s>:<k>"``, so the same seed always gives the same inputs.
Band widths, point counts and sweep lengths never depend on the seed:
only positions and values move, so the work per operation is fixed.

Every operation names the artifacts it writes and their expected shape,
which ``checks.py`` verifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Relative to the checkout root, where every operation runs.
DEVICE = "clibench/device.json"

# Nominal wall seconds of one cycle on a 2-CPU host without numba. They
# size the number of cycles a run makes from --seconds, so the sample
# count and the mix of operation kinds are the same in every run; they
# are never used to scale a measured value. At --seconds 20 they give 4,
# 6 and 7 cycles (28, 12 and 14 operations), so a run lasts 25-45 s on
# such a host and the full set of benchmark runs fits its time budget.
# Only oneshot has 21 or more operations, so only there is the tail (the
# eleventh operation from the top) above the median: on sweep it is p9,
# which always falls on a suppression sweep, and on spectrum_wide p23.
NOMINAL_CYCLE_S = {"oneshot": 5.6, "sweep": 3.6, "spectrum_wide": 2.8}


@dataclass(frozen=True)
class Artifact:
    """One output file: CSV with ``fields`` columns and ``rows`` data rows,
    or JSON whose top-level object has exactly the keys ``fields``."""

    flag: str
    name: str
    kind: str  # "csv" or "json"
    fields: tuple[str, ...]
    rows: int = 1


@dataclass(frozen=True)
class Operation:
    workload: str
    cycle: int
    index: int
    label: str
    args: tuple[str, ...]
    artifacts: tuple[Artifact, ...]
    sweep_points: int = 0  # rows of a comb-based sweep, for combs_per_point

    @property
    def op_id(self) -> str:
        return f"{self.workload}-c{self.cycle}-{self.index}-{self.label}"

    def argv(self, out_dir: Path) -> list[str]:
        """CLI arguments with every artifact written under ``out_dir``."""
        argv = list(self.args)
        for art in self.artifacts:
            argv += [art.flag, str(out_dir / art.name)]
        return argv

    @property
    def rows(self) -> int:
        return sum(a.rows for a in self.artifacts)


def _g(x: float) -> str:
    return f"{x:.6g}"


def _thz_band(lo_thz: float, width_thz: float) -> list[str]:
    return ["--band", f"{_g(lo_thz)}THz", f"{_g(lo_thz + width_thz)}THz"]


SPECTRUM = ("omega_rad_s", "f1_sq", "f2_sq")
SUPPRESSION = ("delta_over_linewidth", "suppression", "signal_rate", "parasitic_rate")
OVERLAP = ("enh_abs", "j_abs", "j_phase", "method", "warnings", "z_factor_abs")
RATES = (
    "beta_sq_parasitic", "beta_sq_signal", "detuning_delta", "kcal", "notes",
    "pulse_duration", "rate_parasitic_per_s", "rate_signal_per_s", "sigma",
    "snr_improvement", "suppression",
)
KERR = (
    "compensation", "crosstalk_at_null", "delta_beta", "induced_shift",
    "isolation_db_cold", "kerr_metric", "metric_limit", "notes",
)
DEVICE_KEYS = ("coupling_model", "dc", "ring1", "ring2", "schema", "waveguide")
SWEEP_FIELDS = {
    "isolation": ("param_value", "isolation_db"),
    "suppression": ("param_value", "suppression", "detuning_1", "detuning_2"),
    "rates": ("param_value", "signal_rate", "parasitic_rate"),
}


def _sweep(workload, cycle, index, rng, report, param, lo, width, points, band_lo):
    lo = lo[0] + rng.random() * (lo[1] - lo[0])
    args = [
        "sweep", "--device", DEVICE, "--param", param,
        "--values", _g(lo), _g(lo + width), str(points), "--report", report,
    ]
    if report != "isolation":
        args += _thz_band(band_lo[0] + rng.random() * (band_lo[1] - band_lo[0]), 3.0)
    art = Artifact("--out", f"{index}-sweep.csv", "csv", SWEEP_FIELDS[report], points)
    comb_points = points if report != "isolation" else 0
    return Operation(workload, cycle, index, f"sweep-{report}", tuple(args), (art,), comb_points)


def _oneshot(cycle: int, rng: random.Random) -> list[Operation]:
    dev = ["--device", DEVICE]
    w = "oneshot"
    u = rng.uniform
    ops = [
        Operation(w, cycle, 0, "spectrum",
                  ("spectrum", *dev, *_thz_band(u(190.0, 196.0), 3.0), "--points", "4001"),
                  (Artifact("--out", "0-spectrum.csv", "csv", SPECTRUM, 4001),)),
    ]
    nm_lo = u(1536.0, 1562.0)
    ops.append(Operation(w, cycle, 1, "overlap",
                         ("overlap", *dev, "--band", f"{_g(nm_lo + 24.0)}nm:{_g(nm_lo)}nm",
                          "--method", "quadrature"),
                         (Artifact("--out", "1-overlap.json", "json", OVERLAP),)))
    ops.append(Operation(w, cycle, 2, "rates",
                         ("rates", *dev, *_thz_band(u(190.0, 196.0), 3.0),
                          "--photons", _g(10.0 ** u(4.0, 5.0)), "--pulse", "1e-9"),
                         (Artifact("--out", "2-rates.json", "json", RATES),)))
    ops.append(Operation(w, cycle, 3, "suppression",
                         ("suppression", *dev, *_thz_band(u(190.0, 196.0), 3.0),
                          "--points", "121", "--max-detuning", "60"),
                         (Artifact("--out", "3-suppression.csv", "csv", SUPPRESSION, 121),)))
    ops.append(Operation(w, cycle, 4, "kerr-check",
                         ("kerr-check", *dev, "--power", _g(u(0.001, 0.01))),
                         (Artifact("--out", "4-kerr.json", "json", KERR),)))
    ops.append(Operation(w, cycle, 5, "optimize",
                         ("optimize", *dev, "--signal", f"{_g(u(1545.0, 1555.0))}nm",
                          "--suppression", "1e-3"),
                         (Artifact("--out", "5-tuned.json", "json", DEVICE_KEYS),
                          Artifact("--report", "5-report.json", "json", ("device", "report")))))
    ops.append(_sweep(w, cycle, 6, rng, "isolation", "dc.gap_m", (2.6e-7, 3.0e-7), 4e-8, 41, None))
    return ops


def _sweep_cycle(cycle: int, rng: random.Random) -> list[Operation]:
    # Both parameters are swept in every run: the comb-bearing ring-2
    # length on even cycles, the coupler gap on odd ones.
    if cycle % 2 == 0:
        param, lo, width = "ring2.straight_len_m", (5.6e-5, 6.1e-5), 1e-6
    else:
        param, lo, width = "dc.gap_m", (2.6e-7, 3.2e-7), 4e-8
    band = (190.0, 196.0)
    return [
        _sweep("sweep", cycle, 0, rng, "suppression", param, lo, width, 401, band),
        _sweep("sweep", cycle, 1, rng, "rates", param, lo, width, 401, band),
    ]


def _spectrum_wide(cycle: int, rng: random.Random) -> list[Operation]:
    dev = ["--device", DEVICE]
    ops = []
    for index, (lo, width, points) in enumerate(
        (((175.0, 205.0), 20.0, 100001), ((145.0, 165.0), 100.0, 20001))
    ):
        band = _thz_band(rng.uniform(*lo), width)
        art = Artifact("--out", f"{index}-spectrum.csv", "csv", SPECTRUM, points)
        ops.append(Operation("spectrum_wide", cycle, index, f"spectrum-{int(width)}thz",
                             ("spectrum", *dev, *band, "--points", str(points)), (art,)))
    return ops


_CYCLES = {"oneshot": _oneshot, "sweep": _sweep_cycle, "spectrum_wide": _spectrum_wide}
WORKLOADS = tuple(_CYCLES)


def cycle_ops(workload: str, seed: int, cycle: int) -> list[Operation]:
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    return _CYCLES[workload](cycle, rng)


def cycle_count(workload: str, seconds: float, passes: int = 1) -> int:
    """Whole cycles to run so a run lasts about ``seconds`` at nominal cost.

    ``passes`` is how many processes each operation takes (2 in a traced
    run, which also repeats every operation untraced)."""
    return max(2, round(seconds / (passes * NOMINAL_CYCLE_S[workload])))
