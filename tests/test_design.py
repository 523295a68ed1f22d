"""Design rules: coupler sizing, gap solving, tuning, and the report."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import pytest
from scipy.constants import c as c0

from ringpair import (
    DesignGoal,
    Infeasible,
    OutOfRange,
    PumpDrive,
    ValidityExceeded,
    evaluate_design,
    finesse,
    fsr,
    isolation_db,
    j_closed_form,
    j_single_ring_baseline,
    j_single_ring_ratio,
    kerr_delta_beta,
    kerr_validity_metric,
    optimal_dc_length,
    optimize_device,
    required_detuning,
    solve_gap_for_uncoupling,
    tune_for_energy_conservation,
    xpm_spm_compensation,
)

from ringpair.design import _tune_diagnostics

from conftest import make_device

GOAL = DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=5e-3)


class TestDesignGoal:
    def test_defaults(self):
        assert GOAL.pump_separation == 2
        assert GOAL.signal_omega == pytest.approx(
            2.0 * math.pi * c0 / 1.55e-6, rel=1e-15
        )

    @pytest.mark.parametrize("sep", [0, 1, 3, -2])
    def test_pump_separation_must_be_even_and_positive(self, sep):
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, pump_separation=sep)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=0.0)
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=1.0)
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, max_kerr_metric=0.0)
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, min_isolation_db=0.0)
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, gap_budget=(1e-6, 5e-8))


class TestOptimalDcLength:
    def test_bend_limited_choice(self):
        choice = optimal_dc_length(1.5e-5)
        assert choice.dc_length == pytest.approx(math.pi * 1.5e-5, rel=1e-15)
        assert choice.ring_length == pytest.approx(4.0 * math.pi * 1.5e-5, rel=1e-15)
        assert choice.ring_length == pytest.approx(4.0 * choice.dc_length, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_dc_length(0.0)


class TestGapSolve:
    def test_first_order_null_reproduces_reference_gap(self):
        dev = make_device()
        gap = solve_gap_for_uncoupling(dev.coupling, dev.dc_length, 1)
        # The factory pins kappa0 = pi / dc_length at the reference gap.
        assert gap == pytest.approx(dev.coupling.gap_ref, rel=1e-12)

    def test_null_lands_at_machine_precision(self):
        dev = make_device()
        for m in (1, 2, 3):
            gap = solve_gap_for_uncoupling(dev.coupling, dev.dc_length, m)
            beat = dev.coupling.kappa_abs(gap) * dev.dc_length
            assert beat == pytest.approx(m * math.pi, rel=1e-14)
            assert isolation_db(dev.coupling.kappa(gap), dev.dc_length) == 200.0

    def test_higher_order_moves_gap_by_log_steps(self):
        dev = make_device()
        g1 = solve_gap_for_uncoupling(dev.coupling, dev.dc_length, 1)
        g2 = solve_gap_for_uncoupling(dev.coupling, dev.dc_length, 2)
        assert g1 - g2 == pytest.approx(dev.coupling.decay_len * math.log(2.0), rel=1e-9)

    def test_unreachable_coupling(self):
        dev = make_device()
        with pytest.raises(OutOfRange):
            solve_gap_for_uncoupling(dev.coupling, dev.dc_length, 1, (5e-7, 1e-6))
        with pytest.raises(OutOfRange):
            solve_gap_for_uncoupling(dev.coupling, dev.dc_length, 5, (2e-7, 1e-6))

    def test_validation(self):
        dev = make_device()
        with pytest.raises(ValueError):
            solve_gap_for_uncoupling(dev.coupling, 0.0, 1)
        with pytest.raises(ValueError):
            solve_gap_for_uncoupling(dev.coupling, dev.dc_length, 0)
        with pytest.raises(ValueError):
            solve_gap_for_uncoupling(dev.coupling, dev.dc_length, 1, (1e-6, 5e-8))


def test_required_detuning_formula():
    goal = replace(GOAL, min_parasitic_suppression=1e-4)
    assert required_detuning(goal, 2.4e10) == pytest.approx(
        2.4e10 * math.sqrt(9999.0), rel=1e-15
    )


class TestTrimTune:
    def test_feasible_goal(self, sample_device):
        res = tune_for_energy_conservation(sample_device, GOAL, mode="trim")
        assert res.mode == "trim"
        lw = GOAL.signal_omega / sample_device.ring2.q_loaded
        assert res.residual <= 1.1e-6 * lw
        assert max(res.suppression) <= GOAL.min_parasitic_suppression
        assert all(s > 0.0 for s in res.suppression)

    def test_trim_only_moves_the_heater(self, sample_device):
        res = tune_for_energy_conservation(sample_device, GOAL, mode="trim")
        dev = res.device
        assert dev.ring2.straight_len == sample_device.ring2.straight_len
        assert dev.dc_gap == sample_device.dc_gap
        assert dev.ring1 == sample_device.ring1
        assert dev.ring2.heater_shift == (
            sample_device.ring2.heater_shift + res.heater_delta
        )
        f2 = fsr(sample_device.ring2, sample_device.waveguide, GOAL.signal_omega)
        assert abs(res.heater_delta) <= 1.6 * f2

    def test_retune_is_idempotent(self, sample_device):
        once = tune_for_energy_conservation(sample_device, GOAL, mode="trim")
        twice = tune_for_energy_conservation(once.device, GOAL, mode="trim")
        lw = GOAL.signal_omega / sample_device.ring2.q_loaded
        assert abs(twice.heater_delta) <= 1e-3 * lw

    def test_unreachable_goal_is_infeasible(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-4)
        with pytest.raises(Infeasible, match="best achievable"):
            tune_for_energy_conservation(sample_device, goal, mode="trim")

    def test_mode_validation(self, sample_device):
        with pytest.raises(ValueError):
            tune_for_energy_conservation(sample_device, GOAL, mode="anneal")


class TestFabricationTune:
    def test_refit_meets_tighter_goal(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-3)
        res = tune_for_energy_conservation(sample_device, goal, mode="fabrication")
        assert res.mode == "fabrication"
        assert max(res.suppression) <= 1e-3
        lw = goal.signal_omega / sample_device.ring2.q_loaded
        assert res.residual <= 1.1e-6 * lw
        # The shorter-ring solution cannot host the coupler here, so the
        # tuner falls back to lengthening ring 2.
        assert res.device.ring2.straight_len > sample_device.ring2.straight_len
        assert any("lengthened" in n for n in res.notes)
        assert res.device.ring2.heater_shift == res.heater_delta

    def test_architectural_frontier(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-6)
        wg = sample_device.waveguide
        lw = goal.signal_omega / sample_device.ring2.q_loaded
        f2 = fsr(sample_device.ring2, wg, goal.signal_omega)
        assert required_detuning(goal, lw) > 0.5 * f2
        with pytest.raises(Infeasible, match="FSR/2"):
            tune_for_energy_conservation(sample_device, goal, mode="fabrication")

    def test_geometry_shortfall_returns_best_effort(self, sample_device):
        base = replace(GOAL, min_parasitic_suppression=1e-3)
        achieved = max(
            tune_for_energy_conservation(
                sample_device, base, mode="fabrication"
            ).suppression
        )
        goal = replace(GOAL, min_parasitic_suppression=0.85 * achieved)
        wg = sample_device.waveguide
        lw = goal.signal_omega / sample_device.ring2.q_loaded
        f2 = fsr(sample_device.ring2, wg, goal.signal_omega)
        # The target sits between what the coupler-limited geometry
        # reaches and the architectural frontier.
        assert required_detuning(goal, lw) <= 0.5 * f2
        res = tune_for_energy_conservation(sample_device, goal, mode="fabrication")
        assert max(res.suppression) > goal.min_parasitic_suppression
        assert any("trails the goal" in n for n in res.notes)


class TestCompensation:
    def test_zero_power(self, sample_device):
        comp = xpm_spm_compensation(sample_device, 0.0)
        assert comp.induced_shift == (0.0, 0.0)
        assert comp.compensation == (0.0, 0.0)
        assert comp.kerr_metric == 0.0

    def test_ring1_pull_formula(self, sample_device):
        wg = sample_device.waveguide
        p = 1e-3
        comp = xpm_spm_compensation(sample_device, p)
        fin1 = finesse(sample_device.ring1, wg, wg.omega_ref)
        expected = -wg.v_g * wg.gamma_nl * p * fin1
        assert comp.induced_shift[0] == pytest.approx(expected, rel=1e-12)
        assert comp.induced_shift[0] < 0.0
        assert comp.induced_shift[1] == 0.0
        assert comp.compensation[0] == -comp.induced_shift[0]
        assert comp.compensation[1] == 0.0
        assert any("null" in n for n in comp.notes)

    @pytest.mark.parametrize("power", [0.0, 1e-3])
    def test_ring2_compensation_is_positive_zero(self, sample_device, power):
        comp = xpm_spm_compensation(sample_device, power)
        assert math.copysign(1.0, comp.compensation[1]) == 1.0

    def test_drive_note_gives_ring2_as_positive_zero(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-3)
        drive = PumpDrive(photon_number=1e5, pulse_duration=1e-9)
        _final, report = optimize_device(sample_device, goal, drive=drive)
        assert any(n.endswith("ring 2 +0 rad/s") for n in report.notes)

    def test_linear_in_power(self, sample_device):
        one = xpm_spm_compensation(sample_device, 1e-3)
        two = xpm_spm_compensation(sample_device, 2e-3)
        assert two.induced_shift[0] == pytest.approx(
            2.0 * one.induced_shift[0], rel=1e-12
        )

    def test_metric_matches_validity_check(self, sample_device):
        wg = sample_device.waveguide
        p = 1e-3
        comp = xpm_spm_compensation(sample_device, p)
        wavelength = 2.0 * math.pi * c0 / wg.omega_ref
        assert comp.kerr_metric == pytest.approx(
            kerr_validity_metric(wg, p, sample_device.ring1.q_loaded, wavelength),
            rel=1e-12,
        )

    def test_budget_enforced(self, sample_device):
        with pytest.raises(ValidityExceeded):
            xpm_spm_compensation(sample_device, 0.25)

    def test_validation(self, sample_device):
        with pytest.raises(ValueError):
            xpm_spm_compensation(sample_device, -1e-3)


class TestEvaluateDesign:
    def test_tuned_device_passes(self, sample_device):
        tuned = tune_for_energy_conservation(sample_device, GOAL, mode="trim").device
        report = evaluate_design(tuned, GOAL)
        assert report.passed
        assert {r.name for r in report.rules} == {
            "linear_isolation",
            "energy_conservation",
            "sideband_suppression",
            "kerr_budget",
        }
        assert all(r.passed for r in report.rules)
        assert report.isolation_db == 200.0
        assert report.uncoupling_order == 1
        assert report.j_abs > 0.0
        assert 0.0 < report.j_ratio <= 1.0 / 16.0 + 1e-9
        assert report.kerr_metric == 0.0

    def test_untuned_device_fails_energy_conservation(self, sample_device):
        report = evaluate_design(sample_device, GOAL)
        assert not report.passed
        rule = next(r for r in report.rules if r.name == "energy_conservation")
        assert not rule.passed
        assert rule.value > rule.limit

    def test_aligned_combs_fail_suppression(self):
        # Identical rings: every side-band point lands on a comb line,
        # so the parasitic processes run unsuppressed.
        dev = make_device(l2_scale=1.0, n_eff=4.2)
        report = evaluate_design(dev, GOAL)
        assert not report.passed
        rule = next(r for r in report.rules if r.name == "sideband_suppression")
        assert not rule.passed
        assert rule.value == pytest.approx(1.0, abs=1e-9)
        energy = next(r for r in report.rules if r.name == "energy_conservation")
        assert energy.passed

    def test_off_null_device_fails_isolation(self, sample_device):
        model = sample_device.coupling
        gap = model.gap_ref - model.decay_len * math.log(1.05)
        detuned = replace(sample_device, dc_gap=gap)
        report = evaluate_design(detuned, GOAL)
        assert not report.passed
        rule = next(r for r in report.rules if r.name == "linear_isolation")
        assert not rule.passed
        expected = -10.0 * math.log10(math.sin(0.05 * math.pi) ** 2)
        assert rule.value == pytest.approx(expected, rel=1e-6)
        assert report.uncoupling_order == 1

    def test_drive_sets_the_kerr_operating_point(self, sample_device):
        tuned = tune_for_energy_conservation(sample_device, GOAL, mode="trim").device
        drive = PumpDrive(photon_number=1e5, pulse_duration=1e-9)
        report = evaluate_design(tuned, GOAL, drive)
        assert report.kerr_metric > 0.0
        rule = next(r for r in report.rules if r.name == "kerr_budget")
        assert rule.passed
        assert rule.value == report.kerr_metric


class TestOptimizeDevice:
    def test_full_flow_on_sample_seed(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-3)
        final, report = optimize_device(sample_device, goal)
        assert report.passed
        assert report == replace(evaluate_design(final, goal), notes=report.notes)
        assert report.uncoupling_order == 1
        assert report.isolation_db == 200.0
        choice = optimal_dc_length(sample_device.ring1.bend_radius)
        assert final.dc_length == choice.dc_length
        assert final.ring1.straight_len == choice.dc_length
        lo, hi = goal.gap_budget
        assert lo <= final.dc_gap <= hi
        assert 0.0 < report.j_ratio <= 1.0 / 16.0 + 1e-9

    def test_drive_adds_compensation_note(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-3)
        drive = PumpDrive(photon_number=1e5, pulse_duration=1e-9)
        _final, report = optimize_device(sample_device, goal, drive=drive)
        assert report.passed
        assert any("heater compensation" in n for n in report.notes)

    def test_infeasible_goal_propagates(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-6)
        with pytest.raises(Infeasible):
            optimize_device(sample_device, goal)

    def test_gap_budget_too_remote(self, sample_device):
        goal = replace(GOAL, gap_budget=(9e-7, 1e-6))
        with pytest.raises(OutOfRange, match="no null order"):
            optimize_device(sample_device, goal)


class TestSharedResults:
    def test_compensation_carries_its_delta_beta(self, sample_device):
        wg = sample_device.waveguide
        comp = xpm_spm_compensation(sample_device, 1e-3)
        fin1 = finesse(sample_device.ring1, wg, wg.omega_ref)
        assert comp.delta_beta == kerr_delta_beta(wg, 1e-3, fin1)
        assert comp.induced_shift[0] == -wg.v_g * comp.delta_beta

    def test_report_overlap_and_notes_come_from_one_evaluation(self):
        # Mismatched rings: the device's closed form notes the phase
        # mismatch and the single-ring reference the ring lengths. The
        # notes live on the report only: no warning of any category.
        dev = make_device(l2_scale=1.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = evaluate_design(dev, GOAL)
        assert caught == []
        *_, cfg = _tune_diagnostics(dev, GOAL)
        j = j_closed_form(dev, cfg)
        ref = j_single_ring_baseline(dev, cfg)
        ratio = j_single_ring_ratio(dev, cfg)
        assert j.warnings and ref.warnings
        assert report.notes == j.warnings + ref.warnings
        assert report.j_ratio == ratio
