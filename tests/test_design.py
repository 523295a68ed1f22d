"""Design rules: coupler sizing, gap solving, tuning, and the report."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.constants import c as c0

from ringpair import (
    DesignGoal,
    Infeasible,
    NoConvergence,
    NonPhysical,
    OutOfRange,
    PumpDrive,
    ValidityExceeded,
    evaluate_design,
    finesse,
    fsr,
    group_index,
    isolation_db,
    j_quadrature,
    j_single_ring_ratio,
    kerr_delta_beta,
    kerr_validity_metric,
    optimal_dc_length,
    optimize_device,
    required_detuning,
    resonance_comb,
    solve_gap_for_uncoupling,
    suppression_factor,
    tune_for_energy_conservation,
    wavevector,
    xpm_spm_compensation,
)

from ringpair import design
from ringpair.design import ENERGY_RESIDUAL_TOL_LINEWIDTHS, _process_band, _tune_diagnostics
from ringpair.geometry import TWO_PI
from ringpair.nonlinear import pump_pair, single_ring_reference
from ringpair.record import replace

from conftest import make_device, null_overlap_oracle

GOAL = DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=5e-3)


class TestDesignGoal:
    def test_defaults(self):
        assert GOAL.pump_separation == 2
        assert GOAL.signal_omega == pytest.approx(
            2.0 * math.pi * c0 / 1.55e-6, rel=1e-15
        )

    @pytest.mark.parametrize(
        "sep", [0, 1, 3, -2, 4.0, 1.5, 2.0, True, np.True_, "2", np.array([2])], ids=repr
    )
    def test_pump_separation_must_be_even_and_positive(self, sep):
        # An even float (2.0, 4.0) used to pass here and fail later in
        # pump_pair with a TypeError.
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, pump_separation=sep)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=0.0)
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=1.0)
        with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
            DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=0.0)
        with pytest.raises(TypeError):  # no goal sets the Kerr ceiling
            DesignGoal(signal_wavelength=1.55e-6, max_kerr_metric=0.1)
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, min_isolation_db=0.0)
        with pytest.raises(ValueError):
            DesignGoal(signal_wavelength=1.55e-6, gap_budget=(1e-6, 5e-8))
        with pytest.raises(ValueError, match="increasing pair"):
            DesignGoal(signal_wavelength=1.55e-6, gap_budget=(1e-7, 1e-7))


class TestOptimalDcLength:
    def test_bend_limited_choice(self):
        assert optimal_dc_length(1.5e-5) == pytest.approx(math.pi * 1.5e-5, rel=1e-15)

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

    @pytest.mark.parametrize("edge", [0, 1], ids=["lower", "upper"])
    def test_the_budget_edges_are_reachable(self, edge):
        # The budget is the closed interval the refusal names: a |kappa|
        # target met exactly at an edge gap is solved there.
        model = make_device().coupling
        budget = (1e-7, 4e-7)
        kappa = model.kappa_abs(budget[edge])
        length = math.pi / kappa
        for _ in range(200):
            if math.pi / length == kappa:
                break
            length = math.nextafter(length, math.inf)
        assert math.pi / length == kappa
        gap = solve_gap_for_uncoupling(model, length, 1, budget)
        assert gap == pytest.approx(budget[edge], rel=1e-12)

    def test_a_fractional_order_is_refused(self):
        # |kappa| L = 1.5 pi is a full crossing, not a null: the gap there
        # isolates 0 dB, so only a whole m uncouples the rings.
        dev = make_device()
        model = dev.coupling
        target = 1.5 * math.pi / dev.dc_length
        gap = model.gap_ref + model.decay_len * math.log(model.kappa0 / target)
        assert isolation_db(model.kappa(gap), dev.dc_length) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError, match="^m_order must be an integer, got 1.5$"):
            solve_gap_for_uncoupling(model, dev.dc_length, 1.5)

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

    def test_suppression_at_the_goal_meets_it(self, sample_device):
        # The goal is a ceiling the suppression may reach: trim mode returns
        # the same line when the goal is set to its achieved suppression.
        first = tune_for_energy_conservation(sample_device, GOAL, mode="trim")
        goal = replace(GOAL, min_parasitic_suppression=max(first.suppression))
        assert tune_for_energy_conservation(sample_device, goal, mode="trim") == first

    @pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
    def test_residual_tolerance(self, sample_device, monkeypatch, past):
        # A residual up to 1e-6 of the ring-2 linewidth at the pump midpoint
        # passes; one past it is NoConvergence. The combs leave a residual of
        # 0, so the diagnostics are made to report one at the limit.
        lw = _refit_frontier(sample_device, GOAL, +1)[1]
        limit = ENERGY_RESIDUAL_TOL_LINEWIDTHS * lw
        residual = math.nextafter(limit, math.inf) if past else limit
        real = design._tune_diagnostics
        monkeypatch.setattr(design, "_tune_diagnostics",
                            lambda device, goal: (residual, *real(device, goal)[1:]))
        if past:
            with pytest.raises(NoConvergence, match="residual .* exceeds tolerance"):
                tune_for_energy_conservation(sample_device, GOAL, mode="trim")
        else:
            assert tune_for_energy_conservation(sample_device, GOAL, mode="trim").residual == limit

    def test_unreachable_goal_is_infeasible(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-4)
        with pytest.raises(Infeasible, match="best achievable"):
            tune_for_energy_conservation(sample_device, goal, mode="trim")

    def test_mode_validation(self, sample_device):
        with pytest.raises(ValueError):
            tune_for_energy_conservation(sample_device, GOAL, mode="anneal")


def _refit_frontier(seed, goal, sign):
    """The refit's frontier M F1/(2M -+ 1) and ring-2 linewidth, at its pump midpoint."""
    wg = seed.waveguide
    comb1 = resonance_comb(seed.ring1, wg, _process_band(seed, goal), owner=1)
    res_p1, res_p2 = pump_pair(comb1, goal.signal_omega, goal.pump_separation)
    mid = 0.5 * (res_p1.omega0 + res_p2.omega0)
    m = goal.pump_separation
    return m * fsr(seed.ring1, wg, mid) / (2 * m + sign), mid / seed.ring2.q_loaded, mid


class TestFabricationTune:
    def test_refit_meets_tighter_goal(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-3)
        res = tune_for_energy_conservation(sample_device, goal, mode="fabrication")
        assert max(res.suppression) <= 1e-3
        lw = goal.signal_omega / sample_device.ring2.q_loaded
        assert res.residual <= 1.1e-6 * lw
        # The shorter-ring solution cannot host the coupler here, so the
        # tuner falls back to lengthening ring 2.
        assert res.device.ring2.straight_len > sample_device.ring2.straight_len
        assert any("lengthened" in n for n in res.notes)
        assert res.device.ring2.heater_shift == res.heater_delta

    def test_architectural_frontier(self, sample_device):
        # The seed's R2 = R1 is past R1 (M - 1)/M, so the refit builds the
        # longer ring: a goal between its frontier and the shorter ring's
        # is infeasible there and met with R2 = 0.4 R1. Past the shorter
        # ring's frontier both seeds are infeasible.
        small = replace(sample_device, ring2=replace(
            sample_device.ring2, bend_radius=0.4 * sample_device.ring1.bend_radius))
        longer, lw, _mid = _refit_frontier(sample_device, GOAL, +1)
        shorter, _lw, _mid = _refit_frontier(sample_device, GOAL, -1)
        goal = replace(GOAL, min_parasitic_suppression=suppression_factor(
            0.5 * (longer + shorter), lw))
        with pytest.raises(Infeasible, match=r"M\*F1/\(2M \+ 1\).* R2 <= 7\.5"):
            tune_for_energy_conservation(sample_device, goal, mode="fabrication")
        res = tune_for_energy_conservation(small, goal, mode="fabrication")
        assert max(res.suppression) <= goal.min_parasitic_suppression
        goal = replace(GOAL, min_parasitic_suppression=1e-6)
        assert required_detuning(goal, lw) > shorter
        for seed, sign in ((sample_device, r"\+"), (small, "-")):
            with pytest.raises(Infeasible, match=rf"FSR/2 = M\*F1/\(2M {sign} 1\)"):
                tune_for_energy_conservation(seed, goal, mode="fabrication")

    def test_shorter_ring_whose_straight_is_the_coupler_length_fits(self, sample_device):
        # The shorter ring holds the coupler when its straight is at least
        # the coupler length, equality included; a coupler one ulp longer
        # builds the longer ring.
        small = replace(sample_device, ring2=replace(
            sample_device.ring2, bend_radius=0.4 * sample_device.ring1.bend_radius))
        long_straight = 2.0 * small.ring2.straight_len
        seed = replace(small, ring1=replace(small.ring1, straight_len=long_straight),
                       ring2=replace(small.ring2, straight_len=long_straight))
        straight = tune_for_energy_conservation(seed, GOAL, mode="fabrication").device.ring2
        at = tune_for_energy_conservation(replace(seed, dc_length=straight.straight_len), GOAL,
                                          mode="fabrication")
        assert at.device.ring2.straight_len == straight.straight_len
        assert at.notes == ()
        past = replace(seed, dc_length=math.nextafter(straight.straight_len, math.inf))
        res = tune_for_energy_conservation(past, GOAL, mode="fabrication")
        assert res.device.ring2.straight_len > straight.straight_len
        assert any("lengthened" in n for n in res.notes)

    def test_quantization_shortfall_returns_best_effort(self, sample_device):
        # The whole-wavelength ring 2 and the combs' dispersion leave the
        # longer ring's detuning just short of its frontier M F1/(2M + 1):
        # a goal in that gap is feasible and gets the best effort, noted.
        base = replace(GOAL, min_parasitic_suppression=1e-3)
        achieved = max(
            tune_for_energy_conservation(sample_device, base, mode="fabrication").suppression
        )
        frontier, lw, _mid = _refit_frontier(sample_device, GOAL, +1)
        at_frontier = suppression_factor(frontier, lw)
        assert at_frontier < achieved
        goal = replace(GOAL, min_parasitic_suppression=0.5 * (at_frontier + achieved))
        res = tune_for_energy_conservation(sample_device, goal, mode="fabrication")
        assert max(res.suppression) > goal.min_parasitic_suppression
        assert any("trails the goal" in n for n in res.notes)

    def test_shortfall_of_the_shorter_ring_does_not_blame_the_coupler(self, sample_device):
        # With R2 = R1/2 the shorter ring holds the coupler, so no ring-2
        # lengthening is noted; its best effort just misses 2.37e-4.
        seed = replace(sample_device, ring2=replace(sample_device.ring2, bend_radius=7.5e-6))
        goal = replace(GOAL, min_parasitic_suppression=2.37e-4)
        _final, report = optimize_device(seed, goal)
        shortfall = [n for n in report.notes if "trails the goal" in n]
        assert len(shortfall) == 1 and "round trip" in shortfall[0]
        assert not any("coupler" in n or "lengthened" in n for n in report.notes)

    def test_goal_at_the_frontier_is_feasible(self, sample_device):
        # Infeasible only past the frontier: a goal whose detuning equals it
        # to the last bit is tuned. Not every ring-2 Q has a suppression
        # that lands there exactly, so the first of a few that does is used.
        for q_i in range(100_000, 120_000, 1000):
            seed = replace(sample_device, ring2=replace(sample_device.ring2, q_intrinsic=q_i))
            frontier, lw, _mid = _refit_frontier(seed, GOAL, +1)
            down = up = suppression_factor(frontier, lw)
            goals = [replace(GOAL, min_parasitic_suppression=down)]
            for _ in range(64):
                down, up = math.nextafter(down, 0.0), math.nextafter(up, 1.0)
                goals += [replace(GOAL, min_parasitic_suppression=s) for s in (down, up)]
            exact = [g for g in goals if required_detuning(g, lw) == frontier]
            if exact:
                break
        goal = exact[0]
        res = tune_for_energy_conservation(seed, goal, mode="fabrication")
        assert any("lengthened" in n for n in res.notes)
        past = goal
        while required_detuning(past, lw) == frontier:
            past = replace(past, min_parasitic_suppression=math.nextafter(
                past.min_parasitic_suppression, 0.0))
        with pytest.raises(Infeasible, match="FSR/2"):
            tune_for_energy_conservation(seed, past, mode="fabrication")

    @settings(max_examples=200, deadline=None)
    @given(
        m_sep=st.sampled_from([2, 4, 6]),
        r2_ratio=st.floats(0.1, 1.4),
        x=st.floats(0.2, 2.5),
        wl_scale=st.floats(0.95, 1.05),
    )
    def test_goal_inside_the_built_rings_frontier_is_met(self, m_sep, r2_ratio, x, wl_scale):
        # Seeds at the bend-limited geometry with R2 = r2_ratio * R1, and a
        # goal needing x times the frontier of the ring the refit builds.
        seed = make_device()
        seed = replace(seed, ring2=replace(seed.ring2, bend_radius=r2_ratio * 1.5e-5))
        wg = seed.waveguide
        # The shorter ring holds the pi R1 coupler while R2 <= R1 (M - 1)/M,
        # the longer one while R2 <= R1 (M + 1)/M; the whole-wavelength
        # round trip moves each bound by well under 1% of R1.
        assume(all(abs(r2_ratio - (m_sep + sign) / m_sep) > 0.01 for sign in (-1, 1)))
        assume(abs(x - 1.0) > 1e-6)
        goal = DesignGoal(signal_wavelength=1.55e-6 * wl_scale, pump_separation=m_sep)
        if r2_ratio > (m_sep + 1) / m_sep:
            with pytest.raises(Infeasible, match="no ring-2 round trip fits"):
                optimize_device(seed, goal)
            return
        sign = -1 if r2_ratio < (m_sep - 1) / m_sep else 1
        frontier, lw, mid = _refit_frontier(seed, goal, sign)
        goal = replace(goal, min_parasitic_suppression=suppression_factor(x * frontier, lw))
        if x > 1.0:
            with pytest.raises(Infeasible, match="FSR/2"):
                optimize_device(seed, goal)
            return
        final, report = optimize_device(seed, goal)
        rule = next(r for r in report.rules if r.name == "sideband_suppression")
        shortfall = [n for n in report.notes if "trails the goal" in n]
        assert rule.passed != bool(shortfall)
        if rule.passed:
            return
        # The shortfall: the ring-2 spacing F2 is off by at most half an
        # order in ``order``, which moves a partner up to M + 1 lines out
        # by (M + 1) F2 / (2 order); and each comb's spacing drifts with
        # the group index, n lines out by n^2 F2^2 |dn_g/dw| / (2 n_g),
        # with dn_g/dw = 2 (n_g - n_eff) / w_ref at zero GVD.
        f2 = fsr(final.ring2, wg, mid)
        order = wavevector(wg, mid) * final.ring2.round_trip_length / TWO_PI
        drift = 2.0 * (wg.n_g - wg.n_eff_ref) / wg.omega_ref / group_index(wg, mid)
        bound = (m_sep + 1) * f2 / (2.0 * order) + 0.5 * (m_sep + 1) ** 2 * f2**2 * abs(drift)
        assert 0.0 < frontier - min(abs(d) for d in report.detuning) <= bound


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
        # The ceiling is 0.05: 0.1084 W gives 0.0500060 on the shipped
        # device, and 0.1083 W gives 0.04996.
        assert design.KERR_CEILING == 0.05
        assert design.require_kerr_validity(sample_device, 0.1083) < 0.05
        with pytest.raises(ValidityExceeded,
                           match=r"^Kerr validity metric 0\.05 exceeds the ceiling 0\.05$"):
            xpm_spm_compensation(sample_device, 0.1084)

    def test_validation(self, sample_device):
        with pytest.raises(ValueError):
            xpm_spm_compensation(sample_device, -1e-3)

    @pytest.mark.parametrize("power", [1e-3, 0.1084])
    def test_metric_at_the_ceiling_passes(self, sample_device, power, monkeypatch):
        # The rule refuses a metric past the ceiling, not one at it; the
        # rate commands and kerr-check share it. No drive of the shipped
        # device gives 0.05 to the bit, so the ceiling is moved onto the
        # metric here and then one ulp below it.
        metric = design.null_kerr_metric(sample_device, power)
        monkeypatch.setattr(design, "KERR_CEILING", metric)
        assert design.require_kerr_validity(sample_device, power) == metric
        assert xpm_spm_compensation(sample_device, power).kerr_metric == metric
        monkeypatch.setattr(design, "KERR_CEILING", math.nextafter(metric, 0.0))
        with pytest.raises(ValidityExceeded, match="exceeds the ceiling"):
            design.require_kerr_validity(sample_device, power)

    def test_overflowing_metric_is_non_physical(self, sample_device):
        # 1e308 W is finite, but its metric is not; it used to be returned as inf.
        for call in (design.null_kerr_metric, design.require_kerr_validity,
                     xpm_spm_compensation):
            with pytest.raises(NonPhysical, match="Kerr validity metric must be finite"):
                call(sample_device, 1e308)


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

    def test_energy_rule_limit_is_a_millionth_of_the_signal_linewidth(self, sample_device):
        # A ring-2 heater offset of h moves the signal line by h, so the
        # residual |2 w_S - w_P1 - w_P2| by 2 h.
        tuned = tune_for_energy_conservation(sample_device, GOAL, mode="trim").device
        lw = GOAL.signal_omega / tuned.ring2.q_loaded
        for offset, passed in ((0.2e-6, True), (1.0e-6, False)):
            ring2 = replace(tuned.ring2, heater_shift=tuned.ring2.heater_shift + offset * lw)
            report = evaluate_design(replace(tuned, ring2=ring2), GOAL)
            rule = next(r for r in report.rules if r.name == "energy_conservation")
            assert rule.passed is passed
            assert rule.value == pytest.approx(2.0 * offset * lw, rel=1e-3)

    @pytest.mark.parametrize("above, passed", [(False, True), (True, False)])
    def test_energy_rule_passes_at_its_limit_exactly(
        self, sample_device, monkeypatch, above, passed
    ):
        # No comb puts the residual on the limit to the bit, so the tuning
        # diagnostics report it: the limit passes, one float above fails.
        tuned = tune_for_energy_conservation(sample_device, GOAL, mode="trim").device
        _residual, deltas, sups, cfg = _tune_diagnostics(tuned, GOAL)
        limit = ENERGY_RESIDUAL_TOL_LINEWIDTHS * cfg.res_s.linewidth
        value = math.nextafter(limit, math.inf) if above else limit
        monkeypatch.setattr(design, "_tune_diagnostics", lambda *_: (value, deltas, sups, cfg))
        rule = next(r for r in evaluate_design(tuned, GOAL).rules
                    if r.name == "energy_conservation")
        assert (rule.value, rule.limit, rule.passed) == (value, limit, passed)

    def test_suppression_goal_is_met_with_equality(self, sample_device):
        tuned = tune_for_energy_conservation(sample_device, GOAL, mode="trim").device
        achieved = max(evaluate_design(tuned, GOAL).suppression)
        report = evaluate_design(tuned, replace(GOAL, min_parasitic_suppression=achieved))
        rule = next(r for r in report.rules if r.name == "sideband_suppression")
        assert rule.passed and rule.value == rule.limit

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
        assert rule.limit == design.KERR_CEILING

    def test_rules_pass_at_their_limits(self, sample_device, monkeypatch):
        # An isolation at the floor and a Kerr metric at the ceiling pass.
        tuned = tune_for_energy_conservation(sample_device, GOAL, mode="trim").device
        drive = PumpDrive(photon_number=1e5, pulse_duration=1e-9)
        metric = evaluate_design(tuned, GOAL, drive).kerr_metric
        monkeypatch.setattr(design, "KERR_CEILING", metric)
        report = evaluate_design(tuned, replace(GOAL, min_isolation_db=200.0), drive)
        rules = {r.name: r for r in report.rules}
        assert (rules["linear_isolation"].value, rules["linear_isolation"].passed) == (200.0, True)
        assert (rules["kerr_budget"].value, rules["kerr_budget"].passed) == (metric, True)
        assert report.passed

    def test_kerr_rule_reads_the_upper_pump_line(self, sample_device):
        # The rule reads the drive's power at the upper pump line, as the
        # rate commands do. At 8.44e8 photons that metric is 0.050008, past
        # the ceiling; at the signal line the rule read 0.04990 and passed.
        tuned = tune_for_energy_conservation(sample_device, GOAL, mode="trim").device
        cfg = _tune_diagnostics(tuned, GOAL)[3]
        drive = PumpDrive(photon_number=8.44e8, pulse_duration=1e-9)
        upper = max(drive.power(cfg.res_p1.omega0), drive.power(cfg.res_p2.omega0))
        assert upper > drive.power(GOAL.signal_omega)
        report = evaluate_design(tuned, GOAL, drive)
        assert report.kerr_metric == design.null_kerr_metric(tuned, upper)
        rule = next(r for r in report.rules if r.name == "kerr_budget")
        assert (rule.value, rule.limit) == (report.kerr_metric, design.KERR_CEILING)
        assert not rule.passed
        assert not report.passed


class TestOptimizeDevice:
    def test_full_flow_on_sample_seed(self, sample_device):
        goal = replace(GOAL, min_parasitic_suppression=1e-3)
        final, report = optimize_device(sample_device, goal)
        assert report.passed
        assert report == replace(evaluate_design(final, goal), notes=report.notes)
        assert report.uncoupling_order == 1
        assert report.isolation_db == 200.0
        dc_length = optimal_dc_length(sample_device.ring1.bend_radius)
        assert final.dc_length == dc_length
        assert final.ring1.straight_len == dc_length
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
        # Mismatched rings: the single-ring reference notes the ring
        # lengths. The note lives on the report only: no warning of any
        # category.
        dev = make_device(l2_scale=1.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = evaluate_design(dev, GOAL)
        assert caught == []
        *_, cfg = _tune_diagnostics(dev, GOAL)
        j = j_quadrature(dev, cfg)
        notes = single_ring_reference(dev)[1]
        assert j.warnings == () and len(notes) == 1
        assert report.notes == notes
        assert report.j_abs == j.j_abs
        assert report.j_ratio == j_single_ring_ratio(dev, cfg)

    @pytest.mark.parametrize("gap", [2.9e-7, 3.3e-7])
    def test_off_null_report_carries_the_exact_j(self, sample_device, gap):
        # 13.4 dB and 5.4 dB of isolation: off the null, where L/4 is
        # 6% too high or 7% too low. The report used to carry L/4.
        dev = replace(sample_device, dc_gap=gap)
        report = evaluate_design(dev, GOAL)
        *_, cfg = _tune_diagnostics(dev, GOAL)
        assert report.j_abs == j_quadrature(dev, cfg).j_abs
        assert abs(report.j_abs / null_overlap_oracle(dev, cfg) - 1.0) > 0.05

    def test_j_ratio_ignores_a_subnormal_j(self, sample_device):
        # chi3 x 1e-300 makes J subnormal. The ratio of the two J lost
        # digits there (0.05590161915513001 against 0.05590161915513349);
        # the ratio of the spatial factors does not see chi3.
        goal = DesignGoal(signal_wavelength=1.55e-6, min_parasitic_suppression=1e-3)
        wg = sample_device.waveguide
        tiny = replace(sample_device, waveguide=replace(wg, chi3_bar=wg.chi3_bar * 1e-300))
        _, report = optimize_device(sample_device, goal)
        _, tiny_report = optimize_device(tiny, goal)
        assert tiny_report.j_abs < sys.float_info.min
        assert tiny_report.j_ratio == report.j_ratio
