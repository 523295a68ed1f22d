"""Frequency-domain design tools for a linearly uncoupled racetrack pair.

Two racetrack resonators share one directional coupler whose length is
set to a multiple of the full beat period, so no light crosses between
the rings linearly, while the third-order nonlinearity of the shared
section still couples them parametrically. This package models the
linear transfer, the resonant field enhancement, the nonlinear overlap
figure, the photon-pair rates with their parasitic side-band
suppression, and the design rules that tie it all together.
"""

__version__ = "0.1.0"

from .design import (
    CompensationResult,
    DesignGoal,
    DesignReport,
    RuleCheck,
    TuneResult,
    evaluate_design,
    null_kerr_metric,
    optimal_dc_length,
    optimize_device,
    required_detuning,
    solve_gap_for_uncoupling,
    tune_for_energy_conservation,
    xpm_spm_compensation,
)
from .deviceio import (
    SCHEMA_VERSION,
    device_from_dict,
    device_to_dict,
    load_device,
    save_device,
    write_text_atomic,
)
from .enhancement import (
    EnhancementProfile,
    SpectrumResult,
    intensity_spectrum,
    lorentzian_response,
    peak_amplitude,
    ring_profiles,
    spectrum_to_csv,
)
from .errors import (
    EmptyBand,
    Infeasible,
    MissingResonance,
    NoConvergence,
    NonPhysical,
    OutOfRange,
    RingpairError,
    ValidityExceeded,
)
from .geometry import (
    CouplingModel,
    DeviceSpec,
    RacetrackSpec,
    Resonance,
    WaveguideParams,
    device_combs,
    effective_index,
    finesse,
    fsr,
    group_index,
    resonance_comb,
    round_trip_phase,
    wavevector,
)
from .linear_cmt import (
    CmtField,
    DcTransfer,
    dc_transfer,
    isolation_db,
    kerr_delta_beta,
    kerr_detuned_efficiency,
    kerr_validity_metric,
)
from .nonlinear import (
    OverlapResult,
    ProcessConfig,
    j_quadrature,
    j_single_ring_baseline,
    j_single_ring_ratio,
    resonant_config,
    z_overlap_integral,
)
from .quadrature import integrate_adaptive
from .sfwm import (
    PairRateReport,
    PumpDrive,
    calibrate_kcal,
    noise_budget,
    pair_rate_closed_form,
    pair_rate_integral,
    resolve_drive,
    sideband_pair,
    sigma_from_finesse,
    suppression_factor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
