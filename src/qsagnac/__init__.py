"""Photon-pair Sagnac gyroscope toolkit: simulate, estimate, design."""

__version__ = "0.1.0"

from .sagnac import (CONSTANTS, OFF_TRANSMISSION, InterferometerGeometry,
                     PhysicalConstants, SwitchState, sagnac_phase,
                     scale_factor, switch_transmission, transmission)
from .probe import (NOON2, SINGLE, ProbeKind, TwoModeState,
                    coincidence_projection, evolve, fringe_probs,
                    hom_interfere, noon_state, output_state_after_hwp,
                    two_photon_hwp)
from .expsim import (CountRecord, NoiseConfig, PolarimeterTrace, RateConfig,
                     SwitchSchedule, angle_sweep, read_counts_csv,
                     read_trace_csv, simulate_counts, simulate_polarimeter,
                     write_counts_csv, write_trace_csv)
from .analysis import (AngleSweepFit, CalibrationResult, DegenerateDesignError,
                       DemodResult, EarthPhaseResult, FitError, FringeFit,
                       McUncertainty, UndefinedRatioError,
                       calibrate_scale_factor, demodulate_trace,
                       enhancement_factor, extract_earth_phase,
                       fit_angle_sweep, fit_noon_fringe, fit_single_fringe,
                       fit_switch_pair, group_records_by_angle, mc_uncertainty,
                       nlls, wrap_phase)
from .sensedesign import (DesignSpec, GfringOptimum, InfeasibleDesignError,
                          LandscapeRow, SensitivityReport, landscape,
                          optimize_gfring, pair_rate_out, phase_resolution,
                          regime_label, rotation_resolution)
