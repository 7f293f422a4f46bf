"""Numerical toolkit for the two-user asynchronous uplink.

Covers the exact log-det sum throughput of the oversampled system, its
closed form and infinite-frame limit, timing-error sensitivity, optimal
design searches, and a symbol-level waveform simulator that validates
the algebraic model.
"""

from ._bands import BandedMatrix
from .design import PowerSweepReport, optimal_tau, verify_full_power
from .model import (DomainError, FrameConfig, LinkConfig, TimingError,
                    build_correlation, build_error_matrices, build_gain,
                    build_noise_covariance)
from .throughput import (ThroughputReport, closed_rate,
                         determinant_recursion_log2, log2_det_no_error,
                         throughput_asymptotic, throughput_closed,
                         throughput_matrix, throughput_noma, throughput_oma,
                         throughput_recursion, throughput_report)
from .timing import (LossBreakdown, coord_loss_slope, loss_breakdown,
                     loss_ratio, sync_loss_slope, throughput_loss,
                     throughput_loss_display, throughput_with_error)
from .waveform import (NoiseCovarianceReport, SampleVectors, SymbolFrame,
                       draw_colored_noise, generate_symbols,
                       matched_filter_outputs, model_outputs,
                       noise_covariance_mc)

__all__ = [
    "BandedMatrix", "DomainError", "FrameConfig", "LinkConfig",
    "LossBreakdown", "NoiseCovarianceReport", "PowerSweepReport",
    "SampleVectors", "SymbolFrame", "ThroughputReport", "TimingError",
    "build_correlation", "build_error_matrices", "build_gain",
    "build_noise_covariance", "closed_rate", "coord_loss_slope",
    "determinant_recursion_log2", "draw_colored_noise", "generate_symbols",
    "log2_det_no_error", "loss_breakdown", "loss_ratio",
    "matched_filter_outputs", "model_outputs", "noise_covariance_mc",
    "optimal_tau", "sync_loss_slope", "throughput_asymptotic",
    "throughput_closed", "throughput_loss", "throughput_loss_display",
    "throughput_matrix", "throughput_noma", "throughput_oma",
    "throughput_recursion", "throughput_report", "throughput_with_error",
    "verify_full_power",
]
