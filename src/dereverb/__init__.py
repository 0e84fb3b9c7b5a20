"""Monaural speech dereverberation via subband convolutive prediction.

The package bundles an exact-reconstruction STFT, a parametric reverberant
scene simulator with ground truth, closed-form weighted-least-squares
prediction algorithms (WPE, supplied-statistics WPE, ICP, FCP and their
multi-source variants), and evaluation metrics (SI-SDR, 512-tap SDR,
GCC-PHAT delay).

Fallback paths log a WARNING through the ``dereverb`` logger, which has a
``NullHandler``: nothing is printed unless the application configures
logging.
"""

import logging

from .convpred import (FilterBank, PredConfig, apply_filter, build_stack, fcp,
                       fcp_per_source, icp, iterate, lambda_weights, solve_wls,
                       wpe_multi, wpe_supplied, wpe_vanilla)
from .metrics import (MetricsReport, evaluate_pair, gcc_phat_delay, sdr_512,
                      si_sdr)
from .scene import (Rir, RirSpec, Scene, TargetEstimate, degrade, gen_rir,
                    make_estimate, render_scene, rir_spec_for_distance,
                    split_rir, strip_late, synth_speech)
from .stft import ComplexSpectrogram, StftConfig, analyze, sqrt_hann, synthesize
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ComplexSpectrogram", "FilterBank", "MetricsReport", "PredConfig", "Rir",
    "RirSpec", "Scene", "StftConfig", "TargetEstimate", "analyze",
    "apply_filter", "build_stack", "degrade", "evaluate_pair", "fcp",
    "fcp_per_source", "gcc_phat_delay", "gen_rir", "icp", "iterate",
    "lambda_weights", "make_estimate", "read_wav", "render_scene",
    "rir_spec_for_distance", "sdr_512", "si_sdr", "solve_wls", "split_rir",
    "sqrt_hann", "strip_late", "synth_speech", "synthesize", "wpe_multi",
    "wpe_supplied", "wpe_vanilla", "write_wav",
]
