"""Monaural speech dereverberation via subband convolutive prediction.

The package bundles an exact-reconstruction STFT, a parametric reverberant
scene simulator with ground truth, closed-form weighted-least-squares
prediction algorithms (WPE, supplied-statistics WPE, ICP and FCP, each on
``solve_wls``, which returns every bin's filter and its prediction; a
multi-source run calls one of them once per source estimate), target
estimates made from ground truth, and evaluation metrics (SI-SDR, 512-tap
SDR, GCC-PHAT delay).

Fallback paths log a WARNING through the ``dereverb`` logger, which has a
``NullHandler``: nothing is printed unless the application configures
logging.
"""

import logging

from .convpred import (FilterBank, PredConfig, fcp, icp, lambda_weights,
                       solve_wls, wpe_supplied, wpe_vanilla)
from .metrics import (MetricsReport, evaluate_pair, gcc_phat_delay, sdr_512,
                      si_sdr)
from .scene import (Rir, RirSpec, Scene, degrade, gen_rir, render_scene,
                    split_rir, strip_late, synth_speech, target_estimates)
from .stft import ComplexSpectrogram, StftConfig, analyze, sqrt_hann, synthesize
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ComplexSpectrogram", "FilterBank", "MetricsReport", "PredConfig", "Rir",
    "RirSpec", "Scene", "StftConfig", "analyze", "degrade", "evaluate_pair",
    "fcp", "gcc_phat_delay", "gen_rir", "icp", "lambda_weights", "read_wav",
    "render_scene", "sdr_512", "si_sdr", "solve_wls", "split_rir", "sqrt_hann",
    "strip_late", "synth_speech", "synthesize", "target_estimates",
    "wpe_supplied", "wpe_vanilla", "write_wav",
]
