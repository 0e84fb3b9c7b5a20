"""Mono WAV read/write (16-bit PCM and 32-bit float) at 8 or 16 kHz."""

import struct

import numpy as np
from scipy.io import wavfile

_PCM16_SCALE = 32768.0
# The sample encodings write_wav takes.
ENCODINGS = ("float32", "pcm16")


def read_wav(path):
    """Read a mono WAV file.

    Args:
        path: file path.

    Returns:
        (samples, sample_rate): float64 samples in [-1, 1] for integer PCM
        input, pass-through for float input.

    Raises:
        OSError: the file is missing, or is not a parseable WAV file.
        ValueError: a parseable WAV that is not mono or has an unsupported
            sample format.
    """
    try:
        sample_rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:
        raise OSError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono WAV, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    return samples, int(sample_rate)


def write_wav(path, samples, sample_rate, encoding="float32"):
    """Write a mono WAV file.

    Args:
        path: destination path.
        samples: 1-D real array.
        sample_rate: Hz.
        encoding: 'float32' or 'pcm16'. PCM output clips to [-1, 1).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be 1-D (mono)")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    if encoding == "float32":
        wavfile.write(path, int(sample_rate), x.astype(np.float32))
    elif encoding == "pcm16":
        scaled = np.clip(np.round(x * _PCM16_SCALE), -32768, 32767)
        wavfile.write(path, int(sample_rate), scaled.astype(np.int16))
    else:
        raise ValueError(f"unsupported encoding {encoding!r}")
