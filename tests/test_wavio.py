"""WAV I/O against scipy.io.wavfile: the files written are scipy's bytes,
and every file is read to the samples, or refused with the error class,
that the scipy-based reader gave."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from dereverb import read_wav, write_wav
from dereverb.cli import EXIT_CONFIG, EXIT_IO, main


def scipy_read_wav(path):
    """The reader as it was on scipy.io.wavfile: a parse error is an
    OSError, a parsed file that is not mono 16/24/32-bit PCM or float a
    ValueError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
            sample_rate, data = wavfile.read(path)
    except ValueError as exc:
        if "array is too big" in str(exc):   # numpy refusing the allocation
            raise MemoryError(str(exc)) from exc
        raise OSError(f"{path}: not a readable WAV file ({exc})") from exc
    except struct.error as exc:
        raise OSError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono WAV, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    return samples, int(sample_rate)


def outcome(reader, path):
    """What ``reader`` makes of ``path``: (rate, sample bytes), or the class
    of the error it raised. The scipy reader's other exceptions (a
    ZeroDivisionError on a zero channel count, an UnboundLocalError for a
    file without a data chunk) count as parse errors, except a MemoryError:
    scipy allocates the samples a size field claims before reading them,
    where the reader here reads the samples the file holds."""
    try:
        samples, rate = reader(path)
    except (OSError, ValueError) as exc:
        return type(exc)
    except MemoryError:
        return MemoryError
    except Exception:       # noqa: BLE001 - a traceback of the old reader
        return OSError
    return rate, samples.tobytes()


def chunk(chunk_id, payload, end="<"):
    """A chunk with its pad byte after an odd-sized payload."""
    return (chunk_id + struct.pack(end + "I", len(payload)) + payload
            + b"\x00" * (len(payload) % 2))


def fmt_chunk(tag, width, rate=8000, channels=1, extensible=False, cb_size=None,
              end="<"):
    block = width * channels
    body = struct.pack(end + "HHIIHH", 0xFFFE if extensible else tag, channels,
                       rate, rate * block, block, 8 * width)
    if extensible:
        body += struct.pack("<HHI", 22, 8 * width, 4) + struct.pack("<I", tag)
        body += b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71"
    elif cb_size is not None:
        body += struct.pack("<H", cb_size)
    return chunk(b"fmt ", body, end)


def riff(*chunks, signature=b"RIFF"):
    body = b"WAVE" + b"".join(chunks)
    end = ">" if signature == b"RIFX" else "<"
    return signature + struct.pack(end + "I", len(body)) + body


def pcm24(values):
    return b"".join(struct.pack("<i", v)[:3] for v in values)


def rf64(fmt, payload):
    """An RF64 file: sizes in the ds64 chunk, 0xFFFFFFFF in the others."""
    tail = fmt + b"data" + b"\xff\xff\xff\xff" + payload
    ds64 = b"ds64" + struct.pack("<IQQQI", 28, 4 + 36 + len(tail), len(payload),
                                 len(payload) // 2, 0)
    return b"RF64\xff\xff\xff\xffWAVE" + ds64 + tail


_RNG = np.random.default_rng(0)
_I16 = _RNG.integers(-32768, 32768, 101).astype("<i2")
_F32 = _RNG.uniform(-1, 1, 101).astype("<f4")
_I24 = [int(v) for v in _RNG.integers(-2 ** 23, 2 ** 23, 101)]

VARIANTS = {
    "pcm16": riff(fmt_chunk(1, 2), chunk(b"data", _I16.tobytes())),
    "pcm24": riff(fmt_chunk(1, 3), chunk(b"data", pcm24(_I24))),
    "pcm32": riff(fmt_chunk(1, 4),
                  chunk(b"data", (_I16.astype("<i4") << 16).tobytes())),
    "float32": riff(fmt_chunk(3, 4, cb_size=0), chunk(b"fact", struct.pack("<I", 101)),
                    chunk(b"data", _F32.tobytes())),
    "float64": riff(fmt_chunk(3, 8), chunk(b"data", _F32.astype("<f8").tobytes())),
    "extensible-pcm16": riff(fmt_chunk(1, 2, extensible=True),
                             chunk(b"data", _I16.tobytes())),
    "extensible-pcm24": riff(fmt_chunk(1, 3, extensible=True),
                             chunk(b"data", pcm24(_I24))),
    "extensible-float32": riff(fmt_chunk(3, 4, extensible=True),
                               chunk(b"data", _F32.tobytes())),
    "rf64-pcm16": rf64(fmt_chunk(1, 2), _I16.tobytes()),
    # odd-sized chunks before and after the samples, each with its pad byte
    "odd-chunks": riff(chunk(b"JUNK", b"abc"), fmt_chunk(1, 3),
                       chunk(b"LIST", b"INFOx"), chunk(b"data", pcm24(_I24)),
                       chunk(b"zzzz", b"q")),
    # a data size that is not a whole number of samples; the next chunk is
    # read from the end of the last whole sample plus the pad byte, so the
    # second fmt chunk (16 kHz) is not found
    "partial-sample": riff(fmt_chunk(1, 2), chunk(b"data", _I16.tobytes()[:-1]),
                           fmt_chunk(1, 2, rate=16000)),
    "16 kHz": riff(fmt_chunk(1, 2, rate=16000), chunk(b"data", _I16.tobytes())),
    # refused: not mono, 8-bit, 64-bit, big-endian, unknown format
    "stereo": riff(fmt_chunk(1, 2, channels=2), chunk(b"data", _I16[:100].tobytes())),
    "pcm8": riff(fmt_chunk(1, 1), chunk(b"data", bytes(range(100)))),
    "pcm64": riff(fmt_chunk(1, 8), chunk(b"data", bytes(800))),
    "rifx": riff(fmt_chunk(1, 2, end=">"),
                 chunk(b"data", _I16.astype(">i2").tobytes(), ">"), signature=b"RIFX"),
    "mu-law": riff(fmt_chunk(7, 1), chunk(b"data", bytes(100))),
}


# what the CLI exits 2 (ValueError) or 3 (OSError) on
REFUSED = {"stereo": ValueError, "pcm8": ValueError, "pcm64": ValueError,
           "rifx": ValueError, "mu-law": OSError}


@pytest.mark.parametrize("name", VARIANTS)
def test_read_wav_matches_scipy_reader(tmp_path, name):
    path = tmp_path / "x.wav"
    path.write_bytes(VARIANTS[name])
    expected = outcome(scipy_read_wav, path)
    assert outcome(read_wav, path) == expected
    assert expected == REFUSED.get(name, expected)
    if name not in REFUSED:
        assert isinstance(expected, tuple) and len(expected[1]) > 0


@pytest.mark.parametrize("width", [2, 3])
def test_rf64_size_beyond_the_file_reads_the_samples_it_holds(tmp_path, width):
    """A ds64 data size up to 2**64 - 1 reads the samples the file holds,
    as a size that matches it does."""
    data = bytearray(rf64(fmt_chunk(1, width),
                          _I16.tobytes() if width == 2 else pcm24(_I24)))
    path = tmp_path / "x.wav"
    path.write_bytes(data)
    expected = outcome(read_wav, path)
    assert isinstance(expected, tuple)
    for size in (2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1):
        data[28:36] = struct.pack("<Q", size)
        path.write_bytes(data)
        assert outcome(read_wav, path) == expected, size


def test_rifx_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "rifx.wav"
    path.write_bytes(VARIANTS["rifx"])
    assert main(["evaluate", "--estimate", str(path), "--reference", str(path)]) \
        == EXIT_CONFIG
    assert "unsupported WAV sample format >i2" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["pcm16", "float32", "rf64-pcm16", "odd-chunks",
                                  "extensible-float32"])
def test_truncated_wav_matches_scipy_reader(tmp_path, name):
    """Every prefix of a file: the same samples, or the same error class."""
    data = VARIANTS[name]
    path = tmp_path / "x.wav"
    for cut in list(range(0, 100)) + [len(data) - 3, len(data) - 1]:
        path.write_bytes(data[:cut])
        assert outcome(read_wav, path) == outcome(scipy_read_wav, path), cut


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(VARIANTS)), st.integers(0, 79), st.integers(0, 255))
def test_corrupted_header_matches_scipy_reader(tmp_path_factory, name, at, value):
    """A file with one byte of its first 80 changed: the same samples, or
    the same error class."""
    data = bytearray(VARIANTS[name])
    data[at % len(data)] = value
    path = tmp_path_factory.mktemp("corrupt") / "x.wav"
    path.write_bytes(bytes(data))
    expected = outcome(scipy_read_wav, path)
    assume(expected is not MemoryError)
    assert outcome(read_wav, path) == expected


def test_unreadable_wav_is_io_error(tmp_path, capsys):
    path = tmp_path / "empty.wav"
    path.write_bytes(riff(fmt_chunk(1, 2)))         # no data chunk
    assert main(["evaluate", "--estimate", str(path), "--reference", str(path)]) \
        == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error:")


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
@pytest.mark.parametrize("rate", [8000, 16000])
@pytest.mark.parametrize("n", [1, 2, 4001, 4000])
def test_write_wav_bytes_equal_scipy(tmp_path, encoding, rate, n):
    x = np.random.default_rng(n).uniform(-1.2, 1.2, n)
    write_wav(tmp_path / "ours.wav", x, rate, encoding)
    if encoding == "float32":
        data = x.astype(np.float32)
    else:
        data = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
    wavfile.write(tmp_path / "scipy.wav", rate, data)
    assert ((tmp_path / "ours.wav").read_bytes()
            == (tmp_path / "scipy.wav").read_bytes())


@settings(max_examples=20, deadline=None)
@given(rate=st.sampled_from([8000, 16000]), n=st.integers(1, 4000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_wav_round_trip_is_the_encoding_exactly(tmp_path_factory, rate, n, seed):
    """read_wav after write_wav gives the float32 samples, or the clipped
    16-bit codes over 32768, as float64, bit for bit."""
    x = np.random.default_rng(seed).uniform(-1.2, 1.2, n)
    path = tmp_path_factory.mktemp("round_trip") / "x.wav"
    write_wav(path, x, rate, "float32")
    samples, fs = read_wav(path)
    assert fs == rate and samples.dtype == np.float64
    np.testing.assert_array_equal(samples, x.astype(np.float32))
    write_wav(path, x, rate, "pcm16")
    samples, fs = read_wav(path)
    assert fs == rate and samples.dtype == np.float64
    np.testing.assert_array_equal(
        samples, np.clip(np.round(x * 32768), -32768, 32767) / 32768)


@pytest.mark.filterwarnings("error")
def test_float32_overflow_raises_and_writes_nothing(tmp_path):
    """Samples beyond float32's range raise naming the file, with no numpy
    warning, and no file is written."""
    path = tmp_path / "big.wav"
    with pytest.raises(FloatingPointError, match="big.wav"):
        write_wav(path, np.array([0.5, 1e40]), 8000)
    assert not path.exists()
