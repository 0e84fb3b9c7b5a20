"""Mono WAV read/write (16-bit PCM and 32-bit float) at 8 or 16 kHz.

Both directions run on ``struct`` and numpy, so reading and writing WAV
files loads no scipy module. The files written are byte for byte the ones
``scipy.io.wavfile.write`` writes for the same samples: float32 with an
18-byte ``fmt`` chunk and a ``fact`` chunk, pcm16 with a 16-byte ``fmt``
chunk. The reader parses what ``scipy.io.wavfile.read`` parses, to the
same samples: RIFF, RIFX and RF64 containers, plain and
WAVE_FORMAT_EXTENSIBLE ``fmt`` chunks, integer PCM of any width and 32- and
64-bit float, with other chunks skipped whatever their size.
"""

import io
import struct
import sys
from pathlib import Path

import numpy as np

_PCM16_SCALE = 32768.0
# The sample encodings write_wav takes.
ENCODINGS = ("float32", "pcm16")

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# The last 12 bytes of an EXTENSIBLE format GUID
# {XXXXXXXX-0000-0010-8000-00AA00389B71}, whose first 4 bytes hold the tag.
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xAA\x00\x38\x9B\x71"}


def _unpack(f, fmt):
    return struct.unpack(fmt, f.read(struct.calcsize(fmt)))


def _skip_chunk(f, end):
    """Skip a chunk whose id has been read, and its pad byte."""
    size = f.read(4)
    if size:
        size = struct.unpack(end + "I", size)[0]
        f.seek(size + size % 2, io.SEEK_CUR)


def _read_fmt(f, end):
    """(format tag, channels, rate, block align, bits per sample) of the
    ``fmt`` chunk whose id has been read."""
    size = _unpack(f, end + "I")[0]
    if size < 16:
        raise ValueError("fmt chunk shorter than 16 bytes")
    tag, channels, rate, byte_rate, block_align, bits = _unpack(f, end + "HHIIHH")
    done = 16
    if tag == _EXTENSIBLE and size >= 18:
        if _unpack(f, end + "H")[0] < 22:
            raise ValueError("EXTENSIBLE fmt chunk shorter than 40 bytes")
        guid = f.read(22)[6:]
        done += 24
        if guid.endswith(_GUID_TAIL[end]):
            tag = struct.unpack(end + "I", guid[:4])[0]
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"unknown wave file format {tag:#06x}")
    if size > done:
        f.read(size - done)
    f.seek(size % 2, io.SEEK_CUR)
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(f"byte rate {byte_rate} != sample rate {rate} x "
                         f"block align {block_align}")
    return tag, channels, rate, block_align, bits


def _read_data(f, end, fmt, rf64_size):
    """The samples of the ``data`` chunk whose id has been read, in the
    dtype they are stored in (24-bit PCM left-justified in int32); 2-D
    (samples, channels) for more than one channel."""
    if rf64_size is None:
        size = _unpack(f, end + "I")[0]
    else:
        size = rf64_size            # the chunk's own size field reads 0xFFFFFFFF
        f.read(4)
    tag, channels, _, block_align, bits = fmt
    if channels == 0 or block_align < channels:
        raise ValueError(f"block align {block_align} for {channels} channels")
    width = block_align // channels
    if tag == _PCM and 1 <= bits <= 8:
        code = "u1"                 # 8-bit PCM and less is unsigned
    elif tag == _PCM and width in (3, 5, 6, 7):
        code = None
    elif tag == _PCM and bits <= 64:
        code = f"{end}i{width}"
    elif tag == _IEEE_FLOAT and bits in (32, 64):
        code = f"{end}f{width}"
    else:
        raise ValueError(f"unsupported {bits}-bit samples (format {tag:#06x})")
    if code is not None:
        try:
            dtype = np.dtype(code)
        except TypeError:
            raise ValueError(f"unsupported {width}-byte sample containers "
                             f"(format {tag:#06x})") from None
        # whole samples of the container width, each read as one dtype item
        raw = f.read(size // width * dtype.itemsize)
        data = np.frombuffer(raw[:len(raw) // dtype.itemsize * dtype.itemsize],
                             dtype=dtype)
    else:
        # left-justify each sample in the smallest integer that holds it
        raw = np.frombuffer(f.read(size), dtype="V1").reshape(-1, width)
        dtype = np.dtype(f"{end}i{4 if width == 3 else 8}")
        padded = np.zeros((raw.shape[0], dtype.itemsize), dtype="V1")
        if end == ">":
            padded[:, :width] = raw
        else:
            padded[:, -width:] = raw
        data = padded.view(dtype).reshape(-1)
    f.seek(size % 2, io.SEEK_CUR)
    return data.reshape(-1, channels) if channels > 1 else data


def _parse(data):
    """(sample rate, samples as stored) of a WAV file's bytes.

    Raises:
        ValueError or struct.error: the bytes are not a parseable WAV file.
    """
    f = io.BytesIO(data)
    signature = f.read(4)
    if signature not in (b"RIFF", b"RIFX", b"RF64"):
        raise ValueError(f"file format {signature!r} is not RIFF, RIFX or RF64")
    end = ">" if signature == b"RIFX" else "<"
    rf64_size = None
    if signature == b"RF64":
        f.read(4)
        form = f.read(4)
        if f.read(4) != b"ds64":
            raise ValueError("RF64 file without a ds64 chunk")
        ds64_size = _unpack(f, "<I")[0]
        file_size = _unpack(f, "<Q")[0] + 8
        # BytesIO reads at most sys.maxsize bytes, which also reads to the end
        rf64_size = min(_unpack(f, "<Q")[0], sys.maxsize)
        f.seek(ds64_size - 16, io.SEEK_CUR)
    else:
        file_size = _unpack(f, end + "I")[0] + 8
        form = f.read(4)
    if form != b"WAVE":
        raise ValueError(f"not a WAV file: RIFF form type {form!r}")

    fmt = samples = None
    while f.tell() < file_size:
        chunk_id = f.read(4)
        if not chunk_id:
            if samples is None:
                raise ValueError("unexpected end of file")
            break
        if len(chunk_id) < 4 and samples is None:
            raise ValueError(f"incomplete chunk id {chunk_id!r}")
        if chunk_id == b"fmt ":
            fmt = _read_fmt(f, end)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before data")
            samples = _read_data(f, end, fmt, rf64_size)
        else:
            _skip_chunk(f, end)
    if samples is None:
        raise ValueError("no data chunk")
    return fmt[2], samples


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
            sample format (8-bit or 64-bit PCM, or big-endian RIFX).
    """
    try:
        sample_rate, data = _parse(Path(path).read_bytes())
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

    Raises:
        ValueError: samples not 1-D or not finite, an unknown encoding, or
            more data than a RIFF file holds (4 GiB).
        FloatingPointError: float32 samples that overflow; nothing is
            written.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be 1-D (mono)")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    if encoding == "float32":
        with np.errstate(over="ignore"):
            data = x.astype("<f4")
        if not np.all(np.isfinite(data)):
            raise FloatingPointError(f"{path}: samples overflow float32")
        tag, extra = _IEEE_FLOAT, b"\x00\x00"       # cbSize: no extension
    elif encoding == "pcm16":
        data = np.clip(np.round(x * _PCM16_SCALE), -32768, 32767).astype("<i2")
        tag, extra = _PCM, b""
    else:
        raise ValueError(f"unsupported encoding {encoding!r}")
    rate, width = int(sample_rate), data.itemsize
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width) + extra
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if tag == _IEEE_FLOAT:
        chunks += b"fact" + struct.pack("<II", 4, data.size)
    riff_size = 4 + len(chunks) + 8 + data.nbytes
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{data.nbytes} bytes of samples exceed a RIFF file's 4 GiB")
    header = (b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + chunks
              + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
