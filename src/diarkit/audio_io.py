"""WAV and RTTM file I/O plus the band-limited sample-rate converter.

WAV support is deliberately narrow: RIFF/WAVE, mono, PCM 16-bit or IEEE
float32. Everything downstream assumes the canonical 16 kHz rate unless a
caller resamples explicitly.

The front end reads samples only through ``read(lo, hi)``, which both an
in-memory AudioBuffer and an open WavSource provide, so a file can be
diarized a block at a time without a copy of its samples in memory.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CorruptHeader,
    EmptyBuffer,
    MalformedLine,
    NonNumericTime,
    NonPositiveDuration,
    UnsupportedFormat,
)

CANONICAL_RATE_HZ = 16000

_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
# The on-disk layouts, read and written through these: the RIFF header
# (b"RIFF", size, b"WAVE"), a chunk header (id, size) and the fmt body
# (codec, channels, rate, byte rate, block align, bits per sample).
_RIFF = struct.Struct("<4sI4s")
_CHUNK = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")

# Resampler kernel: Kaiser-windowed sinc, 16 zero crossings per side at the
# lower of the two rates, tabulated once per call by fractional input offset.
# A ratio up/down with up, down <= 1000 (or the double nearest one) needs the
# `up` offsets p/up only; any other ratio reads its weights off a grid of
# 4096 * cutoff offsets per input sample, interpolated linearly.
_SINC_HALF_WIDTH = 16
_KAISER_BETA = 8.6
_MAX_DENOMINATOR = 1000
_GRID_STEPS = 4096
# Outputs per chunk off the fraction table. Each of a chunk's two
# (chunk, taps) gathers is about 300 KB at the 16 kHz ratios, small enough
# to reuse freed heap memory instead of faulting in fresh mmap'd pages for
# every chunk. An output depends only on its own row, so the chunk size
# does not change a sample.
_CHUNK_OUT = 1024
# Samples converted per block when writing or reading WAV data.
_WRITE_BLOCK = 1 << 16


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_finite(samples: np.ndarray) -> None:
    # NaN and +-inf propagate through min and max; no N-byte mask.
    if len(samples) and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        raise ValueError("AudioBuffer samples must be finite")


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Mono audio: float32 amplitudes nominally in [-1, 1] plus sample rate.

    `clipped` is set by normalization when samples had to be clamped; it is
    metadata and never round-trips through files.
    """

    samples: np.ndarray
    sample_rate_hz: int
    clipped: bool = field(default=False)

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if samples.ndim != 1:
            raise ValueError("AudioBuffer samples must be one-dimensional")
        _check_finite(samples)
        rate = int(self.sample_rate_hz)
        if rate <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi) as a view of the array, like ``WavSource.read`` on a file."""
        return self.samples[lo:hi]


@dataclass(frozen=True, order=True)
class Turn:
    """One speaker turn of a reference or hypothesis annotation."""

    file_id: str
    speaker_id: str
    onset_s: float
    duration_s: float

    def __post_init__(self):
        if not math.isfinite(self.onset_s + self.duration_s):
            raise ValueError(f"onset_s {self.onset_s} + duration_s {self.duration_s} must be finite")
        if self.onset_s < 0:
            raise ValueError("onset_s must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")

    @property
    def offset_s(self) -> float:
        return self.onset_s + self.duration_s


class WavSource:
    """An open mono RIFF/WAVE file (PCM16 or float32), read a range at a time.

    Opening walks the chunk headers with ``read_wav``'s checks, by offset
    because ``fmt`` may follow ``data``. ``read`` then decodes only the
    samples it is asked for, with ``os.preadv`` at an offset, so no file
    position is kept or shared. A source stands in for an AudioBuffer
    wherever the front end reads samples: it has a length,
    ``sample_rate_hz``, ``duration_s`` and ``read``, and holds none of the
    samples between reads. Close it, or use it in a ``with``.

    Raises FileNotFoundError, CorruptHeader, or UnsupportedFormat on open.
    """

    def __init__(self, path: str | os.PathLike):
        self._path = path
        self._fh = open(path, "rb")
        try:
            layout = _wav_layout(self._fh.fileno(), path)
            self._offset, self._len, self.sample_rate_hz, bits = layout
        except BaseException:
            self._fh.close()
            raise
        self._dtype = np.dtype("<i2" if bits == 16 else "<f4")

    def __len__(self) -> int:
        return self._len

    @property
    def duration_s(self) -> float:
        return self._len / self.sample_rate_hz

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi) as a new float32 array: PCM16 codes divided by
        32768 in float32, float32 data as stored, so every range equals
        that range of ``read_wav``'s samples. The file is read
        ``_WRITE_BLOCK`` samples at a time. A float32 range holding NaN or
        inf raises ValueError, as an AudioBuffer does, and data missing
        from the file CorruptHeader.
        """
        if not 0 <= lo <= hi <= self._len:
            raise IndexError(f"samples [{lo}, {hi}) outside the {self._len}-sample file")
        n = hi - lo
        out = np.empty(n, dtype=np.float32)
        raw = np.empty(min(n, _WRITE_BLOCK), dtype=self._dtype)
        fd = self._fh.fileno()
        for a in range(0, n, _WRITE_BLOCK):
            part = raw[: n - a]
            if os.preadv(fd, [part], self._offset + (lo + a) * raw.itemsize) != part.nbytes:
                raise CorruptHeader(f"{self._path}: data chunk truncated")
            out[a : a + len(part)] = part
        if raw.dtype.kind == "i":
            out /= 32768.0
        else:
            _check_finite(out)
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "WavSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _wav_layout(fd: int, path) -> tuple[int, int, int, int]:
    """(data offset, sample count, rate, bits per sample) of an open WAV."""
    size = os.fstat(fd).st_size
    head = os.pread(fd, _RIFF.size, 0)
    if len(head) < _RIFF.size or head[0:4] != b"RIFF":
        raise CorruptHeader(f"{path}: not a RIFF file")
    if _RIFF.unpack(head)[2] != b"WAVE":
        raise CorruptHeader(f"{path}: RIFF without WAVE form type")

    fmt = None
    data = None  # (offset, size) of the data chunk's body
    pos = _RIFF.size
    while pos + _CHUNK.size <= size:
        chunk_id, chunk_size = _CHUNK.unpack(os.pread(fd, _CHUNK.size, pos))
        pos += _CHUNK.size
        if chunk_id == b"fmt ":
            body = os.pread(fd, min(chunk_size, _FMT.size), pos)
            if len(body) < _FMT.size:
                raise CorruptHeader(f"{path}: fmt chunk too small")
            fmt = _FMT.unpack(body)
        elif chunk_id == b"data":
            if pos + chunk_size > size:
                raise CorruptHeader(f"{path}: data chunk truncated")
            data = (pos, chunk_size)
        pos += chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise CorruptHeader(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels != 1:
        raise UnsupportedFormat(f"{path}: {channels} channels, expected mono")
    if (audio_format, bits) not in ((_FMT_PCM, 16), (_FMT_IEEE_FLOAT, 32)):
        raise UnsupportedFormat(
            f"{path}: codec {audio_format} at {bits} bits not supported"
        )
    offset, n_bytes = data
    if n_bytes % (bits // 8):
        raise CorruptHeader(f"{path}: data chunk ends inside a sample")
    return offset, n_bytes // (bits // 8), rate, bits


def read_wav(path: str | os.PathLike) -> AudioBuffer:
    """Read a mono RIFF/WAVE file (PCM16 or float32) into an AudioBuffer.

    The file is opened as a WavSource and read whole in one ``read``,
    which decodes through one block of ``_WRITE_BLOCK`` samples of the
    file, so beside the output the reader holds no more than that.

    Raises FileNotFoundError, CorruptHeader, or UnsupportedFormat.
    """
    with WavSource(path) as src:
        return AudioBuffer(src.read(0, len(src)), src.sample_rate_hz)


def write_wav(path: str | os.PathLike, buf: AudioBuffer, bit_depth: int | str = 16) -> None:
    """Write an AudioBuffer as RIFF/WAVE, PCM 16-bit or IEEE float32 ("f32")."""
    if len(buf) == 0:
        raise EmptyBuffer("refusing to write an empty buffer")
    if bit_depth == 16:
        payload = np.empty(len(buf), dtype="<i2")
        for lo in range(0, len(buf), _WRITE_BLOCK):
            x = buf.samples[lo : lo + _WRITE_BLOCK].astype(np.float64)
            # round-to-nearest, clamped so +1.0 stores as 32767
            payload[lo : lo + len(x)] = np.clip(np.rint(x * 32768.0), -32768, 32767)
        audio_format, bits = _FMT_PCM, 16
    elif bit_depth == "f32":
        payload = np.asarray(buf.samples, dtype="<f4")
        audio_format, bits = _FMT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"bit_depth must be 16 or 'f32', got {bit_depth!r}")

    block_align, rate = bits // 8, buf.sample_rate_hz
    header = (
        _RIFF.pack(b"RIFF", 36 + payload.nbytes, b"WAVE")
        + _CHUNK.pack(b"fmt ", _FMT.size)
        + _FMT.pack(audio_format, 1, rate, rate * block_align, block_align, bits)
        + _CHUNK.pack(b"data", payload.nbytes)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


@dataclass(frozen=True)
class TurnColumns:
    """Turns as four parallel columns, one row per turn, for scoring."""

    file_id: list[str] = field(default_factory=list)
    speaker_id: list[str] = field(default_factory=list)
    onset_s: list[float] = field(default_factory=list)
    duration_s: list[float] = field(default_factory=list)

    def by_file(self) -> dict[str, TurnColumns]:
        """The rows grouped by file_id, in order of first appearance."""
        rows: dict[str, list[int]] = {}
        for i, fid in enumerate(self.file_id):
            rows.setdefault(fid, []).append(i)
        cols = (self.file_id, self.speaker_id, self.onset_s, self.duration_s)
        return {fid: TurnColumns(*([c[i] for i in idx] for c in cols)) for fid, idx in rows.items()}


def rttm_columns(text: str) -> TurnColumns:
    """Parse SPEAKER lines of an RTTM document into columns, order preserved."""
    cols = TurnColumns()
    files, speakers, onsets, durations = cols.file_id, cols.speaker_id, cols.onset_s, cols.duration_s
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if fields[0] != "SPEAKER" or len(fields) < 9:
            raise MalformedLine(line_no, f"expected >= 9 fields starting with SPEAKER, got {line!r}")
        try:
            onset = float(fields[3])
            duration = float(fields[4])
        except ValueError:
            raise NonNumericTime(line_no, f"bad onset/duration in {line!r}") from None
        if not math.isfinite(onset + duration):
            raise NonNumericTime(line_no, f"onset/duration must be finite in {line!r}")
        if duration <= 0:
            raise NonPositiveDuration(line_no, f"duration {duration} must be > 0")
        if onset < 0:
            raise NonNumericTime(line_no, f"onset {onset} must be >= 0")
        files.append(fields[1])
        speakers.append(fields[7])
        onsets.append(onset)
        durations.append(duration)
    return cols


def parse_rttm(text: str) -> list[Turn]:
    """Parse SPEAKER lines of an RTTM document into Turns, order preserved."""
    cols = rttm_columns(text)
    return list(map(Turn, cols.file_id, cols.speaker_id, cols.onset_s, cols.duration_s))


def emit_rttm(turns: list[Turn]) -> str:
    """Serialize Turns as RTTM SPEAKER lines with 3-decimal times."""
    lines = [
        "SPEAKER {f} 1 {on:.3f} {dur:.3f} <NA> <NA> {spk} <NA> <NA>".format(
            f=t.file_id, on=t.onset_s, dur=t.duration_s, spk=t.speaker_id
        )
        for t in turns
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def resample(buf: AudioBuffer, target_rate_hz: int) -> AudioBuffer:
    """Resample with a Kaiser-windowed sinc kernel (band-limited)."""
    if target_rate_hz <= 0:
        raise ValueError("target_rate_hz must be positive")
    if target_rate_hz == buf.sample_rate_hz:
        return buf
    out = sinc_interp(
        buf.samples.astype(np.float64), Fraction(target_rate_hz, buf.sample_rate_hz)
    )
    return AudioBuffer(out, target_rate_hz)


def sinc_interp(x: np.ndarray, ratio: float | Fraction) -> np.ndarray:
    """Evaluate x at positions n/ratio, n = 0..round(len(x)*ratio)-1.

    The kernel is sinc lowpassed to the narrower of the two Nyquist bands
    (cutoff = min(1, ratio)) under a Kaiser window, so downsampling
    anti-aliases and upsampling interpolates; samples outside x count as
    zero. Output n reads the taps around input floor(n/ratio) with weights
    that depend only on the fractional offset of n/ratio, so they come from
    a table built once per call. When ratio is up/down with up, down <= 1000
    (a Fraction, or the double nearest such a fraction, e.g. 1/1.1), the
    offset is exactly p/up, p = (n*down) % up, and the table has `up` rows.
    Any other ratio (pitch shift's 2^(-s/12), speed 0.9996) keeps the float
    positions n/ratio, so nothing drifts along the output, and interpolates
    linearly between rows of a grid of 4096*cutoff offsets per sample.
    """
    if not isinstance(ratio, Fraction):
        ratio = float(ratio)
    n_out = math.floor(len(x) * ratio + Fraction(1, 2))
    if n_out <= 0 or len(x) == 0:
        return np.zeros(0)
    cutoff = min(1.0, float(ratio))
    half = _SINC_HALF_WIDTH / cutoff
    k = math.ceil(half)
    n_taps = 2 * k
    q = Fraction(ratio).limit_denominator(_MAX_DENOMINATOR)
    if (q == ratio or float(q) == ratio) and q.numerator <= _MAX_DENOMINATOR:
        up, down, steps = q.numerator, q.denominator, None
        table = _kernel_table(np.arange(up) / up, half, cutoff, k)
    else:
        steps = math.ceil(_GRID_STEPS * cutoff)
        table = _kernel_table(np.arange(steps + 1) / steps, half, cutoff, k)
        slope = np.diff(table, axis=0)

    # Zero padding stands in for the samples outside x; a window starts at
    # most k - 1 before x and ends at most k after it.
    windows = sliding_window_view(np.pad(x, n_taps), n_taps)
    out = np.empty(n_out)
    if steps is None:
        # Outputs r, r + up, r + 2 up ... share table row (r * down) % up,
        # and their windows start down samples apart: one strided view.
        for r in range(min(up, n_out)):
            start, phase = divmod(r * down, up)
            rows = windows[start + k + 1 :: down][: len(range(r, n_out, up))]
            np.einsum("ij,j->i", rows, table[phase], out=out[r::up])
        return out
    for a in range(0, n_out, _CHUNK_OUT):
        n = np.arange(a, min(n_out, a + _CHUNK_OUT), dtype=np.int64)
        t = n / float(ratio)
        start = np.floor(t).astype(np.int64)
        g = (t - start) * steps
        row = np.minimum(g.astype(np.int64), steps - 1)
        w = windows[start + (k + 1)]
        lo = np.einsum("ij,ij->i", table[row], w)
        out[a : a + len(n)] = lo + (g - row) * np.einsum("ij,ij->i", slope[row], w)
    return out


def _kernel_table(frac: np.ndarray, half: float, cutoff: float, k: int) -> np.ndarray:
    """Weights of taps 1-k .. k around input 0, one row per offset in frac.

    Offsets lie in [0, 1]; taps at distance half or more weigh zero.
    """
    u = frac[:, None] - np.arange(1 - k, k + 1)[None, :]
    v2 = (u / half) ** 2
    win = np.where(v2 < 1.0, np.i0(_KAISER_BETA * np.sqrt(np.maximum(1.0 - v2, 0.0))), 0.0)
    return cutoff * np.sinc(cutoff * u) * win / np.i0(_KAISER_BETA)
