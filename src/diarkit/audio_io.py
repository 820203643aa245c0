"""WAV and RTTM file I/O plus the band-limited sample-rate converter.

WAV support is deliberately narrow: RIFF/WAVE, mono, PCM 16-bit or IEEE
float32. Everything downstream assumes the canonical 16 kHz rate unless a
caller resamples explicitly.
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

# Resampler kernel: Kaiser-windowed sinc, 16 zero crossings per side at the
# lower of the two rates, tabulated once per call by fractional input offset.
# A ratio up/down with up, down <= 1000 (or the double nearest one) needs the
# `up` offsets p/up only; any other ratio reads its weights off a grid of
# 4096 * cutoff offsets per input sample, interpolated linearly.
_SINC_HALF_WIDTH = 16
_KAISER_BETA = 8.6
_MAX_DENOMINATOR = 1000
_GRID_STEPS = 4096


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
        if not np.all(np.isfinite(samples)):
            raise ValueError("AudioBuffer samples must be finite")
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


@dataclass(frozen=True, order=True)
class Turn:
    """One speaker turn of a reference or hypothesis annotation."""

    file_id: str
    speaker_id: str
    onset_s: float
    duration_s: float

    def __post_init__(self):
        if self.onset_s < 0:
            raise ValueError("onset_s must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")

    @property
    def offset_s(self) -> float:
        return self.onset_s + self.duration_s


def read_wav(path: str | os.PathLike) -> AudioBuffer:
    """Read a mono RIFF/WAVE file (PCM16 or float32) into an AudioBuffer.

    Raises FileNotFoundError, CorruptHeader, or UnsupportedFormat.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[0:4] != b"RIFF":
        raise CorruptHeader(f"{path}: not a RIFF file")
    if data[8:12] != b"WAVE":
        raise CorruptHeader(f"{path}: RIFF without WAVE form type")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptHeader(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise CorruptHeader(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise CorruptHeader(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels != 1:
        raise UnsupportedFormat(f"{path}: {channels} channels, expected mono")
    if (audio_format, bits) == (_FMT_PCM, 16):
        raw = np.frombuffer(payload, dtype="<i2")
        samples = raw.astype(np.float32) / 32768.0
    elif (audio_format, bits) == (_FMT_IEEE_FLOAT, 32):
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    else:
        raise UnsupportedFormat(
            f"{path}: codec {audio_format} at {bits} bits not supported"
        )
    return AudioBuffer(samples, rate)


def write_wav(path: str | os.PathLike, buf: AudioBuffer, bit_depth: int | str = 16) -> None:
    """Write an AudioBuffer as RIFF/WAVE, PCM 16-bit or IEEE float32 ("f32")."""
    if len(buf) == 0:
        raise EmptyBuffer("refusing to write an empty buffer")
    if bit_depth == 16:
        # round-to-nearest, clamped so +1.0 stores as 32767
        ints = np.clip(np.rint(buf.samples.astype(np.float64) * 32768.0), -32768, 32767)
        payload = ints.astype("<i2").tobytes()
        audio_format, bits = _FMT_PCM, 16
    elif bit_depth == "f32":
        payload = buf.samples.astype("<f4").tobytes()
        audio_format, bits = _FMT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"bit_depth must be 16 or 'f32', got {bit_depth!r}")

    block_align = bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack(
                "<IHHIIHH",
                16,
                audio_format,
                1,
                buf.sample_rate_hz,
                buf.sample_rate_hz * block_align,
                block_align,
                bits,
            ),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def parse_rttm(text: str) -> list[Turn]:
    """Parse SPEAKER lines of an RTTM document into Turns, order preserved."""
    turns: list[Turn] = []
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
        if duration <= 0:
            raise NonPositiveDuration(line_no, f"duration {duration} must be > 0")
        if onset < 0:
            raise NonNumericTime(line_no, f"onset {onset} must be >= 0")
        turns.append(Turn(file_id=fields[1], speaker_id=fields[7], onset_s=onset, duration_s=duration))
    return turns


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
    chunk = 8192
    for a in range(0, n_out, chunk):
        n = np.arange(a, min(n_out, a + chunk), dtype=np.int64)
        if steps is None:
            start, phase = np.divmod(n * down, up)
            out[a : a + len(n)] = np.einsum("ij,ij->i", table[phase], windows[start + (k + 1)])
        else:
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
