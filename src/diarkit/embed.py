"""Segment embeddings: MFCC statistics plus an external-vector loader.

The embedder turns each segment into a fixed-length vector of cepstral
statistics. Dropping the zeroth cepstrum and subtracting the cepstral
mean make the vectors insensitive to overall gain, so clustering can
only ever see spectral shape, not loudness.

Externally computed vectors (any dimension) enter through a small binary
matrix format documented at ``write_embeddings``.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import dct

from .audio_io import AudioBuffer
from .errors import (
    CorruptHeader,
    DimMismatch,
    SegmentOutOfRange,
    TooFewFrames,
    TooShort,
    TruncatedFile,
)
from .vad import Segment

_PRE_EMPHASIS = 0.97
_MIN_NFFT = 512
_LOG_FLOOR = 1e-30


@dataclass(frozen=True)
class Embedding:
    """Fixed-length feature vector for one segment."""

    vector: np.ndarray
    segment_ref: Segment | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("vector must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector components must be finite")
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return int(self.vector.shape[0])


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank(n_mels: int, nfft: int, rate: int) -> np.ndarray:
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(rate / 2.0), n_mels + 2))
    freqs = np.arange(nfft // 2 + 1) * (rate / nfft)
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs[None, :] - lo) / (center - lo)
    falling = (hi - freqs[None, :]) / (hi - center)
    return np.maximum(0.0, np.minimum(rising, falling))


def _deltas(c: np.ndarray, n: int = 2) -> np.ndarray:
    """Regression deltas over frames with edge padding."""
    padded = np.pad(c, ((n, n), (0, 0)), mode="edge")
    num = np.zeros_like(c)
    for k in range(1, n + 1):
        num += k * (padded[n + k : len(padded) - n + k] - padded[n - k : len(padded) - n - k])
    return num / (2.0 * sum(k * k for k in range(1, n + 1)))


def _frame_starts(n_samples: int, frame: int, hop: int) -> np.ndarray:
    if n_samples < frame:
        return np.zeros(0, dtype=np.int64)
    return np.arange(0, n_samples - frame + 1, hop, dtype=np.int64)


def _buffer_features(
    buf: AudioBuffer, n_mels: int, n_coeffs: int, frame_ms: float, hop_ms: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cepstra + deltas for every full frame of the buffer.

    The cepstral mean is taken over the whole buffer, so features of a
    segment depend on the recording it came from but not on where the
    segment boundaries fall.
    """
    rate = buf.sample_rate_hz
    frame = int(round(rate * frame_ms / 1000.0))
    hop = int(round(rate * hop_ms / 1000.0))
    starts = _frame_starts(len(buf), frame, hop)
    if len(starts) == 0:
        return starts, np.zeros((0, 3 * n_coeffs))

    x = buf.samples.astype(np.float64)
    x = np.concatenate([x[:1], x[1:] - _PRE_EMPHASIS * x[:-1]])
    idx = starts[:, None] + np.arange(frame)[None, :]
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(frame) / (frame - 1))
    # Zero-pad to a power of two; a frame longer than _MIN_NFFT is never cropped.
    nfft = max(_MIN_NFFT, 1 << (frame - 1).bit_length())
    power = np.abs(np.fft.rfft(x[idx] * window, n=nfft, axis=1)) ** 2
    fb = _mel_filterbank(n_mels, nfft, rate)
    logmel = np.log(np.maximum(power @ fb.T, _LOG_FLOOR))
    cepstra = dct(logmel, type=2, norm="ortho", axis=1)[:, 1 : n_coeffs + 1]
    cepstra = cepstra - np.mean(cepstra, axis=0, keepdims=True)
    d1 = _deltas(cepstra)
    d2 = _deltas(d1)
    return starts, np.concatenate([cepstra, d1, d2], axis=1)


def _segment_rows(
    buf: AudioBuffer, segment: Segment, starts: np.ndarray, frame: int
) -> np.ndarray:
    on = int(round(segment.onset_s * buf.sample_rate_hz))
    off = int(round(segment.offset_s * buf.sample_rate_hz))
    if off > len(buf):
        raise SegmentOutOfRange(
            f"segment [{segment.onset_s}, {segment.offset_s}] ends past the "
            f"{buf.duration_s:.3f} s buffer"
        )
    # starts is ascending: rows run from the first start at or after on to
    # the last start whose frame ends by off.
    lo = int(np.searchsorted(starts, on, side="left"))
    hi = int(np.searchsorted(starts, off - frame, side="right"))
    rows = np.arange(lo, max(lo, hi))
    if len(rows) == 0:
        raise TooShort(
            f"segment [{segment.onset_s}, {segment.offset_s}] holds no full "
            "analysis frame"
        )
    return rows


def mfcc_features(
    buf: AudioBuffer,
    segment: Segment,
    n_mels: int = 40,
    n_coeffs: int = 13,
    frame_ms: float = 25.0,
    hop_ms: float = 10.0,
) -> np.ndarray:
    """Cepstral features for one segment, frames x (3 * n_coeffs).

    Columns are c1..c{n} after buffer-wide mean subtraction, then their
    deltas and delta-deltas. c0 is dropped.

    Raises SegmentOutOfRange when the segment ends past the buffer and
    TooShort when it holds no full analysis frame.
    """
    if n_mels < n_coeffs + 1:
        raise ValueError("n_mels must exceed n_coeffs")
    starts, feats = _buffer_features(buf, n_mels, n_coeffs, frame_ms, hop_ms)
    frame = int(round(buf.sample_rate_hz * frame_ms / 1000.0))
    if len(starts) == 0:
        raise TooShort("buffer is shorter than one analysis frame")
    rows = _segment_rows(buf, segment, starts, frame)
    return feats[rows]


def pool_embedding(features: np.ndarray, base_dims: int = 26) -> Embedding:
    """Mean and standard deviation over frames of the leading dims.

    Keeping ``base_dims`` of the per-frame features and stacking mean
    with std gives the fixed 2 * base_dims vector (52 by default).

    Raises TooFewFrames on fewer than 2 frames.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise TooFewFrames("pooling needs a matrix of at least 2 frames")
    if f.shape[1] < base_dims:
        raise DimMismatch(
            f"features have {f.shape[1]} dims, pooling needs {base_dims}"
        )
    kept = f[:, :base_dims]
    vec = np.concatenate([np.mean(kept, axis=0), np.std(kept, axis=0)])
    return Embedding(vector=vec)


class MfccEmbedder:
    """Deterministic segment embedder over MFCC statistics.

    Per-buffer feature matrices are cached (weakly keyed on the buffer
    object), so embedding every segment of a recording frames it once.
    """

    def __init__(
        self,
        n_mels: int = 40,
        n_coeffs: int = 13,
        frame_ms: float = 25.0,
        hop_ms: float = 10.0,
        base_dims: int = 26,
    ) -> None:
        if n_mels < n_coeffs + 1:
            raise ValueError("n_mels must exceed n_coeffs")
        if base_dims > 3 * n_coeffs:
            raise ValueError("base_dims cannot exceed the feature width")
        self.n_mels = n_mels
        self.n_coeffs = n_coeffs
        self.frame_ms = frame_ms
        self.hop_ms = hop_ms
        self.base_dims = base_dims
        self._cache: weakref.WeakKeyDictionary[AudioBuffer, tuple] = (
            weakref.WeakKeyDictionary()
        )

    @property
    def dim(self) -> int:
        return 2 * self.base_dims

    def _features_for(self, buf: AudioBuffer) -> tuple[np.ndarray, np.ndarray]:
        cached = self._cache.get(buf)
        if cached is None:
            cached = _buffer_features(
                buf, self.n_mels, self.n_coeffs, self.frame_ms, self.hop_ms
            )
            self._cache[buf] = cached
        return cached

    def embed(self, buf: AudioBuffer, segment: Segment) -> Embedding:
        starts, feats = self._features_for(buf)
        frame = int(round(buf.sample_rate_hz * self.frame_ms / 1000.0))
        if len(starts) == 0:
            raise TooShort("buffer is shorter than one analysis frame")
        rows = _segment_rows(buf, segment, starts, frame)
        pooled = pool_embedding(feats[rows], base_dims=self.base_dims)
        return Embedding(vector=pooled.vector, segment_ref=segment)


_HEADER = struct.Struct("<II")


def write_embeddings(path: str | Path, embeddings) -> None:
    """Write vectors in the embedding-matrix format.

    Layout: two little-endian uint32 (count, dim), then count * dim
    little-endian float32 values, row-major. ``embeddings`` is a 2-D
    array or a sequence of Embedding, ordered by segment index.
    """
    if isinstance(embeddings, np.ndarray):
        matrix = np.asarray(embeddings, dtype=np.float64)
    else:
        matrix = np.stack([e.vector for e in embeddings]) if embeddings else np.zeros((0, 0))
    if matrix.ndim != 2:
        raise ValueError("embeddings must form a 2-D matrix")
    count, dim = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(count, dim))
        fh.write(matrix.astype("<f4").tobytes(order="C"))


def load_external_embeddings(
    path: str | Path, expected_dim: int | None = None
) -> dict[int, Embedding]:
    """Read an embedding-matrix file as {segment index: Embedding}.

    Raises CorruptHeader on an unreadable header or trailing bytes,
    TruncatedFile when rows are missing, and DimMismatch when the stated
    dimension differs from ``expected_dim``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CorruptHeader(f"{path}: embedding file shorter than its header")
    count, dim = _HEADER.unpack_from(raw)
    if count > 0 and dim == 0:
        raise CorruptHeader(f"{path}: zero dimension with nonzero count")
    if expected_dim is not None and count > 0 and dim != expected_dim:
        raise DimMismatch(
            f"{path}: file dimension {dim} does not match the active "
            f"run dimension {expected_dim}"
        )
    need = count * dim * 4
    body = raw[_HEADER.size :]
    if len(body) < need:
        raise TruncatedFile(
            f"{path}: header promises {count} x {dim} values, "
            f"{(len(body)) // 4} present"
        )
    if len(body) > need:
        raise CorruptHeader(f"{path}: {len(body) - need} trailing bytes")
    matrix = np.frombuffer(body, dtype="<f4").reshape(count, dim)
    return {
        i: Embedding(vector=matrix[i].astype(np.float64)) for i in range(count)
    }
