"""Segment embeddings: MFCC statistics plus an external-vector loader.

The embedder turns each segment into a fixed-length vector of cepstral
statistics. Dropping the zeroth cepstrum and subtracting the cepstral
mean make the vectors insensitive to overall gain, so clustering can
only ever see spectral shape, not loudness.

A recording is framed once into a table of centred cepstra, row i for
the frame at sample ``i * hop``, so a segment's rows follow from its
bounds by arithmetic. Samples are read a block at a time through
``read(lo, hi)``, from an AudioBuffer or an open WavSource alike, with
one thread per usable core framing its share of the blocks in buffers
it allocates once. The mel bands stop at half the rate or 8 kHz,
whichever is lower. Deltas are a regression over the cepstra two frames
either side, so a segment's delta and delta-delta rows are rebuilt from
the cepstral rows around it when it is pooled; no table holds them for
the whole recording. The cepstra are the orthonormal DCT-II of the
log-mel energies, computed by a numpy port of pocketfft's (``_dct_ii``),
bit for bit with ``scipy.fft.dct``, so the front end, like every
command, runs without scipy.

A recording's vectors are one float64 (segments, dim) matrix, rows in
segment order; external vectors (any dimension) enter as the small
binary form of that matrix documented at ``write_embeddings``.
"""

from __future__ import annotations

import math
import struct
import weakref
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import numpy.fft  # noqa: F401  numpy 2 loads it lazily: load it here, not in the first MFCC block
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer, WavSource, _usable_cores
from .errors import (
    CorruptHeader,
    SegmentOutOfRange,
    TooFewFrames,
    TooShort,
    TruncatedFile,
)
from .vad import Segment, _frame_and_hop, _frame_blocks

_PRE_EMPHASIS = 0.97
_MIN_NFFT = 512
_LOG_FLOOR = 1e-30
# MFCC frames per block, each worker's block buffers sized to one. Past one
# block every block holds at least half this many rows, far above the few
# rows at which BLAS changes path.
_MFCC_BLOCK = 256
_DELTA_SPAN = 2  # a delta regresses over this many frames either side
_MEL_TOP_HZ = 8000.0  # mel bands stop here (HTK's HIFREQ): 48 kHz gets 16 kHz's bands


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank(n_mels: int, nfft: int, rate: int) -> np.ndarray:
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(min(rate / 2.0, _MEL_TOP_HZ)), n_mels + 2))
    freqs = np.arange(nfft // 2 + 1) * (rate / nfft)
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs[None, :] - lo) / (center - lo)
    falling = (hi - freqs[None, :]) / (hi - center)
    return np.maximum(0.0, np.minimum(rising, falling))


def _deltas(c: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the regression deltas of ``c``.

    Frames past either end of ``c`` repeat its first or last row (edge
    padding), read through indices clamped to the first and last frame,
    so no padded copy of ``c`` is made. Each row is computed alone, so a
    row range equals those rows of the whole table.
    """
    rows, last, span = np.arange(lo, hi), len(c) - 1, range(1, _DELTA_SPAN + 1)
    num = sum(k * (c[np.minimum(rows + k, last)] - c[np.maximum(rows - k, 0)]) for k in span)
    return num / (2.0 * sum(k * k for k in span))


def _feature_rows(
    cepstra: np.ndarray, lo: int, hi: int, width: int | None = None
) -> np.ndarray:
    """Rows [lo, hi) of the feature table: cepstra, deltas, delta-deltas.

    Only the leading ``width`` columns (all by default) are built: the
    deltas only when ``width`` reaches past the cepstra, the delta-deltas
    only when it reaches past the deltas. A delta-delta row reads the
    deltas up to ``_DELTA_SPAN`` rows either side, so for them the deltas
    are built over the range widened by that much, clamped to the table.
    """
    m, n = cepstra.shape
    width = 3 * n if width is None else width
    parts = [cepstra[lo:hi]]
    if width > 2 * n:
        a, b = max(lo - _DELTA_SPAN, 0), min(hi + _DELTA_SPAN, m)
        d1 = _deltas(cepstra, a, b)
        parts += [d1[lo - a : hi - a], _deltas(d1, lo - a, hi - a)]
    elif width > n:
        parts.append(_deltas(cepstra, lo, hi))
    return np.concatenate(parts, axis=1)[:, :width]


def _dct_twiddles(n: int) -> np.ndarray:
    """cos(pi j / (2 n)) for j = 1 .. n - 1, rounded as pocketfft's DCT-II
    of length n rounds them.

    pocketfft reads them from its sincos_2pibyn(4 n) table. It holds
    libm's cos and sin of the angle folded into the first octant for every
    j below a power of two ``step`` of about sqrt(2 n) and for every
    multiple of ``step``, and forms entry j as the complex product of the
    entries for j % step and j - j % step. ``math.cos(pi j / (2 n))``
    differs from that product in the last bit at some j for every n from 2
    to 256.
    """
    table = 4 * n
    pi = np.longdouble(math.pi) + np.longdouble(1.2246467991473532e-16)
    ang = float(np.longdouble(0.25) * pi / table)  # an eighth of 2 pi / table

    def cos_sin(x):  # of 2 pi x / table, for x < table / 4
        x *= 8
        if x < table:
            return math.cos(x * ang), math.sin(x * ang)
        return math.sin((2 * table - x) * ang), math.cos((2 * table - x) * ang)

    shift = 1
    while 4**shift < (table + 2) // 2:
        shift += 1
    step = 1 << shift
    out = np.empty(n - 1)
    for j in range(1, n):
        (c1, s1), (c2, s2) = cos_sin(j % step), cos_sin(j - j % step)
        out[j - 1] = c1 * c2 - s1 * s2
    return out


def _dct_ii(n: int, count: int) -> Callable[[np.ndarray], np.ndarray]:
    """The block transform x -> (rows, count): columns 1..count of the
    orthonormal DCT-II of x's rows of length n, bit for bit
    ``scipy.fft.dct(x, 2, norm="ortho", axis=1)[:, 1 : count + 1]``.

    A port of pocketfft's DCT-II, which scipy runs (Makhoul's length-n
    real-FFT algorithm). A pre-step packs each row into the half spectrum
    of a real sequence, numpy's pocketfft inverse real FFT (unscaled:
    ``norm="forward"``) transforms it, and a post-step forms coefficients
    k and n - k from outputs k and n - k, each scaled by 1 / sqrt(2 n),
    and two twiddles. Every product and sum is one that pocketfft rounds,
    so the post-step can form only the columns asked for.
    """
    tw = _dct_twiddles(n)
    pairs = (n - 1) // 2
    low = min(count, pairs)  # columns k = 1..low lie below n / 2
    k = np.arange(1, low + 1)
    tw_k, tw_nk, tw_mid = tw[k - 1], tw[n - k - 1], tw[n // 2 - 1]
    scale = float(np.longdouble(1) / np.sqrt(np.longdouble(2 * n)))

    def transform(x: np.ndarray) -> np.ndarray:
        # Bin j is (x[2j-1] + x[2j]) + i (x[2j] - x[2j-1]), which is
        # (x[2j-1] + i x[2j]) (1 - i) exactly: every product is by +-1 or 2.
        spec = np.zeros((len(x), n // 2 + 1), dtype=np.complex128)
        spec[:, 1 : pairs + 1] = x[:, 1 : 2 * pairs + 1].view(np.complex128) * (1 - 1j)
        spec[:, 0] = x[:, 0] * 2.0
        if n % 2 == 0:
            spec[:, n // 2] = x[:, n - 1] * 2.0
        y = np.fft.irfft(spec, n, axis=1, norm="forward")
        yk, ynk = y[:, 1 : low + 1] * scale, y[:, n - 1 : n - low - 1 : -1] * scale
        t1 = tw_k * ynk + tw_nk * yk
        t2 = tw_k * yk - tw_nk * ynk
        out = np.empty((len(x), count))
        out[:, :low] = (t1 + t2) * 0.5  # column k
        if count > n // 2:
            # Column n - k, for k from low down to n - count.
            s = slice(n - count - 1, low)
            out[:, n // 2 : count] = (t1[:, s] - t2[:, s])[:, ::-1] * 0.5
        if n % 2 == 0 and count >= n // 2:
            out[:, n // 2 - 1] = y[:, n // 2] * scale * tw_mid
        return out

    return transform


def _buffer_features(
    buf: AudioBuffer | WavSource, n_mels: int, n_coeffs: int, frame_ms: float, hop_ms: float
) -> np.ndarray:
    """Centred cepstra, (n_frames, n_coeffs), of the buffer's full frames,
    frame i starting at sample ``i * hop``; ``_feature_rows`` adds deltas.

    Frames are read in blocks of ``_MFCC_BLOCK``: each block's samples,
    with one sample of history, are read once through ``buf.read`` into a
    float64 buffer and pre-emphasised there, then windowed into the
    leading columns of a zero-padded FFT input and transformed to rows of
    the preallocated cepstra table. One worker runs per usable core: the
    calling thread takes every ``workers``-th block from the first and
    pool threads the others, each block writing only its own rows into
    buffers its worker allocates once. A block's numpy, FFT and BLAS
    calls release the GIL.

    The cepstral mean is taken over the whole buffer, once every worker
    has joined, so features of a segment depend on the recording it came
    from but not on where the segment boundaries fall.

    Raises ValueError when the frame is shorter than two samples or the
    hop shorter than one.
    """
    rate = buf.sample_rate_hz
    frame, hop = _frame_and_hop(rate, frame_ms, hop_ms)
    if frame < 2:  # the Hamming window divides by frame - 1
        raise ValueError(f"frame_ms {frame_ms} spans {frame} sample at {rate} Hz; MFCC needs 2")
    n_frames = max((len(buf) - frame) // hop + 1, 0)
    if n_frames == 0:
        return np.zeros((0, n_coeffs))

    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(frame) / (frame - 1))
    # Zero-pad to a power of two; a frame longer than _MIN_NFFT is never cropped.
    nfft = max(_MIN_NFFT, 1 << (frame - 1).bit_length())
    fb_t = _mel_filterbank(n_mels, nfft, rate).T
    cepstra = np.empty((n_frames, n_coeffs))
    blocks = list(_frame_blocks(n_frames, _MFCC_BLOCK))
    workers = min(_usable_cores(), len(blocks))
    rows = min(n_frames, _MFCC_BLOCK)
    dct = _dct_ii(n_mels, n_coeffs)

    def run(share):
        # This worker's block buffers, reused for each of its blocks.
        # Columns of the FFT input past ``frame`` stay zero.
        n_samples = (rows - 1) * hop + frame + 1
        padded = np.zeros((rows, nfft))
        spectrum = np.empty((rows, nfft // 2 + 1), dtype=np.complex128)
        power = np.empty((rows, nfft // 2 + 1))
        mel = np.empty((rows, n_mels))
        samples, product = np.empty(n_samples), np.empty(n_samples - 1)
        for lo, hi in share:
            first, end = lo * hop, (hi - 1) * hop + frame
            start = max(first - 1, 0)
            x = samples[: end - start]
            x[...] = buf.read(start, end)
            p = np.multiply(x[:-1], _PRE_EMPHASIS, out=product[: len(x) - 1])
            x[1:] -= p  # x[0] is history, or sample 0 as it is
            frames = sliding_window_view(x[first - start :], frame)[::hop]
            n = hi - lo
            np.multiply(frames, window, out=padded[:n, :frame])
            np.fft.rfft(padded[:n], axis=1, out=spectrum[:n])
            np.square(np.abs(spectrum[:n], out=power[:n]), out=power[:n])
            # One call per block: BLAS paths differ by size.
            logmel = np.matmul(power[:n], fb_t, out=mel[:n])
            np.log(np.maximum(logmel, _LOG_FLOOR, out=logmel), out=logmel)
            cepstra[lo:hi] = dct(logmel)

    if workers == 1:
        run(blocks)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(run, blocks[i::workers]) for i in range(1, workers)]
            run(blocks[::workers])
            for f in futures:
                f.result()
    cepstra -= np.mean(cepstra, axis=0, keepdims=True)
    return cepstra


def _segment_rows(
    buf: AudioBuffer | WavSource, segment: Segment, n_frames: int, frame: int, hop: int
) -> tuple[int, int]:
    """Row range [lo, hi) of the full frames inside ``segment``, frame i
    starting at sample ``i * hop``.

    Raises TooShort when the buffer or the segment holds no full frame
    and SegmentOutOfRange when the segment ends past the buffer.
    """
    if n_frames == 0:
        raise TooShort("buffer is shorter than one analysis frame")
    on = int(round(segment.onset_s * buf.sample_rate_hz))
    off = int(round(segment.offset_s * buf.sample_rate_hz))
    if off > len(buf):
        raise SegmentOutOfRange(
            f"segment [{segment.onset_s}, {segment.offset_s}] ends past the "
            f"{buf.duration_s:.3f} s buffer"
        )
    # From the first frame starting at or after on to the last ending by off.
    lo, hi = -(-on // hop), (off - frame) // hop + 1
    if hi <= lo:
        raise TooShort(
            f"segment [{segment.onset_s}, {segment.offset_s}] holds no full "
            "analysis frame"
        )
    return lo, hi


def _pooled_vector(rows: np.ndarray) -> np.ndarray:
    """Mean and standard deviation over frames of every column of ``rows``:
    the fixed 2 * width vector. Raises TooFewFrames on fewer than 2 frames."""
    f = np.asarray(rows, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise TooFewFrames("pooling needs a matrix of at least 2 frames")
    return np.concatenate([np.mean(f, axis=0), np.std(f, axis=0)])


class MfccEmbedder:
    """Deterministic segment embedder over MFCC statistics.

    Each buffer's centred cepstra, (n_frames, n_coeffs), are cached
    (weakly keyed on the AudioBuffer or WavSource object), so embedding
    every segment of a recording frames it once. A segment's delta rows,
    and its delta-delta rows when ``base_dims`` reaches them, are rebuilt
    from the cepstral rows around it, equal to the whole table's rows.
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
        if n_coeffs < 1 or base_dims < 1:
            raise ValueError("n_coeffs and base_dims must be >= 1")
        if frame_ms <= 0 or hop_ms <= 0:
            raise ValueError("frame_ms and hop_ms must be > 0")
        self.n_mels = n_mels
        self.n_coeffs = n_coeffs
        self.frame_ms = frame_ms
        self.hop_ms = hop_ms
        self.base_dims = base_dims
        self._cache: weakref.WeakKeyDictionary[AudioBuffer | WavSource, np.ndarray] = (
            weakref.WeakKeyDictionary()
        )

    def features(
        self, buf: AudioBuffer | WavSource, segment: Segment, width: int | None = None
    ) -> np.ndarray:
        """The segment's rows of c1..c{n} (buffer-mean subtracted; c0 is
        dropped), deltas and delta-deltas, or their leading ``width`` columns.

        Raises SegmentOutOfRange when the segment ends past the buffer and
        TooShort when it holds no full analysis frame.
        """
        cepstra = self._cache.get(buf)
        if cepstra is None:
            cepstra = self._cache[buf] = _buffer_features(
                buf, self.n_mels, self.n_coeffs, self.frame_ms, self.hop_ms
            )
        frame, hop = _frame_and_hop(buf.sample_rate_hz, self.frame_ms, self.hop_ms)
        return _feature_rows(cepstra, *_segment_rows(buf, segment, len(cepstra), frame, hop), width)

    def embed(self, buf: AudioBuffer | WavSource, segment: Segment) -> np.ndarray:
        """The segment's float64 vector of ``2 * base_dims`` pooled statistics."""
        return _pooled_vector(self.features(buf, segment, self.base_dims))


_HEADER = struct.Struct("<II")


def write_embeddings(path: str | Path, embeddings) -> None:
    """Write a (count, dim) matrix, rows in segment order, as an embedding file.

    Layout: two little-endian uint32 (count, dim), then count * dim
    little-endian float32 values, row-major.
    """
    matrix = np.asarray(embeddings, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("embeddings must form a 2-D matrix")
    count, dim = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(count, dim))
        fh.write(matrix.astype("<f4").tobytes(order="C"))


def load_external_embeddings(path: str | Path) -> np.ndarray:
    """Read an embedding file as a float64 (count, dim) matrix, rows in segment order.

    Raises CorruptHeader on an unreadable header or trailing bytes,
    TruncatedFile when rows are missing and ValueError on a NaN or
    infinite value.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CorruptHeader(f"{path}: embedding file shorter than its header")
    count, dim = _HEADER.unpack_from(raw)
    if count > 0 and dim == 0:
        raise CorruptHeader(f"{path}: zero dimension with nonzero count")
    need = count * dim * 4
    body = raw[_HEADER.size :]
    if len(body) < need:
        raise TruncatedFile(
            f"{path}: header promises {count} x {dim} values, "
            f"{(len(body)) // 4} present"
        )
    if len(body) > need:
        raise CorruptHeader(f"{path}: {len(body) - need} trailing bytes")
    matrix = np.frombuffer(body, dtype="<f4").reshape(count, dim).astype(np.float64)
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{path}: embedding values must be finite")
    return matrix
