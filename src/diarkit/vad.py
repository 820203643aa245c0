"""Voice activity detection and fixed-window segmentation.

Speech is detected by frame energy relative to the buffer's own noise
floor, so the decision is unaffected by overall gain. Samples are read a
block at a time through ``read(lo, hi)``, from an AudioBuffer or an open
WavSource alike, and centred and squared in float64, each sample once,
with no copy of the recording; speech frames become regions through
integer array operations. Detected regions are then cut into overlapping
fixed-length windows for embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer, WavSource
from .errors import TooShort

MIN_REGION_S = 0.1
MIN_TAIL_S = 0.5

# Sentinel dB level for frames with exactly zero energy. Scaling the
# buffer leaves zero frames at zero, so using a constant keeps the
# classifier scale-invariant where log10 would produce -inf.
_ZERO_DB = -1e12

# Framing reads this many frames at a time, so its temporaries stay the
# same size however long the buffer is.
_BLOCK_FRAMES = 1024

_SUM_LEAF = 1 << 16  # samples per float64 leaf of the buffer-mean sum


@dataclass(frozen=True)
class SpeechRegion:
    """A maximal detected span of speech, in seconds."""

    onset_s: float
    offset_s: float

    def __post_init__(self) -> None:
        if self.onset_s < 0:
            raise ValueError("onset_s must be >= 0")
        if self.offset_s <= self.onset_s:
            raise ValueError("offset_s must exceed onset_s")

    @property
    def duration_s(self) -> float:
        return self.offset_s - self.onset_s


@dataclass(frozen=True)
class Segment:
    """One clusterable window cut from a speech region."""

    file_id: str
    onset_s: float
    offset_s: float
    index: int

    def __post_init__(self) -> None:
        if self.onset_s < 0:
            raise ValueError("onset_s must be >= 0")
        if self.offset_s <= self.onset_s:
            raise ValueError("offset_s must exceed onset_s")
        if self.index < 0:
            raise ValueError("index must be >= 0")

    @property
    def duration_s(self) -> float:
        return self.offset_s - self.onset_s


def _frame_blocks(n_frames: int, block: int = _BLOCK_FRAMES):
    """Row ranges [lo, hi) splitting ``n_frames`` frames into equal blocks.

    No block holds more than ``block`` frames, and past one block none
    holds fewer than half that: BLAS multiplies matrices of a few rows
    along a different path, which would change the last bits of the MFCC
    log-mel rows.
    """
    count = -(-n_frames // block)
    for i in range(count):
        yield i * n_frames // count, (i + 1) * n_frames // count


class _Samples:
    """``x[lo:hi]`` over a source's ``read(lo, hi)``: the helpers below
    read their samples by slicing, so they take a bare array as well."""

    def __init__(self, source) -> None:
        self.read, self._len = source.read, len(source)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, s: slice) -> np.ndarray:
        return self.read(s.start, s.stop)


def _pairwise_sum(x, lo: int, hi: int, extremes: list | None = None) -> float:
    """Sum of ``x[lo:hi]``, bit-identical to ``np.sum`` of a float64 copy:
    it splits as numpy's pairwise sum does (n // 2 rounded down to a
    multiple of 8), and only a leaf is converted to float64. Each leaf's
    minimum and maximum are appended to ``extremes`` when it is given, so
    one read of the samples gives their mean and their range."""
    n = hi - lo
    if n <= _SUM_LEAF:
        leaf = x[lo:hi]
        if extremes is not None:
            extremes += (float(leaf.min()), float(leaf.max()))
        return float(np.add.reduce(leaf.astype(np.float64)))
    half = n // 16 * 8
    return _pairwise_sum(x, lo, lo + half, extremes) + _pairwise_sum(x, lo + half, hi, extremes)


def _frame_energies(x, frame: int, hop: int, *, mean: float = 0.0) -> np.ndarray:
    """Sum of squares of every full frame of ``x - mean``.

    Each block of frames centres and squares the samples it covers once,
    in float64, into one reused block buffer, and sums every frame from a
    strided view of those squares. Each frame's sum runs over the same
    values in the same order as a sum over a copy of that frame.
    """
    n_frames = 1 + (len(x) - frame) // hop
    energy = np.empty(n_frames)
    block = np.empty((min(n_frames, _BLOCK_FRAMES) - 1) * hop + frame)
    for lo, hi in _frame_blocks(n_frames):
        a, b = lo * hop, (hi - 1) * hop + frame
        sq = block[: b - a]
        np.subtract(x[a:b], mean, out=sq, dtype=np.float64)
        np.square(sq, out=sq)
        energy[lo:hi] = np.sum(sliding_window_view(sq, frame)[::hop], axis=1)
    return energy


def _spectral_flatness(x, frame: int, hop: int, *, mean: float = 0.0) -> float:
    """Geometric over arithmetic mean of the averaged power spectrum.

    Near 1 for broadband noise, near 0 for tonal content. Normalised by
    the peak bin so the measure is independent of signal scale. Each
    block of frames is read once, centred on ``mean``, and its spectra
    summed.
    """
    n_frames = 1 + (len(x) - frame) // hop
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    total = np.zeros(frame // 2 + 1)
    windowed = np.empty((min(n_frames, _BLOCK_FRAMES), frame))
    spec = np.empty((len(windowed), len(total)))
    for lo, hi in _frame_blocks(n_frames):
        blk, pw = windowed[: hi - lo], spec[: hi - lo]
        frames = sliding_window_view(x[lo * hop : (hi - 1) * hop + frame], frame)[::hop]
        np.subtract(frames, mean, out=blk, dtype=np.float64)
        blk *= w
        np.square(np.abs(np.fft.rfft(blk, axis=1), out=pw), out=pw)
        total += np.sum(pw, axis=0)
    power = total[1:] / n_frames  # DC excluded; it was removed anyway
    peak = float(np.max(power))
    if peak <= 0.0:
        return 1.0
    p = power / peak + 1e-12
    return float(np.exp(np.mean(np.log(p))) / np.mean(p))


def _speech_runs(speech: np.ndarray, frame: int, hop: int, hangover: float) -> np.ndarray:
    """``(n, 2)`` [onset, offset) samples of the runs of speech frames.

    Frame i spans ``[i * hop, i * hop + frame)``. Overlapping or touching
    speech frames form one run, and runs are joined across gaps shorter
    than ``hangover`` samples. Frame ends rise with i, so a run ends where
    its last frame does, and one comparison per frame finds every break.
    """
    on = np.flatnonzero(speech) * hop
    if len(on) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    off = on + frame
    gap = on[1:] - off[:-1]
    joined = (gap <= 0) | (gap < hangover)  # overlap, or a gap the hangover closes
    first = np.flatnonzero(~joined) + 1
    return np.stack([on[np.r_[0, first]], off[np.r_[first - 1, len(on) - 1]]], axis=1)


def energy_vad(
    buf: AudioBuffer | WavSource,
    frame_ms: float = 30.0,
    hop_ms: float = 10.0,
    threshold_db: float = 6.0,
    hangover_ms: float = 200.0,
) -> list[SpeechRegion]:
    """Detect speech spans by relative frame energy.

    A frame is speech when its energy in dB is at least ``threshold_db``
    above the noise floor, taken as the 10th percentile of frame
    energies. Gaps shorter than ``hangover_ms`` are closed and regions
    shorter than 100 ms dropped.

    When the frame energies span less than ``threshold_db`` the relative
    rule cannot separate anything (a constant tone and steady noise look
    identical to it); the whole buffer is then classified at once by
    spectral flatness: tonal content becomes one region, broadband noise
    none.

    ``buf`` is read only through ``read(lo, hi)``, at most three times
    over: for the mean and range, for the frame energies and, only when
    those are uniform, for the spectral flatness.

    Raises TooShort when the buffer holds less than one frame.
    """
    if frame_ms <= 0 or hop_ms <= 0 or hangover_ms < 0:
        raise ValueError("frame_ms and hop_ms must be > 0, hangover_ms >= 0")
    frame = int(round(buf.sample_rate_hz * frame_ms / 1000.0))
    hop = int(round(buf.sample_rate_hz * hop_ms / 1000.0))
    if len(buf) < frame:
        raise TooShort(
            f"buffer of {len(buf)} samples is shorter than one "
            f"{frame}-sample frame"
        )

    x = _Samples(buf)
    extremes: list[float] = []
    mean = _pairwise_sum(x, 0, len(x), extremes) / len(x)
    # Every centred sample is zero exactly when all samples equal the mean.
    if min(extremes) == max(extremes) == mean:
        return []

    energy = _frame_energies(x, frame, hop, mean=mean)
    db = np.full(len(energy), _ZERO_DB)
    nz = energy > 0.0
    db[nz] = 10.0 * np.log10(energy[nz])

    floor = float(np.percentile(db, 10.0))
    if float(np.max(db)) - floor < threshold_db:
        # Uniform-energy buffer; fall back to a whole-buffer decision.
        if _spectral_flatness(x, frame, hop, mean=mean) < 0.3:
            return [SpeechRegion(0.0, buf.duration_s)]
        return []

    speech = db >= floor + threshold_db
    rate = buf.sample_rate_hz
    runs = _speech_runs(speech, frame, hop, hangover_ms / 1000.0 * rate)
    return [
        SpeechRegion(on / rate, off / rate)
        for on, off in runs.tolist()
        if (off - on) / rate >= MIN_REGION_S
    ]


def uniform_segment(
    regions: list[SpeechRegion],
    window_s: float = 1.5,
    hop_s: float = 0.75,
    file_id: str = "",
) -> list[Segment]:
    """Cut speech regions into overlapping fixed-length windows.

    Full windows slide at ``hop_s`` while they fit inside the region. A
    final window ending at the region offset is added when it covers
    time the full windows missed and is at least 0.5 s long; it is the
    whole region when the region is shorter than ``window_s``.
    """
    if window_s <= 0 or hop_s <= 0:
        raise ValueError("window_s and hop_s must be > 0")
    eps = 1e-9
    spans: list[tuple[float, float]] = []
    for r in sorted(regions, key=lambda r: r.onset_s):
        last_onset = None
        k = 0
        while r.onset_s + k * hop_s + window_s <= r.offset_s + eps:
            onset = r.onset_s + k * hop_s
            spans.append((onset, min(onset + window_s, r.offset_s)))
            last_onset = onset
            k += 1
        tail_onset = max(r.onset_s, r.offset_s - window_s)
        is_new = last_onset is None or tail_onset > last_onset + eps
        if is_new and r.offset_s - tail_onset >= MIN_TAIL_S - eps:
            spans.append((tail_onset, r.offset_s))
    return [
        Segment(file_id=file_id, onset_s=on, offset_s=off, index=i)
        for i, (on, off) in enumerate(spans)
    ]
