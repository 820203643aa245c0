"""Waveform conditioning: RMS normalization, SNR measures, spectral-gate denoise.

The denoiser is a classic STFT magnitude gate: per frequency bin, estimate the
noise floor as a low percentile of frame magnitudes over time, then attenuate
every time-frequency cell that fails to clear the floor by a threshold. It
needs no clean reference, which is what makes it measurable here: the
synthetic corpus gives us the clean signal to score the output against.

The gate reads its source through ``read(lo, hi)`` only, as VAD and MFCC
do, and runs over blocks of STFT frames, so beside the float32 output it
keeps only one energy per frame. It reads the samples three times: for the
frame energies, for the quietest frames' spectra, and in one pass that
decides each block's cells and resynthesises its frames from the same
spectra. Its moving averages over time are the running sums scipy's
``uniform_filter`` keeps, carried from block to block, and every frame is
overlap-added in ascending order onto the partial sums the block before
left, so the output equals the whole-recording computation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer, WavSource
from .errors import LengthMismatch, SilentInput, TooShort, check_numbers

TARGET_RMS_DEFAULT = 0.1  # leaves ~20 dB headroom before clipping

# The denoiser reads this many STFT frames at a time, so its temporaries
# stay the same size however long the buffer is.
_BLOCK_FRAMES = 256


@dataclass(frozen=True)
class DenoiseParams:
    frame_len: int = 512
    hop: int = 256
    noise_percentile: float = 0.2
    gate_threshold_db: float = 6.0
    attenuation_db: float = 20.0

    def __post_init__(self):
        check_numbers(self)
        if self.frame_len <= 0 or self.hop <= 0:
            raise ValueError("frame_len and hop must be positive")
        if self.hop >= self.frame_len:
            # the periodic Hann window is 0 at sample 0, so with no overlap
            # each frame's first sample has a window-square sum of 0
            raise ValueError("hop must be less than frame_len, so overlapping windows cover every sample")
        if not 0.0 < self.noise_percentile <= 1.0:
            raise ValueError("noise_percentile must be in (0, 1]")
        if self.gate_threshold_db <= 0 or self.attenuation_db <= 0:
            raise ValueError("thresholds must be positive")


def rms(buf: AudioBuffer) -> float:
    if len(buf) == 0:
        return 0.0
    return float(np.sqrt(np.mean(buf.samples.astype(np.float64) ** 2)))


def rms_normalize(buf: AudioBuffer, target_rms: float = TARGET_RMS_DEFAULT) -> AudioBuffer:
    """Scale by one positive scalar so the RMS hits target_rms.

    Samples are clamped to [-1, 1] only if the scale would exceed full scale;
    the result's `clipped` flag records that.
    """
    if not 0.0 < target_rms < 1.0:
        raise ValueError("target_rms must be in (0, 1)")
    current = rms(buf)
    if current == 0.0:
        raise SilentInput("cannot normalize an all-zero buffer")
    scale = target_rms / current
    scaled = buf.samples.astype(np.float64) * scale
    clipped = bool(np.any(np.abs(scaled) > 1.0))
    if clipped:
        scaled = np.clip(scaled, -1.0, 1.0)
    return AudioBuffer(scaled, buf.sample_rate_hz, clipped=clipped)


def snr_db(signal_power_ref: AudioBuffer, noise: AudioBuffer) -> float:
    """10·log10(P_signal / P_noise); zero noise power gives +inf, never NaN."""
    if len(signal_power_ref) == 0 or len(noise) == 0:
        raise ValueError("both buffers must be non-empty")
    p_sig = np.mean(signal_power_ref.samples.astype(np.float64) ** 2)
    p_noise = np.mean(noise.samples.astype(np.float64) ** 2)
    if p_noise == 0.0:
        return math.inf
    return float(10.0 * np.log10(p_sig / p_noise))


def estimate_snr_db(noisy: AudioBuffer, clean_ref: AudioBuffer) -> float:
    """SNR of `noisy` against a known clean reference: residual = noisy − clean.

    Raises ValueError when the two rates differ and LengthMismatch when
    the sample counts do.
    """
    if noisy.sample_rate_hz != clean_ref.sample_rate_hz:
        raise ValueError(
            f"noisy is at {noisy.sample_rate_hz} Hz, clean at {clean_ref.sample_rate_hz} Hz"
        )
    if len(noisy) != len(clean_ref):
        raise LengthMismatch(f"noisy has {len(noisy)} samples, clean has {len(clean_ref)}")
    residual = AudioBuffer(
        noisy.samples.astype(np.float64) - clean_ref.samples.astype(np.float64),
        noisy.sample_rate_hz,
    )
    return snr_db(clean_ref, residual)


def _running_sums(ext: np.ndarray, size: int, carry: np.ndarray | None = None) -> np.ndarray:
    """Window sums of scipy's ``uniform_filter1d(mode="nearest")`` along
    axis 0 for a block of rows, bit for bit. With h = size // 2, scipy
    adds the first window from 0.0 in row order and then keeps one
    running sum, S_t = S_{t-1} + (e[t + size - 1 - h] - e[t - h - 1]);
    the filter's output is S_t / size.

    ``ext`` holds the input rows from h + 1 before the block to
    size - 1 - h after it, indices clamped to the signal as mode="nearest"
    pads it. ``carry`` is the sum at the row before the block, None when
    the block starts the signal.
    """
    sums = ext[size:] - ext[:-size]
    if carry is None:
        sums[0] = ext[1]
        for row in ext[2 : size + 1]:
            sums[0] += row
    else:
        sums[0] += carry
    return np.cumsum(sums, axis=0, out=sums)


def _read_frames(src, firsts: np.ndarray, frame_len: int) -> np.ndarray:
    """Rows of the ``frame_len``-sample frames of ``src`` that start at
    ``firsts``, in that order. Frames that overlap or touch are read as one
    run, one ``read`` a run, into one float32 buffer."""
    ordered = np.sort(firsts)
    cut = np.flatnonzero(ordered[1:] > ordered[:-1] + frame_len) + 1
    los = ordered[np.r_[0, cut]]
    his = ordered[np.r_[cut - 1, -1]] + frame_len
    # Runs lie end to end in x, run r ending at ends[r], so a frame of run
    # r starts at ends[r] - his[r] plus its own first sample.
    ends = np.cumsum(his - los)
    x = np.empty(ends[-1], dtype=np.float32)
    for lo, hi, end in zip(los.tolist(), his.tolist(), ends.tolist()):
        x[end - (hi - lo) : end] = src.read(lo, hi)
    run = np.searchsorted(los, firsts, side="right") - 1
    return sliding_window_view(x, frame_len)[(ends - his)[run] + firsts]


def spectral_gate_denoise(buf: AudioBuffer | WavSource, params: DenoiseParams | None = None) -> AudioBuffer:
    """Attenuate time-frequency cells below a per-bin percentile noise floor.
    An open WavSource gives the same output as its samples in an AudioBuffer."""
    out = np.empty(len(buf), dtype=np.float32)
    _gate_into(buf, params or DenoiseParams(), out)
    return AudioBuffer(out, buf.sample_rate_hz)


def _gate_into(src, p: DenoiseParams, out: np.ndarray) -> None:
    """The spectral gate of ``src``, read through ``read(lo, hi)``, into
    ``out``: float32 in ``spectral_gate_denoise``, or float64 to read the
    overlap-add sums before that cast."""
    # Frame n_cols is the first inside the samples, which the noise floor needs.
    n_cols = -(-p.frame_len // p.hop)
    n = len(src)
    if n < n_cols * p.hop:
        raise TooShort(f"need at least {n_cols * p.hop} samples, got {n}")

    # Pad one frame on each side so the overlap-add window sum is constant
    # over the original extent, then frame on the hop grid. Frame k starts
    # at k * hop in the padded signal.
    n_frames = int(np.ceil((n + p.frame_len) / p.hop)) + 1
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(p.frame_len) / p.frame_len)
    n_bins = p.frame_len // 2 + 1

    def spectra(k0, k1):
        # frames k0..k1-1, cut from the float64 segment of the padded signal they span
        lo = k0 * p.hop - p.frame_len
        seg = np.zeros((k1 - k0 - 1) * p.hop + p.frame_len)
        a, b = max(lo, 0), min(lo + len(seg), n)
        seg[a - lo : b - lo] = src.read(a, b)
        return np.fft.rfft(sliding_window_view(seg, p.frame_len)[:: p.hop] * window, axis=1)

    # Noise floor per frequency bin, estimated from the quietest
    # noise_percentile fraction of frames (by broadband energy): their
    # per-bin RMS magnitude is the noise level. A naive independent per-bin
    # percentile misestimates the floor in speech-bearing bins and
    # self-masks stationary tones. Padding-only frames are excluded from
    # the estimate.
    interior = np.arange(n_cols, n // p.hop + 1)
    frame_energy = np.empty(len(interior))
    for i in range(0, len(interior), _BLOCK_FRAMES):
        k = interior[i : i + _BLOCK_FRAMES]
        frame_energy[i : i + len(k)] = np.sum(np.abs(spectra(k[0], k[-1] + 1)) ** 2, axis=1)
    k_quiet = max(1, int(round(p.noise_percentile * len(interior))))
    quiet = interior[np.argsort(frame_energy, kind="stable")[:k_quiet]]
    # Interior frames lie inside the samples. A batch's frames are read as
    # runs of overlapping or adjacent frames, one read a run, and their
    # power rows summed one after another in quiet order, as np.mean over
    # all of them would.
    power_sum = np.zeros(n_bins)
    for i in range(0, len(quiet), _BLOCK_FRAMES):
        frames = _read_frames(src, quiet[i : i + _BLOCK_FRAMES] * p.hop - p.frame_len, p.frame_len)
        power = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2
        power_sum = np.add.reduce(np.vstack([power_sum, power]), axis=0)
    floor = np.sqrt(power_sum / len(quiet))
    # A bin whose floor towers over the median bin is carrying a persistent
    # signal (a steady tone has no quiet moments to estimate noise from), not
    # noise; cap it so stationary signal bins are not self-masked.
    floor = np.minimum(floor, 10.0 * np.median(floor))
    gate = floor * 10.0 ** (p.gate_threshold_db / 20.0)

    # Decide and resynthesise in one pass over blocks [a, b). The gains of
    # frames a..b-1 need the pass/fail flags of frames a-3..b+1, so each
    # block transforms frames a-3..b+3 once, decides a..b+1 and takes the
    # three flags before a from the block before; b and b+1 are decided
    # again, bit for bit, from the running sum carried at row b-1. Frames
    # are overlap-added in ascending order onto the partial sums the block
    # before left, a hop-wide column at a time, and the window-square sum,
    # periodic with period hop inside the padding, is built the same way.
    att = 10.0 ** (-p.attenuation_db / 20.0)
    cols = [(c, c * p.hop, min(p.hop, p.frame_len - c * p.hop)) for c in reversed(range(n_cols))]
    wsum = np.zeros(p.hop)
    for _, c0, width in cols:
        wsum[:width] += window[c0 : c0 + width] ** 2
    bins = np.clip(np.arange(-2, n_bins + 1), 0, n_bins - 1)
    tail = np.zeros((n_cols - 1) * p.hop)
    mag_carry = gain_carry = recent = None
    for a in range(0, n_frames, _BLOCK_FRAMES):
        b = min(a + _BLOCK_FRAMES, n_frames)
        lo = max(a - 3, 0)
        spec = spectra(lo, min(b + 4, n_frames))
        rows = np.clip(np.arange(a - 3, b + 4), 0, n_frames - 1) - lo  # a-3..b+3, as mode="nearest"
        sums = _running_sums(np.abs(spec)[rows], 5, mag_carry)
        mag_carry = sums[b - 1 - a]
        # Decide on a short moving average over time per bin: averaging
        # pulls stationary noise well below the gate while bridging brief
        # dips in sustained tones, so the gate separates the two far more
        # cleanly than raw per-cell magnitudes would.
        passing = sums / 5.0 >= gate
        # A window's main lobe spills into the neighbouring bins at half
        # amplitude; keep those skirts with their peak instead of gating them.
        passing |= np.roll(passing, 1, axis=1) | np.roll(passing, -1, axis=1)
        if recent is not None:
            passing = np.concatenate([recent, passing])
        passing = passing[rows[:-2]]  # frames a-3..b+1
        recent = passing[-5:-2]

        gain = np.where(passing, 1.0, att)
        sums = _running_sums(gain, 5, gain_carry)
        gain_carry = sums[-1]
        # Soften edges of kept regions; the max keeps passing cells at unit
        # gain so narrow harmonics are not dragged down by their surroundings.
        smooth = _running_sums((sums / 5.0)[:, bins].T, 3).T / 3.0
        gain = np.maximum(gain[3:-2], smooth)
        rec = np.fft.irfft(spec[a - lo : b - lo] * gain, n=p.frame_len, axis=1) * window

        y = np.zeros((b - a + n_cols - 1, p.hop))
        y.flat[: len(tail)] = tail
        for c, c0, width in cols:
            y[c : c + b - a, :width] += rec[:, c0 : c0 + width]
        tail = y[b - a :].ravel()
        done = (y[: b - a] / wsum).ravel()
        s0 = a * p.hop - p.frame_len
        lo, hi = max(s0, 0), min(b * p.hop - p.frame_len, n)
        if lo < hi:
            out[lo:hi] = done[lo - s0 : hi - s0]
