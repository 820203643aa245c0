"""Audio augmentation: additive noise, pitch shift, and speed change.

Pitch shifting is a playback-rate resample followed by a WSOLA time
stretch back to the original duration, so tones move by exactly
2^(semitones/12) while the length stays put. All operations are
deterministic under their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audio_io import AudioBuffer, Turn, sinc_interp
from .corpus import default_profile_pool, synth_utterance
from .errors import SilentInput, check_numbers

_WSOLA_WINDOW = 480  # 30 ms at 16 kHz
_WSOLA_HOP = 240
_WSOLA_TOLERANCE = 120


@dataclass(frozen=True)
class AugmentSpec:
    """One recipe of finite numbers: noise intensity and seed >= 0, white or
    babble noise, pitch within +-5 semitones, speed within 0.9x to 1.1x."""

    noise_intensity: float = 0.05
    noise_kind: str = "white"
    pitch_semitones: float = 0.0
    speed_factor: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.noise_intensity < 0:
            raise ValueError("noise_intensity must be >= 0")
        if self.noise_kind not in ("white", "babble"):
            raise ValueError("noise_kind must be 'white' or 'babble'")
        if abs(self.pitch_semitones) > 5:
            raise ValueError("pitch_semitones outside [-5, 5]")
        if not 0.9 <= self.speed_factor <= 1.1:
            raise ValueError("speed_factor outside [0.9, 1.1]")


def _babble(n: int, rate: int, rng) -> np.ndarray:
    """Four time-shifted synthetic voices summed into a murmur."""
    pool = default_profile_pool()
    picks = rng.choice(len(pool), size=4, replace=False)
    duration = max(0.6, n / rate)
    total = np.zeros(n)
    for i in picks:
        stream = synth_utterance(
            pool[int(i)], duration, seed=int(rng.integers(0, 2**31))
        ).samples.astype(np.float64)
        if rate != 16_000:
            stream = sinc_interp(stream, Fraction(rate, 16_000))
        if len(stream) < n:
            stream = np.pad(stream, (0, n - len(stream)))
        total += np.roll(stream[:n], int(rng.integers(0, n)))
    return total


def add_noise(buf: AudioBuffer, intensity: float, kind: str = "white", seed: int = 0) -> AudioBuffer:
    """Add noise with RMS exactly intensity * RMS(buf).

    Raises SilentInput when intensity > 0 on an all-zero buffer.
    """
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    if kind not in ("white", "babble"):
        raise ValueError("kind must be 'white' or 'babble'")
    if intensity == 0:
        return buf
    x = buf.samples.astype(np.float64)
    signal_rms = float(np.sqrt(np.mean(x**2)))
    if signal_rms == 0.0:
        raise SilentInput("cannot scale noise against a silent buffer")
    rng = np.random.default_rng(seed)
    if kind == "white":
        noise = rng.standard_normal(len(x))
    else:
        noise = _babble(len(x), buf.sample_rate_hz, rng)
    noise *= intensity * signal_rms / max(float(np.sqrt(np.mean(noise**2))), 1e-300)
    return AudioBuffer(samples=(x + noise).astype(np.float32), sample_rate_hz=buf.sample_rate_hz)


def speed_change(buf: AudioBuffer, factor: float) -> AudioBuffer:
    """Playback-rate change: duration / factor, frequencies * factor."""
    if factor <= 0:
        raise ValueError("factor must be > 0")
    if factor == 1.0:
        return buf
    out = sinc_interp(buf.samples.astype(np.float64), 1.0 / factor)
    return AudioBuffer(samples=out.astype(np.float32), sample_rate_hz=buf.sample_rate_hz)


def _wsola_stretch(x: np.ndarray, alpha: float) -> np.ndarray:
    """Time-stretch by alpha at constant pitch.

    Overlap-add of windowed grains; each grain is re-picked within a
    tolerance around its nominal position to maximize correlation with
    the natural continuation of the previous grain, keeping waveform
    continuity across splices.
    """
    n_in = len(x)
    n_out = int(round(n_in * alpha))
    win, hop, tol = _WSOLA_WINDOW, _WSOLA_HOP, _WSOLA_TOLERANCE
    if n_in <= win or n_out <= win:
        # Too short to splice; evaluate at scaled positions instead.
        pos = np.arange(n_out) / alpha
        return np.interp(pos, np.arange(n_in), x)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    out = np.zeros(n_out + win)
    wsum = np.zeros(n_out + win)
    max_sel = n_in - win
    prev_sel = None
    for outpos in range(0, n_out, hop):
        nominal = min(max(int(round(outpos / alpha)), 0), max_sel)
        if prev_sel is None:
            sel = nominal
        else:
            tpos = min(prev_sel + hop, max_sel)
            template = x[tpos : tpos + win]
            lo = max(0, nominal - tol)
            hi = min(max_sel, nominal + tol)
            region = x[lo : hi + win]
            corr = np.correlate(region, template, mode="valid")
            sq = np.concatenate([[0.0], np.cumsum(region**2)])
            energy = sq[win : win + len(corr)] - sq[: len(corr)]
            ncc = corr / (np.sqrt(energy) * np.linalg.norm(template) + 1e-12)
            sel = lo + int(np.argmax(ncc))
        out[outpos : outpos + win] += w * x[sel : sel + win]
        wsum[outpos : outpos + win] += w
        prev_sel = sel
    return out[:n_out] / np.maximum(wsum[:n_out], 1e-8)


def pitch_shift(buf: AudioBuffer, semitones: float) -> AudioBuffer:
    """Shift pitch by 2^(semitones/12) at (nearly) constant duration."""
    if abs(semitones) > 12:
        raise ValueError("semitones must lie in [-12, 12]")
    if semitones == 0:
        return buf
    ratio = 2.0 ** (semitones / 12.0)
    sped = sinc_interp(buf.samples.astype(np.float64), 1.0 / ratio)
    stretched = _wsola_stretch(sped, len(buf.samples) / len(sped))
    return AudioBuffer(samples=stretched.astype(np.float32), sample_rate_hz=buf.sample_rate_hz)


def augment_file(buf: AudioBuffer, spec: AugmentSpec) -> AudioBuffer:
    """Apply speed, then pitch, then noise.

    Callers holding reference Turns must rescale their timestamps by
    1/speed_factor (see rescale_turns); pitch and noise leave time
    untouched.
    """
    out = buf
    if spec.speed_factor != 1.0:
        out = speed_change(out, spec.speed_factor)
    if spec.pitch_semitones != 0.0:
        out = pitch_shift(out, spec.pitch_semitones)
    if spec.noise_intensity > 0.0:
        out = add_noise(out, spec.noise_intensity, spec.noise_kind, seed=spec.rng_seed)
    return out


def rescale_turns(turns: list[Turn], speed_factor: float) -> list[Turn]:
    """Reference timestamps after speed_change: times divide by factor."""
    if speed_factor <= 0:
        raise ValueError("speed_factor must be > 0")
    return [
        Turn(
            file_id=t.file_id,
            speaker_id=t.speaker_id,
            onset_s=round(t.onset_s / speed_factor, 3),
            duration_s=round(t.duration_s / speed_factor, 3),
        )
        for t in turns
    ]
