import math

import numpy as np
import pytest

from diarkit.audio_io import AudioBuffer
from diarkit.errors import LengthMismatch, SilentInput, TooShort
from diarkit.preprocess import (
    DenoiseParams,
    estimate_snr_db,
    rms,
    rms_normalize,
    snr_db,
    spectral_gate_denoise,
)

from conftest import tone

RATE = 16000


def speechlike(duration_s=3.0, f0=140.0, seed=0, rms_target=0.1):
    """Harmonic stack with syllabic amplitude modulation; corpus-free stand-in."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * RATE)
    t = np.arange(n) / RATE
    x = np.zeros(n)
    h = 1
    while h * f0 < 3500:
        x += np.sin(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi)) / h
        h += 1
    am = 0.1 + 0.9 * (0.5 + 0.5 * np.sin(2 * np.pi * 4.0 * t)) ** 2
    x *= am
    x *= rms_target / np.sqrt(np.mean(x**2))
    return AudioBuffer(x, RATE)


# ---- rms_normalize ----

def test_normalize_identity_when_at_target():
    buf = speechlike()
    out = rms_normalize(buf, rms(buf))
    assert not out.clipped
    np.testing.assert_allclose(out.samples, buf.samples, atol=1e-7)


def test_normalize_hits_target():
    rng = np.random.default_rng(2)
    buf = AudioBuffer(rng.uniform(-0.9, 0.9, 20000).astype(np.float32), RATE)
    out = rms_normalize(buf, 0.1)
    assert abs(rms(out) - 0.1) <= 1e-6
    assert not out.clipped


def test_normalize_rejects_silence():
    with pytest.raises(SilentInput):
        rms_normalize(AudioBuffer(np.zeros(100, dtype=np.float32), RATE), 0.1)


def test_normalize_idempotent():
    buf = speechlike(seed=5)
    once = rms_normalize(buf, 0.07)
    twice = rms_normalize(once, 0.07)
    np.testing.assert_allclose(once.samples, twice.samples, atol=1e-6)


def test_normalize_sets_clip_flag_when_exceeding_full_scale():
    # one dominant spike: raising RMS to 0.5 would push the spike past 1.0
    x = np.full(4000, 0.01, dtype=np.float32)
    x[0] = 0.9
    out = rms_normalize(AudioBuffer(x, RATE), 0.5)
    assert out.clipped
    assert np.max(np.abs(out.samples)) <= 1.0


def test_normalize_rejects_bad_target():
    buf = speechlike()
    with pytest.raises(ValueError):
        rms_normalize(buf, 0.0)
    with pytest.raises(ValueError):
        rms_normalize(buf, 1.5)


# ---- snr_db / estimate_snr_db ----

def test_snr_equal_power_zero_db():
    a = tone(440.0, 0.5, amp=0.3)
    b = tone(555.0, 0.5, amp=0.3)
    assert abs(snr_db(a, b)) < 0.05


def test_snr_sine_vs_small_noise():
    sig = tone(440.0, 2.0, amp=1.0)  # power 0.5
    rng = np.random.default_rng(3)
    noise = AudioBuffer(rng.normal(0.0, math.sqrt(0.005), len(sig)).astype(np.float32), RATE)
    assert abs(snr_db(sig, noise) - 20.0) <= 0.2


def test_snr_zero_noise_is_positive_infinity():
    sig = tone(440.0, 0.25)
    silent = AudioBuffer(np.zeros(len(sig), dtype=np.float32), RATE)
    assert snr_db(sig, silent) == math.inf


def test_snr_antisymmetric():
    a = speechlike(seed=1)
    b = speechlike(seed=2, f0=200.0)
    assert abs(snr_db(a, b) + snr_db(b, a)) < 1e-9


def test_estimate_snr_identical_inputs_infinite():
    sig = speechlike()
    assert estimate_snr_db(sig, sig) == math.inf


def test_estimate_snr_constructed_level():
    clean = speechlike(seed=4)
    rng = np.random.default_rng(9)
    noise = rng.standard_normal(len(clean))
    noise *= (rms(clean) * 10 ** (-12.5 / 20)) / np.sqrt(np.mean(noise**2))
    noisy = AudioBuffer(clean.samples.astype(np.float64) + noise, RATE)
    assert abs(estimate_snr_db(noisy, clean) - 12.5) <= 0.3


def test_estimate_snr_refuses_mismatched_rates_before_any_arithmetic():
    a = tone(440.0, 0.5)
    b = AudioBuffer(a.samples, 8000)
    with pytest.raises(ValueError, match="16000 Hz.*8000 Hz"):
        estimate_snr_db(a, b)
    longer = AudioBuffer(tone(440.0, 0.6).samples, 8000)
    with pytest.raises(ValueError, match="Hz") as raised:
        estimate_snr_db(a, longer)
    assert not isinstance(raised.value, LengthMismatch)


def test_estimate_snr_length_mismatch():
    a = tone(440.0, 0.5)
    b = tone(440.0, 0.6)
    with pytest.raises(LengthMismatch):
        estimate_snr_db(a, b)


# ---- spectral_gate_denoise ----

def test_denoise_preserves_clean_tone():
    sig = tone(440.0, 2.0, amp=0.9)
    out = spectral_gate_denoise(sig)
    assert len(out) == len(sig)
    a = sig.samples.astype(np.float64)
    b = out.samples.astype(np.float64)
    corr = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert corr >= 0.99


def test_denoise_gains_at_least_3db_at_12p5():
    clean = speechlike(duration_s=4.0, seed=6)
    rng = np.random.default_rng(11)
    noise = rng.standard_normal(len(clean))
    noise *= (rms(clean) * 10 ** (-12.5 / 20)) / np.sqrt(np.mean(noise**2))
    noisy = AudioBuffer(clean.samples.astype(np.float64) + noise, RATE)
    before = estimate_snr_db(noisy, clean)
    after = estimate_snr_db(spectral_gate_denoise(noisy), clean)
    assert after - before >= 3.0
    assert after >= 15.5


def test_denoise_never_increases_energy():
    for seed in range(3):
        clean = speechlike(duration_s=2.0, seed=seed)
        rng = np.random.default_rng(seed + 20)
        noisy = AudioBuffer(
            clean.samples.astype(np.float64) + 0.02 * rng.standard_normal(len(clean)), RATE
        )
        out = spectral_gate_denoise(noisy)
        e_in = np.sum(noisy.samples.astype(np.float64) ** 2)
        e_out = np.sum(out.samples.astype(np.float64) ** 2)
        assert e_out <= e_in * (1 + 1e-9)


def test_denoise_monotone_non_harm():
    # the corpus noise model is additive white noise; denoise must not hurt
    for snr_in in (12.5, 20.0):
        clean = speechlike(duration_s=3.0, seed=8)
        rng = np.random.default_rng(31)
        noise = rng.standard_normal(len(clean))
        noise *= (rms(clean) * 10 ** (-snr_in / 20)) / np.sqrt(np.mean(noise**2))
        noisy = AudioBuffer(clean.samples.astype(np.float64) + noise, RATE)
        before = estimate_snr_db(noisy, clean)
        after = estimate_snr_db(spectral_gate_denoise(noisy), clean)
        assert after >= before - 0.1


def test_denoise_too_short():
    with pytest.raises(TooShort):
        spectral_gate_denoise(AudioBuffer(np.zeros(100, dtype=np.float32), RATE))
    # 450 >= frame_len, but no frame lies inside the samples before 480
    with pytest.raises(TooShort):
        spectral_gate_denoise(
            AudioBuffer(np.zeros(450, dtype=np.float32), RATE), DenoiseParams(400, 160)
        )


def test_denoise_params_validated():
    with pytest.raises(ValueError):
        DenoiseParams(hop=1024)
    with pytest.raises(ValueError):
        DenoiseParams(noise_percentile=0.0)
    with pytest.raises(ValueError):
        DenoiseParams(attenuation_db=-3.0)
