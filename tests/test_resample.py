"""The phase-table resampler against its per-sample oracle, its time
budget, and the augmentation paths that run it."""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import tone, white
from diarkit.audio_io import sinc_interp
from diarkit.augment import add_noise, pitch_shift, speed_change
from oracles import resample_oracle

RATIOS = [
    Fraction(10, 11),
    Fraction(11, 10),
    Fraction(1, 2),
    Fraction(3),
    Fraction(441, 160),
    Fraction(160, 441),
]


@pytest.mark.parametrize("ratio", RATIOS, ids=str)
def test_sinc_interp_matches_oracle_at_every_sample(ratio):
    rng = np.random.default_rng(ratio.numerator * 1000 + ratio.denominator)
    for n in (1, rng.integers(2, 65), rng.integers(65, 3001)):
        x = rng.standard_normal(int(n))
        want = resample_oracle(x, float(ratio))
        # resample passes an exact Fraction; augmentation passes a float.
        for given in (ratio, float(ratio)):
            got = sinc_interp(x, given)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("ratio", [2 ** (-2 / 12), 2 ** (5 / 12), 1 / 0.9996, 1 / 1.0731, 0.3], ids=repr)
def test_sinc_interp_off_the_fraction_table_stays_near_the_oracle(ratio):
    # Ratios that are not a small fraction read interpolated kernel rows.
    rng = np.random.default_rng(int(ratio * 1e6))
    for n in (1, rng.integers(2, 65), rng.integers(65, 3001)):
        x = rng.standard_normal(int(n))
        np.testing.assert_allclose(sinc_interp(x, ratio), resample_oracle(x, ratio), rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "seconds, ratio",
    [(60.0, 1 / 0.9996), (60.0, 1 / 1.0004), (135.0, 2 ** (-2 / 12)), (135.0, 2 ** (-0.007 / 12))],
    ids=repr,
)
def test_float_ratio_does_not_drift_along_a_long_input(seconds, ratio):
    x = np.random.default_rng(7).standard_normal(int(seconds * 16000))
    got = sinc_interp(x, ratio)
    n_out = int(np.floor(len(x) * ratio + 0.5))
    assert len(got) == n_out
    at = np.r_[n_out // 2 : n_out // 2 + 32, n_out - 32 : n_out]
    np.testing.assert_allclose(got[at], resample_oracle(x, ratio, at), rtol=0, atol=1e-6)


def test_speed_and_pitch_keep_their_length_on_long_clips():
    assert len(speed_change(white(60.0, amp_rms=0.1, seed=3), 0.9996)) == round(960000 / 0.9996)
    buf = white(135.0, amp_rms=0.1, seed=4)
    assert len(pitch_shift(buf, 2.0)) == len(buf)


def test_float_ratio_keeps_the_rounded_length_contract():
    x = np.ones(1001)
    for ratio in (0.891, 1 / 1.07, 2 ** (-2 / 12), 1.5):
        assert len(sinc_interp(x, ratio)) == int(np.floor(1001 * ratio + 0.5))


def test_speed_then_pitch_on_a_minute_within_budget():
    buf = white(60.0, amp_rms=0.1, seed=2)
    start = time.perf_counter()
    sped = speed_change(buf, 1.1)
    shifted = pitch_shift(sped, 2.0)
    elapsed = time.perf_counter() - start
    assert len(shifted) == len(sped) == round(len(buf) / 1.1)
    assert elapsed < 1.5, f"speed 1.1 + pitch +2 on 60 s took {elapsed:.2f} s"


def test_babble_rms_law_at_8_khz():
    buf = tone(250.0, 1.5, rate_hz=8000)
    out = add_noise(buf, 0.2, kind="babble", seed=8)
    assert out.sample_rate_hz == 8000 and len(out) == len(buf)
    added = out.samples.astype(np.float64) - buf.samples.astype(np.float64)
    x = buf.samples.astype(np.float64)
    ratio = np.sqrt(np.mean(added**2)) / np.sqrt(np.mean(x**2))
    assert abs(ratio - 0.2) < 0.002
