"""Augmentation laws: noise RMS ratio, pitch ratio, speed duration."""

import numpy as np
import pytest

import diarkit.augment
from conftest import fft_peak_hz, tone
from diarkit.audio_io import AudioBuffer, Turn
from diarkit.augment import (
    AugmentSpec,
    add_noise,
    augment_file,
    pitch_shift,
    rescale_turns,
    speed_change,
)
from diarkit.errors import SilentInput
from oracles import synth_utterance_oracle


def rms(x):
    return float(np.sqrt(np.mean(np.asarray(x, dtype=np.float64) ** 2)))


class TestAugmentSpec:
    def test_defaults_valid(self):
        spec = AugmentSpec()
        assert spec.noise_intensity == 0.05
        assert spec.noise_kind == "white"

    def test_range_enforcement_and_opt_out(self):
        with pytest.raises(ValueError):
            AugmentSpec(pitch_semitones=6.0)
        with pytest.raises(ValueError):
            AugmentSpec(speed_factor=1.2)
        with pytest.raises(ValueError):
            AugmentSpec(pitch_semitones=13.0)
        with pytest.raises(ValueError):
            AugmentSpec(noise_intensity=-0.1)
        with pytest.raises(ValueError):
            AugmentSpec(noise_kind="pink")


class TestAddNoise:
    def test_zero_intensity_is_identity(self):
        buf = tone(300.0, 1.0)
        out = add_noise(buf, 0.0)
        assert np.array_equal(out.samples, buf.samples)

    def test_intensity_sets_snr_at_26_db(self):
        from diarkit.preprocess import estimate_snr_db

        buf = tone(440.0, 2.0)
        out = add_noise(buf, 0.05, seed=4)
        assert abs(estimate_snr_db(out, buf) - 26.0206) < 0.3

    def test_rms_law_for_both_kinds(self):
        buf = tone(250.0, 1.5)
        for kind in ("white", "babble"):
            out = add_noise(buf, 0.2, kind=kind, seed=8)
            added = out.samples.astype(np.float64) - buf.samples.astype(np.float64)
            ratio = rms(added) / rms(buf.samples)
            assert abs(ratio - 0.2) < 0.002

    def test_deterministic_and_kind_sensitive(self):
        buf = tone(180.0, 1.0)
        a = add_noise(buf, 0.1, kind="babble", seed=3)
        b = add_noise(buf, 0.1, kind="babble", seed=3)
        c = add_noise(buf, 0.1, kind="white", seed=3)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("rate", [16000, 8000])
    def test_babble_equals_babble_from_the_oracle_voices(self, rate, monkeypatch):
        buf = tone(220.0, 3.0, rate_hz=rate)
        got = add_noise(buf, 0.1, kind="babble", seed=5)
        monkeypatch.setattr(diarkit.augment, "synth_utterance", synth_utterance_oracle)
        want = add_noise(buf, 0.1, kind="babble", seed=5)
        assert np.array_equal(got.samples, want.samples)

    def test_silent_input_rejected(self):
        silent = AudioBuffer(samples=np.zeros(8000, dtype=np.float32), sample_rate_hz=16000)
        with pytest.raises(SilentInput):
            add_noise(silent, 0.05)


class TestSpeedChange:
    def test_identity_factor(self):
        buf = tone(440.0, 1.0)
        assert speed_change(buf, 1.0) is buf

    def test_duration_contract(self):
        buf = tone(440.0, 10.0)
        out = speed_change(buf, 1.1)
        assert abs(len(out) / 16000 - 10.0 / 1.1) < 0.02

    def test_frequency_scales_with_factor(self):
        out = speed_change(tone(440.0, 2.0), 1.1)
        assert abs(fft_peak_hz(out) - 484.0) < 4.84

    def test_duration_law_across_factors(self):
        buf = tone(200.0, 3.0)
        for factor in (0.9, 0.95, 1.0, 1.05, 1.1):
            out = speed_change(buf, factor)
            assert abs(len(out) * factor - len(buf)) <= 256


class TestPitchShift:
    def test_zero_semitones_is_identity(self):
        buf = tone(440.0, 1.0)
        out = pitch_shift(buf, 0.0)
        assert len(out) == len(buf)
        a = out.samples.astype(np.float64)
        b = buf.samples.astype(np.float64)
        ncc = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert ncc >= 0.99

    def test_up_five_semitones(self):
        out = pitch_shift(tone(440.0, 2.0), 5.0)
        assert abs(fft_peak_hz(out) - 587.33) < 5.8733
        assert abs(len(out) - 32000) <= 0.02 * 32000

    def test_down_five_semitones(self):
        out = pitch_shift(tone(440.0, 2.0), -5.0)
        assert abs(fft_peak_hz(out) - 329.63) < 3.2963

    def test_frequency_law_over_band(self):
        for freq in (100.0, 400.0, 1000.0, 2000.0):
            for st in (-5.0, -2.0, 2.0, 5.0):
                out = pitch_shift(tone(freq, 1.0), st)
                want = freq * 2.0 ** (st / 12.0)
                assert abs(fft_peak_hz(out) - want) < 0.01 * want

    def test_extreme_shift_rejected(self):
        with pytest.raises(ValueError):
            pitch_shift(tone(440.0, 1.0), 13.0)


class TestAugmentFile:
    def test_identity_spec_returns_input(self):
        buf = tone(300.0, 1.0)
        spec = AugmentSpec(noise_intensity=0.0, pitch_semitones=0.0, speed_factor=1.0)
        assert augment_file(buf, spec) is buf

    def test_deterministic(self):
        buf = tone(320.0, 1.5)
        spec = AugmentSpec(noise_intensity=0.05, pitch_semitones=2.0, speed_factor=1.05, rng_seed=9)
        a = augment_file(buf, spec)
        b = augment_file(buf, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_composed_frequency_law(self):
        buf = tone(440.0, 2.0)
        spec = AugmentSpec(noise_intensity=0.05, pitch_semitones=2.0, speed_factor=1.05, rng_seed=1)
        out = augment_file(buf, spec)
        want = 440.0 * 1.05 * 2.0 ** (2.0 / 12.0)
        assert abs(fft_peak_hz(out) - want) < 0.015 * want

    def test_rescale_turns_divides_times(self):
        turns = [Turn("f", "a", 1.1, 2.2)]
        out = rescale_turns(turns, 1.1)
        assert out[0].onset_s == 1.0
        assert out[0].duration_s == 2.0
