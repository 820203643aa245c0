"""Block framing in VAD and MFCC against whole-buffer fancy-index oracles."""

import tracemalloc

import numpy as np
import pytest

from diarkit.audio_io import AudioBuffer
from diarkit.corpus import generate_mixture
from diarkit.embed import _buffer_features
from diarkit.vad import _BLOCK_FRAMES, _frame_energies, _spectral_flatness, energy_vad

from conftest import tone
from oracles import buffer_features_oracle, frame_energies_oracle, spectral_flatness_oracle

RATES = (8000, 16000, 44100, 48000)


def _frame_hop(rate, frame_ms, hop_ms):
    return int(round(rate * frame_ms / 1000.0)), int(round(rate * hop_ms / 1000.0))


def _lengths(rate, frame_ms, hop_ms):
    """One frame; one block of frames on the hop grid, one sample either
    side; a length between hop grid points; and a multi-block buffer."""
    frame, hop = _frame_hop(rate, frame_ms, hop_ms)
    edge = _BLOCK_FRAMES * hop
    return [frame, edge - 1, edge, edge + 1, edge + frame + hop // 2, 2 * edge + frame + 7]


def _signal(n, rate, seed):
    """Noise whose level changes every 50 ms, so frames differ in energy."""
    rng = np.random.default_rng(seed)
    step = rate // 20
    gain = np.repeat(rng.uniform(0.01, 0.5, n // step + 1), step)[:n]
    return AudioBuffer((rng.standard_normal(n) * gain).astype(np.float32), rate)


@pytest.mark.parametrize("rate", RATES)
def test_frame_energies_equal_the_fancy_index_oracle(rate):
    frame, hop = _frame_hop(rate, 30.0, 10.0)
    for i, n in enumerate(_lengths(rate, 30.0, 10.0)):
        x = _signal(n, rate, seed=i).samples.astype(np.float64)
        x -= np.mean(x)
        got = _frame_energies(x, frame, hop)
        assert np.array_equal(got, frame_energies_oracle(x, frame, hop)), n


@pytest.mark.parametrize("rate", RATES)
def test_buffer_features_equal_the_fancy_index_oracle(rate):
    for i, n in enumerate(_lengths(rate, 25.0, 10.0)):
        buf = _signal(n, rate, seed=10 + i)
        starts, feats = _buffer_features(buf, 40, 13, 25.0, 10.0)
        want_starts, want = buffer_features_oracle(buf, 40, 13, 25.0, 10.0)
        assert np.array_equal(starts, want_starts), n
        assert np.array_equal(feats, want), n


def test_spectral_flatness_differs_from_the_oracle_only_by_rounding():
    # Block sums reorder the frame average, so equality is to rounding.
    for rate in RATES:
        frame, hop = _frame_hop(rate, 30.0, 10.0)
        for i, n in enumerate(_lengths(rate, 30.0, 10.0)):
            x = _signal(n, rate, seed=20 + i).samples.astype(np.float64)
            x -= np.mean(x)
            want = spectral_flatness_oracle(x, frame, hop)
            assert _spectral_flatness(x, frame, hop) == pytest.approx(want, rel=1e-12, abs=0)


def test_flatness_decisions_hold_on_buffers_longer_than_a_block():
    # 45 s is over 4,096 frames: noise-only corpus files stay empty and a
    # steady tone stays one whole-buffer region.
    for seed in range(3):
        buf, turns = generate_mixture(0, 45.0, seed=seed)
        assert turns == [] and energy_vad(buf) == []
        x = buf.samples.astype(np.float64)
        x -= np.mean(x)
        assert _spectral_flatness(x, 480, 160) == pytest.approx(
            spectral_flatness_oracle(x, 480, 160), rel=1e-12, abs=0
        )
    regions = energy_vad(tone(440.0, 45.0))
    assert [(r.onset_s, r.offset_s) for r in regions] == [(0.0, 45.0)]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_framing_memory_stays_within_three_float64_copies():
    # 300 s at 16 kHz: a float64 copy is 38.4 MB. Whole-buffer frame
    # matrices peaked at 7x (VAD) and 9x (MFCC) of it.
    rate = 16000
    buf = _signal(300 * rate, rate, seed=5)
    budget = 3 * 8 * len(buf)
    assert _traced_peak(energy_vad, buf) <= budget
    assert _traced_peak(_buffer_features, buf, 40, 13, 25.0, 10.0) <= budget
