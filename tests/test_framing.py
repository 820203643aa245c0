"""Block framing in VAD and MFCC against whole-buffer fancy-index oracles."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from diarkit import embed
from diarkit.audio_io import AudioBuffer, read_wav, write_wav
from diarkit.corpus import generate_mixture
from diarkit.embed import (
    _MFCC_BLOCK,
    MfccEmbedder,
    _buffer_features,
    _deltas,
    _feature_rows,
)
from diarkit.vad import (
    _BLOCK_FRAMES,
    SpeechRegion,
    _frame_energies,
    _pairwise_sum,
    _spectral_flatness,
    _speech_runs,
    energy_vad,
    uniform_segment,
)

from conftest import tone
from oracles import (
    _deltas_oracle,
    buffer_features_oracle,
    energy_vad_oracle,
    frame_energies_oracle,
    spectral_flatness_oracle,
    speech_runs_oracle,
)

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
    # Also 511, 512, 513 and 1,025 frames, around the MFCC block size.
    frame, hop = _frame_hop(rate, 25.0, 10.0)
    counts = (_MFCC_BLOCK - 1, _MFCC_BLOCK, _MFCC_BLOCK + 1, 2 * _MFCC_BLOCK + 1)
    lengths = _lengths(rate, 25.0, 10.0) + [(k - 1) * hop + frame for k in counts]
    for i, n in enumerate(lengths):
        buf = _signal(n, rate, seed=10 + i)
        cepstra = _buffer_features(buf, 40, 13, 25.0, 10.0)
        want_starts, want = buffer_features_oracle(buf, 40, 13, 25.0, 10.0)
        assert len(cepstra) == len(want_starts), n
        assert np.array_equal(_feature_rows(cepstra, 0, len(cepstra)), want), n


def _scipy_dct(n, count):
    """The front end's DCT as scipy computes it, with ``_dct_ii``'s signature."""
    from scipy.fft import dct

    return lambda x: dct(x, 2, norm="ortho", axis=1)[:, 1 : count + 1]


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("n_mels, n_coeffs", [(2, 1), (7, 6), (8, 4), (8, 7), (23, 13), (40, 13)])
def test_buffer_features_equal_those_from_scipys_dct(monkeypatch, n_mels, n_coeffs, cores):
    # Odd and even filterbanks, coefficients past the middle, and a last
    # block shorter than the others, on one worker and two. (The whole-
    # buffer oracle cannot check small filterbanks: its one matrix product
    # takes another BLAS path than the per-block ones.)
    monkeypatch.setattr(embed, "_usable_cores", lambda: cores)
    frame, hop = _frame_hop(16000, 25.0, 10.0)
    buf = _signal((2 * _MFCC_BLOCK + 9) * hop + frame, 16000, seed=n_mels)
    cepstra = _buffer_features(buf, n_mels, n_coeffs, 25.0, 10.0)
    monkeypatch.setattr(embed, "_dct_ii", _scipy_dct)
    want = _buffer_features(buf, n_mels, n_coeffs, 25.0, 10.0)
    assert len(cepstra) == 2 * _MFCC_BLOCK + 10
    assert np.array_equal(cepstra.view(np.uint64), want.view(np.uint64))


def _pool_sizes(monkeypatch, cores):
    """Patch the front end to see ``cores`` usable cores; the list fills
    with the thread count of every pool it starts."""
    started = []

    class Spy(embed.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(embed, "_usable_cores", lambda: cores)
    monkeypatch.setattr(embed, "ThreadPoolExecutor", Spy)
    return started


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_buffer_features_on_every_worker_count_equal_the_oracle(monkeypatch, cores):
    # One frame, around one and two blocks, and more blocks than workers,
    # with threads switched far more often than by default.
    started = _pool_sizes(monkeypatch, cores)
    frame, hop = _frame_hop(16000, 25.0, 10.0)
    counts = (1, _MFCC_BLOCK - 1, _MFCC_BLOCK, _MFCC_BLOCK + 1, 2 * _MFCC_BLOCK + 1, 5 * _MFCC_BLOCK + 3)
    for i, k in enumerate(counts):
        buf = _signal((k - 1) * hop + frame, 16000, seed=60 + i)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cepstra = _buffer_features(buf, 40, 13, 25.0, 10.0)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        want_starts, want = buffer_features_oracle(buf, 40, 13, 25.0, 10.0)
        assert len(cepstra) == k == len(want_starts), k
        assert np.array_equal(_feature_rows(cepstra, 0, len(cepstra)), want), k
    blocks = [-(-k // _MFCC_BLOCK) for k in counts]
    assert started == [min(cores, b) - 1 for b in blocks if min(cores, b) > 1]


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


# ---- VAD without a float64 copy of the buffer ----


def _dc(level, n, rate=16000):
    return AudioBuffer(np.full(n, level, dtype=np.float32), rate)


@pytest.mark.parametrize("rate", RATES)
def test_energy_vad_equals_the_float64_copy_oracle(rate):
    for i, n in enumerate(_lengths(rate, 30.0, 10.0)):
        buf = _signal(n, rate, seed=40 + i)
        assert energy_vad(buf) == energy_vad_oracle(buf), n
    # A DC offset under the noise moves the mean off zero.
    offset = AudioBuffer(_signal(3 * rate, rate, seed=49).samples + np.float32(0.3), rate)
    assert energy_vad(offset) == energy_vad_oracle(offset)


def test_energy_vad_equals_the_oracle_on_constant_and_flat_buffers():
    cases = [_dc(level, n) for level in (0.1, -0.3, 1 / 3) for n in (480, 2**20 + 7)]
    cases += [_dc(0.0, 16000), tone(440.0, 45.0)]
    cases += [generate_mixture(0, duration, seed=seed)[0] for seed, duration in ((0, 15.0), (1, 45.0))]
    cases.append(generate_mixture(3, 60.0, seed=1)[0])
    for buf in cases:
        assert energy_vad(buf) == energy_vad_oracle(buf)


def test_buffer_mean_is_bit_identical_to_the_float64_copy_mean():
    rng = np.random.default_rng(3)
    lengths = [1, 7, 8, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3]
    lengths += [int(n) for n in rng.integers(2**17, 3_000_000, size=6)]
    for n in lengths:
        s = (rng.standard_normal(n) * rng.uniform(0.01, 2.0) + rng.uniform(-1, 1)).astype(np.float32)
        assert _pairwise_sum(s, 0, n) / n == np.mean(s.astype(np.float64)), n


def test_stages_leave_no_reference_cycle_holding_the_samples(tmp_path):
    # With the cyclic collector off, a reference cycle through a stage's
    # frames would keep each file's samples alive after the file is done.
    path = tmp_path / "a.wav"
    gc.disable()
    try:
        buf = _signal(20 * 16000, 16000, seed=6)
        energy_vad(buf)
        _buffer_features(buf, 40, 13, 25.0, 10.0)
        write_wav(path, buf)
        samples = weakref.ref(buf.samples)
        del buf
        assert samples() is None
        buf = read_wav(path)
        energy_vad(buf)
        samples = weakref.ref(buf.samples)
        del buf
        assert samples() is None
    finally:
        gc.enable()


def test_stage_memory_stays_within_fixed_blocks_of_the_buffer(tmp_path):
    # 300 s at 16 kHz: the float64 size is 38.4 MB, the float32 size
    # 19.2 MB. A whole-buffer float64 copy alone would be 1.0x of the
    # former; the feature matrix itself is 0.24x.
    rate = 16000
    buf = _signal(300 * rate, rate, seed=7)
    f64 = 8 * len(buf)
    assert _traced_peak(energy_vad, buf) <= 0.4 * f64
    assert _traced_peak(_buffer_features, buf, 40, 13, 25.0, 10.0) <= 0.8 * f64
    path = tmp_path / "long.wav"
    assert _traced_peak(write_wav, path, buf) <= 0.5 * f64


def test_embedding_a_long_recording_holds_only_its_cepstra():
    # 300 s at 16 kHz, embedded in 1.5 s windows every 0.75 s: a table of
    # 13 cepstra a frame is 0.08x the float64 buffer size; one that also
    # held the deltas would be 0.24x.
    rate = 16000
    buf = _signal(300 * rate, rate, seed=8)
    segments = uniform_segment([SpeechRegion(0.0, buf.duration_s)], file_id="f")
    embedder = MfccEmbedder()
    peak = _traced_peak(lambda: [embedder.embed(buf, s) for s in segments])
    assert peak <= 0.4 * 8 * len(buf)


def test_reading_a_long_pcm16_file_holds_only_its_samples(tmp_path):
    # 300 s of PCM16: the float32 output is 19.2 MB, the file 9.6 MB.
    rate = 16000
    path = tmp_path / "long.wav"
    write_wav(path, _signal(300 * rate, rate, seed=9))
    assert _traced_peak(read_wav, path) <= 1.1 * 4 * 300 * rate


# ---- Each sample centred and squared once; runs without a frame loop ----

# (frame, hop): the 30/10 ms grid at 16 and 8 kHz, a frame that is not a
# multiple of the hop, and a hop longer than the frame.
OFF_GRID = ((480, 160), (240, 80), (200, 80), (160, 200))


@pytest.mark.parametrize("frame, hop", OFF_GRID)
def test_frame_energies_equal_the_oracle_off_the_usual_grid(frame, hop):
    rng = np.random.default_rng(frame + hop)
    counts = [1, 2, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1]
    for n_frames in counts:
        for extra in (0, hop - 1):
            n = (n_frames - 1) * hop + frame + extra
            x = (rng.standard_normal(n) * rng.uniform(0.01, 1.0) + 0.2).astype(np.float32)
            mean = float(np.mean(x.astype(np.float64)))
            want = frame_energies_oracle(x.astype(np.float64) - mean, frame, hop)
            got = _frame_energies(x, frame, hop, mean=mean)
            assert len(got) == n_frames and np.array_equal(got, want), (n_frames, extra)


def test_speech_runs_equal_the_per_frame_loop():
    rng = np.random.default_rng(8)
    for frame, hop in OFF_GRID:
        for _ in range(500):
            speech = rng.random(int(rng.integers(0, 2001))) < rng.uniform(0.05, 0.95)
            k = int(rng.integers(1, 30))
            hangovers = [0.0, k * hop - 1.0, float(k * hop), k * hop + 1.0]
            # Gaps between runs are multiples of the hop less the frame.
            hangovers += [float(k * hop - frame)] if k * hop > frame else []
            for hangover in hangovers:
                got = _speech_runs(speech, frame, hop, hangover).tolist()
                assert got == speech_runs_oracle(speech, frame, hop, hangover)


def test_speech_runs_of_a_mask_without_speech_are_empty():
    assert _speech_runs(np.zeros(50, dtype=bool), 480, 160, 3200.0).shape == (0, 2)
    assert _speech_runs(np.zeros(0, dtype=bool), 480, 160, 3200.0).shape == (0, 2)


def test_deltas_equal_the_padded_copy_oracle():
    rng = np.random.default_rng(9)
    for m in [1, 2, 3, 4, 5, 6, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1]:
        c = rng.standard_normal((m, 39))[:, :13]
        d1 = _deltas(c, 0, m)
        d2 = _deltas(d1, 0, m)
        want1 = _deltas_oracle(c)
        assert np.array_equal(d1, want1), m
        assert np.array_equal(d2, _deltas_oracle(want1)), m


def test_segment_feature_rows_peak_within_four_times_their_size():
    # A 148-frame segment of a 100,000-frame table: a padded copy of the
    # table or a full-size term would each be hundreds of times the rows.
    c = np.random.default_rng(10).standard_normal((100_000, 13))
    lo = 50_000
    for width in (26, None):
        size = _feature_rows(c, lo, lo + 148, width).nbytes
        assert _traced_peak(_feature_rows, c, lo, lo + 148, width) <= 4 * size, width
