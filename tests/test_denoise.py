"""spectral_gate_denoise in blocks: equal to the full-length oracle bit for
bit, bounded in memory, and fed only overlapping frames."""

import tracemalloc

import numpy as np
import pytest

from diarkit.audio_io import AudioBuffer, WavSource, read_wav, write_wav
from diarkit.augment import add_noise
from diarkit.corpus import generate_mixture
from diarkit.preprocess import (
    _BLOCK_FRAMES,
    DenoiseParams,
    _gate_into,
    _read_frames,
    _running_sums,
    spectral_gate_denoise,
)

from conftest import tone, white
from oracles import spectral_gate_denoise_oracle, spectral_gate_float64_oracle

RATE = 16000


def test_denoise_params_need_overlapping_frames():
    # The periodic Hann window is 0 at sample 0: without overlap the
    # window-square sum is 0 at every frame start and the output NaN.
    with pytest.raises(ValueError, match="less than frame_len"):
        DenoiseParams(frame_len=300, hop=300)
    p = DenoiseParams(frame_len=300, hop=299)
    out = spectral_gate_denoise(white(1.0, seed=4), p)
    assert np.all(np.isfinite(out.samples))


def _frames_to_samples(n_frames, p=DenoiseParams()):
    # Both lengths give n_frames = ceil((len(x) + frame_len) / hop) + 1.
    # The last frame starts at the end of the samples in the first and
    # past it in the second.
    n = (n_frames - 1) * p.hop - p.frame_len
    return [n, n - p.hop + 1]


# Frame counts at block edges, most with 1-4 frames in the last block: the
# decisions look three frames ahead and carry three back across each edge.
_EDGE_FRAMES = [_BLOCK_FRAMES - 1, _BLOCK_FRAMES + 1, _BLOCK_FRAMES + 2, _BLOCK_FRAMES + 3,
                _BLOCK_FRAMES + 4, 2 * _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 2]
_EDGE_LENGTHS = [n for k in _EDGE_FRAMES for n in _frames_to_samples(k)]


def _assert_matches_oracle(buf, params=None):
    got = spectral_gate_denoise(buf, params).samples
    want = spectral_gate_denoise_oracle(buf, params).samples
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n",
    sorted({512, 513, 700, 1024, 5000, 65536, 300_000, *_EDGE_LENGTHS}),
)
def test_denoise_white_noise_equals_oracle(n):
    rng = np.random.default_rng(n)
    _assert_matches_oracle(AudioBuffer(0.05 * rng.standard_normal(n), RATE))


def test_denoise_noisy_mixture_equals_oracle():
    mix, _ = generate_mixture(4, 40.0, seed=2)
    _assert_matches_oracle(add_noise(mix, 0.3, "white", seed=1))


@pytest.mark.parametrize(
    "params",
    [
        None,
        DenoiseParams(frame_len=400, hop=160),
        DenoiseParams(frame_len=512, hop=200),
        DenoiseParams(frame_len=300, hop=299),
        DenoiseParams(noise_percentile=1.0),
    ],
)
def test_denoise_tone_and_noise_equal_oracle_for_params(params):
    _assert_matches_oracle(tone(440.0, 3.0, amp=0.5), params)
    _assert_matches_oracle(white(2.0, seed=3), params)


class _CountingReads:
    def __init__(self, buf):
        self.buf, self.reads = buf, []

    def read(self, lo, hi):
        self.reads.append((lo, hi))
        return self.buf.read(lo, hi)


def test_grouped_frame_reads_keep_the_given_order():
    # The noise floor sums the quiet frames' power in the order they are
    # given, and a changed order moves its last bits where no gate output
    # shows it; so the rows are checked here against one read a frame.
    # Frames that overlap or touch share one read; a gap splits them.
    buf = white(2.0, seed=5)
    rng = np.random.default_rng(6)
    cases = [
        ([700], [(700, 1212)]),
        ([1024, 0, 256, 768], [(0, 1536)]),
        ([512, 0], [(0, 1024)]),
        ([0, 513], [(0, 512), (513, 1025)]),
    ]
    shuffled = rng.permutation(np.arange(0, 30000, 256))
    cases.append((shuffled, [(0, int(shuffled.max()) + 512)]))
    for firsts, runs in cases:
        src = _CountingReads(buf)
        got = _read_frames(src, np.array(firsts), 512)
        want = np.stack([buf.read(f, f + 512) for f in firsts])
        assert got.dtype == want.dtype and np.array_equal(got, want), firsts
        assert src.reads == runs, firsts


def _assert_float64_matches_oracle(buf, params=None):
    got = np.empty(len(buf))
    _gate_into(buf, params or DenoiseParams(), got)
    assert np.array_equal(got, spectral_gate_float64_oracle(buf, params))


def test_denoise_sums_equal_the_oracle_before_the_float32_cast():
    # The float32 output hides last-bit float64 changes to the overlap-add
    # order; the gate written into a float64 output shows them.
    rng = np.random.default_rng(12)
    for n in [512, 700, 5000] + _EDGE_LENGTHS:
        _assert_float64_matches_oracle(AudioBuffer(0.05 * rng.standard_normal(n), RATE))
    mix, _ = generate_mixture(3, 20.0, seed=4)
    _assert_float64_matches_oracle(add_noise(mix, 0.3, "white", seed=2))
    for params in (DenoiseParams(frame_len=400, hop=160), DenoiseParams(frame_len=300, hop=299)):
        _assert_float64_matches_oracle(tone(440.0, 3.0, amp=0.5), params)
        _assert_float64_matches_oracle(white(2.0, seed=3), params)


@pytest.mark.parametrize("size", [3, 5])
def test_running_sums_in_blocks_equal_scipys_uniform_filter(size):
    # The denoiser's output is float32, which hides last-bit float64
    # changes; the moving averages are checked in float64 here.
    from scipy.ndimage import uniform_filter1d

    rng = np.random.default_rng(size)
    e = np.abs(rng.standard_normal((1000, 7))) * 10.0 ** rng.uniform(-6, 6, (1000, 7))
    want = uniform_filter1d(e, size, axis=0, mode="nearest")
    h = size // 2
    edges = [0, 1, 2, 9, 10, 300, 301, 999, 1000]
    carry, got = None, []
    for a, b in zip(edges, edges[1:]):
        rows = np.clip(np.arange(a - h - 1, b + size - 1 - h), 0, len(e) - 1)
        sums = _running_sums(e[rows], size, carry)
        carry = sums[-1]
        got.append(sums / size)
    assert np.array_equal(np.concatenate(got), want)


def test_denoise_memory_does_not_grow_with_the_recording():
    # 300 s: beside the caller's input, only the float32 output and one
    # energy per frame grow with it; everything else is per block.
    buf = white(300.0, seed=5)
    spectral_gate_denoise(white(1.0))  # warm numpy's FFT plan caches
    tracemalloc.start()
    try:
        spectral_gate_denoise(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * len(buf)


@pytest.mark.parametrize("bit_depth", [16, "f32"])
def test_denoise_of_an_open_wav_equals_its_read_whole_buffer(tmp_path, bit_depth):
    mix, _ = generate_mixture(3, 20.0, seed=4)
    path = tmp_path / "noisy.wav"
    write_wav(path, add_noise(mix, 0.3, "white", seed=2), bit_depth)
    with WavSource(path) as src:
        got = spectral_gate_denoise(src)
    want = spectral_gate_denoise(read_wav(path))
    assert got.sample_rate_hz == want.sample_rate_hz
    assert np.array_equal(got.samples, want.samples)


def test_denoise_of_an_open_wav_holds_only_its_output(tmp_path):
    # Read a block at a time, the gate holds its 4-byte-per-sample output,
    # a few MB of blocks and one energy and sort index per frame (about
    # 0.4 MB more at 300 s than at 150 s).
    spectral_gate_denoise(white(1.0))  # warm numpy's FFT plan caches
    excess = []
    for seconds in (150.0, 300.0):
        path = tmp_path / f"{seconds:.0f}s.wav"
        write_wav(path, white(seconds, seed=5))
        with WavSource(path) as src:
            tracemalloc.start()
            try:
                spectral_gate_denoise(src)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            excess.append(peak - 4 * len(src))
    assert excess[1] <= excess[0] + 1_000_000
