"""MFCC embedding and embedding-file behavior."""

import numpy as np
import pytest

from diarkit.audio_io import AudioBuffer, resample
from diarkit.corpus import generate_mixture
from diarkit.embed import (
    MfccEmbedder,
    _dct_ii,
    _hz_to_mel,
    _mel_filterbank,
    _mel_to_hz,
    _pooled_vector,
    load_external_embeddings,
    write_embeddings,
)
from diarkit.errors import (
    CorruptHeader,
    SegmentOutOfRange,
    TooFewFrames,
    TooShort,
    TruncatedFile,
)
from diarkit.pipeline import PipelineConfig, diarize_buffer
from diarkit.vad import Segment

from conftest import tone, white

RATE = 16000


def _seg(on, off, idx=0):
    return Segment(file_id="f", onset_s=on, offset_s=off, index=idx)


def _cosine(a, b):
    return 1.0 - float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def _voice(f0, formants, duration_s, seed):
    """Harmonic stack with fixed formant weighting, a crude steady voice."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * RATE)) / RATE
    x = np.zeros_like(t)
    for h in range(1, int(3500 / f0) + 1):
        f = h * f0
        w = sum(np.exp(-0.5 * ((f - fc) / bw) ** 2) for fc, bw in formants)
        x += (w + 0.05) / h * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x *= 0.1 / np.sqrt(np.mean(x**2))
    return AudioBuffer(x.astype(np.float32), RATE)


def test_noise_and_tone_cepstra_differ():
    x = np.concatenate([white(1.0, seed=3).samples, tone(300.0, 1.0).samples])
    buf = AudioBuffer(x, RATE)
    f_noise = MfccEmbedder().features(buf, _seg(0.0, 1.0))
    f_tone = MfccEmbedder().features(buf, _seg(1.0, 2.0, idx=1))
    d = _cosine(np.mean(f_noise[:, :13], axis=0), np.mean(f_tone[:, :13], axis=0))
    assert d > 0.2


def test_gain_invariance_of_features():
    buf = _voice(140.0, [(700.0, 120.0), (1500.0, 200.0)], 2.0, seed=1)
    half = AudioBuffer(0.5 * buf.samples, RATE)
    f1 = MfccEmbedder().features(buf, _seg(0.25, 1.75))
    f2 = MfccEmbedder().features(half, _seg(0.25, 1.75))
    assert np.max(np.abs(f1 - f2)) < 1e-6


def test_segment_shorter_than_frame_raises():
    buf = tone(440.0, 1.0)
    with pytest.raises(TooShort):
        MfccEmbedder().features(buf, _seg(0.5, 0.51))


def test_segment_past_buffer_raises():
    buf = tone(440.0, 1.0)
    with pytest.raises(SegmentOutOfRange):
        MfccEmbedder().features(buf, _seg(0.5, 1.5))


def test_feature_shape():
    f = MfccEmbedder().features(tone(200.0, 1.5), _seg(0.0, 1.5))
    # 1.5 s at 25 ms frames / 10 ms hop: frames fully inside the span
    assert f.shape == (148, 39)


def test_frames_longer_than_512_samples_reach_the_spectrum():
    # 25 ms at 48 kHz is 1200 samples. Two frames start at 0 and 480;
    # the tone sits only in the last 480 samples, so it reaches frame 1
    # past its 512th sample and never reaches frame 0.
    rate = 48000
    x = np.zeros(1680)
    x[1200:] = 0.5 * np.sin(2 * np.pi * 1000.0 * np.arange(480) / rate)
    f = MfccEmbedder().features(AudioBuffer(x, rate), _seg(0.0, 0.035))
    assert f.shape[0] == 2
    assert np.max(np.abs(f[1] - f[0])) > 1.0


def test_segment_rows_are_the_frames_inside_the_segment():
    # Every 25 ms frame (10 ms hop) lying wholly inside the segment, and no
    # other, including segments whose edges fall exactly on frame edges.
    buf = white(1.0, seed=3)
    full = MfccEmbedder().features(buf, _seg(0.0, 1.0))
    starts = np.arange(0, RATE - 400 + 1, 160)
    rng = np.random.default_rng(11)
    edges = [(0.0, 0.025), (0.01, 0.045), (0.3, 0.3 + 0.025 + 0.16), (0.975, 1.0)]
    edges += [tuple(sorted(rng.uniform(0.0, 1.0, 2))) for _ in range(30)]
    for on, off in edges:
        lo, hi = round(on * RATE), round(off * RATE)
        want = (starts >= lo) & (starts + 400 <= hi)
        if not want.any():
            with pytest.raises(TooShort):
                MfccEmbedder().features(buf, _seg(on, off))
            continue
        np.testing.assert_array_equal(MfccEmbedder().features(buf, _seg(on, off)), full[want])


def test_pool_constant_features_have_zero_std():
    f = np.tile(np.arange(39.0), (10, 1))
    emb = _pooled_vector(f[:, :26])
    assert emb.shape == (52,)
    assert np.allclose(emb[26:], 0.0)
    assert np.allclose(emb[:26], np.arange(26.0))


def test_pool_is_frame_order_invariant():
    rng = np.random.default_rng(7)
    f = rng.normal(size=(40, 39))
    emb1 = _pooled_vector(f[:, :26])
    emb2 = _pooled_vector(f[rng.permutation(40)][:, :26])
    assert np.allclose(emb1, emb2)


def test_pool_too_few_frames():
    with pytest.raises(TooFewFrames):
        _pooled_vector(np.ones((1, 39))[:, :26])


def test_stationary_halves_are_close():
    buf = _voice(160.0, [(600.0, 100.0), (1700.0, 250.0)], 4.0, seed=9)
    emb = MfccEmbedder()
    e1 = emb.embed(buf, _seg(0.0, 2.0))
    e2 = emb.embed(buf, _seg(2.0, 4.0, idx=1))
    assert _cosine(e1, e2) < 0.05


def test_embedder_is_deterministic():
    buf = _voice(120.0, [(500.0, 90.0), (1400.0, 220.0)], 2.0, seed=2)
    a = MfccEmbedder().embed(buf, _seg(0.2, 1.7))
    b = MfccEmbedder().embed(buf, _seg(0.2, 1.7))
    assert np.array_equal(a, b)


def test_two_voices_separate():
    emb = MfccEmbedder()
    voices = [
        _voice(110.0, [(550.0, 90.0), (1400.0, 200.0)], 25.0, seed=4),
        _voice(230.0, [(850.0, 130.0), (2100.0, 300.0)], 25.0, seed=5),
    ]
    per_voice = []
    for buf in voices:
        segs = [
            _seg(1.5 * k, 1.5 * (k + 1), idx=k) for k in range(16)
        ]
        per_voice.append([emb.embed(buf, s) for s in segs])
    within = []
    for vecs in per_voice:
        within += [
            _cosine(vecs[i], vecs[j])
            for i in range(len(vecs))
            for j in range(i + 1, len(vecs))
        ]
    between = [
        _cosine(a, b) for a in per_voice[0] for b in per_voice[1]
    ]
    assert np.mean(within) < np.mean(between)


def test_embedder_returns_the_segments_pooled_float64_vector():
    buf = tone(300.0, 3.0)
    seg = _seg(0.5, 2.0, idx=4)
    got = MfccEmbedder().embed(buf, seg)
    want = _pooled_vector(MfccEmbedder().features(buf, seg)[:, :26])
    assert np.array_equal(got, want)
    assert got.dtype == np.float64 and got.shape == (52,)


@pytest.mark.parametrize("base_dims", [13, 20, 26, 39])
def test_embeddings_pool_the_whole_table_rows(base_dims):
    # 40 s is 3,998 frames: four MFCC blocks and four delta blocks. The
    # segments include the first and last frames, where the deltas read
    # clamped rows, and ranges across block edges.
    from oracles import buffer_features_oracle

    rng = np.random.default_rng(base_dims)
    buf = AudioBuffer((0.1 * rng.standard_normal(40 * RATE)).astype(np.float32), RATE)
    _, table = buffer_features_oracle(buf, 40, 13, 25.0, 10.0)
    edges = [(0.0, 1.5), (0.01, 0.06), (38.5, 40.0), (39.95, 40.0), (5.0, 5.12), (10.2, 10.28)]
    edges += [tuple(sorted(rng.uniform(0.0, 40.0, 2))) for _ in range(20)]
    embedder = MfccEmbedder(base_dims=base_dims)
    for on, off in edges:
        seg = _seg(on, off)
        got = embedder.embed(buf, seg)
        rows = MfccEmbedder().features(buf, seg)
        assert np.array_equal(got, _pooled_vector(rows[:, :base_dims])), (on, off)
        starts = np.arange(0, len(buf) - 400 + 1, 160)
        inside = (starts >= round(on * RATE)) & (starts + 400 <= round(off * RATE))
        assert np.array_equal(rows, table[inside]), (on, off)
        for width in (None, 13, 26, 39):
            got = embedder.features(buf, seg, width)
            assert np.array_equal(got, table[inside][:, :width]), (on, off, width)


def test_dct_equals_scipy_bit_for_bit_on_every_length_and_column_count():
    # Every filterbank size from 2 to 128 (odd, even and prime lengths) and
    # every coefficient count below it, so the upper half of the columns
    # and, for even lengths, the middle one are covered. Rows span 1e-5 to
    # 1e5 in scale; the second call transforms a short block.
    from scipy.fft import dct

    rng = np.random.default_rng(23)
    for n in range(2, 129):
        x = rng.standard_normal((37, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (37, 1))
        want = dct(x, 2, norm="ortho", axis=1).view(np.uint64)
        for count in range(1, n):
            transform = _dct_ii(n, count)
            for rows in (37, 5):
                got = transform(x[:rows])
                assert np.array_equal(got.view(np.uint64), want[:rows, 1 : count + 1]), (n, count)


@pytest.mark.parametrize("rate", [8000, 16000, 48000])
def test_mel_bands_stop_at_8_khz_and_are_unchanged_up_to_16_khz(rate):
    # The bank as it stood before the cap: bands spread up to half the rate.
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(rate / 2.0), 42))
    freqs = np.arange(257) * (rate / 512)
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs[None, :] - lo) / (center - lo)
    uncapped = np.maximum(0.0, np.minimum(rising, (hi - freqs[None, :]) / (hi - center)))
    bank = _mel_filterbank(40, 512, rate)
    assert np.array_equal(bank, uncapped) == (rate <= 16000)
    assert not bank[:, freqs > 8001.0].any()  # the 8 kHz bin may hold 1e-15 of residue
    assert bank[-1].any()


def test_a_48_khz_mixture_gets_its_16_khz_speaker_count_under_the_threshold_stop():
    buf, _ = generate_mixture(4, 120.0, seed=0)
    for b in (buf, resample(buf, 48000)):
        result = diarize_buffer(b, PipelineConfig(), file_id="mix")
        assert len({t.speaker_id for t in result.turns}) == 4, b.sample_rate_hz


# --- embedding-matrix file format ---


def test_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    matrix = rng.normal(size=(10, 52)).astype(np.float32)
    path = tmp_path / "emb.bin"
    write_embeddings(path, matrix)
    loaded = load_external_embeddings(path)
    assert loaded.shape == (10, 52) and loaded.dtype == np.float64
    assert np.array_equal(loaded.astype(np.float32), matrix)


def test_round_trip_from_stacked_vectors(tmp_path):
    embs = np.stack([np.full(4, float(i)) for i in range(3)])
    path = tmp_path / "emb.bin"
    write_embeddings(path, embs)
    loaded = load_external_embeddings(path)
    assert np.array_equal(loaded[2], np.full(4, 2.0))


def test_truncated_file(tmp_path):
    rng = np.random.default_rng(18)
    path = tmp_path / "emb.bin"
    write_embeddings(path, rng.normal(size=(10, 8)).astype(np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[: 8 + 9 * 8 * 4])  # drop the last row
    with pytest.raises(TruncatedFile):
        load_external_embeddings(path)


def test_corrupt_header(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"\x01\x00\x00")
    with pytest.raises(CorruptHeader):
        load_external_embeddings(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings(path, np.ones((2, 3), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(CorruptHeader):
        load_external_embeddings(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_loader_rejects_a_non_finite_value(tmp_path, bad):
    matrix = np.ones((3, 4), dtype=np.float32)
    matrix[1, 2] = bad
    path = tmp_path / "emb.bin"
    write_embeddings(path, matrix)
    with pytest.raises(ValueError, match="finite"):
        load_external_embeddings(path)
