"""Diarizing an open WAV a block at a time against its whole-file buffer."""

import threading
import tracemalloc

import numpy as np
import pytest

from diarkit import embed
from diarkit.audio_io import _WRITE_BLOCK, AudioBuffer, WavSource, emit_rttm, read_wav, write_wav
from diarkit.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    PipelineConfig,
    _diarize_one,
    diarize_buffer,
    embed_segments,
    main,
)
from diarkit.corpus import generate_dataset, generate_mixture
from diarkit.embed import _MFCC_BLOCK, _buffer_features, write_embeddings
from diarkit.errors import CorruptHeader
from diarkit.vad import _BLOCK_FRAMES, _SUM_LEAF, energy_vad

from conftest import tone
from oracles import buffer_features_oracle
from test_audio_io import _fmt, _riff


def _layouts(buf):
    """The buffer as PCM16 and float32 WAV bytes, each with fmt before
    data, fmt after data, and an odd-sized chunk with its pad byte first."""
    rate = buf.sample_rate_hz
    pcm = np.clip(np.rint(buf.samples.astype(np.float64) * 32768.0), -32768, 32767).astype("<i2")
    for name, fmt, data in (
        ("pcm16", _fmt(rate=rate), pcm.tobytes()),
        ("f32", _fmt(code=3, bits=32, rate=rate), buf.samples.astype("<f4").tobytes()),
    ):
        yield f"{name}-fmt-first", _riff(fmt, (b"data", data))
        yield f"{name}-fmt-last", _riff((b"data", data), fmt)
        yield f"{name}-odd-chunk", _riff((b"LIST", b"abc"), fmt, (b"data", data))


def _signal(n, rate, seed):
    """Noise whose level changes every 50 ms, so frames differ in energy."""
    rng = np.random.default_rng(seed)
    step = rate // 20
    gain = np.repeat(rng.uniform(0.01, 0.5, n // step + 1), step)[:n]
    return AudioBuffer((rng.standard_normal(n) * gain).astype(np.float32), rate)


def test_every_range_read_equals_that_slice_of_read_wav(tmp_path):
    rng = np.random.default_rng(3)
    sig = _signal(3 * _WRITE_BLOCK + 11, 16000, seed=3)
    for name, raw in _layouts(sig):
        wav = tmp_path / f"{name}.wav"
        wav.write_bytes(raw)
        whole = read_wav(wav).samples
        with WavSource(wav) as src:
            n = len(src)
            ranges = [(0, n), (0, 0), (n, n), (_WRITE_BLOCK - 1, 2 * _WRITE_BLOCK + 1)]
            ranges += [tuple(sorted(rng.integers(0, n + 1, 2))) for _ in range(20)]
            for lo, hi in ranges:
                got = src.read(lo, hi)
                assert got.dtype == np.float32, (name, lo, hi)
                assert got.tobytes() == whole[lo:hi].tobytes(), (name, lo, hi)
            for lo, hi in ((-1, 5), (5, 4), (0, n + 1)):
                with pytest.raises(IndexError):
                    src.read(lo, hi)


def test_diarize_and_export_from_the_open_file_equal_the_whole_buffer(tmp_path, capsys):
    mix, _ = generate_mixture(3, 20.0, seed=1)
    for name, raw in _layouts(mix):
        wav = tmp_path / f"{name}.wav"
        wav.write_bytes(raw)
        buf = read_wav(wav)
        for extra in ([], ["--denoise"]):
            cfg = PipelineConfig(num_speakers=3, denoise=bool(extra))
            want = diarize_buffer(buf, cfg, file_id=wav.stem)
            rttm, emb = tmp_path / "got.rttm", tmp_path / "got.emb"
            argv = ["diarize", str(wav), "--num-speakers", "3", "--out-rttm", str(rttm)]
            assert main(argv + ["--export-embeddings", str(emb)] + extra) == EXIT_OK
            assert want.turns and rttm.read_text(encoding="utf-8") == emit_rttm(want.turns), name
            write_embeddings(tmp_path / "want.emb", want.embeddings)
            assert emb.read_bytes() == (tmp_path / "want.emb").read_bytes(), name
        assert main(["export-embeddings", str(wav), str(emb)]) == EXIT_OK
        write_embeddings(tmp_path / "want.emb", embed_segments(buf, PipelineConfig(), wav.stem)[1])
        assert emb.read_bytes() == (tmp_path / "want.emb").read_bytes(), name
    capsys.readouterr()


def _lengths(rate):
    """Around the mean's sum leaf, a block of VAD frames and of MFCC frames."""
    vad = (_BLOCK_FRAMES - 1) * (rate // 100) + 3 * rate // 100
    mfcc = (_MFCC_BLOCK - 1) * (rate // 100) + rate // 40
    return [n + d for n in (_SUM_LEAF, vad, mfcc) for d in (-1, 0, 1)] + [2 * vad + 7]


@pytest.mark.parametrize("rate", [16000, 48000])
def test_vad_and_mfcc_read_from_the_open_file_equal_the_buffer(tmp_path, rate):
    bufs = [_signal(n, rate, seed=i) for i, n in enumerate(_lengths(rate))]
    bufs += [AudioBuffer(np.full(3 * _SUM_LEAF + 5, 0.25, dtype=np.float32), rate)]
    bufs += [tone(440.0, 45.0)] if rate == 16000 else []
    for i, sig in enumerate(bufs):
        for name, raw in _layouts(sig):
            wav = tmp_path / f"{i}-{name}.wav"
            wav.write_bytes(raw)
            buf = read_wav(wav)
            with WavSource(wav) as src:
                assert len(src) == len(buf) and src.sample_rate_hz == buf.sample_rate_hz
                assert energy_vad(src) == energy_vad(buf), (len(buf), name)
                got = _buffer_features(src, 40, 13, 25.0, 10.0)
            want = _buffer_features(buf, 40, 13, 25.0, 10.0)
            assert np.array_equal(got, want), (len(buf), name)


def _wav(tmp_path, name, values, code):
    """A 16 kHz WAV of raw PCM16 codes (code 1) or float32 values (code 3)."""
    wav = tmp_path / name
    wav.write_bytes(_riff(_fmt(code=code, bits=8 * values.itemsize), (b"data", values.tobytes())))
    return wav


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_mfcc_from_the_open_file_equals_the_oracle_on_every_worker_count(
    tmp_path, monkeypatch, cores
):
    monkeypatch.setattr(embed, "_usable_cores", lambda: cores)
    for k in (_MFCC_BLOCK - 1, _MFCC_BLOCK + 1, 2 * _MFCC_BLOCK + 1, 4 * _MFCC_BLOCK + 3):
        sig = _signal((k - 1) * 160 + 400, 16000, seed=k).samples
        pcm = np.clip(np.rint(sig.astype(np.float64) * 32768.0), -32768, 32767).astype("<i2")
        for code, values in ((1, pcm), (3, sig.astype("<f4"))):
            wav = _wav(tmp_path, f"{k}-{code}.wav", values, code)
            with WavSource(wav) as src:
                cepstra = _buffer_features(src, 40, 13, 25.0, 10.0)
            want_starts, want = buffer_features_oracle(read_wav(wav), 40, 13, 25.0, 10.0)
            assert len(cepstra) == k == len(want_starts), (k, code)
            assert np.array_equal(cepstra, want[:, :13]), (k, code)


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("block", [3, 4])
def test_a_nan_in_a_late_block_raises_through_the_worker_pool(tmp_path, monkeypatch, cores, block):
    # Five blocks: with two workers the calling thread frames blocks 0, 2
    # and 4, with three blocks 0 and 3, so on each worker count the NaN
    # is met once by a pool thread and once by the calling thread.
    monkeypatch.setattr(embed, "_usable_cores", lambda: cores)
    values = _signal((5 * _MFCC_BLOCK - 1) * 160 + 400, 16000, seed=12).samples.astype("<f4")
    values[(block * _MFCC_BLOCK + 100) * 160] = np.nan
    wav = _wav(tmp_path, "nan.wav", values, 3)
    before = threading.active_count()
    with WavSource(wav) as src, pytest.raises(ValueError, match="must be finite"):
        _buffer_features(src, 40, 13, 25.0, 10.0)
    assert threading.active_count() == before


def test_a_manifest_on_two_jobs_writes_the_rttms_of_one(tmp_path, capsys):
    # Each file's front end starts its own pool inside a --jobs thread.
    generate_dataset(tmp_path / "tree", layout={1: 1, 2: 1, 3: 1}, seed=4)
    manifest = str(tmp_path / "tree" / "manifest.json")
    before = threading.active_count()
    for jobs in ("1", "2"):
        argv = ["diarize", manifest, "--out-dir", str(tmp_path / jobs), "--jobs", jobs]
        assert main(argv) == EXIT_OK
    assert threading.active_count() == before
    one = sorted((tmp_path / "1").glob("*.rttm"))
    assert len(one) == 3
    for path in one:
        assert (tmp_path / "2" / path.name).read_bytes() == path.read_bytes(), path.name
    capsys.readouterr()


def test_diarizing_a_long_file_holds_no_copy_of_its_samples(tmp_path):
    # 300 s of PCM16: the float32 samples are 19.2 MB. Holding them, the
    # cepstra and the block scratch peaked at about 1.5x that.
    rate = 16000
    wav = tmp_path / "long.wav"
    write_wav(wav, _signal(300 * rate, rate, seed=5))
    tracemalloc.start()
    try:
        _diarize_one(wav, PipelineConfig(num_speakers=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 4 * 300 * rate


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_sample_in_the_last_block_fails_before_any_output(tmp_path, capsys, bad):
    values = _signal(3 * _SUM_LEAF + 5, 16000, seed=8).samples.astype("<f4")
    values[-2] = bad
    wav, rttm = tmp_path / "bad.wav", tmp_path / "bad.rttm"
    wav.write_bytes(_riff(_fmt(code=3, bits=32), (b"data", values.tobytes())))
    capsys.readouterr()
    assert main(["diarize", str(wav), "--out-rttm", str(rttm)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: AudioBuffer samples must be finite\n"
    assert not rttm.exists()


def test_a_data_chunk_cut_short_fails_at_open_and_at_read(tmp_path, capsys):
    raw = _riff(_fmt(), (b"data", np.ones(3 * _SUM_LEAF, dtype="<i2").tobytes()))
    wav, rttm = tmp_path / "short.wav", tmp_path / "short.rttm"
    wav.write_bytes(raw[:-2])
    capsys.readouterr()
    assert main(["diarize", str(wav), "--out-rttm", str(rttm)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {wav}: data chunk truncated\n"
    assert not rttm.exists()
    # A file cut after it was opened fails at the read that misses data.
    wav.write_bytes(raw)
    with WavSource(wav) as src:
        src.read(0, len(src))
        with open(wav, "r+b") as fh:
            fh.truncate(len(raw) - 2)
        with pytest.raises(CorruptHeader, match="data chunk truncated"):
            src.read(len(src) - _SUM_LEAF, len(src))
