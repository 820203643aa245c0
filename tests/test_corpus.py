"""Synthetic corpus generation: voices, mixtures, and the dataset tree."""

import math
import multiprocessing
import os
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from diarkit import corpus
from diarkit.audio_io import emit_rttm, parse_rttm, read_wav, write_wav
from diarkit.cluster import cosine_distance
from diarkit.corpus import (
    _SYNTH_BLOCK,
    RATE,
    CorpusManifest,
    SpeakerProfile,
    default_profile_pool,
    generate_dataset,
    generate_mixture,
    split_counts,
    synth_utterance,
)
from diarkit.embed import MfccEmbedder
from diarkit.errors import BadSpeakerCount, BadSplit, IoError, TooShort
from diarkit.vad import Segment
from oracles import synth_utterance_oracle


def _profile(i=0):
    return default_profile_pool()[i]


class TestSpeakerProfile:
    def test_pool_has_24_valid_distinct_voices(self):
        pool = default_profile_pool()
        assert len(pool) == 24
        assert len({p.f0_hz for p in pool}) == 24
        for p in pool:
            centers = [f for f, _ in p.formants]
            assert centers == sorted(centers)

    def test_validation(self):
        good = _profile()
        with pytest.raises(ValueError):
            SpeakerProfile(50.0, good.formants, -6.0, 1)
        with pytest.raises(ValueError):
            SpeakerProfile(120.0, tuple(reversed(good.formants)), -6.0, 1)
        with pytest.raises(ValueError):
            SpeakerProfile(120.0, ((300.0, 0.0), (1200.0, 100.0), (2600.0, 200.0)), -6.0, 1)


class TestSynthUtterance:
    def test_two_seconds_is_exactly_32000_samples(self):
        buf = synth_utterance(_profile(), 2.0, seed=0)
        assert len(buf) == 32000
        assert buf.sample_rate_hz == 16000

    def test_too_short_rejected(self):
        with pytest.raises(TooShort):
            synth_utterance(_profile(), 0.1, seed=0)

    @pytest.mark.parametrize(
        "n",
        # Below one block, one block and a sample either side, past two
        # blocks, a 3.25 s corpus turn and an 18.2 s babble voice.
        [8000, _SYNTH_BLOCK - 1, _SYNTH_BLOCK, _SYNTH_BLOCK + 1, 2 * _SYNTH_BLOCK + 1, 52000, 291200],
    )
    def test_pool_equals_the_full_length_oracle(self, n):
        for i, p in enumerate(default_profile_pool()):
            got = synth_utterance(p, n / RATE, seed=i).samples
            assert len(got) == n
            assert np.array_equal(got, synth_utterance_oracle(p, n / RATE, seed=i).samples), i

    def test_a_minute_equals_the_full_length_oracle(self):
        p = _profile(5)
        got = synth_utterance(p, 60.0, seed=4).samples
        assert np.array_equal(got, synth_utterance_oracle(p, 60.0, seed=4).samples)

    def test_memory_stays_within_eight_float64_copies(self):
        # 60 s: one float64 copy of the output is 7.7 MB. Full-length
        # complex harmonics peaked at 11x of it.
        tracemalloc.start()
        try:
            synth_utterance(_profile(), 60.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * 60 * RATE

    def test_deterministic_per_seed(self):
        a = synth_utterance(_profile(3), 1.5, seed=9)
        b = synth_utterance(_profile(3), 1.5, seed=9)
        c = synth_utterance(_profile(3), 1.5, seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_pool_separability_within_vs_between(self):
        # Same-voice embedding distance must sit well under the
        # different-voice distance, or clustering has nothing to work with.
        pool = default_profile_pool()
        embedder = MfccEmbedder()
        embs = []
        for p in pool:
            pair = []
            for seed in (0, 1):
                buf = synth_utterance(p, 2.0, seed=seed)
                seg = Segment(file_id="t", onset_s=0.0, offset_s=2.0, index=0)
                pair.append(embedder.embed(buf, seg))
            embs.append(pair)
        within = [cosine_distance(a, b) for a, b in embs]
        between = [
            cosine_distance(embs[i][0], embs[j][0])
            for i in range(len(pool))
            for j in range(i + 1, len(pool))
        ]
        assert np.mean(between) >= 2.0 * np.mean(within)


class TestGenerateMixture:
    def test_zero_speakers_is_quiet_noise(self):
        buf, turns = generate_mixture(0, 8.0, seed=3)
        assert turns == []
        assert len(buf) == 8 * 16000
        level_db = 20.0 * np.log10(np.sqrt(np.mean(buf.samples.astype(np.float64) ** 2)))
        assert -42.0 < level_db < -28.0

    def test_two_speakers_both_talk_enough(self):
        buf, turns = generate_mixture(2, 20.0, seed=1)
        per_speaker = {}
        for t in turns:
            per_speaker.setdefault(t.speaker_id, 0.0)
            per_speaker[t.speaker_id] += t.duration_s
        assert len(per_speaker) == 2
        assert all(total >= 2.0 for total in per_speaker.values())

    def test_every_speaker_appears_across_configs(self):
        for n in (1, 2, 3, 4):
            for duration in (4.0, 6.0, 12.0, 30.0):
                for seed in range(5):
                    _, turns = generate_mixture(n, duration, seed=seed)
                    assert len({t.speaker_id for t in turns}) == n
                    for t in turns:
                        assert 0.0 <= t.onset_s and t.offset_s <= duration + 1e-9
                        assert abs(t.onset_s * 1000 - round(t.onset_s * 1000)) < 1e-6

    def test_zero_overlap_fraction_means_disjoint_turns(self):
        for seed in range(5):
            _, turns = generate_mixture(3, 25.0, overlap_fraction=0.0, seed=seed)
            ordered = sorted(turns, key=lambda t: t.onset_s)
            for a, b in zip(ordered, ordered[1:]):
                assert b.onset_s >= a.offset_s - 1e-9

    def test_high_overlap_fraction_produces_overlap(self):
        overlapped = 0
        for seed in range(5):
            _, turns = generate_mixture(3, 30.0, overlap_fraction=0.3, seed=seed)
            ordered = sorted(turns, key=lambda t: t.onset_s)
            overlapped += sum(
                1 for a, b in zip(ordered, ordered[1:]) if b.onset_s < a.offset_s - 1e-9
            )
        assert overlapped > 0

    def test_speech_sum_bounded_by_stacked_duration(self):
        _, turns = generate_mixture(4, 15.0, seed=2)
        assert sum(t.duration_s for t in turns) <= 15.0 * 4

    def test_rttm_round_trip_is_exact(self):
        from diarkit.audio_io import emit_rttm

        _, turns = generate_mixture(2, 12.0, seed=5, file_id="f0")
        back = parse_rttm(emit_rttm(turns))
        original = [(t.file_id, t.speaker_id, t.onset_s, t.duration_s) for t in turns]
        parsed = [(t.file_id, t.speaker_id, t.onset_s, t.duration_s) for t in back]
        assert parsed == original

    def test_bad_inputs(self):
        with pytest.raises(BadSpeakerCount):
            generate_mixture(5, 20.0)
        with pytest.raises(TooShort):
            generate_mixture(1, 3.0)
        with pytest.raises(ValueError):
            generate_mixture(2, 20.0, overlap_fraction=0.5)


class TestSplitCounts:
    def test_known_apportionments(self):
        assert split_counts(58) == (41, 11, 6)
        assert split_counts(60) == (42, 12, 6)
        assert split_counts(10) == (7, 2, 1)
        assert split_counts(1) == (1, 0, 0)

    def test_always_sums_to_total(self):
        for n in range(0, 200):
            assert sum(split_counts(n)) == n


class TestGenerateDataset:
    LAYOUT = {0: 2, 1: 3, 2: 2}

    def test_tree_matches_manifest(self, tmp_path):
        manifest = generate_dataset(tmp_path, layout=self.LAYOUT, seed=11)
        assert manifest.folder_counts() == self.LAYOUT
        assert (tmp_path / "manifest.json").exists()
        for e in manifest.entries:
            wav = tmp_path / e.path
            rttm = tmp_path / e.rttm_path
            assert wav.exists() and rttm.exists()
            buf = read_wav(wav)
            assert buf.sample_rate_hz == 16000
            assert 15.0 <= len(buf) / 16000 <= 45.0
            turns = parse_rttm(rttm.read_text())
            assert len({t.speaker_id for t in turns}) == e.folder
            assert set(t.speaker_id for t in turns) == set(e.speaker_ids)
            for t in turns:
                assert t.offset_s <= e.duration_s + 1e-6

    def test_split_assignment_per_folder(self, tmp_path):
        manifest = generate_dataset(tmp_path, layout=self.LAYOUT, seed=11)
        by_folder = {}
        for e in manifest.entries:
            by_folder.setdefault(e.folder, []).append(e.split)
        for folder, splits in by_folder.items():
            want = split_counts(self.LAYOUT[folder])
            got = (splits.count("train"), splits.count("val"), splits.count("test"))
            assert got == want

    def test_same_seed_twice_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        ma = generate_dataset(a_dir, layout={0: 1, 2: 2}, seed=7)
        generate_dataset(b_dir, layout={0: 1, 2: 2}, seed=7)
        for e in ma.entries:
            assert (a_dir / e.path).read_bytes() == (b_dir / e.path).read_bytes()
            assert (a_dir / e.rttm_path).read_bytes() == (b_dir / e.rttm_path).read_bytes()
        assert (a_dir / "manifest.json").read_bytes() == (b_dir / "manifest.json").read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        manifest = generate_dataset(tmp_path, layout={1: 2}, seed=3)
        back = CorpusManifest.load(tmp_path / "manifest.json")
        assert back == manifest

    def test_bad_configs(self, tmp_path):
        with pytest.raises(BadSplit):
            generate_dataset(tmp_path, layout={1: 1}, split=(0.5, 0.5, 0.5))
        with pytest.raises(BadSpeakerCount):
            generate_dataset(tmp_path, layout={5: 1})

    def test_unwritable_target_raises_io_error(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("file, not a directory")
        with pytest.raises(IoError):
            generate_dataset(blocker / "tree", layout={1: 1}, seed=0)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mixture_counting_local_synth_calls(*args, **kwargs):
    """generate_mixture's result and the synth_utterance calls made in this
    process; a rebound name also shows that workers look it up at call time."""
    calls = []
    real = corpus.synth_utterance

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)

    corpus.synth_utterance = counted
    try:
        buf, turns = generate_mixture(*args, **kwargs)
    finally:
        corpus.synth_utterance = real
    return buf, turns, len(calls)


def _mapped(fn, jobs):
    with corpus._map_in_workers(fn, jobs) as results:
        return list(results)


class TestWorkerPool:
    def test_tree_equals_a_file_by_file_rebuild(self, tmp_path):
        # The per-file seeds that generate_dataset documents.
        seed, layout = 13, {0: 2, 1: 2, 3: 3}
        manifest = generate_dataset(tmp_path / "tree", layout=layout, seed=seed)
        assert multiprocessing.active_children() == []
        pool = default_profile_pool()
        rebuilt = tmp_path / "rebuilt"
        rebuilt.mkdir()
        for e in manifest.entries:
            idx = int(e.path.rsplit("_", 1)[1].removesuffix(".wav"))
            file_rng = np.random.default_rng(np.random.SeedSequence([seed, e.folder, idx, 0]))
            duration = float(file_rng.uniform(15.0, 45.0))
            picks = [] if e.folder == 0 else [
                int(i) for i in file_rng.choice(len(pool), size=e.folder, replace=False)
            ]
            buf, turns = generate_mixture(
                e.folder,
                duration,
                seed=np.random.SeedSequence([seed, e.folder, idx, 1]),
                profiles=[pool[i] for i in picks] if picks else None,
                speaker_ids=[f"p{i}" for i in picks] if picks else None,
                file_id=f"{e.folder}_{idx:03d}",
            )
            write_wav(rebuilt / "file.wav", buf)
            assert (tmp_path / "tree" / e.path).read_bytes() == (rebuilt / "file.wav").read_bytes()
            assert (tmp_path / "tree" / e.rttm_path).read_text(encoding="utf-8") == emit_rttm(turns)
            assert e.speaker_ids == tuple(f"p{i}" for i in picks)
        assert manifest.folder_counts() == layout

    def test_long_mixture_equals_the_same_call_inside_a_worker(self):
        buf, turns, calls = _mixture_counting_local_synth_calls(4, 120.0, seed=7)
        assert sum(t.duration_s for t in turns) >= corpus._FORK_MIN_SPEECH_S
        assert calls == (0 if _usable_cores() >= 2 else len(turns))
        assert multiprocessing.active_children() == []

        # Inside a multiprocessing child the helper runs inline.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as ex:
            job = ex.submit(_mixture_counting_local_synth_calls, 4, 120.0, seed=7)
            w_buf, w_turns, w_calls = job.result(timeout=300)
        assert w_calls == len(w_turns)
        assert np.array_equal(buf.samples, w_buf.samples)
        assert turns == w_turns
        assert multiprocessing.active_children() == []

    def test_short_mixture_runs_inline(self):
        _, turns, calls = _mixture_counting_local_synth_calls(2, 20.0, seed=1)
        assert calls == len(turns)

    def test_workers_never_outnumber_usable_cores_or_jobs(self, monkeypatch):
        started = []
        real = ProcessPoolExecutor.__init__

        def spy(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            real(self, max_workers, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
        jobs = [(i + 3, i) for i in range(7)]
        want = [math.comb(*job) for job in jobs]
        assert _mapped(math.comb, jobs) == want
        assert _mapped(math.comb, jobs[:1]) == want[:1]
        assert _mapped(math.comb, []) == []
        assert started == ([min(_usable_cores(), 7)] if _usable_cores() >= 2 else [])
        assert multiprocessing.active_children() == []

    def test_runs_inline_beside_other_threads_and_without_fork(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_pool)
        jobs = [(i + 3, i) for i in range(7)]
        want = [math.comb(*job) for job in jobs]
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert _mapped(math.comb, jobs) == want
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _mapped(math.comb, jobs) == want

    def test_jobs_start_on_entry_and_run_inline_only_when_read(self, monkeypatch):
        started = []
        real = ProcessPoolExecutor.__init__

        def spy(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            real(self, max_workers, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
        monkeypatch.setattr(corpus, "_usable_cores", lambda: 2)
        jobs = [(i + 3, i) for i in range(5)]
        with corpus._map_in_workers(math.comb, jobs) as results:
            assert started == [2]
            assert next(results) == math.comb(*jobs[0])
        assert multiprocessing.active_children() == []

        calls = []

        def counted(n, k):
            calls.append((n, k))
            return math.comb(n, k)

        monkeypatch.setattr(corpus, "_usable_cores", lambda: 1)
        with corpus._map_in_workers(counted, jobs) as results:
            assert calls == []
            assert next(results) == math.comb(*jobs[0])
            assert calls == jobs[:1]
        assert started == [2]

    def test_forked_mixture_adds_each_utterance_as_it_arrives(self, monkeypatch):
        # While the turns are added, the process holds the float64 mix and
        # a few utterances. All of them together are 41 % of the mix's bytes.
        monkeypatch.setattr(corpus, "_usable_cores", lambda: 2)
        held = []
        real_turn = corpus.Turn

        def turn(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_turn(*args, **kwargs)

        monkeypatch.setattr(corpus, "Turn", turn)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            buf, turns = generate_mixture(2, 90.0, overlap_fraction=0.0, seed=3)
        finally:
            tracemalloc.stop()
        assert sum(t.duration_s for t in turns) >= corpus._FORK_MIN_SPEECH_S
        mix_bytes = 8 * len(buf)
        assert max(held) - before <= 1.2 * mix_bytes

    def test_a_write_error_in_a_worker_raises_io_error(self, tmp_path):
        (tmp_path / "tree" / "1" / "1_001.wav").mkdir(parents=True)
        with pytest.raises(IoError):
            generate_dataset(tmp_path / "tree", layout={1: 3}, seed=0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("overlap", [0.5, -0.1, float("nan")])
    def test_bad_overlap_is_rejected_before_anything_is_written(self, tmp_path, overlap):
        with pytest.raises(ValueError):
            generate_dataset(tmp_path / "out", layout={0: 1, 2: 1}, overlap_fraction=overlap)
        assert not (tmp_path / "out").exists()
