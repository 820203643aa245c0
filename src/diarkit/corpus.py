"""Synthetic conversation corpus with exact ground-truth annotations.

Voices are harmonic sources shaped by formant resonances, so no
recorded speech is needed: every file's speaker turns are known to the
millisecond, and the whole tree regenerates bit-identically from one
seed.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import starmap
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it lazily: load it here, not in a command

from .audio_io import AudioBuffer, Turn, _usable_cores, emit_rttm, write_wav
from .errors import BadSpeakerCount, BadSplit, IoError, TooShort

RATE = 16_000
DEFAULT_LAYOUT = {0: 60, 1: 58, 2: 51, 3: 50, 4: 50}
DEFAULT_SPLIT = (0.7, 0.2, 0.1)
SPLIT_NAMES = ("train", "val", "test")

# Conversation scheduling constants (seconds).
TURN_LO, TURN_HI = 2.0, 4.5
TURN_FLOOR = 0.5
PAUSE_LO, PAUSE_HI = 0.3, 0.9
LEAD_LO, LEAD_HI = 0.5, 1.0
BED_NOISE_RMS = 1e-3  # -60 dBFS behind speech
MAX_HARMONIC_HZ = 3600.0
_SYNTH_BLOCK = 8192  # samples per block of the harmonic recurrence
# Speech seconds from which a mixture synthesises its turns in workers:
# starting them costs about as much as 10 s of synthesis.
_FORK_MIN_SPEECH_S = 60.0


@dataclass(frozen=True)
class SpeakerProfile:
    """Parameters of one synthetic voice.

    ``formants`` holds three (center_hz, bandwidth_hz) pairs with
    ascending centers.
    """

    f0_hz: float
    formants: tuple[tuple[float, float], ...]
    harmonic_tilt_db_per_octave: float
    seed: int

    def __post_init__(self) -> None:
        if not 90.0 <= self.f0_hz <= 280.0:
            raise ValueError("f0_hz must lie in [90, 280]")
        if len(self.formants) != 3:
            raise ValueError("exactly three formants required")
        centers = [f for f, _ in self.formants]
        if sorted(centers) != centers or len(set(centers)) != 3:
            raise ValueError("formant centers must be strictly ascending")
        if any(bw <= 0 for _, bw in self.formants):
            raise ValueError("formant bandwidths must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def default_profile_pool() -> list[SpeakerProfile]:
    """The fixed pool of 24 voices used for corpus generation."""
    pool = []
    for i in range(24):
        f1 = 320.0 + 130.0 * (i % 4)
        f2 = 1100.0 + 400.0 * ((i // 4) % 4) + 50.0 * (i % 2)
        f3 = 2500.0 + 400.0 * (i % 3)
        pool.append(
            SpeakerProfile(
                f0_hz=92.0 + 8.0 * i,
                formants=(
                    (f1, 80.0 + 30.0 * (i % 3)),
                    (f2, 120.0 + 40.0 * ((i + 1) % 3)),
                    (f3, 200.0 + 50.0 * (i % 2)),
                ),
                harmonic_tilt_db_per_octave=-12.0 + 2.0 * (i % 5),
                seed=1000 + i,
            )
        )
    return pool


def _formant_weight(freqs: np.ndarray, profile: SpeakerProfile) -> np.ndarray:
    w = np.full(freqs.shape, 0.05)
    for center, bw in profile.formants:
        w = w + 1.0 / (1.0 + ((freqs - center) / bw) ** 2)
    return w


def synth_utterance(profile: SpeakerProfile, duration_s: float, seed: int) -> AudioBuffer:
    """One continuous stretch of voiced speech, deterministic per seed.

    Raises TooShort below 0.5 s.
    """
    if duration_s < 0.5:
        raise TooShort(f"utterance needs >= 0.5 s, got {duration_s}")
    rng = np.random.default_rng(np.random.SeedSequence([profile.seed, abs(int(seed))]))
    n = int(round(duration_s * RATE))

    # Slow +-3% wander of the fundamental. The f0 track and its phase are
    # built in one array, in the order f0 * (1 + 0.03 * wander) and
    # 2 * pi * cumsum / RATE would compute them.
    n_ctrl = max(int(math.ceil(duration_s * 25.0)) + 2, 4)
    ctrl = np.clip(rng.normal(scale=0.5, size=n_ctrl), -1.0, 1.0)
    ctrl_t = np.linspace(0.0, duration_s, n_ctrl)
    phase = np.interp(np.arange(n) / RATE, ctrl_t, ctrl)
    phase *= 0.03
    phase += 1.0
    phase *= profile.f0_hz
    np.cumsum(phase, out=phase)
    phase *= 2.0 * np.pi
    phase /= RATE

    n_harm = max(1, int(MAX_HARMONIC_HZ / profile.f0_hz))
    k = np.arange(1, n_harm + 1)
    tilt_gain = 10.0 ** (profile.harmonic_tilt_db_per_octave * np.log2(k) / 20.0)
    amps = _formant_weight(k * profile.f0_hz, profile) * tilt_gain
    phases0 = rng.uniform(0.0, 2.0 * np.pi, size=n_harm)

    # Harmonic i is imag(base**i * rot[i]) with base = exp(1j * phase),
    # built by repeated multiplication. Blocks of samples keep the
    # complex buffers in cache; each sample sees the same operations.
    rot = np.exp(1j * phases0)
    voiced = np.zeros(n)
    m = min(n, _SYNTH_BLOCK)
    complex_bufs, term = np.empty((3, m), dtype=np.complex128), np.empty(m)
    for a in range(0, n, m):
        b = min(m, n - a)
        base, cur, rotated = complex_bufs[:, :b]
        term_b, voiced_b = term[:b], voiced[a : a + b]
        np.multiply(1j, phase[a : a + b], out=base)
        np.exp(base, out=base)
        cur[:] = 1.0
        for i in range(n_harm):
            np.multiply(cur, base, out=cur)
            np.multiply(cur, rot[i], out=rotated)
            np.multiply(amps[i], rotated.imag, out=term_b)
            voiced_b += term_b
    del phase, complex_bufs, term, base, cur, rotated, term_b
    voiced /= max(np.sqrt(np.mean(voiced**2)), 1e-12)

    # Syllabic amplitude modulation with inter-syllable dips, in place;
    # IEEE + and * commute, so each sample equals the textbook
    # 0.25 + 0.75 * (0.5 + 0.5 * sin(2 pi rate t + phase)) ** 1.5.
    syl_rate = rng.uniform(3.0, 5.0)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    env = np.sin(np.arange(n) / RATE * (2.0 * np.pi * syl_rate) + am_phase)
    env *= 0.5
    env += 0.5
    env **= 1.5
    env *= 0.75
    env += 0.25

    # (voiced + 0.04 * noise) * env
    x = rng.standard_normal(n)
    x *= 0.04
    x += voiced
    x *= env
    del voiced, env
    x *= 0.1 / max(np.sqrt(np.mean(x**2)), 1e-12)
    return AudioBuffer(samples=x.astype(np.float32), sample_rate_hz=RATE)


def _synth(profile: SpeakerProfile, duration_s: float, seed: int) -> AudioBuffer:
    # Looks synth_utterance up at call time, so a rebound name is used
    # and nothing is pickled by a name that no longer binds it.
    return synth_utterance(profile, duration_s, seed=seed)


def _map_in_workers(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, computed in forked worker processes.

    ``fn`` must be a module-level function. One worker starts per usable
    core, at most one per job, and all of them have exited on return.
    The call runs inline when fewer than two workers would start, where
    ``fork`` is unavailable, inside a multiprocessing child, and while
    other threads are alive, since a forked copy of a threaded process
    can inherit a lock that no thread will release.
    """
    workers = min(_usable_cores(), len(jobs))
    if workers >= 2 and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if (
            multiprocessing.parent_process() is None
            and "fork" in multiprocessing.get_all_start_methods()
        ):
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(fn, *zip(*jobs)))
            finally:
                pool.shutdown(cancel_futures=True)
    return list(starmap(fn, jobs))


def _schedule_turns(n_speakers, duration_s, overlap_fraction, rng):
    """Round-robin turn schedule; every speaker talks at least once.

    Times are quantized to 1 ms so the RTTM round trip is exact.
    """
    t_max = duration_s - min(rng.uniform(LEAD_LO, LEAD_HI), 0.1 * duration_s)
    queue = [int(s) for s in rng.permutation(n_speakers)]
    schedule = []
    prev_off = None
    prev_len = None
    last_spk = None
    while True:
        if queue:
            spk = queue.pop(0)
        else:
            others = [s for s in range(n_speakers) if s != last_spk]
            spk = int(rng.choice(others)) if others else last_spk

        if prev_off is None:
            onset = min(rng.uniform(LEAD_LO, LEAD_HI), 0.1 * duration_s)
        elif overlap_fraction > 0 and rng.random() < 2.0 * overlap_fraction:
            back = min(rng.uniform(0.2, 0.7), 0.4 * prev_len)
            onset = max(0.0, prev_off - back)
        else:
            # Keep enough room for the speakers still waiting.
            need = len(queue) * (TURN_FLOOR + PAUSE_LO) + TURN_FLOOR
            pause_cap = max(0.05, t_max - prev_off - need)
            onset = prev_off + min(rng.uniform(PAUSE_LO, PAUSE_HI), pause_cap)

        reserve = len(queue) * (TURN_FLOOR + PAUSE_LO)
        cap = t_max - onset - reserve
        length = min(rng.uniform(TURN_LO, TURN_HI), max(cap, TURN_FLOOR))
        offset = min(onset + length, duration_s)
        if offset - onset >= TURN_FLOOR - 1e-9:
            onset_q = round(onset, 3)
            offset_q = round(offset, 3)
            schedule.append((spk, onset_q, offset_q))
            prev_off = offset_q
            prev_len = offset_q - onset_q
            last_spk = spk
        if not queue and (prev_off is None or prev_off + PAUSE_LO + TURN_LO > t_max):
            break
        if prev_off is not None and prev_off >= duration_s - TURN_FLOOR:
            break
    return schedule


def generate_mixture(
    n_speakers: int,
    duration_s: float,
    overlap_fraction: float = 0.1,
    seed=0,
    profiles: list[SpeakerProfile] | None = None,
    speaker_ids: list[str] | None = None,
    file_id: str = "mix",
) -> tuple[AudioBuffer, list[Turn]]:
    """A multi-speaker conversation and its exact reference turns.

    Zero speakers yields low-level white noise and no turns. Once the
    turns hold 60 s of speech or more, they are synthesised on every
    usable core; the samples are the same as from one core. Raises
    BadSpeakerCount outside 0..4 and TooShort below 4 s with speakers.
    """
    if not 0 <= n_speakers <= 4:
        raise BadSpeakerCount(f"n_speakers must be 0..4, got {n_speakers}")
    if not 0.0 <= overlap_fraction <= 0.3:
        raise ValueError("overlap_fraction must lie in [0, 0.3]")
    if n_speakers >= 1 and duration_s < 4.0:
        raise TooShort("mixtures with speakers need >= 4 s")
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")

    rng = np.random.default_rng(seed)
    n = int(round(duration_s * RATE))

    if n_speakers == 0:
        level = 10.0 ** (rng.uniform(-40.0, -30.0) / 20.0)
        x = rng.standard_normal(n) * level
        return AudioBuffer(samples=x.astype(np.float32), sample_rate_hz=RATE), []

    if profiles is None:
        pool = default_profile_pool()
        picks = rng.choice(len(pool), size=n_speakers, replace=False)
        profiles = [pool[int(i)] for i in picks]
        if speaker_ids is None:
            speaker_ids = [f"p{int(i)}" for i in picks]
    if len(profiles) != n_speakers:
        raise ValueError("profiles must match n_speakers")
    if speaker_ids is None:
        speaker_ids = [f"s{i}" for i in range(n_speakers)]

    schedule = _schedule_turns(n_speakers, duration_s, overlap_fraction, rng)

    x = rng.standard_normal(n) * BED_NOISE_RMS
    jobs = [
        (profiles[spk], offset - onset, int(rng.integers(0, 2**31)))
        for spk, onset, offset in schedule
    ]
    if sum(job[1] for job in jobs) >= _FORK_MIN_SPEECH_S:
        utts = _map_in_workers(_synth, jobs)
    else:
        utts = starmap(_synth, jobs)
    turns = []
    for (spk, onset, offset), utt in zip(schedule, utts):
        start = int(round(onset * RATE))
        stop = min(start + len(utt), n)
        x[start:stop] += utt.samples[: stop - start].astype(np.float64)
        turns.append(
            Turn(
                file_id=file_id,
                speaker_id=speaker_ids[spk],
                onset_s=onset,
                duration_s=round(offset - onset, 3),
            )
        )

    # Free the utterances and read max |x| without an |x| copy before the
    # float32 copy below: an hour's x alone is 460 MB.
    del utts
    peak = max(x.max(), -x.min())
    if peak > 0.97:
        x *= 0.97 / peak
    buf = AudioBuffer(samples=x.astype(np.float32), sample_rate_hz=RATE)
    return buf, sorted(turns, key=lambda t: (t.onset_s, t.speaker_id))


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    folder: int
    duration_s: float
    speaker_ids: tuple[str, ...]
    rttm_path: str
    split: str


@dataclass(frozen=True)
class CorpusManifest:
    """Index of one generated corpus tree, ordered by file path."""

    entries: tuple[ManifestEntry, ...]
    seed: int

    def folder_counts(self) -> Counter[int]:
        return Counter(e.folder for e in self.entries)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "entries": [asdict(e) for e in self.entries]}

    def save(self, path) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise IoError(str(exc)) from exc

    @classmethod
    def load(cls, path) -> "CorpusManifest":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise IoError(str(exc)) from exc
        entries = tuple(
            ManifestEntry(
                path=e["path"],
                folder=int(e["folder"]),
                duration_s=float(e["duration_s"]),
                speaker_ids=tuple(e["speaker_ids"]),
                rttm_path=e["rttm_path"],
                split=e["split"],
            )
            for e in raw["entries"]
        )
        return cls(entries=entries, seed=int(raw["seed"]))


def split_counts(total: int, split=DEFAULT_SPLIT) -> tuple[int, int, int]:
    """Largest-remainder apportionment; ties break train > val > test."""
    base = [int(math.floor(total * f)) for f in split]
    # Quantized so float noise cannot break an intended tie.
    remainders = [round(total * f - b, 9) for f, b in zip(split, base)]
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in range(total - sum(base)):
        base[order[i % 3]] += 1
    return tuple(base)


def _write_file(
    out_dir: Path, seed: int, overlap_fraction: float, folder: int, idx: int, part: str
) -> ManifestEntry:
    """Generate file ``idx`` of ``folder``, write its WAV and RTTM, and index it."""
    file_rng = np.random.default_rng(np.random.SeedSequence([seed, folder, idx, 0]))
    duration = float(file_rng.uniform(15.0, 45.0))
    file_id = f"{folder}_{idx:03d}"
    if folder == 0:
        picks, profiles, ids = [], None, None
    else:
        pool = default_profile_pool()
        picks = [int(i) for i in file_rng.choice(len(pool), size=folder, replace=False)]
        profiles = [pool[i] for i in picks]
        ids = [f"p{i}" for i in picks]
    buf, turns = generate_mixture(
        n_speakers=folder,
        duration_s=duration,
        overlap_fraction=overlap_fraction,
        seed=np.random.SeedSequence([seed, folder, idx, 1]),
        profiles=profiles,
        speaker_ids=ids,
        file_id=file_id,
    )
    folder_dir = out_dir / str(folder)
    write_wav(folder_dir / f"{file_id}.wav", buf)
    with open(folder_dir / f"{file_id}.rttm", "w", encoding="utf-8") as fh:
        fh.write(emit_rttm(turns))
    return ManifestEntry(
        path=f"{folder}/{file_id}.wav",
        folder=folder,
        duration_s=round(len(buf) / RATE, 3),
        speaker_ids=tuple(f"p{i}" for i in picks),
        rttm_path=f"{folder}/{file_id}.rttm",
        split=part,
    )


def generate_dataset(
    out_dir,
    layout: dict[int, int] | None = None,
    split=DEFAULT_SPLIT,
    seed: int = 0,
    overlap_fraction: float = 0.1,
) -> CorpusManifest:
    """Write the WAV + RTTM corpus tree and its manifest.

    Layout maps folder index (= speaker count) to file count. File
    ``idx`` of ``folder`` draws its length and voices from
    ``SeedSequence([seed, folder, idx, 0])`` and its mixture from
    ``SeedSequence([seed, folder, idx, 1])``, so the tree is
    byte-identical across runs and machines. Files are generated on
    every usable core; the tree does not depend on how many there are.

    Raises BadSplit on malformed fractions, BadSpeakerCount on folder
    indices above 4, ValueError on a negative seed or an overlap fraction
    outside [0, 0.3], and IoError on filesystem failures; nothing is
    written before the arguments are checked.
    """
    layout = dict(DEFAULT_LAYOUT) if layout is None else dict(layout)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if len(split) != 3 or any(f < 0 for f in split) or abs(sum(split) - 1.0) > 1e-9:
        raise BadSplit(f"split must be three fractions summing to 1, got {split}")
    for folder, count in layout.items():
        if not 0 <= folder <= 4:
            raise BadSpeakerCount(f"folder index {folder} outside 0..4")
        if count < 0:
            raise ValueError("file counts must be >= 0")
    if not 0.0 <= overlap_fraction <= 0.3:
        raise ValueError("overlap_fraction must lie in [0, 0.3]")

    out_dir = Path(out_dir)
    jobs = []
    for folder in sorted(layout):
        n_train, n_val, _ = split_counts(layout[folder], split)
        for idx in range(layout[folder]):
            part = "train" if idx < n_train else "val" if idx < n_train + n_val else "test"
            jobs.append((out_dir, seed, overlap_fraction, folder, idx, part))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for folder in sorted(f for f, count in layout.items() if count):
            (out_dir / str(folder)).mkdir(exist_ok=True)
        entries = _map_in_workers(_write_file, jobs)
    except OSError as exc:
        raise IoError(str(exc)) from exc

    entries.sort(key=lambda e: e.path)
    manifest = CorpusManifest(entries=tuple(entries), seed=seed)
    manifest.save(out_dir / "manifest.json")
    return manifest
