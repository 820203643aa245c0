"""The benchmark's four workloads: how each input set is generated and
which ``diarkit`` CLI steps run on it.

``generate(workload, seed)`` runs in a child process with the package
importable and the input-set directory as its working directory. It
writes the inputs under ``in/`` and returns a plan that the parent and
the step children follow without importing the package:

- ``recording_s``: seconds of recording the steps cover (the rtf base);
- ``steps``: argv lists for ``diarkit.cli.main``, run in order;
- ``out_dirs``: directories the steps write into, emptied before each
  timed iteration;
- ``pairs``: scored (reference, hypothesis, report) triples with the
  audio duration, the speaker limit of a k-known run and the collar;
- ``unscored``: hypotheses that are checked but have no reference
  speech to score against;
- ``audio``: program-written WAVs with their expected duration;
- ``probes``: known-defect probes, run untimed after the checks.

All paths are relative to the input-set directory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Every run also processes this fixed input set; DER and JER are read
# from it (see README.md).
ANCHOR_SEED = 0

# The default layout's proportions (60/58/51/50/50) scaled to 54 files.
CORPUS_LAYOUT = {0: 12, 1: 12, 2: 10, 3: 10, 4: 10}

# score_hour reference statistics: the corpus scheduler's turn and pause
# ranges, 4 speakers, 10 % overlap, one hour.
HOUR_S = 3600.0
HOUR_SPEAKERS = 4
TURN_S = (2.0, 4.5)
PAUSE_S = (0.3, 0.9)
OVERLAP_FRACTION = 0.1
# Hypothesis perturbation: exact shares of split and relabelled turns,
# so the scored error does not swing with the seed.
JITTER_S = 0.15
SPLIT_SHARE = 0.2
RELABEL_SHARE = 0.1

# With 30 s clips one augment_denoise run took about 48 s on a 2-core
# machine, more than the run budget affords next to 15 s of timing.
CLIP_S = 20.0
AUGMENT_ARGS = [
    "--speed", "1.1", "--semitones", "2", "--intensity", "0.1", "--kind", "babble",
]
SPEED = 1.1


def _pair(file_id, ref, hyp, report, duration_s, max_speakers=None, collar=0.0, pooled=True):
    return {
        "file_id": file_id,
        "ref": ref,
        "hyp": hyp,
        "report": report,
        "duration_s": duration_s,
        "max_speakers": max_speakers,
        "collar": collar,
        "pooled": pooled,
    }


def _plan(recording_s, steps, out_dirs, pairs, unscored=(), audio=(), probes=()):
    return {
        "recording_s": recording_s,
        "steps": steps,
        "out_dirs": out_dirs,
        "pairs": pairs,
        "unscored": unscored,
        "audio": audio,
        "probes": probes,
    }


def _write_mixture(n_speakers, duration_s, seed, file_id):
    from diarkit import emit_rttm, generate_mixture, write_wav

    buf, turns = generate_mixture(
        n_speakers, duration_s, overlap_fraction=OVERLAP_FRACTION, seed=seed, file_id=file_id
    )
    write_wav(f"in/{file_id}.wav", buf)
    Path(f"in/{file_id}.rttm").write_text(emit_rttm(turns), encoding="utf-8")
    return len(buf) / buf.sample_rate_hz


def _gen_meeting_15min(seed):
    duration = _write_mixture(4, 900.0, seed, "meeting")
    return _plan(
        duration,
        steps=[
            ["diarize", "in/meeting.wav", "--num-speakers", "4", "--jobs", "1",
             "--out-rttm", "out/meeting.rttm"],
            ["evaluate", "--ref", "in/meeting.rttm", "--hyp", "out/meeting.rttm",
             "--json", "out/meeting.json"],
        ],
        out_dirs=["out"],
        pairs=[
            _pair("meeting", "in/meeting.rttm", "out/meeting.rttm", "out/meeting.json",
                  duration, max_speakers=4)
        ],
    )


def _gen_corpus_batch(seed):
    from diarkit import generate_dataset

    manifest = generate_dataset("in", layout=CORPUS_LAYOUT, seed=seed)
    steps = [["diarize", "in/manifest.json", "--jobs", "1", "--out-dir", "out/hyp"]]
    pairs, unscored, noise_steps = [], [], []
    for entry in manifest.entries:
        stem = Path(entry.path).stem
        hyp = f"out/hyp/{stem}.rttm"
        if entry.folder == 0:
            # No reference speech: `evaluate` exits 4 on these today, so
            # they are a known-defect probe rather than timed steps.
            unscored.append({"file_id": stem, "hyp": hyp, "duration_s": entry.duration_s})
            noise_steps.append(
                ["evaluate", "--ref", f"in/{entry.rttm_path}", "--hyp", hyp,
                 "--json", f"out/probe/{stem}.json"]
            )
            continue
        report = f"out/eval/{stem}.json"
        steps.append(["evaluate", "--ref", f"in/{entry.rttm_path}", "--hyp", hyp,
                      "--json", report])
        pairs.append(_pair(stem, f"in/{entry.rttm_path}", hyp, report, entry.duration_s))
    return _plan(
        sum(e.duration_s for e in manifest.entries),
        steps,
        out_dirs=["out/hyp", "out/eval"],
        pairs=pairs,
        unscored=unscored,
        probes=[
            {
                "name": "default_hyp_dir",
                "known": "exits 4 (ROADMAP item 2): hyp/ inside the reference tree "
                         "shadows the references and noise-only files abort",
                "steps": [
                    ["diarize", "in/manifest.json", "--jobs", "1"],
                    ["evaluate", "--ref", "in", "--hyp", "in/hyp",
                     "--json", "out/probe/default_hyp_dir.json"],
                ],
                "report": "out/probe/default_hyp_dir.json",
            },
            {
                "name": "noise_only_evaluate",
                "known": "exits 4 (ROADMAP item 2): a file with no reference speech "
                         "cannot be scored",
                "steps": noise_steps,
                "report": None,
            },
        ],
    )


def _schedule(rng):
    """Round-robin turns with the corpus scheduler's statistics, on a 1 ms grid."""
    turns = []
    last_spk, prev_off, prev_len = None, None, None
    while True:
        spk = int(rng.choice([s for s in range(HOUR_SPEAKERS) if s != last_spk]))
        if prev_off is None:
            onset = rng.uniform(0.5, 1.0)
        elif rng.random() < 2.0 * OVERLAP_FRACTION:
            onset = max(0.0, prev_off - min(rng.uniform(0.2, 0.7), 0.4 * prev_len))
        else:
            onset = prev_off + rng.uniform(*PAUSE_S)
        offset = onset + rng.uniform(*TURN_S)
        if offset > HOUR_S - 0.5:
            return turns
        onset, offset = round(onset, 3), round(offset, 3)
        turns.append((f"s{spk}", onset, offset))
        last_spk, prev_off, prev_len = spk, offset, offset - onset


def _perturb(ref, rng):
    """Jitter every boundary, split and relabel exact shares of turns, and
    rename the speakers, as a diarization system's errors would."""
    n = len(ref)
    order = rng.permutation(n)
    n_split, n_relabel = round(SPLIT_SHARE * n), round(RELABEL_SHARE * n)
    split = set(order[:n_split].tolist())
    relabel = set(order[n_split : n_split + n_relabel].tolist())
    speakers = sorted({s for s, _, _ in ref})
    names = dict(zip(speakers, (f"spk{c}" for c in rng.permutation(len(speakers)))))
    hyp = []
    for i, (spk, on, off) in enumerate(ref):
        on = max(0.0, on + rng.uniform(-JITTER_S, JITTER_S))
        off = max(on + 0.2, off + rng.uniform(-JITTER_S, JITTER_S))
        if i in relabel:
            spk = speakers[(speakers.index(spk) + int(rng.integers(1, len(speakers)))) % len(speakers)]
        if i in split:
            cut = on + (off - on) * rng.uniform(0.3, 0.7)
            pieces = [(on, cut - 0.05), (cut + 0.05, off)]
        else:
            pieces = [(on, off)]
        hyp.extend((names[spk], round(a, 3), round(b, 3)) for a, b in pieces)
    return sorted(hyp, key=lambda t: (t[1], t[0]))


def _rttm(file_id, turns):
    return "".join(
        f"SPEAKER {file_id} 1 {on:.3f} {off - on:.3f} <NA> <NA> {spk} <NA> <NA>\n"
        for spk, on, off in turns
    )


def _gen_score_hour(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3600]))
    ref = _schedule(rng)
    hyp = _perturb(ref, rng)
    Path("in/hour.rttm").write_text(_rttm("hour", ref), encoding="utf-8")
    Path("in/hour_hyp.rttm").write_text(_rttm("hour", hyp), encoding="utf-8")
    steps, pairs = [], []
    for collar, tag in ((0.0, "c0"), (0.25, "c25")):
        report = f"out/{tag}.json"
        steps.append(["evaluate", "--ref", "in/hour.rttm", "--hyp", "in/hour_hyp.rttm",
                      "--collar", str(collar), "--json", report])
        pairs.append(_pair("hour", "in/hour.rttm", "in/hour_hyp.rttm", report, HOUR_S,
                           collar=collar, pooled=collar == 0.0))
    return _plan(HOUR_S, steps, out_dirs=["out"], pairs=pairs)


def _gen_augment_denoise(seed):
    steps, pairs, audio, total = [], [], [], 0.0
    for k in (2, 3):
        clip = f"clip{k}"
        duration = _write_mixture(k, CLIP_S, np.random.SeedSequence([seed, k]), clip)
        total += duration
        aug_s = round(duration * 16000 / SPEED) / 16000
        steps += [
            ["augment", f"in/{clip}.wav", f"out/aug/{clip}.wav", *AUGMENT_ARGS,
             "--seed", str(seed), "--rttm", f"in/{clip}.rttm"],
            ["diarize", f"out/aug/{clip}.wav", "--denoise", "--num-speakers", str(k),
             "--jobs", "1", "--out-rttm", f"out/hyp/{clip}.rttm"],
            ["evaluate", "--ref", f"out/aug/{clip}.rttm", "--hyp", f"out/hyp/{clip}.rttm",
             "--json", f"out/eval/{clip}.json"],
        ]
        pairs.append(_pair(clip, f"out/aug/{clip}.rttm", f"out/hyp/{clip}.rttm",
                           f"out/eval/{clip}.json", aug_s, max_speakers=k))
        audio.append({"path": f"out/aug/{clip}.wav", "duration_s": aug_s})
    _write_mixture(2, 8.0, np.random.SeedSequence([seed, 9]), "probe")
    return _plan(
        total,
        steps,
        out_dirs=["out/aug", "out/hyp", "out/eval"],
        pairs=pairs,
        audio=audio,
        probes=[
            {
                "name": "augment_new_stem",
                "known": "exits 3: rescale_turns keeps the input's file_id, so the "
                         "rescaled RTTM cannot pair with a hypothesis named after "
                         "the new stem",
                "steps": [
                    ["augment", "in/probe.wav", "out/probe/renamed.wav", "--speed", "1.1",
                     "--rttm", "in/probe.rttm"],
                    ["diarize", "out/probe/renamed.wav", "--num-speakers", "2", "--jobs", "1",
                     "--out-rttm", "out/probe/renamed_hyp.rttm"],
                    ["evaluate", "--ref", "out/probe/renamed.rttm",
                     "--hyp", "out/probe/renamed_hyp.rttm"],
                ],
                "report": None,
            }
        ],
    )


GENERATORS = {
    "meeting_15min": _gen_meeting_15min,
    "corpus_batch": _gen_corpus_batch,
    "score_hour": _gen_score_hour,
    "augment_denoise": _gen_augment_denoise,
}


def generate(workload: str, seed: int) -> dict:
    """Write ``in/`` for one input set in the working directory; return its plan."""
    Path("in").mkdir()
    return GENERATORS[workload](seed)
