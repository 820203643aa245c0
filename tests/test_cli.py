"""Command-line surface: exit codes, file outputs, and printed reports."""

import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import diarkit
import diarkit.augment
import diarkit.cli
import diarkit.embed
import diarkit.pipeline
from diarkit.audio_io import AudioBuffer, Turn, emit_rttm, parse_rttm, read_wav, write_wav
from diarkit.augment import add_noise
from diarkit.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PAIRING,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PipelineConfig,
    diarize_buffer,
    embed_segments,
    main,
)
from diarkit.corpus import CorpusManifest, generate_mixture
from diarkit.errors import RttmParseError
from diarkit.embed import MfccEmbedder, load_external_embeddings, write_embeddings
from diarkit.pipeline import training_arrays
from diarkit.preprocess import DenoiseParams
from diarkit.vad import Segment, energy_vad, uniform_segment

from oracles import spectral_gate_denoise_oracle


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """One noise-only file plus two 2-speaker mixtures, fixed seed."""
    root = tmp_path_factory.mktemp("clicorpus")
    rc = main(["corpus", str(root), "--layout", "0:1,2:2", "--seed", "5"])
    assert rc == EXIT_OK
    return root


@pytest.fixture(scope="module")
def mixture_wav(corpus_dir):
    return corpus_dir / "2" / "2_000.wav"


def _speaker_ids(rttm_text):
    return {line.split()[7] for line in rttm_text.splitlines() if line}


# --- exit codes ---


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_missing_required_argument_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--ref", "only-ref.rttm"])
    assert exc.value.code == EXIT_USAGE


def test_missing_input_file_exits_2(capsys):
    assert main(["diarize", "/nowhere/missing.wav"]) == EXIT_IO
    assert "missing.wav" in capsys.readouterr().err


def test_bad_config_value_exits_4(tmp_path, mixture_wav, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"cluster": {"threshold": -1.0}}))
    assert main(["diarize", str(mixture_wav), "--config", str(cfg)]) == EXIT_VALIDATION

    cfg.write_text(json.dumps({"clustering": {}}))
    assert main(["diarize", str(mixture_wav), "--config", str(cfg)]) == EXIT_VALIDATION
    assert "unknown config key" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, doc, flags",
    [
        ("diarize", {"train": {"bogus": 1}}, []),
        ("export-embeddings", {"train": {"bogus": 1}}, []),
        ("train-toy", {"train": {"bogus": 1}}, []),
        ("diarize", {"train": {"cosine_decay": True}}, []),
        ("diarize", {"train": [1]}, []),
        ("diarize", {"train": {"learning_rate": NAN}}, []),
        ("diarize", {"train": {"batch_size": True}}, []),
        ("diarize", [1], []),
        ("diarize", {"vad": {"threshold_db": "6"}}, []),
        ("diarize", {"vad": {"threshold_db": NAN}}, []),
        ("diarize", {"denoise": {"gate_threshold_db": NAN}}, []),
        ("diarize", {"denoise": {"gate_threshold_db": INF}}, []),
        ("diarize", {"embed": {"n_mels": 40.5}}, []),
        ("diarize", {"cluster": {"k": 2.5}}, []),
        ("diarize", {}, ["--threshold", "nan"]),
        ("diarize", {"denoise": {"enabled": "no"}}, []),
        ("diarize", {"denoise": {"enabled": 1}}, []),
    ],
)
def test_malformed_config_exits_4_before_any_audio_is_read(tmp_path, capsys, command, doc, flags):
    # The input does not exist, so a check made after opening it would exit 2.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    missing = str(tmp_path / "missing.wav")
    argv = {
        "diarize": ["diarize", missing],
        "export-embeddings": ["export-embeddings", missing, str(tmp_path / "out.bin")],
        "train-toy": ["train-toy", "--manifest", str(tmp_path / "missing.json")],
    }[command]
    assert main(argv + ["--config", str(cfg)] + flags) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def test_unmatched_reference_exits_3_and_names_it(tmp_path, capsys):
    ref_dir, hyp_dir = tmp_path / "ref", tmp_path / "hyp"
    ref_dir.mkdir()
    hyp_dir.mkdir()
    a = emit_rttm([Turn("a", "s0", 0.0, 1.0)])
    (ref_dir / "a.rttm").write_text(a)
    (ref_dir / "b.rttm").write_text(emit_rttm([Turn("b", "s0", 0.0, 1.0)]))
    (hyp_dir / "a.rttm").write_text(a)
    rc = main(["evaluate", "--ref", str(ref_dir), "--hyp", str(hyp_dir)])
    assert rc == EXIT_PAIRING
    assert "b" in capsys.readouterr().err


# --- evaluate ---


def test_evaluate_identity_is_a_fixed_point(tmp_path, capsys):
    rttm = tmp_path / "ref.rttm"
    rttm.write_text(
        emit_rttm(
            [
                Turn("rec", "A", 0.0, 5.0),
                Turn("rec", "B", 4.0, 6.0),
                Turn("rec", "A", 12.0, 2.0),
            ]
        )
    )
    assert main(["evaluate", "--ref", str(rttm), "--hyp", str(rttm)]) == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out[: out.rindex("}") + 1])
    assert report["der"]["der"] == 0.0
    assert report["jer"] == 0.0
    assert report["cluster_purity"] == 1.0
    assert "DER: 0.0%" in out


def test_evaluate_prints_worked_example_as_15_percent(tmp_path, capsys):
    # 5 s missed, 3 s spurious, 7 s to the wrong speaker, 100 s of speech.
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text(emit_rttm([Turn("rec", "A", 0.0, 100.0)]))
    hyp.write_text(
        emit_rttm(
            [
                Turn("rec", "A", 0.0, 85.0),
                Turn("rec", "B", 90.0, 7.0),
                Turn("rec", "A", 97.0, 6.0),
            ]
        )
    )
    assert main(["evaluate", "--ref", str(ref), "--hyp", str(hyp)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "DER: 15.0%" in out
    report = json.loads(out[: out.rindex("}") + 1])
    assert report["der"]["missed_s"] == pytest.approx(5.0, abs=1e-9)
    assert report["der"]["false_alarm_s"] == pytest.approx(3.0, abs=1e-9)
    assert report["der"]["confusion_s"] == pytest.approx(7.0, abs=1e-9)


def test_evaluate_json_flag_writes_report_file(tmp_path, capsys):
    rttm = tmp_path / "r.rttm"
    rttm.write_text(emit_rttm([Turn("rec", "A", 0.0, 10.0)]))
    out_json = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--ref", str(rttm), "--hyp", str(rttm), "--json", str(out_json)]
    )
    assert rc == EXIT_OK
    report = json.loads(out_json.read_text())
    assert report["der"]["total_ref_speech_s"] == pytest.approx(10.0)
    assert "DER: 0.0%" in capsys.readouterr().out


def _report(out):
    return json.loads(out[: out.rindex("}") + 1])


def test_evaluate_pools_a_noise_only_file_as_false_alarm(tmp_path, capsys):
    ref_dir, hyp_dir = tmp_path / "ref", tmp_path / "hyp"
    ref_dir.mkdir()
    hyp_dir.mkdir()
    (ref_dir / "noise.rttm").write_text("")
    (ref_dir / "talk.rttm").write_text(emit_rttm([Turn("talk", "A", 0.0, 10.0)]))
    # 2 s of X and 2 s of Y over silence: 4 s of false alarm.
    (hyp_dir / "noise.rttm").write_text(
        emit_rttm([Turn("noise", "X", 0.0, 2.0), Turn("noise", "Y", 1.0, 2.0)])
    )
    # 8 of A's 10 s found: 2 s missed.
    (hyp_dir / "talk.rttm").write_text(emit_rttm([Turn("talk", "X", 0.0, 8.0)]))
    assert main(["evaluate", "--ref", str(ref_dir), "--hyp", str(hyp_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    report = _report(out)
    assert report["der"]["missed_s"] == pytest.approx(2.0, abs=1e-9)
    assert report["der"]["false_alarm_s"] == pytest.approx(4.0, abs=1e-9)
    assert report["der"]["confusion_s"] == 0.0
    assert report["der"]["total_ref_speech_s"] == pytest.approx(10.0, abs=1e-9)
    assert report["der"]["der"] == pytest.approx(0.6, abs=1e-9)
    assert report["jer"] == pytest.approx(0.2, abs=1e-9)  # talk only: 1 - 8/10
    assert report["cluster_purity"] == pytest.approx(8.0 / 12.0, abs=1e-9)
    assert "DER: 60.0%" in out

    # With no reference speech in any file there is nothing to divide by.
    (ref_dir / "talk.rttm").unlink()
    (hyp_dir / "talk.rttm").unlink()
    assert main(["evaluate", "--ref", str(ref_dir), "--hyp", str(hyp_dir)]) == EXIT_VALIDATION
    assert "no scored speech" in capsys.readouterr().err


def test_evaluate_pools_purity_over_hypothesis_speech_per_speaker(tmp_path, capsys):
    ref_dir, hyp_dir = tmp_path / "ref", tmp_path / "hyp"
    ref_dir.mkdir()
    hyp_dir.mkdir()
    # a: X's two turns overlap each other, so X speaks for 10 s, not 12.
    (ref_dir / "a.rttm").write_text(emit_rttm([Turn("a", "A", 0.0, 10.0)]))
    (hyp_dir / "a.rttm").write_text(emit_rttm([Turn("a", "X", 0.0, 6.0), Turn("a", "X", 4.0, 6.0)]))
    # b: Y's 20 s hold 10 s of A and 10 s of B.
    (ref_dir / "b.rttm").write_text(
        emit_rttm([Turn("b", "A", 0.0, 10.0), Turn("b", "B", 10.0, 10.0)])
    )
    (hyp_dir / "b.rttm").write_text(emit_rttm([Turn("b", "Y", 0.0, 20.0)]))
    assert main(["evaluate", "--ref", str(ref_dir), "--hyp", str(hyp_dir)]) == EXIT_OK
    assert _report(capsys.readouterr().out)["cluster_purity"] == pytest.approx(20 / 30, abs=1e-12)


@pytest.mark.parametrize("collar", ["nan", "inf", "-0.5"])
def test_evaluate_rejects_a_collar_that_is_not_finite_or_is_negative(tmp_path, capsys, collar):
    rttm = tmp_path / "r.rttm"
    rttm.write_text(emit_rttm([Turn("rec", "A", 0.0, 10.0)]))
    argv = ["evaluate", "--ref", str(rttm), "--hyp", str(rttm), "--collar", collar]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "collar_s" in captured.err and "DER" not in captured.out


@pytest.mark.parametrize("side", ["ref", "hyp"])
@pytest.mark.parametrize(
    "value, field",
    [(v, f) for v in ("nan", "inf") for f in (3, 4)]
    + [(None, 5), ("LEXEME", 0), ("zero", 3), ("0.000", 4), ("-1.000", 3)],
)
def test_evaluate_rejects_a_time_that_is_not_finite(tmp_path, capsys, side, field, value):
    """A bad second line on either side exits 4 with parse_rttm's message:
    a time that is not finite, and (value None) a line cut before the
    field, a first field other than SPEAKER, a non-numeric onset, a zero
    duration, and a negative onset."""
    good = "SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>"
    fields = "SPEAKER rec 1 12.000 2.000 <NA> <NA> A <NA> <NA>".split()
    bad = " ".join(fields[:field] + ([] if value is None else [value, *fields[field + 1 :]]))
    with pytest.raises(RttmParseError) as parsed:
        parse_rttm(good + "\n" + bad + "\n")
    paths = {name: tmp_path / f"{name}.rttm" for name in ("ref", "hyp")}
    for name, path in paths.items():
        path.write_text(good + "\n" + (bad + "\n" if name == side else ""))
    argv = ["evaluate", "--ref", str(paths["ref"]), "--hyp", str(paths["hyp"])]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert str(parsed.value).startswith("line 2: ") and str(parsed.value) in captured.err
    assert "DER" not in captured.out


def test_evaluate_a_directory_rttm_naming_two_files_exits_4(tmp_path, capsys):
    ref_dir, hyp_dir = tmp_path / "ref", tmp_path / "hyp"
    ref_dir.mkdir()
    hyp_dir.mkdir()
    (ref_dir / "a.rttm").write_text(emit_rttm([Turn("a", "s0", 0.0, 1.0), Turn("b", "s0", 2.0, 1.0)]))
    (hyp_dir / "a.rttm").write_text(emit_rttm([Turn("a", "s0", 0.0, 1.0)]))
    assert main(["evaluate", "--ref", str(ref_dir), "--hyp", str(hyp_dir)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "error: turns span multiple files: ['a', 'b']" in captured.err
    assert "DER" not in captured.out


def test_evaluate_an_empty_single_file_takes_the_other_sides_file_id(corpus_dir, tmp_path, capsys):
    # An RTTM with no turns names no file, so it pairs with the one file
    # the other side names, as an empty file named after it does.
    ref = corpus_dir / "2" / "2_000.rttm"
    empty = tmp_path / "empty.rttm"
    empty.write_text("")
    assert main(["evaluate", "--ref", str(ref), "--hyp", str(empty)]) == EXIT_OK
    report = _report(capsys.readouterr().out)
    assert report["der"]["der"] == 1.0
    assert report["der"]["missed_s"] == pytest.approx(report["der"]["total_ref_speech_s"], abs=1e-9)
    assert report["der"]["total_ref_speech_s"] > 0
    assert report["jer"] == 1.0
    stem = tmp_path / "2_000.rttm"
    stem.write_text("")
    assert main(["evaluate", "--ref", str(ref), "--hyp", str(stem)]) == EXIT_OK
    assert _report(capsys.readouterr().out) == report

    # Two empty files pair, and have no reference speech to score.
    assert main(["evaluate", "--ref", str(empty), "--hyp", str(stem)]) == EXIT_VALIDATION
    assert "no scored speech" in capsys.readouterr().err


def test_evaluate_names_hypotheses_without_a_reference(tmp_path, capsys):
    ref_dir, hyp_dir = tmp_path / "ref", tmp_path / "hyp"
    ref_dir.mkdir()
    hyp_dir.mkdir()
    a = emit_rttm([Turn("a", "s0", 0.0, 1.0)])
    (ref_dir / "a.rttm").write_text(a)
    (hyp_dir / "a.rttm").write_text(a)
    (hyp_dir / "stray.rttm").write_text(emit_rttm([Turn("stray", "s0", 0.0, 1.0)]))
    assert main(["evaluate", "--ref", str(ref_dir), "--hyp", str(hyp_dir)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "stray" in captured.err
    assert "DER: 0.0%" in captured.out


def test_evaluate_on_the_default_layout_skips_the_hypothesis_tree(tmp_path, capsys):
    root = tmp_path / "corpus"
    assert main(["corpus", str(root), "--layout", "0:1,2:2", "--seed", "5"]) == EXIT_OK
    assert main(["diarize", str(root / "manifest.json"), "--num-speakers", "2"]) == EXIT_OK
    assert sorted(p.stem for p in (root / "hyp").glob("*.rttm")) == ["0_000", "2_000", "2_001"]
    capsys.readouterr()
    assert main(["evaluate", "--ref", str(root), "--hyp", str(root / "hyp")]) == EXIT_OK
    inside = _report(capsys.readouterr().out)

    outside = tmp_path / "hyp"
    shutil.move(root / "hyp", outside)
    assert main(["evaluate", "--ref", str(root), "--hyp", str(outside)]) == EXIT_OK
    moved = _report(capsys.readouterr().out)
    assert inside == moved
    assert inside["der"]["der"] > 0.0
    assert inside["der"]["false_alarm_s"] > 0.0


def test_evaluate_beside_a_manifest_skips_a_stale_default_hyp_tree(tmp_path, capsys, monkeypatch):
    """diarize's default hyp/ beside the manifest is no reference, even when
    --hyp names another directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["corpus", "c5", "--layout", "0:1,2:2,3:1", "--seed", "5"]) == EXIT_OK
    assert main(["diarize", "c5/manifest.json"]) == EXIT_OK
    assert main(["diarize", "c5/manifest.json", "--out-dir", "hypx"]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--ref", "c5", "--hyp", "hypx"]) == EXIT_OK
    stale = _report(capsys.readouterr().out)
    assert main(["evaluate", "--ref", "c5", "--hyp", "c5/hyp"]) == EXIT_OK
    assert stale == _report(capsys.readouterr().out)
    assert stale["der"]["der"] > 0.0


def test_evaluate_walk_with_a_duplicate_stem_exits_3(tmp_path, capsys):
    ref_dir, hyp_dir = tmp_path / "ref", tmp_path / "hyp"
    (ref_dir / "one").mkdir(parents=True)
    (ref_dir / "two").mkdir()
    hyp_dir.mkdir()
    a = emit_rttm([Turn("a", "s0", 0.0, 1.0)])
    (ref_dir / "one" / "a.rttm").write_text(a)
    (ref_dir / "two" / "a.rttm").write_text(a)
    (hyp_dir / "a.rttm").write_text(a)
    assert main(["evaluate", "--ref", str(ref_dir), "--hyp", str(hyp_dir)]) == EXIT_PAIRING
    err = capsys.readouterr().err
    assert str(ref_dir / "one" / "a.rttm") in err
    assert str(ref_dir / "two" / "a.rttm") in err


# --- corpus ---


def test_corpus_layout_and_message(corpus_dir, capsys):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert len(manifest["entries"]) == 3
    for entry in manifest["entries"]:
        assert (corpus_dir / entry["path"]).exists()
        assert (corpus_dir / entry["rttm_path"]).exists()


def test_corpus_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DIARKIT_SEED", "9")
    assert main(["corpus", str(tmp_path / "env"), "--layout", "1:1"]) == EXIT_OK
    monkeypatch.delenv("DIARKIT_SEED")
    assert main(["corpus", str(tmp_path / "flag"), "--layout", "1:1", "--seed", "9"]) == EXIT_OK
    env_wav = next((tmp_path / "env").glob("1/*.wav"))
    flag_wav = next((tmp_path / "flag").glob("1/*.wav"))
    assert env_wav.read_bytes() == flag_wav.read_bytes()


@pytest.mark.parametrize("overlap", ["0.5", "nan"])
def test_corpus_bad_overlap_exits_4_and_writes_nothing(tmp_path, capsys, overlap):
    out = tmp_path / "out"
    argv = ["corpus", str(out), "--layout", "0:1,2:1", "--overlap", overlap]
    assert main(argv) == EXIT_VALIDATION
    assert "overlap_fraction" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_negative_seed_exits_4_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["corpus", str(out), "--layout", "2:1", "--seed", "-1"]) == EXIT_VALIDATION
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


# --- diarize ---


def test_diarize_silence_gives_empty_rttm(corpus_dir, capsys):
    assert main(["diarize", str(corpus_dir / "0" / "0_000.wav")]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_diarize_known_k_yields_exactly_two_speakers(mixture_wav, tmp_path):
    out = tmp_path / "hyp.rttm"
    rc = main(["diarize", str(mixture_wav), "--num-speakers", "2", "--out-rttm", str(out)])
    assert rc == EXIT_OK
    turns = parse_rttm(out.read_text())
    assert turns
    assert len({t.speaker_id for t in turns}) == 2
    assert all(t.file_id == "2_000" for t in turns)


def test_diarize_writes_rttm_to_stdout_by_default(mixture_wav, capsys):
    assert main(["diarize", str(mixture_wav), "--num-speakers", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("SPEAKER 2_000 1 ")
    assert len(_speaker_ids(out)) == 2


def test_diarize_manifest_batch_covers_every_entry(corpus_dir, tmp_path, capsys):
    out_dir = tmp_path / "hyp"
    rc = main(
        ["diarize", str(corpus_dir / "manifest.json"), "--out-dir", str(out_dir)]
    )
    assert rc == EXIT_OK
    got = sorted(p.name for p in out_dir.glob("*.rttm"))
    assert got == ["0_000.rttm", "2_000.rttm", "2_001.rttm"]
    assert (out_dir / "0_000.rttm").read_text() == ""
    assert "diarized 3/3 files" in capsys.readouterr().out


def test_diarize_manifest_reports_a_failed_file_and_writes_the_others(corpus_dir, tmp_path, capsys):
    root = tmp_path / "corpus"
    shutil.copytree(corpus_dir, root)
    bad = root / "2" / "2_001.wav"
    bad.write_bytes(bad.read_bytes()[:-2])
    out_dir = tmp_path / "hyp"
    capsys.readouterr()
    rc = main(["diarize", str(root / "manifest.json"), "--out-dir", str(out_dir)])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert f"diarized 2/3 files into {out_dir}" in captured.out
    assert captured.err == f"failed 2/2_001.wav: {bad}: data chunk truncated\n"
    assert sorted(p.name for p in out_dir.glob("*.rttm")) == ["0_000.rttm", "2_000.rttm"]
    for stem in ("0/0_000", "2/2_000"):
        single = tmp_path / "single.rttm"
        assert main(["diarize", str(root / f"{stem}.wav"), "--out-rttm", str(single)]) == EXIT_OK
        assert (out_dir / f"{stem[2:]}.rttm").read_bytes() == single.read_bytes()


def test_diarize_manifest_parallel_matches_serial(corpus_dir, tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    main(["diarize", str(corpus_dir / "manifest.json"), "--out-dir", str(serial)])
    main(
        [
            "diarize",
            str(corpus_dir / "manifest.json"),
            "--out-dir",
            str(parallel),
            "--jobs",
            "3",
        ]
    )
    for p in sorted(serial.glob("*.rttm")):
        assert (parallel / p.name).read_bytes() == p.read_bytes()


def test_diarize_rerun_is_deterministic(mixture_wav, capsys):
    main(["diarize", str(mixture_wav)])
    first = capsys.readouterr().out
    main(["diarize", str(mixture_wav)])
    assert capsys.readouterr().out == first


# --- embeddings ---


def test_export_embeddings_round_trip(mixture_wav, tmp_path, capsys):
    out = tmp_path / "embs.bin"
    assert main(["export-embeddings", str(mixture_wav), str(out)]) == EXIT_OK
    msg = capsys.readouterr().out
    table = load_external_embeddings(out)
    assert len(table) > 0
    assert f"wrote {len(table)} embeddings" in msg
    assert table.shape == (len(table), 52)


def test_external_embeddings_reproduce_the_mfcc_path(mixture_wav, tmp_path, capsys):
    emb_file = tmp_path / "embs.bin"
    main(["export-embeddings", str(mixture_wav), str(emb_file)])
    capsys.readouterr()
    main(["diarize", str(mixture_wav), "--num-speakers", "2"])
    internal = capsys.readouterr().out
    main(
        [
            "diarize",
            str(mixture_wav),
            "--num-speakers",
            "2",
            "--embeddings",
            str(emb_file),
        ]
    )
    assert capsys.readouterr().out == internal


def test_exported_embeddings_round_trip_with_denoise(tmp_path, capsys):
    # On this noisy mixture VAD finds more segments after denoising, so
    # export-embeddings must segment the denoised buffer like diarize.
    mix, _ = generate_mixture(3, 40.0, seed=0)
    wav = tmp_path / "noisy.wav"
    write_wav(wav, add_noise(mix, 0.3, "white", seed=1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"denoise": {"enabled": True}}))
    emb_file = tmp_path / "embs.bin"
    assert main(["export-embeddings", str(wav), str(emb_file), "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    base = ["diarize", str(wav), "--denoise", "--num-speakers", "3"]
    assert main(base) == EXIT_OK
    internal = capsys.readouterr().out
    assert main(base + ["--embeddings", str(emb_file)]) == EXIT_OK
    assert capsys.readouterr().out == internal


def test_embedding_file_with_an_extra_row_exits_4(mixture_wav, tmp_path, capsys):
    emb_file = tmp_path / "embs.bin"
    main(["export-embeddings", str(mixture_wav), str(emb_file)])
    rows = load_external_embeddings(emb_file)
    write_embeddings(emb_file, np.concatenate([rows, rows[:1]]))
    capsys.readouterr()
    rc = main(["diarize", str(mixture_wav), "--embeddings", str(emb_file)])
    assert rc == EXIT_VALIDATION
    assert f"{len(rows) + 1} rows for {len(rows)} segments" in capsys.readouterr().err


def test_diarize_with_a_non_finite_embedding_file_exits_4(mixture_wav, tmp_path, capsys):
    emb_file, rttm = tmp_path / "bad.bin", tmp_path / "o.rttm"
    assert main(["export-embeddings", str(mixture_wav), str(emb_file)]) == EXIT_OK
    rows = load_external_embeddings(emb_file)
    rows[len(rows) // 2, 3] = np.nan
    write_embeddings(emb_file, rows)
    capsys.readouterr()
    argv = ["diarize", str(mixture_wav), "--embeddings", str(emb_file), "--out-rttm", str(rttm)]
    assert main(argv) == EXIT_VALIDATION
    assert "finite" in capsys.readouterr().err
    assert not rttm.exists()


def test_a_noise_only_file_exports_the_empty_matrix_and_rediarizes_to_no_turns(
    corpus_dir, tmp_path
):
    wav = corpus_dir / "0" / "0_000.wav"
    emb_file, rttm = tmp_path / "empty.bin", tmp_path / "o.rttm"
    assert main(["export-embeddings", str(wav), str(emb_file)]) == EXIT_OK
    assert emb_file.read_bytes() == bytes(8)  # count 0, dim 0
    argv = ["diarize", str(wav), "--embeddings", str(emb_file), "--out-rttm", str(rttm)]
    assert main(argv) == EXIT_OK
    assert rttm.read_text(encoding="utf-8") == ""


def test_external_embeddings_rejected_for_batch_input(corpus_dir, tmp_path, capsys):
    emb_file = tmp_path / "embs.bin"
    emb_file.write_bytes(b"")
    rc = main(
        [
            "diarize",
            str(corpus_dir / "manifest.json"),
            "--embeddings",
            str(emb_file),
        ]
    )
    assert rc == EXIT_VALIDATION
    assert "single-file" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--export-embeddings", "--out-rttm"])
def test_single_file_outputs_rejected_for_batch_input(corpus_dir, tmp_path, capsys, flag):
    out = tmp_path / "out"
    rc = main(["diarize", str(corpus_dir / "manifest.json"), flag, str(out)])
    assert rc == EXIT_VALIDATION
    assert f"{flag} applies to single-file" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_rejected_for_single_file_input(mixture_wav, tmp_path, capsys):
    out_dir = tmp_path / "hyp"
    rc = main(["diarize", str(mixture_wav), "--out-dir", str(out_dir)])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "--out-dir applies to manifest" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


# --- config precedence ---


def test_flag_overrides_config_cluster_k(mixture_wav, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cluster": {"k": 3}}))
    main(["diarize", str(mixture_wav), "--config", str(cfg)])
    assert len(_speaker_ids(capsys.readouterr().out)) == 3
    main(["diarize", str(mixture_wav), "--config", str(cfg), "--num-speakers", "2"])
    assert len(_speaker_ids(capsys.readouterr().out)) == 2


def test_config_sections_map_onto_pipeline_fields():
    cfg = PipelineConfig.from_dict(
        {
            "vad": {"threshold_db": 9.0},
            "segment": {"window_s": 2.0, "hop_s": 1.0},
            "cluster": {"threshold": 0.3},
            "denoise": {"enabled": True},
        }
    )
    assert cfg.vad_threshold_db == 9.0
    assert cfg.window_s == 2.0
    assert cfg.cluster_threshold == 0.3
    assert cfg.denoise is True
    # evaluate takes --collar and augment its flags; no command reads these.
    for key, value in (("collar_s", 0.25), ("seed", 3), ("augment", {})):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            PipelineConfig.from_dict({key: value})
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"vad": {"bogus": 1}})
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"vad": 3})


def test_config_defaults_equal_the_defaults_of_the_stages_they_feed():
    cfg = PipelineConfig()
    stages = {
        "vad": energy_vad,
        "segment": uniform_segment,
        "embed": MfccEmbedder,
        "denoise": DenoiseParams,
    }
    for name, stage in stages.items():
        params = inspect.signature(stage).parameters
        for key, value in cfg.section(name).items():
            if (name, key) == ("denoise", "enabled"):
                continue
            default = params[key].default
            assert (value, type(value)) == (default, type(default)), (name, key)


def test_config_sections_rebuild_a_non_default_config():
    cfg = PipelineConfig(
        vad_frame_ms=25.0,
        vad_hop_ms=5.0,
        vad_threshold_db=9.0,
        vad_hangover_ms=150.0,
        window_s=2.0,
        segment_hop_s=1.0,
        n_mels=32,
        n_coeffs=12,
        mfcc_frame_ms=20.0,
        mfcc_hop_ms=8.0,
        base_dims=24,
        cluster_threshold=0.3,
        num_speakers=3,
        denoise=True,
        noise_percentile=0.3,
        gate_threshold_db=4.0,
        attenuation_db=12.0,
    )
    defaults = PipelineConfig()
    for f in fields(cfg):
        if f.name != "train":
            assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
    sections = ("vad", "segment", "embed", "cluster", "denoise")
    assert PipelineConfig.from_dict({s: cfg.section(s) for s in sections}) == cfg
    assert cfg.section("cluster") == {"threshold": 0.3, "k": 3}


# --- augment ---


def test_augment_identity_is_byte_exact(mixture_wav, tmp_path, capsys):
    out = tmp_path / "copy.wav"
    assert main(["augment", str(mixture_wav), str(out)]) == EXIT_OK
    assert out.read_bytes() == mixture_wav.read_bytes()
    assert "SNR" not in capsys.readouterr().out


def test_augment_noise_logs_snr_near_26_db(mixture_wav, tmp_path, capsys):
    out = tmp_path / "noisy.wav"
    rc = main(
        ["augment", str(mixture_wav), str(out), "--intensity", "0.05", "--seed", "3"]
    )
    assert rc == EXIT_OK
    match = re.search(r"SNR (-?[\d.]+) dB", capsys.readouterr().out)
    assert match is not None
    assert float(match.group(1)) == pytest.approx(26.02, abs=0.3)


def test_augment_speed_rescales_audio_and_rttm(corpus_dir, tmp_path, capsys):
    wav = corpus_dir / "2" / "2_000.wav"
    ref = corpus_dir / "2" / "2_000.rttm"
    out_wav = tmp_path / "fast.wav"
    out_rttm = tmp_path / "fast.rttm"
    rc = main(
        [
            "augment",
            str(wav),
            str(out_wav),
            "--speed",
            "1.1",
            "--rttm",
            str(ref),
            "--out-rttm",
            str(out_rttm),
        ]
    )
    assert rc == EXIT_OK
    src = read_wav(wav)
    fast = read_wav(out_wav)
    assert len(fast) == pytest.approx(len(src) / 1.1, rel=0.01)
    before = parse_rttm(ref.read_text())
    after = parse_rttm(out_rttm.read_text())
    assert len(after) == len(before)
    for b, a in zip(before, after):
        assert a.onset_s == pytest.approx(b.onset_s / 1.1, abs=5e-4)
        assert a.duration_s == pytest.approx(b.duration_s / 1.1, abs=5e-4)


def test_augment_to_a_new_stem_then_diarize_and_evaluate(corpus_dir, tmp_path, capsys):
    wav = corpus_dir / "2" / "2_000.wav"
    out_wav = tmp_path / "renamed.wav"
    rc = main(["augment", str(wav), str(out_wav), "--speed", "1.1",
               "--rttm", str(corpus_dir / "2" / "2_000.rttm")])
    assert rc == EXIT_OK
    ref = tmp_path / "renamed.rttm"
    assert {t.file_id for t in parse_rttm(ref.read_text())} == {"renamed"}
    hyp = tmp_path / "hyp.rttm"
    assert main(["diarize", str(out_wav), "--num-speakers", "2", "--out-rttm", str(hyp)]) == EXIT_OK
    assert main(["evaluate", "--ref", str(ref), "--hyp", str(hyp)]) == EXIT_OK
    assert "DER: " in capsys.readouterr().out


def test_augment_rttm_of_two_files_exits_4(mixture_wav, tmp_path, capsys):
    rttm = tmp_path / "two.rttm"
    rttm.write_text(emit_rttm([Turn("a", "s0", 0.0, 1.0), Turn("b", "s0", 1.0, 1.0)]))
    out_wav = tmp_path / "x.wav"
    rc = main(["augment", str(mixture_wav), str(out_wav), "--rttm", str(rttm)])
    assert rc == EXIT_VALIDATION
    assert "one file" in capsys.readouterr().err
    assert not out_wav.exists()


@pytest.fixture
def augment_spies(monkeypatch):
    """Records every speed_change and pitch_shift call of augment_file."""
    calls = []

    def spy(name, real):
        return lambda *a: calls.append(name) or real(*a)

    for name in ("speed_change", "pitch_shift"):
        monkeypatch.setattr(diarkit.augment, name, spy(name, getattr(diarkit.augment, name)))
    return calls


@pytest.mark.parametrize("flag", ["--semitones", "--intensity"])
def test_augment_nan_exits_4_before_any_work(mixture_wav, tmp_path, augment_spies, capsys, flag):
    out_wav = tmp_path / "x.wav"
    rc = main(["augment", str(mixture_wav), str(out_wav), "--speed", "1.05", flag, "nan"])
    assert rc == EXIT_VALIDATION
    assert "must be a finite float" in capsys.readouterr().err
    assert augment_spies == []
    assert not out_wav.exists()


@pytest.mark.parametrize("how", ["flag", "env"])
def test_augment_negative_seed_exits_4_before_any_work(
    mixture_wav, tmp_path, augment_spies, monkeypatch, capsys, how
):
    out_wav = tmp_path / "x.wav"
    argv = ["augment", str(mixture_wav), str(out_wav), "--intensity", "0.05", "--speed", "1.05"]
    if how == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("DIARKIT_SEED", "-1")
    assert main(argv) == EXIT_VALIDATION
    assert "rng_seed must be >= 0" in capsys.readouterr().err
    assert augment_spies == []
    assert not out_wav.exists()


def test_augment_out_of_range_speed_exits_4(mixture_wav, tmp_path, capsys):
    rc = main(
        ["augment", str(mixture_wav), str(tmp_path / "x.wav"), "--speed", "1.5"]
    )
    assert rc == EXIT_VALIDATION
    assert "speed_factor" in capsys.readouterr().err


# --- snr ---


def test_snr_command_reports_json_and_summary(mixture_wav, tmp_path, capsys):
    noisy = tmp_path / "noisy.wav"
    main(["augment", str(mixture_wav), str(noisy), "--intensity", "0.1", "--seed", "1"])
    capsys.readouterr()
    assert main(["snr", str(mixture_wav), str(noisy)]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0])
    assert payload["snr_db"] == pytest.approx(20.0, abs=0.5)
    assert "SNR: " in out


def test_diarize_exports_the_vectors_it_clustered_with_denoise(tmp_path, monkeypatch, capsys):
    # diarize --denoise --export-embeddings writes the same file as
    # export-embeddings with denoise enabled, and frames the file once.
    mix, _ = generate_mixture(3, 40.0, seed=0)
    wav = tmp_path / "noisy.wav"
    write_wav(wav, add_noise(mix, 0.3, "white", seed=1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"denoise": {"enabled": True}}))
    standalone = tmp_path / "standalone.bin"
    assert main(["export-embeddings", str(wav), str(standalone), "--config", str(cfg)]) == EXIT_OK

    calls = []
    framing = diarkit.embed._buffer_features
    monkeypatch.setattr(
        diarkit.embed, "_buffer_features", lambda *a: calls.append(1) or framing(*a)
    )
    exported = tmp_path / "exported.bin"
    argv = ["diarize", str(wav), "--denoise", "--num-speakers", "3"]
    assert main(argv + ["--export-embeddings", str(exported)]) == EXIT_OK
    assert exported.read_bytes() == standalone.read_bytes()
    assert len(calls) == 1


def test_diarize_exports_each_segment_embedded_once(mixture_wav, tmp_path, monkeypatch, capsys):
    # Plain diarize --export-embeddings writes export-embeddings' bytes
    # from the vectors it clustered: one embed call per segment.
    standalone = tmp_path / "standalone.bin"
    assert main(["export-embeddings", str(mixture_wav), str(standalone)]) == EXIT_OK

    framed, embedded = [], []
    framing, embed = diarkit.embed._buffer_features, MfccEmbedder.embed
    monkeypatch.setattr(
        diarkit.embed, "_buffer_features", lambda *a: framed.append(1) or framing(*a)
    )
    monkeypatch.setattr(
        MfccEmbedder,
        "embed",
        lambda self, buf, seg: embedded.append(seg.index) or embed(self, buf, seg),
    )
    exported = tmp_path / "exported.bin"
    argv = ["diarize", str(mixture_wav), "--num-speakers", "2"]
    assert main(argv + ["--export-embeddings", str(exported)]) == EXIT_OK
    assert exported.read_bytes() == standalone.read_bytes()
    assert len(framed) == 1
    assert embedded == list(range(len(load_external_embeddings(exported))))


def test_cli_and_library_share_one_path(tmp_path, capsys):
    mix, _ = generate_mixture(3, 40.0, seed=0)
    wav = tmp_path / "noisy.wav"
    write_wav(wav, add_noise(mix, 0.3, "white", seed=1))
    assert main(["diarize", str(wav), "--denoise", "--num-speakers", "3"]) == EXIT_OK
    cfg = PipelineConfig(denoise=True, num_speakers=3)
    result = diarize_buffer(read_wav(wav), cfg, file_id="noisy")
    assert capsys.readouterr().out == emit_rttm(result.turns)
    segments, embs = embed_segments(read_wav(wav), cfg, "noisy")
    assert result.segments == segments
    assert len(result.embeddings) == len(embs) > 0
    assert np.array_equal(result.embeddings, embs)


def test_diarize_denoise_prints_the_oracle_denoisers_rttm(tmp_path, monkeypatch, capsys):
    # The block denoiser and the full-length oracle give the same RTTM.
    mix, _ = generate_mixture(3, 40.0, seed=0)
    wav = tmp_path / "noisy.wav"
    write_wav(wav, add_noise(mix, 0.3, "white", seed=1))
    argv = ["diarize", str(wav), "--denoise", "--num-speakers", "3"]
    assert main(argv) == EXIT_OK
    blocked = capsys.readouterr().out
    monkeypatch.setattr(
        diarkit.pipeline,
        "spectral_gate_denoise",
        # the oracle takes an AudioBuffer; the CLI hands the gate an open WavSource
        lambda src, p=None: spectral_gate_denoise_oracle(
            AudioBuffer(src.read(0, len(src)), src.sample_rate_hz), p
        ),
    )
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == blocked
    assert blocked


@pytest.fixture
def tracer(monkeypatch):
    """The bench's Tracer, installed for one test and taken out after it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "diarkit" or name.startswith("diarkit.")):
            for key, value in list(vars(mod).items()):
                if callable(value):
                    monkeypatch.setattr(mod, key, value)  # restored at teardown
    monkeypatch.setattr(MfccEmbedder, "embed", MfccEmbedder.embed)
    found = module.Tracer()
    found.install()
    return module, found


def test_bench_tracer_finds_every_target_and_times_diarize_buffer(tracer, mixture_wav, capsys):
    # A refactor that renames or inlines a traced function would leave a
    # per-layer bench metric silently at zero.
    module, found = tracer
    assert found.absent == []
    assert diarkit.cli.main(["diarize", str(mixture_wav), "--num-speakers", "2"]) == EXIT_OK
    names = [span[0] for span in found.spans]
    assert names.count("cli.diarize_buffer") == 1
    assert names.count("cli.main") == 1
    metrics = module.layer_metrics(found.spans, [])
    assert metrics["cli.diarize_buffer.s"][0] > 0
    assert metrics["embed.embed.calls"][0] == metrics["vad.segments"][0] > 0
    assert found.info_errors == {}


# --- python -m diarkit ---


def test_python_m_diarkit_runs_without_a_warning():
    src = str(Path(diarkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "diarkit", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "export-embeddings" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


# --- train-toy ---


def test_training_arrays_frame_each_file_once(corpus_dir, monkeypatch):
    # The per-file feature table, sliced per turn, equals per-turn
    # features from a fresh MfccEmbedder exactly.
    cfg = PipelineConfig()
    manifest = CorpusManifest.load(corpus_dir / "manifest.json")
    files = [e for e in manifest.entries if e.split == "train" and e.folder != 0]
    assert files
    speakers = sorted({s for e in manifest.entries if e.split == "train" for s in e.speaker_ids})
    want_feats, want_labels, want_seqs = [], [], []
    cursor = 0
    for entry in files:
        buf = read_wav(corpus_dir / entry.path)
        for turn in parse_rttm((corpus_dir / entry.rttm_path).read_text()):
            seg = Segment(entry.path, turn.onset_s, min(turn.offset_s, buf.duration_s), len(want_seqs))
            rows = MfccEmbedder().features(buf, seg)
            label = speakers.index(turn.speaker_id) + 1
            want_feats.append(rows)
            want_labels += [label] * len(rows)
            want_seqs.append(((cursor, cursor + len(rows)), [label]))
            cursor += len(rows)

    calls = []
    framing = diarkit.embed._buffer_features
    monkeypatch.setattr(
        diarkit.embed, "_buffer_features", lambda *a: calls.append(1) or framing(*a)
    )
    # Each file is read a block at a time, never whole.
    for mod in [m for n, m in sys.modules.items() if n.startswith("diarkit")]:
        if "read_wav" in vars(mod):
            monkeypatch.setattr(mod, "read_wav", lambda *a: pytest.fail("read_wav called"))
    feats, labels, seqs = training_arrays(manifest, corpus_dir, cfg, 10**6)
    assert np.array_equal(feats, np.concatenate(want_feats))
    assert np.array_equal(labels, np.asarray(want_labels))
    assert seqs == want_seqs
    assert len(calls) == len(files)




@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_toy_negative_seed_exits_4_before_any_audio_is_read(
    corpus_dir, tmp_path, monkeypatch, capsys, source
):
    calls = []
    monkeypatch.setattr(diarkit.cli, "training_arrays", lambda *a: calls.append(a))
    argv = ["train-toy", "--manifest", str(corpus_dir / "manifest.json")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"rng_seed": -1}}))
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_VALIDATION
    assert "rng_seed must be >= 0" in capsys.readouterr().err
    assert calls == []


def test_train_toy_loss_decreases_and_writes_history(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 0.01, "max_epochs": 4}}))
    hist_path = tmp_path / "history.json"
    rc = main(
        [
            "train-toy",
            "--manifest",
            str(corpus_dir / "manifest.json"),
            "--config",
            str(cfg),
            "--seed",
            "1",
            "--out-history",
            str(hist_path),
            "--out-model",
            str(tmp_path / "model.bin"),
        ]
    )
    assert rc == EXIT_OK
    history = json.loads(hist_path.read_text())
    assert [h["epoch"] for h in history] == list(range(1, len(history) + 1))
    losses = [h["train_loss"] for h in history]
    assert losses[-1] < losses[0]
    assert (tmp_path / "model.bin").exists()
    assert "trained" in capsys.readouterr().out


def test_train_toy_patience_one_stops_early_on_divergence(corpus_dir, tmp_path):
    # A huge step size makes validation loss rise immediately, so the
    # stopper fires well before max_epochs.
    cfg = tmp_path / "train.json"
    cfg.write_text(
        json.dumps(
            {"train": {"learning_rate": 5.0, "early_stop_patience": 1, "max_epochs": 12}}
        )
    )
    hist_path = tmp_path / "history.json"
    rc = main(
        [
            "train-toy",
            "--manifest",
            str(corpus_dir / "manifest.json"),
            "--config",
            str(cfg),
            "--seed",
            "0",
            "--out-history",
            str(hist_path),
        ]
    )
    assert rc == EXIT_OK
    history = json.loads(hist_path.read_text())
    assert len(history) < 12


def test_train_toy_same_seed_same_history(corpus_dir, tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 0.01, "max_epochs": 3}}))
    paths = [tmp_path / "h1.json", tmp_path / "h2.json"]
    for p in paths:
        rc = main(
            [
                "train-toy",
                "--manifest",
                str(corpus_dir / "manifest.json"),
                "--config",
                str(cfg),
                "--seed",
                "7",
                "--out-history",
                str(p),
            ]
        )
        assert rc == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_two_calls_in_one_process_equal_two_fresh_processes(mixture_wav, capsys):
    # main keeps its parser between calls; the first call's flags must
    # not reach the second.
    calls = [
        ["diarize", str(mixture_wav), "--num-speakers", "4", "--denoise"],
        ["diarize", str(mixture_wav)],
    ]
    capsys.readouterr()
    in_process = []
    for argv in calls:
        assert main(argv) == EXIT_OK
        in_process.append(capsys.readouterr().out)
    env = {**os.environ, "PYTHONPATH": str(Path(diarkit.__file__).resolve().parents[1])}
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "diarkit", *argv],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        ).stdout
        for argv in calls
    ]
    assert in_process == fresh
    assert len(_speaker_ids(fresh[0])) == 4 and len(_speaker_ids(fresh[1])) < 4
    assert diarkit.cli._parser() is diarkit.cli._parser()
    first = diarkit.cli._parser().parse_args(calls[0])
    second = diarkit.cli._parser().parse_args(calls[1])
    assert (first.num_speakers, first.denoise) == (4, True)
    assert (second.num_speakers, second.denoise) == (None, False)
