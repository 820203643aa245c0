"""Command-line surface: exit codes, file outputs, and printed reports."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from diarkit.audio_io import Turn, emit_rttm, parse_rttm, read_wav, write_wav
from diarkit.augment import add_noise
from diarkit.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PAIRING,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PipelineConfig,
    main,
)
from diarkit.corpus import generate_mixture
from diarkit.embed import load_external_embeddings, write_embeddings


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
    assert sorted(table) == list(range(len(table)))
    assert all(len(e.vector) == 52 for e in table.values())


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
    table = load_external_embeddings(emb_file)
    rows = [table[i].vector for i in range(len(table))]
    write_embeddings(emb_file, np.stack(rows + rows[:1]))
    capsys.readouterr()
    rc = main(["diarize", str(mixture_wav), "--embeddings", str(emb_file)])
    assert rc == EXIT_VALIDATION
    assert f"{len(rows) + 1} rows for {len(rows)} segments" in capsys.readouterr().err


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
            "collar_s": 0.25,
        }
    )
    assert cfg.vad_threshold_db == 9.0
    assert cfg.window_s == 2.0
    assert cfg.cluster_threshold == 0.3
    assert cfg.denoise is True
    assert cfg.collar_s == 0.25
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"vad": {"bogus": 1}})
    with pytest.raises(ValueError):
        PipelineConfig.from_dict({"vad": 3})


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


# --- train-toy ---


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
