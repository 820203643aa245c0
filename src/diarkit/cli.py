"""Command-line entry point for the diarization toolkit.

Commands: corpus, diarize, evaluate, augment, snr, train-toy,
export-embeddings. Every command is deterministic given its flags; the
DIARKIT_SEED environment variable supplies the seed when no flag does.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 data pairing
error, 4 numeric or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, Turn, WavSource, emit_rttm, parse_rttm, read_wav, write_wav
from .augment import AugmentSpec, add_noise, augment_file, rescale_turns
from .cluster import agglomerative_cluster, labels_to_turns
from .corpus import DEFAULT_LAYOUT, DEFAULT_SPLIT, CorpusManifest, generate_dataset
from .embed import Embedding, MfccEmbedder, load_external_embeddings, write_embeddings
from .errors import DiarkitError, IoError
from .losses import TrainConfig, train_toy
from .metrics import pooled_report
from .preprocess import DenoiseParams, estimate_snr_db, spectral_gate_denoise
from .vad import Segment, energy_vad, uniform_segment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PAIRING = 3
EXIT_VALIDATION = 4

# Average-linkage cosine distance at which two segment groups are
# considered the same voice (calibrated on the synthetic corpus).
CLUSTER_THRESHOLD_DEFAULT = 0.4


class PairingError(DiarkitError, ValueError):
    """Reference and hypothesis files could not be matched up."""


@dataclass
class PipelineConfig:
    """Every stage's knobs in one JSON-serializable document."""

    vad_frame_ms: float = 30.0
    vad_hop_ms: float = 10.0
    vad_threshold_db: float = 6.0
    vad_hangover_ms: float = 200.0
    window_s: float = 1.5
    segment_hop_s: float = 0.75
    n_mels: int = 40
    n_coeffs: int = 13
    mfcc_frame_ms: float = 25.0
    mfcc_hop_ms: float = 10.0
    base_dims: int = 26
    cluster_threshold: float = CLUSTER_THRESHOLD_DEFAULT
    num_speakers: int | None = None
    denoise: bool = False
    noise_percentile: float = 0.2
    gate_threshold_db: float = 6.0
    attenuation_db: float = 20.0
    train: dict = field(default_factory=dict)

    _SECTIONS = {
        "vad": {
            "frame_ms": "vad_frame_ms",
            "hop_ms": "vad_hop_ms",
            "threshold_db": "vad_threshold_db",
            "hangover_ms": "vad_hangover_ms",
        },
        "segment": {"window_s": "window_s", "hop_s": "segment_hop_s"},
        "embed": {
            "n_mels": "n_mels",
            "n_coeffs": "n_coeffs",
            "frame_ms": "mfcc_frame_ms",
            "hop_ms": "mfcc_hop_ms",
            "base_dims": "base_dims",
        },
        "cluster": {"threshold": "cluster_threshold", "k": "num_speakers"},
        "denoise": {
            "enabled": "denoise",
            "noise_percentile": "noise_percentile",
            "gate_threshold_db": "gate_threshold_db",
            "attenuation_db": "attenuation_db",
        },
    }

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every stage's preconditions before any audio is read."""
        if min(self.vad_frame_ms, self.vad_hop_ms, self.window_s, self.segment_hop_s) <= 0:
            raise ValueError("framing parameters must be positive")
        if self.vad_threshold_db <= 0 or self.vad_hangover_ms < 0:
            raise ValueError("bad VAD threshold or hangover")
        if self.cluster_threshold < 0:
            raise ValueError("cluster_threshold must be >= 0")
        if self.num_speakers is not None and self.num_speakers < 1:
            raise ValueError("num_speakers must be >= 1")
        self.denoise_params()
        TrainConfig(**self.train)
        self.embedder()  # constructor performs the embed-stage checks

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        kwargs = {}
        for key, value in raw.items():
            if key in cls._SECTIONS:
                if not isinstance(value, dict):
                    raise ValueError(f"config section {key!r} must be an object")
                for sub, subval in value.items():
                    if sub not in cls._SECTIONS[key]:
                        raise ValueError(f"unknown config key {key}.{sub}")
                    kwargs[cls._SECTIONS[key][sub]] = subval
            elif key == "train":
                kwargs[key] = value
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def embedder(self) -> MfccEmbedder:
        return MfccEmbedder(
            n_mels=self.n_mels,
            n_coeffs=self.n_coeffs,
            frame_ms=self.mfcc_frame_ms,
            hop_ms=self.mfcc_hop_ms,
            base_dims=self.base_dims,
        )

    def denoise_params(self) -> DenoiseParams:
        return DenoiseParams(
            noise_percentile=self.noise_percentile,
            gate_threshold_db=self.gate_threshold_db,
            attenuation_db=self.attenuation_db,
        )


def embed_segments(
    buf: AudioBuffer | WavSource,
    cfg: PipelineConfig,
    file_id: str,
    external_embeddings: dict[int, Embedding] | None = None,
) -> tuple[list[Segment], list[Embedding]]:
    """(denoise) -> VAD -> segment -> embed: the front end every command shares.

    Each stage reads ``buf`` through ``read(lo, hi)``, so an open WavSource
    is diarized a block at a time, holding no copy of its samples. With
    denoise on, the later stages read the gate's float32 output instead.

    ``external_embeddings`` replaces the MFCC embedder with vectors
    keyed by segment index (the embedding-file layout); it must hold
    exactly one vector per segment.
    """
    if cfg.denoise:
        buf = spectral_gate_denoise(buf, cfg.denoise_params())
    regions = energy_vad(
        buf,
        frame_ms=cfg.vad_frame_ms,
        hop_ms=cfg.vad_hop_ms,
        threshold_db=cfg.vad_threshold_db,
        hangover_ms=cfg.vad_hangover_ms,
    )
    segments = uniform_segment(
        regions, window_s=cfg.window_s, hop_s=cfg.segment_hop_s, file_id=file_id
    )
    if external_embeddings is None:
        embedder = cfg.embedder()  # its cache frames the buffer once
        return segments, [embedder.embed(buf, s) for s in segments]
    if sorted(external_embeddings) != [s.index for s in segments]:
        rows = len(external_embeddings)
        raise ValueError(f"embedding file holds {rows} rows for {len(segments)} segments")
    return segments, [external_embeddings[s.index] for s in segments]


@dataclass(frozen=True)
class DiarizationResult:
    """One buffer's turns, segments, labels and the vectors clustered.

    Unpacks as ``turns, segments, labels``.
    """

    turns: list[Turn]
    segments: list[Segment]
    labels: list[int]
    embeddings: list[Embedding]

    def __iter__(self):
        return iter((self.turns, self.segments, self.labels))


def diarize_buffer(
    buf: AudioBuffer | WavSource,
    config: PipelineConfig | None = None,
    file_id: str = "file",
    external_embeddings: dict[int, Embedding] | None = None,
) -> DiarizationResult:
    """embed_segments -> cluster -> turns for one buffer.

    ``buf`` is an AudioBuffer or an open WavSource; both are read through
    ``read(lo, hi)`` only, and give the same result.
    """
    cfg = config or PipelineConfig()
    segments, embs = embed_segments(buf, cfg, file_id, external_embeddings)
    if not segments:
        return DiarizationResult([], [], [], [])
    if cfg.num_speakers is not None:
        stop = {"k": min(cfg.num_speakers, len(segments))}
    else:
        stop = {"threshold": cfg.cluster_threshold}
    labels = list(agglomerative_cluster(embs, stop).labels)
    return DiarizationResult(labels_to_turns(segments, labels, file_id), segments, labels, embs)


def _env_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    return int(os.environ.get("DIARKIT_SEED", "0"))


def _load_config(path: str | None) -> PipelineConfig:
    return PipelineConfig.from_json_file(path) if path else PipelineConfig()


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_layout(text: str) -> dict[int, int]:
    layout = {}
    for part in text.split(","):
        folder, _, count = part.partition(":")
        layout[int(folder)] = int(count)
    return layout


def _parse_split(text: str) -> tuple[float, float, float]:
    parts = tuple(float(p) for p in text.split(","))
    if len(parts) != 3:
        raise ValueError("split needs three comma-separated fractions")
    return parts


def cmd_corpus(args) -> int:
    layout = _parse_layout(args.layout) if args.layout else dict(DEFAULT_LAYOUT)
    split = _parse_split(args.split) if args.split else DEFAULT_SPLIT
    manifest = generate_dataset(
        args.out_dir,
        layout=layout,
        split=split,
        seed=_env_seed(args.seed),
        overlap_fraction=args.overlap,
    )
    path = Path(args.out_dir) / "manifest.json"
    print(f"wrote {len(manifest.entries)} files; manifest at {path}")
    return EXIT_OK


def _diarize_one(
    wav_path: Path, cfg: PipelineConfig, embeddings_path: str | None = None
) -> tuple[str, DiarizationResult]:
    """open -> diarize_buffer -> RTTM text, for one WAV read a block at a time."""
    with WavSource(wav_path) as src:
        external = load_external_embeddings(embeddings_path) if embeddings_path else None
        result = diarize_buffer(src, cfg, file_id=wav_path.stem, external_embeddings=external)
    return emit_rttm(result.turns), result


def cmd_diarize(args) -> int:
    cfg = _load_config(args.config)
    if args.num_speakers is not None:
        cfg.num_speakers = args.num_speakers
    if args.threshold is not None:
        cfg.num_speakers = None
        cfg.cluster_threshold = args.threshold
    if args.denoise:
        cfg.denoise = True
    cfg.validate()

    in_path = Path(args.input)
    batch = in_path.suffix == ".json"
    for flag in ("--embeddings", "--export-embeddings", "--out-rttm") if batch else ("--out-dir",):
        if getattr(args, flag[2:].replace("-", "_")):
            raise ValueError(f"{flag} applies to {'single-file' if batch else 'manifest'} input only")
    if batch:
        manifest = CorpusManifest.load(in_path)
        out_dir = Path(args.out_dir or (in_path.parent / "hyp"))
        out_dir.mkdir(parents=True, exist_ok=True)
        root = in_path.parent

        def work(entry):
            fid = Path(entry.path).stem
            try:
                return entry.path, fid, _diarize_one(root / entry.path, cfg)[0], None
            except Exception as exc:  # collected, reported, non-fatal
                return entry.path, fid, None, exc

        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            results = list(pool.map(work, manifest.entries))
        failures = []
        for path, fid, rttm, exc in sorted(results, key=lambda r: r[1]):
            if exc is not None:
                failures.append((path, exc))
                continue
            (out_dir / f"{fid}.rttm").write_text(rttm, encoding="utf-8")
        print(f"diarized {len(results) - len(failures)}/{len(results)} files into {out_dir}")
        for path, exc in failures:
            print(f"failed {path}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if failures else EXIT_OK

    rttm, result = _diarize_one(in_path, cfg, args.embeddings)
    if args.export_embeddings:
        write_embeddings(args.export_embeddings, result.embeddings)
    if args.out_rttm:
        Path(args.out_rttm).write_text(rttm, encoding="utf-8")
        print(f"wrote {args.out_rttm}")
    else:
        sys.stdout.write(rttm)
    return EXIT_OK


def _collect_rttms(path: Path, skip: Path | None = None) -> dict[str, list[Turn]]:
    """Pairing table: directory inputs key by RTTM stem, single files by
    the file_id column (one RTTM may describe several recordings).

    A directory walk leaves out every file under ``skip`` and raises
    PairingError when two RTTMs share a stem.
    """
    table: dict[str, list[Turn]] = {}
    if path.is_dir():
        found: dict[str, Path] = {}
        for f in sorted(path.glob("**/*.rttm")):
            if skip is not None and f.resolve().is_relative_to(skip):
                continue
            if f.stem in found:
                raise PairingError(f"two RTTMs with stem {f.stem!r}: {found[f.stem]} and {f}")
            found[f.stem] = f
            table[f.stem] = parse_rttm(f.read_text(encoding="utf-8"))
    else:
        turns = parse_rttm(path.read_text(encoding="utf-8"))
        for turn in turns:
            table.setdefault(turn.file_id, []).append(turn)
        if not turns:
            table[path.stem] = []
    return table


def cmd_evaluate(args) -> int:
    ref_path, hyp_path = Path(args.ref), Path(args.hyp)
    # Hypotheses written inside the reference tree (diarize's default
    # out-dir) must not be read as references.
    skip = hyp_path.resolve()
    ref_table = _collect_rttms(ref_path, skip=skip if skip != ref_path.resolve() else None)
    hyp_table = _collect_rttms(hyp_path)
    unmatched = sorted(set(ref_table) - set(hyp_table))
    if unmatched:
        raise PairingError(f"no hypothesis for file_id(s): {', '.join(unmatched)}")
    unscored = sorted(set(hyp_table) - set(ref_table))
    if unscored:
        print(f"not scored, no reference: {', '.join(unscored)}", file=sys.stderr)

    report = pooled_report(
        {fid: (ref_table[fid], hyp_table[fid]) for fid in ref_table}, collar_s=args.collar
    )
    payload = report.to_json()
    if args.json:
        Path(args.json).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    print(f"DER: {100.0 * report.der.der:.1f}%")
    return EXIT_OK


def cmd_augment(args) -> int:
    buf = read_wav(args.input)
    spec = AugmentSpec(
        noise_intensity=args.intensity,
        noise_kind=args.kind,
        pitch_semitones=args.semitones,
        speed_factor=args.speed,
        rng_seed=_env_seed(args.seed),
    )
    turns = None
    if args.rttm:
        turns = parse_rttm(Path(args.rttm).read_text(encoding="utf-8"))
        if len({t.file_id for t in turns}) > 1:
            raise ValueError(f"{args.rttm}: --rttm must describe one file")
    # Speed and pitch run once; the noise-free stage is the SNR reference.
    staged = augment_file(buf, replace(spec, noise_intensity=0.0))
    out = add_noise(staged, spec.noise_intensity, spec.noise_kind, seed=spec.rng_seed)
    write_wav(args.output, out)
    line = f"wrote {args.output}"
    if spec.noise_intensity > 0:
        line += f" (SNR {estimate_snr_db(out, staged):.1f} dB)"
    print(line)
    if turns is not None:
        # The rescaled turns describe the new WAV, so they take its stem.
        stem = Path(args.output).stem
        scaled = [replace(t, file_id=stem) for t in rescale_turns(turns, spec.speed_factor)]
        out_rttm = args.out_rttm or str(Path(args.output).with_suffix(".rttm"))
        Path(out_rttm).write_text(emit_rttm(scaled), encoding="utf-8")
        print(f"wrote {out_rttm}")
    return EXIT_OK


def cmd_snr(args) -> int:
    clean = read_wav(args.clean)
    degraded = read_wav(args.degraded)
    value = estimate_snr_db(degraded, clean)
    print(json.dumps({"snr_db": value}))
    print(f"SNR: {value:.1f} dB")
    return EXIT_OK


def _training_arrays(manifest: CorpusManifest, root: Path, cfg: PipelineConfig, max_files: int):
    """Frame features, labels, and per-turn sequences from train files.

    Each file is framed once; every turn builds its rows from those cepstra.
    """
    from .embed import _buffer_features, _feature_rows, _segment_rows

    speakers = sorted(
        {s for e in manifest.entries if e.split == "train" for s in e.speaker_ids}
    )
    class_of = {s: i + 1 for i, s in enumerate(speakers)}  # 0 is the CTC blank
    feats, labels, seqs = [], [], []
    cursor = 0
    used = 0
    for entry in manifest.entries:
        if entry.split != "train" or entry.folder == 0:
            continue
        if used >= max_files:
            break
        used += 1
        buf = read_wav(root / entry.path)
        turns = parse_rttm((root / entry.rttm_path).read_text(encoding="utf-8"))
        starts, cepstra = _buffer_features(
            buf, cfg.n_mels, cfg.n_coeffs, cfg.mfcc_frame_ms, cfg.mfcc_hop_ms
        )
        for turn in turns:
            seg = Segment(
                file_id=entry.path,
                onset_s=turn.onset_s,
                offset_s=min(turn.offset_s, len(buf) / buf.sample_rate_hz),
                index=len(seqs),
            )
            rows = _feature_rows(cepstra, *_segment_rows(buf, seg, starts, cfg.mfcc_frame_ms))
            label = class_of[turn.speaker_id]
            feats.append(rows)
            labels.extend([label] * len(rows))
            seqs.append(((cursor, cursor + len(rows)), [label]))
            cursor += len(rows)
    if not feats:
        raise DiarkitError("manifest has no trainable speech files")
    return np.concatenate(feats), np.asarray(labels), seqs


def cmd_train_toy(args) -> int:
    cfg = _load_config(args.config)
    manifest_path = Path(args.manifest)
    manifest = CorpusManifest.load(manifest_path)
    train_kwargs = dict(cfg.train)
    if args.seed is not None or "rng_seed" not in train_kwargs:
        train_kwargs["rng_seed"] = _env_seed(args.seed)
    train_cfg = TrainConfig(**train_kwargs)
    feats, labels, seqs = _training_arrays(
        manifest, manifest_path.parent, cfg, args.max_files
    )
    model, history = train_toy(feats, labels, seqs, train_cfg)
    if args.out_model:
        model.save(args.out_model)
        print(f"wrote {args.out_model}")
    payload = json.dumps(history, indent=2)
    if args.out_history:
        Path(args.out_history).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.out_history}")
    else:
        print(payload)
    print(
        f"trained {len(history)} epochs; final train loss "
        f"{history[-1]['train_loss']:.4f}"
    )
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    cfg = _load_config(args.config)
    with WavSource(args.input) as src:
        _, embs = embed_segments(src, cfg, Path(args.input).stem)
    write_embeddings(args.output, embs)
    print(f"wrote {len(embs)} embeddings to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diarkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate the synthetic corpus tree")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--layout", help='folder:count pairs, e.g. "0:60,1:58"')
    p.add_argument("--split", help='three fractions, e.g. "0.7,0.2,0.1"')
    p.add_argument("--overlap", type=float, default=0.1)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("diarize", help="WAV or manifest to RTTM")
    p.add_argument("input")
    p.add_argument("--config")
    p.add_argument("--out-rttm")
    p.add_argument("--out-dir")
    p.add_argument("--num-speakers", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--denoise", action="store_true")
    p.add_argument("--embeddings", help="use this embedding file instead of MFCC")
    p.add_argument("--export-embeddings")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_diarize)

    p = sub.add_parser("evaluate", help="score hypothesis RTTM against reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.0)
    p.add_argument("--json", help="write the MetricReport here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("augment", help="noise, pitch, and speed augmentation")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--intensity", type=float, default=0.0)
    p.add_argument("--kind", choices=("white", "babble"), default="white")
    p.add_argument("--semitones", type=float, default=0.0)
    p.add_argument("--speed", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rttm", help="reference RTTM to rescale alongside the audio")
    p.add_argument("--out-rttm")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("snr", help="SNR of a degraded file against its clean source")
    p.add_argument("clean")
    p.add_argument("degraded")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("train-toy", help="dual-loss toy training over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-files", type=int, default=1_000_000)
    p.add_argument("--out-history")
    p.add_argument("--out-model")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("export-embeddings", help="segment a WAV and write embeddings")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--config")
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PairingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    except (IoError, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DiarkitError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
