"""Command-line entry point for the diarization toolkit.

Commands: corpus, diarize, evaluate, augment, snr, train-toy,
export-embeddings. Every command is deterministic given its flags; the
DIARKIT_SEED environment variable supplies the seed when no flag does.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 data pairing
error, 4 numeric or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import locale  # noqa: F401  argparse's gettext imports it on the first parser build
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from .audio_io import TurnColumns, WavSource, emit_rttm, parse_rttm, read_wav, rttm_columns, write_wav
from .augment import AugmentSpec, add_noise, augment_file, rescale_turns
from .corpus import DEFAULT_LAYOUT, DEFAULT_SPLIT, CorpusManifest, generate_dataset
from .embed import load_external_embeddings, write_embeddings
from .errors import DiarkitError, IoError
from .losses import TrainConfig, train_toy
from .metrics import pooled_report
from .pipeline import (
    DiarizationResult,
    PipelineConfig,
    diarize_buffer,
    embed_segments,
    training_arrays,
)
from .preprocess import estimate_snr_db

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PAIRING = 3
EXIT_VALIDATION = 4


class PairingError(DiarkitError, ValueError):
    """Reference and hypothesis files could not be matched up."""


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
        if int(folder) in layout:
            raise ValueError(f"--layout names folder {int(folder)} twice")
        layout[int(folder)] = int(count)
    return layout


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


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
        _by_stem((e.path for e in manifest.entries), "manifest entries")
        out_dir = Path(args.out_dir or (in_path.parent / "hyp"))
        out_dir.mkdir(parents=True, exist_ok=True)
        root = in_path.parent

        def work(entry):
            fid = Path(entry.path).stem
            try:
                return entry.path, fid, _diarize_one(root / entry.path, cfg)[0], None
            except Exception as exc:  # collected, reported, non-fatal
                return entry.path, fid, None, exc

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
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


def _by_stem(paths, kind: str) -> dict[str, Path]:
    """Each path keyed by its stem; PairingError names both paths of a repeated stem."""
    found: dict[str, Path] = {}
    for f in map(Path, paths):
        if f.stem in found:
            raise PairingError(f"two {kind} with stem {f.stem!r}: {found[f.stem]} and {f}")
        found[f.stem] = f
    return found


def _collect_rttms(path: Path, skip: tuple[Path, ...] = ()) -> dict[str, TurnColumns]:
    """Pairing table: directory inputs key by RTTM stem, single files by
    the file_id column (one RTTM may describe several recordings).

    A directory walk leaves out every file under a path in ``skip`` and
    raises PairingError when two RTTMs share a stem.
    """
    if not path.is_dir():
        cols = rttm_columns(path.read_text(encoding="utf-8"))
        return cols.by_file() if cols.file_id else {path.stem: cols}
    walk = sorted(path.glob("**/*.rttm"))
    kept = [f for f in walk if not any(f.resolve().is_relative_to(s) for s in skip)]
    found = _by_stem(kept, "RTTMs")
    return {stem: rttm_columns(f.read_text(encoding="utf-8")) for stem, f in found.items()}


def cmd_evaluate(args) -> int:
    ref_path, hyp_path = Path(args.ref), Path(args.hyp)
    # Hypotheses inside the reference tree are not references: the --hyp
    # tree, and the hyp/ that diarize writes beside a manifest by default.
    skip = {hyp_path.resolve()}
    if (ref_path / "manifest.json").is_file():
        skip.add((ref_path / "hyp").resolve())
    ref_table = _collect_rttms(ref_path, tuple(skip - {ref_path.resolve()}))
    hyp_table = _collect_rttms(hyp_path)
    if not (ref_path.is_dir() or hyp_path.is_dir()):
        # An RTTM with no turns names no file: it takes the other side's only one.
        for table, other in ((ref_table, hyp_table), (hyp_table, ref_table)):
            if len(other) == 1 and not any(c.file_id for c in table.values()):
                table[next(iter(other))] = table.popitem()[1]
    unmatched = sorted(set(ref_table) - set(hyp_table))
    if unmatched:
        held = ", ".join(sorted(hyp_table)) or "none"
        raise PairingError(f"no hypothesis for file_id(s): {', '.join(unmatched)}; "
                           f"the hypothesis holds file_id(s): {held}")
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


def cmd_train_toy(args) -> int:
    cfg = _load_config(args.config)
    manifest_path = Path(args.manifest)
    manifest = CorpusManifest.load(manifest_path)
    train_kwargs = dict(cfg.train)
    if args.seed is not None or "rng_seed" not in train_kwargs:
        train_kwargs["rng_seed"] = _env_seed(args.seed)
    train_cfg = TrainConfig(**train_kwargs)
    feats, labels, seqs = training_arrays(manifest, manifest_path.parent, cfg, args.max_files)
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
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--num-speakers", type=int, default=None)
    stop.add_argument("--threshold", type=float, default=None)
    p.add_argument("--denoise", action="store_true")
    p.add_argument("--embeddings", help="use this embedding file instead of MFCC")
    p.add_argument("--export-embeddings")
    p.add_argument("--jobs", type=_positive_int, default=1)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for the next:
    building takes far longer than a parse, and ``parse_args`` leaves the
    parser as it found it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
