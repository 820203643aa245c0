"""The diarization pipeline as a library: ``PipelineConfig`` checks every
stage's knobs before any audio is read, ``embed_segments`` is the front
end every command shares, ``diarize_buffer`` adds clustering and turns,
and ``training_arrays`` takes train-toy's frames from the same embedder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, Turn, WavSource, parse_rttm
from .cluster import agglomerative_cluster, labels_to_turns
from .corpus import CorpusManifest
from .embed import Embedding, MfccEmbedder
from .errors import DiarkitError, check_numbers
from .losses import TrainConfig
from .preprocess import DenoiseParams, spectral_gate_denoise
from .vad import Segment, energy_vad, uniform_segment


def _key(section: str, key: str, default):
    """A field that the config document sets as ``section.key``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class PipelineConfig:
    """Every stage's knobs in one JSON-serializable document.

    Each field but ``train`` names its section and key in the document;
    a section's keys are the keyword arguments of the stage that reads it.
    """

    vad_frame_ms: float = _key("vad", "frame_ms", 30.0)
    vad_hop_ms: float = _key("vad", "hop_ms", 10.0)
    vad_threshold_db: float = _key("vad", "threshold_db", 6.0)
    vad_hangover_ms: float = _key("vad", "hangover_ms", 200.0)
    window_s: float = _key("segment", "window_s", 1.5)
    segment_hop_s: float = _key("segment", "hop_s", 0.75)
    n_mels: int = _key("embed", "n_mels", 40)
    n_coeffs: int = _key("embed", "n_coeffs", 13)
    mfcc_frame_ms: float = _key("embed", "frame_ms", 25.0)
    mfcc_hop_ms: float = _key("embed", "hop_ms", 10.0)
    base_dims: int = _key("embed", "base_dims", 26)
    # Average-linkage cosine distance at which two segment groups are
    # considered the same voice (calibrated on the synthetic corpus).
    cluster_threshold: float = _key("cluster", "threshold", 0.4)
    num_speakers: int | None = _key("cluster", "k", None)
    denoise: bool = _key("denoise", "enabled", False)
    noise_percentile: float = _key("denoise", "noise_percentile", 0.2)
    gate_threshold_db: float = _key("denoise", "gate_threshold_db", 6.0)
    attenuation_db: float = _key("denoise", "attenuation_db", 20.0)
    train: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every stage's preconditions before any audio is read."""
        check_numbers(self)
        if min(self.vad_frame_ms, self.vad_hop_ms, self.window_s, self.segment_hop_s) <= 0:
            raise ValueError("framing parameters must be positive")
        if self.vad_threshold_db <= 0 or self.vad_hangover_ms < 0:
            raise ValueError("bad VAD threshold or hangover")
        if self.cluster_threshold < 0:
            raise ValueError("cluster_threshold must be >= 0")
        if self.num_speakers is not None and self.num_speakers < 1:
            raise ValueError("num_speakers must be >= 1")
        self.denoise_params()
        if not isinstance(self.train, dict):
            raise ValueError("config section 'train' must be an object")
        unknown = sorted(set(self.train) - {f.name for f in fields(TrainConfig)})
        if unknown:
            raise ValueError(f"unknown config key train.{unknown[0]}")
        TrainConfig(**self.train)
        self.embedder()  # constructor performs the embed-stage checks

    @classmethod
    def _sections(cls) -> dict[str, dict[str, str]]:
        """{section: {key: field name}}, read off the fields' metadata."""
        sections: dict[str, dict[str, str]] = {}
        for f in fields(cls):
            if f.metadata:
                sections.setdefault(f.metadata["section"], {})[f.metadata["key"]] = f.name
        return sections

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        sections = cls._sections()
        kwargs = {}
        for key, value in raw.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ValueError(f"config section {key!r} must be an object")
                for sub, subval in value.items():
                    if sub not in sections[key]:
                        raise ValueError(f"unknown config key {key}.{sub}")
                    kwargs[sections[key][sub]] = subval
            elif key == "train":
                kwargs[key] = value
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def section(self, name: str) -> dict:
        """Section ``name``'s values, keyed as in the config document."""
        return {key: getattr(self, f) for key, f in self._sections()[name].items()}

    def embedder(self) -> MfccEmbedder:
        return MfccEmbedder(**self.section("embed"))

    def denoise_params(self) -> DenoiseParams:
        return DenoiseParams(**{k: v for k, v in self.section("denoise").items() if k != "enabled"})


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
    regions = energy_vad(buf, **cfg.section("vad"))
    segments = uniform_segment(regions, **cfg.section("segment"), file_id=file_id)
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


def training_arrays(manifest: CorpusManifest, root: Path, cfg: PipelineConfig, max_files: int):
    """Frame features, labels, and per-turn sequences from train files.

    Each file is opened as a WavSource and framed once, a block at a
    time, by one embedder; every turn takes its rows from those cepstra.
    """
    speakers = sorted({s for e in manifest.entries if e.split == "train" for s in e.speaker_ids})
    class_of = {s: i + 1 for i, s in enumerate(speakers)}  # 0 is the CTC blank
    files = [e for e in manifest.entries if e.split == "train" and e.folder != 0]
    embedder = cfg.embedder()
    feats, labels, seqs = [], [], []
    cursor = 0
    for entry in files[: max(max_files, 0)]:
        with WavSource(root / entry.path) as src:
            turns = parse_rttm((root / entry.rttm_path).read_text(encoding="utf-8"))
            end_s = len(src) / src.sample_rate_hz
            for turn in turns:
                seg = Segment(entry.path, turn.onset_s, min(turn.offset_s, end_s), len(seqs))
                rows = embedder.features(src, seg)
                label = class_of[turn.speaker_id]
                feats.append(rows)
                labels.extend([label] * len(rows))
                seqs.append(((cursor, cursor + len(rows)), [label]))
                cursor += len(rows)
    if not feats:
        raise DiarkitError("manifest has no trainable speech files")
    return np.concatenate(feats), np.asarray(labels), seqs
