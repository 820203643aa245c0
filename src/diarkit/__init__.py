"""Speaker diarization toolkit: synthetic corpora, preprocessing, augmentation,
MFCC embeddings, agglomerative clustering, and the standard evaluation metrics.
"""

from .audio_io import (
    CANONICAL_RATE_HZ,
    AudioBuffer,
    Turn,
    WavSource,
    emit_rttm,
    parse_rttm,
    read_wav,
    resample,
    write_wav,
)
from .augment import AugmentSpec, add_noise, augment_file, pitch_shift, rescale_turns, speed_change
from .cluster import ClusterResult, agglomerative_cluster, cosine_distance, labels_to_turns
from .corpus import (
    CorpusManifest,
    SpeakerProfile,
    default_profile_pool,
    generate_dataset,
    generate_mixture,
    synth_utterance,
)
from .embed import MfccEmbedder, load_external_embeddings, write_embeddings
from .losses import CtcResult, ToyModel, TrainConfig, cross_entropy, ctc_loss, dual_loss, train_toy
from .metrics import (
    DerReport,
    MetricReport,
    cluster_purity,
    compute_der,
    compute_eer,
    compute_jer,
    hungarian_assign,
    pooled_report,
    relative_improvement,
    turns_purity,
)
from .pipeline import PipelineConfig, diarize_buffer
from .preprocess import (
    DenoiseParams,
    estimate_snr_db,
    rms_normalize,
    snr_db,
    spectral_gate_denoise,
)
from .vad import Segment, SpeechRegion, energy_vad, uniform_segment

__all__ = [
    "CANONICAL_RATE_HZ",
    "AudioBuffer",
    "AugmentSpec",
    "ClusterResult",
    "CorpusManifest",
    "CtcResult",
    "DenoiseParams",
    "DerReport",
    "MetricReport",
    "MfccEmbedder",
    "PipelineConfig",
    "Segment",
    "SpeakerProfile",
    "SpeechRegion",
    "ToyModel",
    "TrainConfig",
    "Turn",
    "WavSource",
    "add_noise",
    "agglomerative_cluster",
    "augment_file",
    "cluster_purity",
    "compute_der",
    "compute_eer",
    "compute_jer",
    "cosine_distance",
    "cross_entropy",
    "ctc_loss",
    "default_profile_pool",
    "diarize_buffer",
    "dual_loss",
    "emit_rttm",
    "energy_vad",
    "estimate_snr_db",
    "generate_dataset",
    "generate_mixture",
    "hungarian_assign",
    "labels_to_turns",
    "load_external_embeddings",
    "parse_rttm",
    "pitch_shift",
    "pooled_report",
    "read_wav",
    "relative_improvement",
    "resample",
    "rescale_turns",
    "rms_normalize",
    "snr_db",
    "speed_change",
    "spectral_gate_denoise",
    "synth_utterance",
    "train_toy",
    "turns_purity",
    "uniform_segment",
    "write_embeddings",
    "write_wav",
]

__version__ = "0.1.0"
