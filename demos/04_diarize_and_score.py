"""Run the full diarization pipeline and score it against the truth.

The pipeline is VAD -> fixed windows -> MFCC embeddings -> average-link
agglomerative clustering -> speaker turns. Scoring reports DER (missed,
false alarm, confusion over reference speech) and purity per file, then
all files pooled as `diarkit evaluate` pools them.

The command-line equivalents are:
    diarkit corpus demo_output/pipeline --layout "2:2,3:1" --seed 21
    diarkit diarize demo_output/pipeline/2/2_000.wav --num-speakers 2
    diarkit evaluate --ref <ref.rttm> --hyp <hyp.rttm>

Usage: python3 demos/04_diarize_and_score.py [out_dir]
"""

import sys
from pathlib import Path

from diarkit import (
    PipelineConfig,
    compute_der,
    diarize_buffer,
    generate_dataset,
    parse_rttm,
    pooled_report,
    read_wav,
    turns_purity,
)

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output/pipeline")
manifest = generate_dataset(out_dir, layout={2: 2, 3: 1}, seed=21)
print(f"generated {len(manifest.entries)} conversations under {out_dir}\n")

print(f"{'file':10s} {'speakers':>8s} {'found':>5s} {'DER':>7s} {'purity':>7s}")
files = {}
for entry in manifest.entries:
    buf = read_wav(out_dir / entry.path)
    ref = parse_rttm((out_dir / entry.rttm_path).read_text(encoding="utf-8"))
    file_id = Path(entry.path).stem

    # Known speaker count. Drop num_speakers to let the calibrated
    # distance threshold decide instead.
    config = PipelineConfig(num_speakers=entry.folder)
    hyp, segments, labels = diarize_buffer(buf, config, file_id=file_id)

    report = compute_der(ref, hyp)
    purity = turns_purity(ref, hyp)
    print(
        f"{file_id:10s} {entry.folder:8d} {len(set(labels)):5d} "
        f"{100 * report.der:6.1f}% {purity:7.3f}"
    )
    files[file_id] = (ref, hyp)

pooled = pooled_report(files)
print(
    f"{'pooled':10s} {'':8s} {'':5s} {100 * pooled.der.der:6.1f}% "
    f"{pooled.cluster_purity:7.3f}  (JER {100 * pooled.jer:.1f}%)"
)

print("\ncomponents of the last file's DER:")
print(f"  missed      {report.missed_s:6.2f} s")
print(f"  false alarm {report.false_alarm_s:6.2f} s")
print(f"  confusion   {report.confusion_s:6.2f} s")
print(f"  ref speech  {report.total_ref_speech_s:6.2f} s")
print(f"  speaker map {report.mapping}")
