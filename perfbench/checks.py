"""Output checks, written against the RTTM and WAV formats rather than
the package, so a defect in the package cannot hide itself.

Each check is one operation in the run's attempted/failed count. DER is
recomputed on a 1 ms raster: every RTTM time lies on the 1 ms grid, so
the raster is exact, and any optimal speaker assignment gives the same
confusion, so ``linear_sum_assignment`` agrees with the package's
tie-breaking Hungarian mapping.
"""

from __future__ import annotations

import json
import wave
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

DER_TOLERANCE = 1e-6
# RTTM times carry 3 decimals, so a turn may end half a millisecond past
# the audio it was cut from.
EDGE_TOLERANCE_S = 1e-3


def parse_rttm(path: Path) -> list[tuple[str, str, int, int]]:
    """(file_id, speaker, onset_ms, offset_ms) per SPEAKER line."""
    turns = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if fields[0] != "SPEAKER" or len(fields) < 9:
            raise ValueError(f"{path}:{line_no}: not an RTTM SPEAKER line")
        onset, duration = float(fields[3]), float(fields[4])
        if onset < 0 or duration <= 0:
            raise ValueError(f"{path}:{line_no}: bad onset or duration")
        turns.append((fields[1], fields[7], round(onset * 1000), round((onset + duration) * 1000)))
    return turns


def _activity(turns, length):
    speakers = sorted({t[1] for t in turns})
    act = np.zeros((len(speakers), length), dtype=bool)
    for _, spk, on, off in turns:
        act[speakers.index(spk), on:off] = True
    return act


def raster_der(ref, hyp, collar_s: float) -> float:
    """DER from a 1 ms activity raster per speaker; NaN without reference speech."""
    length = max([t[3] for t in ref + hyp] + [1])
    scored = np.ones(length, dtype=bool)
    collar = round(collar_s * 1000)
    if collar > 0:
        for b in {x for t in ref for x in t[2:]}:
            scored[max(0, b - collar) : b + collar] = False
    r = _activity(ref, length)[:, scored]
    h = _activity(hyp, length)[:, scored]
    n_ref, n_hyp = r.sum(axis=0), h.sum(axis=0)
    overlap = np.array([[np.count_nonzero(a & b) for b in h] for a in r]).reshape(len(r), len(h))
    correct = 0
    if overlap.size:
        rows, cols = linear_sum_assignment(-overlap)
        correct = int(overlap[rows, cols].sum())
    missed = int(np.maximum(n_ref - n_hyp, 0).sum())
    fa = int(np.maximum(n_hyp - n_ref, 0).sum())
    confusion = int(np.minimum(n_ref, n_hyp).sum()) - correct
    total = int(n_ref.sum())
    return (missed + fa + confusion) / total if total else float("nan")


class Checker:
    """Runs the output checks of one input set and counts them."""

    def __init__(self, set_dir: Path, label: str) -> None:
        self.dir = set_dir
        self.label = label
        self.attempted = 0
        self.failures: list[str] = []

    def _check(self, what: str, fn) -> object:
        self.attempted += 1
        try:
            return fn()
        except (OSError, ValueError, KeyError, wave.Error) as exc:
            self.failures.append(f"[{self.label}] {what}: {exc}")
            return None

    def _hypothesis(self, file_id, hyp, duration_s, max_speakers):
        turns = parse_rttm(self.dir / hyp)
        ids = {t[0] for t in turns}
        if ids - {file_id}:
            raise ValueError(f"file_id(s) {sorted(ids)} do not pair with {file_id!r}")
        end_ms = max((t[3] for t in turns), default=0)
        if end_ms / 1000.0 > duration_s + EDGE_TOLERANCE_S:
            raise ValueError(f"turn ends at {end_ms / 1000.0} s, past the {duration_s} s audio")
        n_spk = len({t[1] for t in turns})
        if max_speakers is not None and n_spk > max_speakers:
            raise ValueError(f"{n_spk} speakers in a k={max_speakers} run")
        return turns

    def _scored(self, pair):
        ref = parse_rttm(self.dir / pair["ref"])
        if {t[0] for t in ref} != {pair["file_id"]}:
            raise ValueError(f"reference does not describe {pair['file_id']!r}")
        hyp = self._hypothesis(
            pair["file_id"], pair["hyp"], pair["duration_s"], pair["max_speakers"]
        )
        report = json.loads((self.dir / pair["report"]).read_text(encoding="utf-8"))
        oracle = raster_der(ref, hyp, pair["collar"])
        reported = report["der"]["der"]
        if not abs(oracle - reported) <= DER_TOLERANCE:
            raise ValueError(f"reported DER {reported!r} != raster DER {oracle!r}")
        return report

    def _audio(self, item):
        with wave.open(str(self.dir / item["path"]), "rb") as fh:
            seconds = fh.getnframes() / fh.getframerate()
        if abs(seconds - item["duration_s"]) > EDGE_TOLERANCE_S:
            raise ValueError(f"{seconds} s of audio, expected {item['duration_s']} s")

    def run(self, plan: dict) -> list[dict]:
        """Check every output; return the reports of the pooled pairs."""
        reports = []
        for pair in plan["pairs"]:
            report = self._check(f"{pair['hyp']} @ collar {pair['collar']}",
                                 lambda: self._scored(pair))
            if report is not None and pair["pooled"]:
                reports.append(report)
        for item in plan["unscored"]:
            self._check(item["hyp"], lambda: self._hypothesis(
                item["file_id"], item["hyp"], item["duration_s"], None))
        for item in plan["audio"]:
            self._check(item["path"], lambda: self._audio(item))
        return reports


def pooled(reports: list[dict]) -> tuple[float, float]:
    """Pooled DER and JER in percent, weighted by reference speech the
    way ``evaluate`` pools several files."""
    total = sum(r["der"]["total_ref_speech_s"] for r in reports)
    errors = sum(
        r["der"]["missed_s"] + r["der"]["false_alarm_s"] + r["der"]["confusion_s"]
        for r in reports
    )
    jer = sum(r["jer"] * r["der"]["total_ref_speech_s"] for r in reports)
    return 100.0 * errors / total, 100.0 * jer / total
