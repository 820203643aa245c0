"""Diarization scoring: DER, JER, purity, EER, relative improvement.

DER follows full timeline semantics: the file is partitioned at every
turn boundary into intervals with constant speaker sets, the reference
to hypothesis speaker mapping is the overlap-maximizing assignment, and
each interval contributes duration * (max(Nref, Nhyp) - Ncorrect) split
into missed, false-alarm, and confusion time. Overlapping speech is
counted per speaker, so DER can exceed 1.

The partition is one sweep over the sorted boundaries that keeps a
count of active turns per speaker, O(b log b) in the number of
boundaries; the no-score collar test bisects the sorted reference
edges for the nearest one on each side. One tally of a partition sums
each (reference, hypothesis) speaker pair's overlap and solves the
mapping once, and DER, JER, and purity all read it. ``pooled_report``
scores a set of files the way ``diarkit evaluate`` does: each file is
partitioned once, or twice with a collar (collared for DER, uncollared
for JER and purity).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .audio_io import Turn
from .errors import (
    EmptyInput,
    EmptyMatrix,
    EmptyReference,
    EmptyScores,
    LengthMismatch,
    MixedFiles,
    ZeroBaseline,
)


@dataclass(frozen=True)
class DerReport:
    """DER with its time components and the speaker mapping used."""

    missed_s: float
    false_alarm_s: float
    confusion_s: float
    total_ref_speech_s: float
    der: float
    mapping: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("missed_s", "false_alarm_s", "confusion_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.total_ref_speech_s <= 0:
            raise ValueError("total_ref_speech_s must be > 0")
        expect = (
            self.missed_s + self.false_alarm_s + self.confusion_s
        ) / self.total_ref_speech_s
        if abs(self.der - expect) > 1e-9 * max(1.0, expect):
            raise ValueError("der does not equal its components' ratio")

    def to_dict(self) -> dict:
        return {
            "missed_s": self.missed_s,
            "false_alarm_s": self.false_alarm_s,
            "confusion_s": self.confusion_s,
            "total_ref_speech_s": self.total_ref_speech_s,
            "der": self.der,
            "mapping": dict(self.mapping),
        }


@dataclass(frozen=True)
class MetricReport:
    """One evaluation run's metrics; optional fields may be None."""

    der: DerReport
    jer: float
    cluster_purity: float
    snr_db: float | None = None
    eer: float | None = None
    relative_improvement: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.jer <= 1.0:
            raise ValueError("jer must be in [0, 1]")
        if not 0.0 <= self.cluster_purity <= 1.0:
            raise ValueError("cluster_purity must be in [0, 1]")
        if self.eer is not None and not 0.0 <= self.eer <= 0.5 + 1e-6:
            raise ValueError("eer must be in [0, 0.5]")

    def to_dict(self) -> dict:
        return {
            "der": self.der.to_dict(),
            "jer": self.jer,
            "cluster_purity": self.cluster_purity,
            "snr_db": self.snr_db,
            "eer": self.eer,
            "relative_improvement": self.relative_improvement,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def hungarian_assign(cost) -> dict[int, int]:
    """Minimum-cost assignment of min(n, m) row-column pairs.

    Among equally cheap assignments the lexicographically smallest
    mapping wins: earlier rows assigned where possible, each to the
    lowest workable column.

    Raises EmptyMatrix on a dimension of zero.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    n, m = c.shape
    if n == 0 or m == 0:
        raise EmptyMatrix("cost matrix must have at least one row and column")
    if not np.all(np.isfinite(c)):
        raise ValueError("costs must be finite")

    def lap_value(rows: list[int], cols: list[int]) -> float:
        if not rows or not cols:
            return 0.0
        sub = c[np.ix_(rows, cols)]
        ri, ci = linear_sum_assignment(sub)
        return float(sub[ri, ci].sum())

    all_rows = list(range(n))
    all_cols = list(range(m))
    total = lap_value(all_rows, all_cols)
    tol = 1e-9 * max(1.0, abs(total))

    assigned: dict[int, int] = {}
    pinned_cost = 0.0
    for i in range(n):
        free_rows = [r for r in all_rows if r not in assigned and r != i]
        for col in all_cols:
            if col in assigned.values():
                continue
            free_cols = [q for q in all_cols if q not in assigned.values() and q != col]
            value = pinned_cost + c[i, col] + lap_value(free_rows, free_cols)
            if abs(value - total) <= tol:
                assigned[i] = col
                pinned_cost += c[i, col]
                break
    return assigned


def _single_file_id(ref: list[Turn], hyp: list[Turn]) -> None:
    ids = {t.file_id for t in ref} | {t.file_id for t in hyp}
    if len(ids) > 1:
        raise MixedFiles(f"turns span multiple files: {sorted(ids)}")


def _partition(
    ref: list[Turn], hyp: list[Turn], collar_s: float = 0.0
) -> list[tuple[float, frozenset, frozenset]]:
    """Elementary intervals with constant speaker sets.

    One sweep over the sorted bounds: each bound applies its turns'
    onsets and offsets to per-speaker counts of active turns, one
    count table for the reference and one for the hypothesis. Intervals
    whose midpoint falls within collar_s of any reference turn boundary
    are excluded entirely (numerator and denominator); only the nearest
    reference edge on each side of the midpoint, found by bisection,
    needs checking.
    """
    steps: dict[float, list[tuple[dict, str, int]]] = {}
    counts: tuple[dict, dict] = ({}, {})
    for active, turns in zip(counts, (ref, hyp)):
        for t in turns:
            steps.setdefault(t.onset_s, []).append((active, t.speaker_id, 1))
            steps.setdefault(t.offset_s, []).append((active, t.speaker_id, -1))
    edges = set(steps)
    ref_edges = sorted({b for t in ref for b in (t.onset_s, t.offset_s)})
    if collar_s > 0.0:
        for b in ref_edges:
            edges.add(b - collar_s)
            edges.add(b + collar_s)
    bounds = sorted(edges)

    out = []
    r_act = h_act = frozenset()
    for lo, hi in zip(bounds, bounds[1:]):
        if lo in steps:
            for active, spk, step in steps[lo]:
                active[spk] = active.get(spk, 0) + step
            r_act, h_act = (frozenset(s for s, n in c.items() if n > 0) for c in counts)
        if collar_s > 0.0:
            mid = (lo + hi) / 2.0
            j = bisect_left(ref_edges, mid)
            if any(abs(mid - b) < collar_s for b in ref_edges[max(0, j - 1) : j + 1]):
                continue
        if r_act or h_act:
            out.append((hi - lo, r_act, h_act))
    return out


class _Tally(NamedTuple):
    """A partition with each side's speech counted per speaker, the time
    each (r_spk[i], h_spk[j]) pair speaks together summed in interval
    order, the overlap-maximizing speaker map, and the hypothesis time
    credited to the reference speaker each hypothesis speaker overlaps
    most."""

    intervals: list
    ref_s: float
    hyp_s: float
    r_spk: list
    h_spk: list
    overlap: np.ndarray
    mapping: dict
    credit: float


def _tally(intervals: list[tuple[float, frozenset, frozenset]]) -> _Tally:
    r_spk = sorted({s for _, r, _ in intervals for s in r})
    h_spk = sorted({s for _, _, h in intervals for s in h})
    row, col = ({s: i for i, s in enumerate(spk)} for spk in (r_spk, h_spk))
    overlap = np.zeros((len(r_spk), len(h_spk)))
    for d, r_act, h_act in intervals:
        for r in r_act:
            for h in h_act:
                overlap[row[r], col[h]] += d
    pairs = hungarian_assign(-overlap) if overlap.size else {}
    mapping = {r_spk[i]: h_spk[j] for i, j in pairs.items() if overlap[i, j] > 0.0}
    ref_s = sum(d * len(r) for d, r, _ in intervals)
    hyp_s = sum(d * len(h) for d, _, h in intervals)
    credit = 0.0
    for best in overlap.max(axis=0, initial=0.0).tolist():
        credit += best
    # Summed in another order than hyp_s, credit can pass it by an ulp.
    credit = min(credit, hyp_s)
    return _Tally(intervals, ref_s, hyp_s, r_spk, h_spk, overlap, mapping, credit)


def _check_collar(collar_s: float) -> None:
    if not 0.0 <= collar_s < np.inf:
        raise ValueError(f"collar_s must be finite and >= 0, got {collar_s}")


def _der(t: _Tally) -> DerReport:
    if t.ref_s <= 0.0:
        raise EmptyReference("reference contains no scored speech")
    missed = fa = confusion = 0.0
    for d, r_act, h_act in t.intervals:
        n_ref, n_hyp = len(r_act), len(h_act)
        n_correct = sum(1 for r, h in t.mapping.items() if r in r_act and h in h_act)
        missed += d * max(0, n_ref - n_hyp)
        fa += d * max(0, n_hyp - n_ref)
        confusion += d * (min(n_ref, n_hyp) - n_correct)
    der = (missed + fa + confusion) / t.ref_s
    return DerReport(missed, fa, confusion, t.ref_s, der, t.mapping)


def _jer(t: _Tally) -> float:
    if t.ref_s <= 0.0:
        raise EmptyReference("reference contains no speech")
    errors = []
    for i, r in enumerate(t.r_spk):
        h = t.mapping.get(r)
        if h is None:
            errors.append(1.0)
            continue
        union = sum(d for d, ra, ha in t.intervals if r in ra or h in ha)
        errors.append(1.0 - float(t.overlap[i, t.h_spk.index(h)]) / union)
    return float(np.mean(errors))


def compute_der(
    ref: list[Turn], hyp: list[Turn], collar_s: float = 0.0
) -> DerReport:
    """Diarization error rate of a hypothesis against a reference.

    Raises MixedFiles when turns name different files, EmptyReference
    when no reference speech survives the collar, and ValueError unless
    0 <= collar_s < inf.
    """
    _check_collar(collar_s)
    _single_file_id(ref, hyp)
    return _der(_tally(_partition(ref, hyp, collar_s)))


def compute_jer(ref: list[Turn], hyp: list[Turn]) -> float:
    """Jaccard error rate under the DER-optimal speaker mapping.

    Per reference speaker: 1 - |time(r) and time(h)| / |time(r) or
    time(h)| against the mapped hypothesis speaker, 1 when unmapped;
    averaged over reference speakers.
    """
    _single_file_id(ref, hyp)
    return _jer(_tally(_partition(ref, hyp)))


def pooled_report(
    files: dict[str, tuple[list[Turn], list[Turn]]], collar_s: float = 0.0
) -> MetricReport:
    """DER, JER, and purity of several files pooled as md-eval pools them.

    ``files`` maps file_id to (ref, hyp). DER's time components and
    reference speech are summed before dividing; a file with no scored
    reference speech adds its hypothesis speech outside the collars as
    false alarm and nothing else. JER is weighted by scored reference
    speech, and purity is total credit over total hypothesis speech.
    The collar applies to DER only; mapping keys are ``file_id/speaker``.

    Raises EmptyReference when no file has scored reference speech,
    MixedFiles when one file's turns name different files, and
    ValueError unless 0 <= collar_s < inf.
    """
    _check_collar(collar_s)
    missed = fa = confusion = total = credit = hyp_s = 0.0
    jers, mapping = [], {}
    for fid in sorted(files):
        ref, hyp = files[fid]
        _single_file_id(ref, hyp)
        plain = _tally(_partition(ref, hyp))
        scored = _tally(_partition(ref, hyp, collar_s)) if collar_s > 0.0 else plain
        credit += plain.credit
        hyp_s += plain.hyp_s
        if scored.ref_s <= 0.0:
            fa += scored.hyp_s
            continue
        der = _der(scored)
        missed += der.missed_s
        fa += der.false_alarm_s
        confusion += der.confusion_s
        total += der.total_ref_speech_s
        mapping.update({f"{fid}/{k}": v for k, v in der.mapping.items()})
        jers.append(_jer(plain) * der.total_ref_speech_s)
    if total <= 0.0:
        raise EmptyReference("reference contains no scored speech in any file")
    der = DerReport(missed, fa, confusion, total, (missed + fa + confusion) / total, mapping)
    purity = credit / hyp_s if hyp_s > 0.0 else 0.0
    return MetricReport(der=der, jer=sum(jers) / total, cluster_purity=purity)


def cluster_purity(
    ref_speaker_per_segment, cluster_labels, weights=None
) -> float:
    """Fraction of segment weight claimed by each cluster's majority.

    Unweighted calls count segments; passing durations as ``weights``
    gives the time-weighted version.

    Raises LengthMismatch on different lengths and EmptyInput on none.
    """
    speakers = list(ref_speaker_per_segment)
    labels = list(cluster_labels)
    if len(speakers) != len(labels):
        raise LengthMismatch(
            f"{len(speakers)} speaker ids vs {len(labels)} cluster labels"
        )
    if weights is None:
        weights = [1.0] * len(speakers)
    else:
        weights = [float(w) for w in weights]
        if len(weights) != len(speakers):
            raise LengthMismatch(
                f"{len(speakers)} speaker ids vs {len(weights)} weights"
            )
    if not speakers:
        raise EmptyInput("purity needs at least one segment")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be >= 0")
    total = sum(weights)
    if total <= 0:
        raise ValueError("total weight must be > 0")

    per_cluster: dict = {}
    for spk, lab, w in zip(speakers, labels, weights):
        per_cluster.setdefault(lab, {}).setdefault(spk, 0.0)
        per_cluster[lab][spk] += w
    majority = sum(max(counts.values()) for counts in per_cluster.values())
    return majority / total


def turns_purity(ref: list[Turn], hyp: list[Turn]) -> float:
    """Duration-weighted purity of hypothesis speakers against the
    reference: each hypothesis speaker's time is credited to the
    reference speaker it overlaps most. 0.0 when there is no
    hypothesis speech.
    """
    _single_file_id(ref, hyp)
    t = _tally(_partition(ref, hyp))
    return t.credit / t.hyp_s if t.hyp_s > 0.0 else 0.0


def compute_eer(genuine_scores, impostor_scores) -> float:
    """Equal error rate of a score threshold sweep (accept iff >= t).

    The crossing between the false-acceptance and false-rejection
    curves is linearly interpolated between adjacent thresholds.

    Raises EmptyScores when either list is empty.
    """
    g = np.asarray(list(genuine_scores), dtype=np.float64)
    im = np.asarray(list(impostor_scores), dtype=np.float64)
    if g.size == 0 or im.size == 0:
        raise EmptyScores("both genuine and impostor scores are required")

    ts = np.unique(np.concatenate([g, im]))
    far = np.mean(im[None, :] >= ts[:, None], axis=1)
    frr = np.mean(g[None, :] < ts[:, None], axis=1)
    # Virtual endpoint above every score: accept nothing.
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    diff = far - frr  # starts at +1 (lowest threshold accepts all)

    j = int(np.argmax(diff <= 0.0))
    if diff[j] == 0.0:
        return float(far[j])
    d1, d2 = diff[j - 1], diff[j]
    alpha = d1 / (d1 - d2)
    return float(far[j - 1] + alpha * (far[j] - far[j - 1]))


def relative_improvement(baseline: float, value: float) -> float:
    """(baseline - value) / baseline for error metrics (lower better).

    Raises ZeroBaseline unless baseline > 0.
    """
    if baseline <= 0.0:
        raise ZeroBaseline("baseline must be > 0")
    if value < 0.0:
        raise ValueError("value must be >= 0")
    return (baseline - value) / baseline
