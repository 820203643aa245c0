"""Diarization scoring: DER, JER, purity, EER, relative improvement.

DER follows full timeline semantics: the file is partitioned at every
turn boundary into intervals with constant speaker sets, the reference
to hypothesis speaker mapping is the overlap-maximizing assignment, and
each interval contributes duration * (max(Nref, Nhyp) - Ncorrect) split
into missed, false-alarm, and confusion time. Overlapping speech is
counted per speaker, so DER can exceed 1.

A file is scored from its turn columns (``TurnColumns``: file ids,
speaker ids, onsets, durations), which ``rttm_columns`` parses without a
Turn object per line; a Turn list goes through one conversion to them.
The partition is held as arrays: the kept intervals' durations and two
(intervals, speakers) masks of who speaks in each, built from the
sorted unique boundaries with searchsorted and a running count of
active turns per speaker, O(b log b + b s) in b boundaries and s
speakers. The no-score collar test searches the sorted reference edges
for the nearest one on each side. One tally of a partition sums each
(reference, hypothesis) speaker pair's overlap and solves the mapping
once, and DER, JER, and purity all read it. Every time total is added
left to right in interval order with ``np.cumsum``, the order a Python
loop adds in, so the scores do not depend on numpy's pairwise
summation. ``pooled_report``
scores a set of files the way ``diarkit evaluate`` does: each file is
partitioned once, or twice with a collar (collared for DER, uncollared
for JER and purity).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np
import numpy.ma  # noqa: F401  np.unique and np.percentile reach it; numpy 2 loads it lazily

from .audio_io import Turn, TurnColumns
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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _lap_value(cost: np.ndarray) -> tuple[float, dict, list, list]:
    """Minimum total of a min(n, m) assignment, by shortest augmenting
    paths (Crouse 2016), the method and the tie rules of scipy's
    ``linear_sum_assignment``, so both pick the same pairs.

    Returns the total, summed over the pairs in row order, the pairs as
    {row: column}, and optimal duals u (rows) and v (columns):
    c[r, q] - u[r] - v[q] >= 0 everywhere and 0 on the pairs, with the
    duals of the longer side <= 0 and 0 where it is left unassigned.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.size == 0:
        return 0.0, {}, [0.0] * c.shape[0], [0.0] * c.shape[1]
    flip = c.shape[1] < c.shape[0]  # solve with rows on the shorter side
    a = (c.T if flip else c).tolist()
    nr, nc = len(a), len(a[0])
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        spc, path = [math.inf] * nc, [-1] * nc
        remaining = list(range(nc - 1, -1, -1))  # constant costs give the identity
        rows_seen, cols_seen = [], []
        i, sink, min_val = cur, -1, 0.0
        while sink == -1:
            rows_seen.append(i)
            row, ui = a[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                # On a tie, prefer a column that ends the path.
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen:
            if i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if flip:
        pairs = dict(sorted(zip(col4row, range(nr))))
        u, v = v, u
    else:
        pairs = dict(enumerate(col4row))
    rows = list(pairs)
    total = float(c[rows, [pairs[r] for r in rows]].sum())
    return total, pairs, u, v


def hungarian_assign(cost) -> dict[int, int]:
    """Minimum-cost assignment of min(n, m) row-column pairs.

    Among equally cheap assignments the lexicographically smallest
    mapping wins: earlier rows assigned where possible, each to the
    lowest workable column. A candidate pair is workable when pinning
    it keeps the minimum total within 1e-9 (relative); each minimum
    comes from ``_lap_value``, Crouse's shortest-augmenting-path solver.
    The duals of the first solve settle most candidates without another
    one, wherever rounding cannot change the answer.

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

    total, best, u, v = _lap_value(c)
    tol = 1e-9 * max(1.0, abs(total))
    # Pinning (i, q) costs at least its reduced cost more than the total.
    # `slack` bounds what rounding can move that by: the duals' measured
    # infeasibility and gap, plus 16 (n + m)^2 ulps of the largest
    # magnitude for the rounding inside the solves and sums.
    reduced = c - np.array(u)[:, None] - np.array(v)
    scale = max(1.0, float(np.abs(c).max()), *map(abs, u), *map(abs, v))
    slack = (
        (n + m) * max(0.0, -float(reduced.min()))
        + abs(math.fsum(u) + math.fsum(v) - total)
        + 16 * (n + m) ** 2 * np.finfo(np.float64).eps * scale
    )
    assigned: dict[int, int] = {}
    free_cols = list(range(m))
    pinned_cost = 0.0
    for i in range(n):
        near = reduced[i].tolist()
        for col in [q for q in free_cols if near[q] <= tol + slack]:
            if best.get(i) == col and slack <= tol and all(
                best.get(r) == q for r, q in assigned.items()
            ):
                # The first solve's own pair, with every earlier pin
                # from it too: the pinned total is the minimum exactly.
                fits = True
            else:
                rows = [r for r in range(n) if r not in assigned and r != i]
                cols = [q for q in free_cols if q != col]
                rest = _lap_value(c[np.ix_(rows, cols)])[0]
                fits = abs(pinned_cost + c[i, col] + rest - total) <= tol
            if fits:
                assigned[i] = col
                free_cols.remove(col)
                pinned_cost += c[i, col]
                break
    return assigned


def _columns(turns: TurnColumns | list[Turn]) -> TurnColumns:
    """The one conversion: a Turn list as columns; columns as they are."""
    if isinstance(turns, TurnColumns):
        return turns
    rows = [(t.file_id, t.speaker_id, t.onset_s, t.duration_s) for t in turns]
    return TurnColumns(*map(list, zip(*rows)))


def _one_file(ref, hyp) -> tuple[TurnColumns, TurnColumns]:
    """Both sides as columns; raises MixedFiles when they name different files."""
    ref, hyp = _columns(ref), _columns(hyp)
    ids = set(ref.file_id) | set(hyp.file_id)
    if len(ids) > 1:
        raise MixedFiles(f"turns span multiple files: {sorted(ids)}")
    return ref, hyp


class _Intervals(NamedTuple):
    """The kept elementary intervals of a partition, in time order: their
    durations hi - lo, and (intervals, speakers) masks of who speaks in
    each, over the reference and hypothesis speakers active in any kept
    interval (r_spk, h_spk, sorted)."""

    d: np.ndarray
    ref: np.ndarray
    hyp: np.ndarray
    r_spk: list
    h_spk: list


def _turn_arrays(turns: TurnColumns) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted speaker names, and each turn's onset, offset, and speaker index."""
    names = sorted(set(turns.speaker_id))
    col = {s: i for i, s in enumerate(names)}
    on = np.array(turns.onset_s, dtype=np.float64)
    off = on + np.array(turns.duration_s, dtype=np.float64)
    who = np.array([col[s] for s in turns.speaker_id], dtype=np.intp)
    return names, on, off, who


def _active(bounds: np.ndarray, on, off, who, n_spk: int) -> np.ndarray:
    """(len(bounds) - 1, n_spk) mask of the speakers with a turn over
    each interval between consecutive bounds: per speaker, a running
    count of its turns, one up at an onset's bound and one down at an
    offset's."""
    n = len(bounds)
    first, last = np.searchsorted(bounds, on), np.searchsorted(bounds, off)
    act = np.empty((n_spk, max(n - 1, 0)), dtype=bool)
    for s in range(n_spk):
        mine = who == s
        count = np.bincount(first[mine], minlength=n) - np.bincount(last[mine], minlength=n)
        act[s] = np.cumsum(count)[:-1] > 0
    return act.T


def _intervals(ref: TurnColumns, hyp: TurnColumns, collar_s: float = 0.0) -> _Intervals:
    """Elementary intervals with constant speaker sets.

    The bounds are every turn's onset and offset, and with a collar each
    reference edge +- collar_s. Intervals whose midpoint falls within
    collar_s of any reference turn boundary are excluded entirely
    (numerator and denominator); only the nearest reference edge on
    each side of the midpoint, found by searchsorted, needs checking.
    Intervals where no one speaks are dropped too, and so are speakers
    active in no kept interval: an all-zero row of the speaker
    assignment can change which of two tied columns the others get.
    """
    r_names, r_on, r_off, r_who = _turn_arrays(ref)
    h_names, h_on, h_off, h_who = _turn_arrays(hyp)
    ref_edges = np.unique(np.concatenate((r_on, r_off)))
    parts = [ref_edges, h_on, h_off]
    if collar_s > 0.0:
        parts += [ref_edges - collar_s, ref_edges + collar_s]
    bounds = np.unique(np.concatenate(parts))
    lo, hi = bounds[:-1], bounds[1:]
    r_act = _active(bounds, r_on, r_off, r_who, len(r_names))
    h_act = _active(bounds, h_on, h_off, h_who, len(h_names))
    keep = r_act.any(axis=1) | h_act.any(axis=1)
    if collar_s > 0.0:
        mid = (lo + hi) / 2.0
        j = np.searchsorted(ref_edges, mid)
        edges = np.concatenate(([-np.inf], ref_edges, [np.inf]))
        keep &= (np.abs(mid - edges[j]) >= collar_s) & (np.abs(mid - edges[j + 1]) >= collar_s)
    r_act, h_act = r_act[keep], h_act[keep]
    r_used, h_used = r_act.any(axis=0), h_act.any(axis=0)
    return _Intervals(
        (hi - lo)[keep],
        r_act[:, r_used],
        h_act[:, h_used],
        list(compress(r_names, r_used)),
        list(compress(h_names, h_used)),
    )


def _in_order(terms: np.ndarray) -> float:
    """The sum of terms added left to right, as a Python loop adds them;
    np.sum adds pairwise, which moves the last bits."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


class _Tally(NamedTuple):
    """Kept intervals with each side's speech counted per speaker, the
    time each (r_spk[i], h_spk[j]) pair speaks together summed in
    interval order, the overlap-maximizing speaker map as the index
    pairs {i: j} whose overlap is > 0, and the hypothesis time credited
    to the reference speaker each hypothesis speaker overlaps most."""

    intervals: _Intervals
    ref_s: float
    hyp_s: float
    overlap: np.ndarray
    pairs: dict
    credit: float


def _tally(iv: _Intervals) -> _Tally:
    overlap = np.zeros((len(iv.r_spk), len(iv.h_spk)))
    # Pair by pair, over the intervals where both speak, so nothing the
    # size of (intervals, hypothesis speakers) is summed.
    for i in range(len(iv.r_spk)):
        d, hyp = iv.d[iv.ref[:, i]], iv.hyp[iv.ref[:, i]]
        for j in np.flatnonzero(hyp.any(axis=0)):
            overlap[i, j] = _in_order(d[hyp[:, j]])
    pairs = hungarian_assign(-overlap) if overlap.size else {}
    pairs = {i: j for i, j in pairs.items() if overlap[i, j] > 0.0}
    ref_s = _in_order(iv.d * iv.ref.sum(axis=1))
    hyp_s = _in_order(iv.d * iv.hyp.sum(axis=1))
    credit = 0.0
    for best in overlap.max(axis=0, initial=0.0).tolist():
        credit += best
    # Summed in another order than hyp_s, credit can pass it by an ulp.
    credit = min(credit, hyp_s)
    return _Tally(iv, ref_s, hyp_s, overlap, pairs, credit)


def _check_collar(collar_s: float) -> None:
    if not 0.0 <= collar_s < np.inf:
        raise ValueError(f"collar_s must be finite and >= 0, got {collar_s}")


def _der(t: _Tally) -> DerReport:
    if t.ref_s <= 0.0:
        raise EmptyReference("reference contains no scored speech")
    iv = t.intervals
    n_ref, n_hyp = iv.ref.sum(axis=1), iv.hyp.sum(axis=1)
    n_correct = np.zeros_like(n_ref)
    for i, j in t.pairs.items():
        n_correct += iv.ref[:, i] & iv.hyp[:, j]
    missed = _in_order(iv.d * np.maximum(0, n_ref - n_hyp))
    fa = _in_order(iv.d * np.maximum(0, n_hyp - n_ref))
    confusion = _in_order(iv.d * (np.minimum(n_ref, n_hyp) - n_correct))
    der = (missed + fa + confusion) / t.ref_s
    mapping = {iv.r_spk[i]: iv.h_spk[j] for i, j in t.pairs.items()}
    return DerReport(missed, fa, confusion, t.ref_s, der, mapping)


def _jer(t: _Tally) -> float:
    if t.ref_s <= 0.0:
        raise EmptyReference("reference contains no speech")
    iv = t.intervals
    errors = [1.0] * len(iv.r_spk)  # an unmapped speaker's error is 1
    for i, j in t.pairs.items():
        union = _in_order(iv.d[iv.ref[:, i] | iv.hyp[:, j]])
        errors[i] = 1.0 - float(t.overlap[i, j]) / union
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
    ref, hyp = _one_file(ref, hyp)
    return _der(_tally(_intervals(ref, hyp, collar_s)))


def compute_jer(ref: list[Turn], hyp: list[Turn]) -> float:
    """Jaccard error rate under the DER-optimal speaker mapping.

    Per reference speaker: 1 - |time(r) and time(h)| / |time(r) or
    time(h)| against the mapped hypothesis speaker, 1 when unmapped;
    averaged over reference speakers.
    """
    ref, hyp = _one_file(ref, hyp)
    return _jer(_tally(_intervals(ref, hyp)))


def pooled_report(
    files: dict[str, tuple[TurnColumns | list[Turn], TurnColumns | list[Turn]]],
    collar_s: float = 0.0,
) -> MetricReport:
    """DER, JER, and purity of several files pooled as md-eval pools them.

    ``files`` maps file_id to (ref, hyp), each side a Turn list or the
    ``TurnColumns`` that ``rttm_columns`` parses. DER's time components and
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
        ref, hyp = _one_file(*files[fid])
        plain = _tally(_intervals(ref, hyp))
        scored = _tally(_intervals(ref, hyp, collar_s)) if collar_s > 0.0 else plain
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
    ref, hyp = _one_file(ref, hyp)
    t = _tally(_intervals(ref, hyp))
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
