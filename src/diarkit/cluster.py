"""Average-linkage agglomerative clustering over segment embeddings.

The embeddings are scaled to unit rows. Bitwise-equal rows merge first,
at exactly 0, as copies of one vector must. The distinct rows are then
merged by an NN-chain (Müllner 2011) over one sum vector per cluster:
the average cosine distance of clusters A and B is
1 - sum(A) . sum(B) / (|A| |B|), so each step is one mat-vec over the
live clusters, which are kept in the leading rows, and no pairwise
distance is stored. The greedy merge sequence, in which each merge
takes the pair of clusters with the smallest average distance, is read
off the chain. Ties between copies of one vector fall to the pair whose
member segments come first; distinct pairs whose distances tie
mathematically (small-integer vectors, say) merge in the order rounding
gives their computed distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .audio_io import Turn
from .errors import DimMismatch, EmptyInput, KTooLarge, LengthMismatch, ZeroVector
from .vad import Segment

MERGE_GAP_S = 0.25


@dataclass(frozen=True)
class ClusterResult:
    """Cluster id per segment plus the merge history that produced it."""

    labels: tuple[int, ...]
    merge_trace: tuple[tuple[int, int, float], ...]

    @property
    def n_clusters(self) -> int:
        return len(set(self.labels))


def cosine_distance(a, b) -> float:
    """1 minus the cosine of the angle between two vectors, in [0, 2].

    Computed as half the squared distance between the unit vectors, so
    copies read exactly 0. Clustering reads its distances off cluster
    sums instead, 1 - sum(A) . sum(B) / (|A| |B|), which can differ
    from this in the last bits.
    Raises ZeroVector on a zero input, DimMismatch on unequal dims and
    ValueError on a NaN or infinite component.
    """
    u, v = _unit_rows([a, b])
    return min(0.5 * float(np.sum((u - v) ** 2)), 2.0)


def _unit_rows(embs) -> np.ndarray:
    """The embeddings, a matrix or n vectors, as a new (n, dim) matrix of unit rows.

    Raises DimMismatch on unequal dims, ZeroVector on a zero vector and
    ValueError on a NaN or infinite component.
    """
    if len({np.shape(e) for e in embs}) > 1:
        raise DimMismatch("all embeddings must share one dimension")
    matrix = np.array(embs, dtype=np.float64)  # a copy: its rows are scaled in place
    if matrix.ndim != 2:
        raise DimMismatch("each embedding must be a vector")
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("embeddings must be nonzero for cosine distances")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("embeddings must be finite")
    matrix /= norms[:, None]
    return matrix


def agglomerative_cluster(embs, stop) -> ClusterResult:
    """Cluster the rows of ``embs`` bottom-up by average cosine distance.

    ``stop`` is ``{"threshold": t}`` (merge while the best distance is
    at most t) or ``{"k": k}`` (merge down to k clusters). Labels are
    dense, numbered by each cluster's first segment; merge_trace rows
    are (first index of a, first index of b, distance) with a before b.

    Raises EmptyInput on no embeddings, KTooLarge when k exceeds n and
    ValueError on a malformed stop or a non-finite embedding.
    """
    n = len(embs)
    if n == 0:
        raise EmptyInput("nothing to cluster")
    if not isinstance(stop, dict) or set(stop) not in ({"threshold"}, {"k"}):
        raise ValueError('stop must be {"threshold": t} or {"k": k}')
    threshold = stop.get("threshold")
    k = stop.get("k")
    if "k" in stop:
        if int(k) != k or k < 1:
            raise ValueError("k must be a positive integer")
        k = int(k)
        if k > n:
            raise KTooLarge(f"k={k} exceeds {n} embeddings")
    elif isinstance(threshold, bool) or not (isinstance(threshold, Real) and 0 <= threshold < np.inf):
        raise ValueError("threshold must be a finite number >= 0")

    unit = _unit_rows(embs)
    if n == 1:
        return ClusterResult(labels=(0,), merge_trace=())
    trace = _linkage(unit)
    trace = trace[: n - k] if k is not None else [m for m in trace if m[2] <= threshold]

    # A merge joins the clusters whose first members are lo < hi; point
    # hi at lo and every segment resolves to its cluster's first member.
    root = list(range(n))
    for lo, hi, _ in trace:
        root[hi] = lo
    for i in range(n):
        root[i] = root[root[i]]
    _, labels = np.unique(root, return_inverse=True)
    return ClusterResult(labels=tuple(labels.tolist()), merge_trace=tuple(trace))


def _linkage(unit: np.ndarray) -> list[tuple[int, int, float]]:
    """Average-linkage merges of n >= 2 unit rows, as the merge_trace
    rows (first of a, first of b, distance) in greedy order.

    Copies merge first at 0, each into the first row of its group. The
    chain then runs over the distinct rows, each weighted by its count.
    Merges tied at one distance each join the first member of the
    cluster they build together, smallest (lo, hi) first: the greedy
    order when tied clusters are equidistant, as copies of a vector are.
    """
    order = np.lexsort(unit.T[::-1])  # stable: each group of copies ascends
    rows = unit[order]
    new = np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))
    del rows
    firsts = order[new][np.cumsum(new) - 1]  # each sorted row's group's first
    # Merges are [distance, lo, hi] in the order made, lo < hi the first
    # members of the clusters joined; taken_by[i] is the later merge that
    # joins merge i's cluster. A group's copies merge one into the next.
    merges = [[0.0, a, b] for a, b in zip(firsts[~new].tolist(), order[~new].tolist())]
    taken_by = [None] * (len(unit) - 1)
    for i in range(1, len(merges)):
        if merges[i][1] == merges[i - 1][1]:
            taken_by[i - 1] = i

    # Live clusters sit in rows [0, live), in order of first member at
    # the start; a merge frees one row and the last live row moves in.
    first, count = np.unique(firsts, return_counts=True)
    sums = unit[first] * count[:, None]
    size = count.astype(np.float64)
    first = first.tolist()
    last_copy = {a: i for i, (_, a, _) in enumerate(merges)}
    made = [last_copy.get(f) for f in first]  # the merge that built each row
    chain: list[int] = []
    live = len(first)
    while live > 1:
        if not chain:
            chain.append(0)
        x = chain[-1]
        d = 1.0 - (sums[:live] @ sums[x]) / (size[:live] * size[x])
        np.maximum(d, 0.0, out=d)  # nearly parallel rows can read -1 ulp
        d[x] = np.inf
        y = int(d.argmin())
        if len(chain) > 1 and (d[chain[-2]] <= d[y] or y in chain):
            # Reciprocal nearest neighbours: merge. A tie keeps the
            # previous link, and so does a neighbour already on the chain
            # (rounding can make d(a, b) and d(b, a) differ), so the
            # chain cannot cycle.
            y = chain[-2]
            del chain[-2:]
            lo, hi = min(x, y), max(x, y)
            for m in (made[lo], made[hi]):
                if m is not None:
                    taken_by[m] = len(merges)
            merges.append([float(d[y]), min(first[x], first[y]), max(first[x], first[y])])
            sums[lo] += sums[hi]
            size[lo] += size[hi]
            first[lo] = min(first[lo], first[hi])
            made[lo] = len(merges) - 1
            live -= 1
            sums[hi], size[hi], first[hi], made[hi] = sums[live], size[live], first[live], made[live]
            chain = [hi if c == live else c for c in chain]
        else:
            chain.append(y)

    # Latest first: a merge taken at its own distance reads its taker's final lo.
    for i in reversed(range(len(merges))):
        p = taken_by[i]
        if p is not None and merges[p][0] == merges[i][0]:
            merges[i][1] = merges[p][1]
    merges.sort()
    return [(lo, hi, d) for d, lo, hi in merges]


def labels_to_turns(
    segments: list[Segment], labels, file_id: str
) -> list[Turn]:
    """Merge same-label segments into hypothesis Turns.

    Segments with one label whose gap is at most 0.25 s (or which
    overlap) fuse into a single Turn; speaker ids are "spk" plus the
    label. Raises LengthMismatch when counts differ.
    """
    labels = list(labels)
    if len(segments) != len(labels):
        raise LengthMismatch(
            f"{len(segments)} segments vs {len(labels)} labels"
        )
    by_label: dict[int, list[Segment]] = {}
    for seg, lab in zip(segments, labels):
        by_label.setdefault(int(lab), []).append(seg)

    turns: list[Turn] = []
    for lab, segs in by_label.items():
        segs = sorted(segs, key=lambda s: s.onset_s)
        span_on, span_off = segs[0].onset_s, segs[0].offset_s
        for s in segs[1:]:
            if s.onset_s - span_off <= MERGE_GAP_S:
                span_off = max(span_off, s.offset_s)
            else:
                turns.append(Turn(file_id, f"spk{lab}", span_on, span_off - span_on))
                span_on, span_off = s.onset_s, s.offset_s
        turns.append(Turn(file_id, f"spk{lab}", span_on, span_off - span_on))
    return sorted(turns, key=lambda t: (t.onset_s, t.speaker_id))
