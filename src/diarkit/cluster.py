"""Average-linkage agglomerative clustering over segment embeddings.

Each pair's cosine distance, 1 - cos capped at 2, is computed alone as
half the squared distance between the unit vectors, so bitwise copies
read exactly 0. The distances stay in scipy's condensed ``pdist`` layout,
with no n x n matrix. scipy's average linkage builds the merge tree over
them; a small adapter reads it back as the greedy merge sequence. Each
merge takes the pair of clusters with the smallest average distance;
ties fall to the pair whose member segments come first.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _vec(x) -> np.ndarray:
    v = getattr(x, "vector", x)
    return np.asarray(v, dtype=np.float64)


def cosine_distance(a, b) -> float:
    """1 minus the cosine of the angle between two vectors, in [0, 2].

    Computed as half the squared distance between the unit vectors, the
    same per-pair value clustering uses, so copies read exactly 0.
    Raises ZeroVector on a zero input and DimMismatch on unequal dims.
    """
    return float(_pairwise([a, b])[0])


def _pairwise(embs) -> np.ndarray:
    """Cosine distances of every pair i < j, in scipy's condensed layout."""
    vectors = [_vec(e) for e in embs]
    dims = {v.shape for v in vectors}
    if len(dims) > 1 or any(v.ndim != 1 for v in vectors):
        raise DimMismatch("all embeddings must share one dimension")
    matrix = np.stack(vectors)
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("embeddings must be nonzero for cosine distances")
    from scipy.spatial.distance import pdist  # on first use, like linkage
    # |u - v|^2 = 2 - 2 cos for unit u, v; bitwise-equal rows give 0.
    d = pdist(matrix / norms[:, None], "sqeuclidean")
    return np.minimum(np.multiply(d, 0.5, out=d), 2.0, out=d)


def agglomerative_cluster(embs, stop) -> ClusterResult:
    """Cluster embeddings bottom-up by average cosine distance.

    ``stop`` is ``{"threshold": t}`` (merge while the best distance is
    at most t) or ``{"k": k}`` (merge down to k clusters). Labels are
    dense, numbered by each cluster's first segment; merge_trace rows
    are (first index of a, first index of b, distance) with a before b.

    Raises EmptyInput on no embeddings and KTooLarge when k exceeds n.
    """
    n = len(embs)
    if n == 0:
        raise EmptyInput("nothing to cluster")
    if not isinstance(stop, dict) or set(stop) not in ({"threshold"}, {"k"}):
        raise ValueError('stop must be {"threshold": t} or {"k": k}')
    threshold = stop.get("threshold")
    k = stop.get("k")
    if k is not None:
        if int(k) != k or k < 1:
            raise ValueError("k must be a positive integer")
        k = int(k)
        if k > n:
            raise KTooLarge(f"k={k} exceeds {n} embeddings")

    condensed = _pairwise(embs)
    if n == 1:  # scipy's linkage needs two observations
        return ClusterResult(labels=(0,), merge_trace=())
    # Imported on first use: scipy.cluster adds ~0.2 s to the start-up
    # of every command, and most commands never cluster.
    from scipy.cluster.hierarchy import linkage

    trace = _greedy_trace(linkage(condensed, "average"), n)
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


def _greedy_trace(z: np.ndarray, n: int) -> list[tuple[int, int, float]]:
    """scipy linkage rows as (first of a, first of b, distance) rows.

    Average linkage is monotone, so the rows come in order of distance.
    Merges at one distance are re-expressed as the tie rule takes them:
    each joins the first member of the cluster they build together,
    smallest (lo, hi) first. That is the greedy order exactly when tied
    clusters are equidistant, as copies of one vector are.
    """
    dist = z[:, 2].tolist()
    first, hi = list(range(n)), []
    parent = [None] * (2 * n - 1)  # row that consumes each cluster
    for i, (a, b) in enumerate(z[:, :2].astype(np.int64).tolist()):
        first.append(min(first[a], first[b]))
        hi.append(max(first[a], first[b]))
        parent[a] = parent[b] = i
    lo = first[n:]
    for i in reversed(range(n - 1)):
        p = parent[n + i]
        if p is not None and dist[p] == dist[i]:
            lo[i] = lo[p]
    return [(a, b, d) for d, a, b in sorted(zip(dist, lo, hi))]


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
