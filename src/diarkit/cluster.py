"""Average-linkage agglomerative clustering over segment embeddings.

The embeddings are scaled to unit rows. Bitwise-equal rows merge first,
at exactly 0, as copies of one vector must. The distinct rows are then
merged by an NN-chain (Müllner 2011) over one sum vector per cluster:
the average cosine distance of clusters A and B is
1 - sum(A) . sum(B) / (|A| |B|), so each step is one mat-vec over the
live clusters, which are kept in the leading rows, and no pairwise
distance is stored. The merges are sorted into scipy's ``linkage``
layout and read back as the greedy merge sequence: each merge takes
the pair of clusters with the smallest average distance. Ties between
copies of one vector fall to the pair whose member segments come first;
distinct pairs whose distances tie mathematically (small-integer
vectors, say) merge in the order rounding gives their computed
distances.
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


def _unit_rows(embs) -> np.ndarray:
    """The embeddings as an (n, dim) matrix of unit rows.

    Raises DimMismatch on unequal dims and ZeroVector on a zero vector.
    """
    vectors = [_vec(e) for e in embs]
    dims = {v.shape for v in vectors}
    if len(dims) > 1 or any(v.ndim != 1 for v in vectors):
        raise DimMismatch("all embeddings must share one dimension")
    matrix = np.stack(vectors)
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("embeddings must be nonzero for cosine distances")
    matrix /= norms[:, None]
    return matrix


def _pairwise(embs) -> np.ndarray:
    """Cosine distances of every pair i < j, in scipy's condensed layout."""
    unit = _unit_rows(embs)
    from scipy.spatial.distance import pdist  # on first use: no command needs it
    # |u - v|^2 = 2 - 2 cos for unit u, v; bitwise-equal rows give 0.
    d = pdist(unit, "sqeuclidean")
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

    unit = _unit_rows(embs)
    if n == 1:
        return ClusterResult(labels=(0,), merge_trace=())
    trace = _greedy_trace(_linkage(unit), n)
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


def _linkage(unit: np.ndarray) -> np.ndarray:
    """Average-linkage merge tree of n >= 2 unit rows, as the rows
    (cluster a, cluster b, distance) of scipy's ``linkage`` output.

    Copies merge first at 0, each into the first row of its group. The
    chain then runs over the distinct rows, each weighted by its count.
    """
    n = len(unit)
    if not np.all(np.isfinite(unit)):
        raise ValueError("embeddings must be finite")
    order = np.lexsort(unit.T[::-1])  # stable: each group of copies ascends
    rows = unit[order]
    new = np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))
    del rows
    firsts = order[new][np.cumsum(new) - 1]  # each sorted row's group's first
    merges = [(a, b, 0.0) for a, b in zip(firsts[~new].tolist(), order[~new].tolist())]

    # Live clusters sit in rows [0, live), in order of first member at
    # the start; a merge frees one row and the last live row moves in.
    first, count = np.unique(firsts, return_counts=True)
    sums = unit[first] * count[:, None]
    size = count.astype(np.float64)
    first = first.tolist()
    chain: list[int] = []
    live = len(first)
    while live > 1:
        if not chain:
            chain.append(0)
        x = chain[-1]
        d = 1.0 - (sums[:live] @ sums[x]) / (size[:live] * size[x])
        d[x] = np.inf
        y = int(d.argmin())
        if len(chain) > 1 and (d[chain[-2]] <= d[y] or y in chain):
            # Reciprocal nearest neighbours: merge. A tie keeps the
            # previous link, and so does a neighbour already on the chain
            # (rounding can make d(a, b) and d(b, a) differ), so the
            # chain cannot cycle.
            y = chain[-2]
            del chain[-2:]
            merges.append((first[x], first[y], float(d[y])))
            lo, hi = min(x, y), max(x, y)
            sums[lo] += sums[hi]
            size[lo] += size[hi]
            first[lo] = min(first[lo], first[hi])
            live -= 1
            sums[hi], size[hi], first[hi] = sums[live], size[live], first[live]
            chain = [hi if c == live else c for c in chain]
        else:
            chain.append(y)

    # scipy's layout: rows sorted by distance (stably, so children stay
    # ahead of their parents), clusters named n + the row that made them.
    merges.sort(key=lambda m: m[2])
    parent = list(range(2 * n - 1))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    z = []
    for row, (a, b, dist) in enumerate(merges, start=n):
        a, b = root(a), root(b)
        parent[a] = parent[b] = row
        z.append((a, b, dist))
    return np.array(z, dtype=np.float64)


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
