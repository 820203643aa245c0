"""Clustering behavior against the brute-force linkage oracle."""

import time

import numpy as np
import pytest

from diarkit.cluster import agglomerative_cluster, cosine_distance, labels_to_turns
from diarkit.embed import Embedding
from diarkit.errors import (
    DimMismatch,
    EmptyInput,
    KTooLarge,
    LengthMismatch,
    ZeroVector,
)
from diarkit.vad import Segment

from oracles import average_linkage_oracle, cosine_pairs_oracle


def _embs(matrix):
    return [Embedding(vector=row) for row in np.asarray(matrix, dtype=float)]


def _partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def test_cosine_identity_antipodal_orthogonal():
    a = np.array([1.0, 2.0, 3.0])
    assert cosine_distance(a, a) == 0.0
    assert cosine_distance(a, -a) == pytest.approx(2.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [0.0, 5.0]) == pytest.approx(1.0)


def test_cosine_errors():
    with pytest.raises(ZeroVector):
        cosine_distance([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DimMismatch):
        cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            cosine_distance(bad, [1.0, 0.0])


def test_k_equals_n_is_all_singletons():
    res = agglomerative_cluster(_embs(np.eye(4)), {"k": 4})
    assert res.labels == (0, 1, 2, 3)
    assert res.merge_trace == ()


def test_identical_embeddings_collapse():
    res = agglomerative_cluster(_embs(np.ones((6, 3))), {"threshold": 0.01})
    assert set(res.labels) == {0}


def test_two_blobs_match_oracle():
    rng = np.random.default_rng(42)
    sigma = 0.05
    c1 = rng.normal(size=8)
    c1 *= 10 * sigma / np.linalg.norm(c1)
    c2 = rng.normal(size=8)
    c2 *= 10 * sigma / np.linalg.norm(c2)
    pts = np.concatenate(
        [
            c1 + sigma * rng.normal(size=(3, 8)),
            c2 + sigma * rng.normal(size=(2, 8)),
        ]
    )
    res = agglomerative_cluster(_embs(pts), {"threshold": 0.5})
    assert res.n_clusters == 2
    assert _partition(res.labels) == _partition([0, 0, 0, 1, 1])
    labels, trace = average_linkage_oracle(pts, threshold=0.5)
    assert list(res.labels) == labels
    assert [(a, b) for a, b, _ in res.merge_trace] == [(a, b) for a, b, _ in trace]
    got = [d for _, _, d in res.merge_trace]
    want = [d for _, _, d in trace]
    assert got == pytest.approx(want, abs=1e-9)


def test_random_cases_match_oracle():
    rng = np.random.default_rng(7)
    for case in range(42):
        n = int(rng.integers(2, 9))
        pts = rng.normal(size=(n, 4))
        if case >= 30:  # exact duplicate rows, so merge distances tie
            pts = pts[rng.integers(0, max(1, n // 2), size=n)]
        if case % 3 == 0:
            stop = {"k": int(rng.integers(1, n + 1))}
            labels, trace = average_linkage_oracle(pts, k=stop["k"])
        else:
            stop = {"threshold": float(rng.uniform(0.2, 1.2))}
            labels, trace = average_linkage_oracle(pts, threshold=stop["threshold"])
        res = agglomerative_cluster(_embs(pts), stop)
        assert list(res.labels) == labels, f"case {case}: labels diverge"
        assert [(a, b) for a, b, _ in res.merge_trace] == [
            (a, b) for a, b, _ in trace
        ], f"case {case}: merge order diverges"
        assert [d for _, _, d in res.merge_trace] == pytest.approx(
            [d for _, _, d in trace], abs=1e-9
        )


def test_single_embedding_is_one_cluster():
    for stop in ({"k": 1}, {"threshold": 0.5}):
        res = agglomerative_cluster(_embs([[1.0, 2.0]]), stop)
        assert res.labels == (0,)
        assert res.merge_trace == ()
    with pytest.raises(ZeroVector):
        agglomerative_cluster(_embs([[0.0, 0.0]]), {"k": 1})


def test_two_thousand_segments_cluster_within_budget():
    # Guards against a return to per-merge rescans, which cost O(n^3).
    embs = _embs(np.random.default_rng(12).normal(size=(2000, 52)))
    start = time.perf_counter()
    res = agglomerative_cluster(embs, {"k": 4})
    assert time.perf_counter() - start < 2.0
    assert res.n_clusters == 4
    assert len(res.merge_trace) == 1996


def test_merge_distances_non_decreasing():
    rng = np.random.default_rng(8)
    for _ in range(10):
        pts = rng.normal(size=(12, 6))
        res = agglomerative_cluster(_embs(pts), {"k": 1})
        dists = [d for _, _, d in res.merge_trace]
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10, 5))
    perm = rng.permutation(10)
    base = agglomerative_cluster(_embs(pts), {"threshold": 0.6})
    shuffled = agglomerative_cluster(_embs(pts[perm]), {"threshold": 0.6})
    relabeled = [None] * 10
    for new_pos, old_pos in enumerate(perm):
        relabeled[old_pos] = shuffled.labels[new_pos]
    assert _partition(base.labels) == _partition(relabeled)


def test_scale_invariance():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(9, 5))
    a = agglomerative_cluster(_embs(pts), {"threshold": 0.5})
    b = agglomerative_cluster(_embs(3.0 * pts), {"threshold": 0.5})
    assert a.labels == b.labels
    assert [(x, y) for x, y, _ in a.merge_trace] == [
        (x, y) for x, y, _ in b.merge_trace
    ]


def test_cluster_errors():
    with pytest.raises(EmptyInput):
        agglomerative_cluster([], {"threshold": 0.5})
    with pytest.raises(KTooLarge):
        agglomerative_cluster(_embs(np.eye(3)), {"k": 4})
    with pytest.raises(ValueError):
        agglomerative_cluster(_embs(np.eye(3)), {"bogus": 1})
    with pytest.raises(ValueError):
        agglomerative_cluster(_embs(np.eye(3)), {"k": 0})
    for t in (np.nan, -1.0, np.inf, "0.4", None, True):
        with pytest.raises(ValueError, match="threshold"):
            agglomerative_cluster(_embs(np.eye(3)), {"threshold": t})
    for rows in ([[np.nan, 1.0]], [[np.nan, 1.0], [1.0, 0.0]], [[1.0, 0.0], [np.inf, 1.0]]):
        for stop in ({"k": 1}, {"threshold": 0.5}):
            with pytest.raises(ValueError, match="finite"):
                agglomerative_cluster(_embs(rows), stop)


def test_a_merge_tied_with_the_one_that_takes_its_cluster_reports_its_first_member():
    # In the first set the chain joins rows 6 and 7, then row 3 to {6, 7},
    # both at one computed distance (1/2 + 1 ulp). Greedily, both merges
    # build the cluster whose first member is 3, so (6, 7) reads (3, 7).
    # The second set needs the rule after live rows have moved up.
    first = [
        [0, 1, 1, 0, 0, 0], [0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1], [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 0], [0, 0, 1, 1, 0, 0],
    ]
    second = [
        [0, 0, 1, 1, 1, 0], [1, 0, 0, 0, 0, 1], [1, 1, 1, 0, 1, 0], [0, 1, 0, 0, 1, 0],
        [1, 0, 0, 0, 0, 0],
    ]
    for rows in (first, second):
        res = agglomerative_cluster(_embs(rows), {"k": 1})
        labels, trace = average_linkage_oracle(rows, k=1)
        assert list(res.labels) == labels
        pairs = [(a, b) for a, b, _ in res.merge_trace]
        assert pairs == [(a, b) for a, b, _ in trace]
        if rows is first:
            assert (3, 7) in pairs and (6, 7) not in pairs


def test_rows_a_scale_apart_read_at_zero_merge_as_one_vectors_copies():
    # 3a normalises one ulp away from a, so the rows are no copies, but
    # the chain reads their distance as exactly 0. Every merge is then at
    # 0 and reports the first member of the one cluster they all build.
    a = np.array([1.0, 2.0, 1.0])
    assert not np.array_equal(a / np.linalg.norm(a), 3 * a / np.linalg.norm(3 * a))
    res = agglomerative_cluster(_embs([a, 3 * a] * 3), {"k": 1})
    assert res.merge_trace == tuple((0, b, 0.0) for b in range(1, 6))


@pytest.mark.parametrize("stop", [{"k": 1}, {"threshold": 2.0}])
def test_merge_distances_of_nearly_parallel_rows_are_never_negative(stop):
    # Integer rows and their multiples normalise to unit rows an ulp or
    # so apart, where 1 - sum(A) . sum(B) / (|A| |B|) can round below 0.
    rng = np.random.default_rng(17)
    for _ in range(60):
        a, b = rng.integers(-4, 5, size=(2, 3)).astype(float)
        if not (a.any() and b.any()):
            continue
        rows = [a, 2 * a, 3 * a, b, 5 * b, 7 * a][: rng.integers(3, 7)]
        res = agglomerative_cluster(_embs(rows), stop)
        assert len(res.merge_trace) == len(rows) - 1
        assert all(0.0 <= d <= 2.0 for _, _, d in res.merge_trace), (rows, res.merge_trace)


# --- labels_to_turns ---


def _seg(on, off, idx):
    return Segment(file_id="f", onset_s=on, offset_s=off, index=idx)


def test_empty_labels_to_turns():
    assert labels_to_turns([], [], "f") == []


def test_overlapping_same_label_segments_fuse():
    segs = [_seg(0.0, 1.5, 0), _seg(0.75, 2.25, 1)]
    turns = labels_to_turns(segs, [0, 0], "f")
    assert len(turns) == 1
    assert turns[0].onset_s == 0.0
    assert turns[0].offset_s == pytest.approx(2.25)
    assert turns[0].speaker_id == "spk0"


def test_distant_same_label_segments_stay_apart():
    segs = [_seg(0.0, 1.0, 0), _seg(2.0, 3.0, 1)]
    turns = labels_to_turns(segs, [0, 0], "f")
    assert len(turns) == 2


def test_quarter_second_gap_still_fuses():
    segs = [_seg(0.0, 1.0, 0), _seg(1.25, 2.0, 1)]
    turns = labels_to_turns(segs, [1, 1], "f")
    assert len(turns) == 1
    assert turns[0].speaker_id == "spk1"


def test_labels_to_turns_length_mismatch():
    with pytest.raises(LengthMismatch):
        labels_to_turns([_seg(0.0, 1.0, 0)], [0, 1], "f")


def test_every_segment_covered_by_its_turn():
    rng = np.random.default_rng(11)
    segs = []
    t = 0.0
    for i in range(20):
        t += float(rng.uniform(0.0, 1.0))
        dur = float(rng.uniform(0.5, 1.5))
        segs.append(_seg(t, t + dur, i))
        t += dur
    labels = rng.integers(0, 3, size=20)
    turns = labels_to_turns(segs, labels, "f")
    assert turns == sorted(turns, key=lambda t: t.onset_s)
    for seg, lab in zip(segs, labels):
        assert any(
            t.speaker_id == f"spk{lab}"
            and t.onset_s <= seg.onset_s + 1e-9
            and seg.offset_s <= t.offset_s + 1e-9
            for t in turns
        )


def test_condensed_distances_are_per_pair_and_copies_read_zero():
    rng = np.random.default_rng(21)
    for case in range(24):
        n = int(rng.integers(2, 60))
        pts = rng.normal(size=(n, 8))
        if case % 2:  # duplicate-heavy
            pts = pts[rng.integers(0, max(1, n // 4), size=n)]
        i, j = np.triu_indices(n, k=1)
        got = np.array([cosine_distance(pts[a], pts[b]) for a, b in zip(i, j)])
        want = cosine_pairs_oracle(pts)[i, j]
        assert np.allclose(got, want, rtol=0.0, atol=1e-15), case
        copies = np.all(pts[i] == pts[j], axis=1)
        assert np.all(got[copies] == 0.0), case


def test_clustering_memory_stays_within_one_distance_matrix():
    import tracemalloc

    n = 3000
    embs = _embs(np.random.default_rng(22).normal(size=(n, 52)))
    tracemalloc.start()
    try:
        agglomerative_cluster(embs, {"k": 4})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n


def test_clustering_memory_stays_within_a_tenth_of_a_distance_matrix():
    # No pairwise distances are stored: the chain holds one sum vector
    # per cluster, so the peak is a few copies of the embeddings.
    import tracemalloc

    n = 3000
    embs = _embs(np.random.default_rng(22).normal(size=(n, 52)))
    tracemalloc.start()
    try:
        agglomerative_cluster(embs, {"k": 4})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * 8 * n * n, f"{peak / 1e6:.2f} MB"
