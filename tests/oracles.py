"""Independent brute-force reference implementations used only by tests.

Each oracle favors obviousness over speed: direct recomputation,
exhaustive enumeration, or naive summation. They share no code with the
library implementations they check.
"""

import itertools

import numpy as np


def assignment_oracle(cost):
    """Minimum assignment total by trying every permutation."""
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape
    if n > m:
        return assignment_oracle(c.T)
    return min(
        sum(c[i, cols[i]] for i in range(n))
        for cols in itertools.permutations(range(m), n)
    )


def der_oracle(ref, hyp, collar_s=0.0):
    """DER by brute force over every injective speaker mapping.

    Integrates the timeline directly: elementary intervals between all
    turn boundaries, per-interval error d * (max(Nref, Nhyp) - matches).
    """
    edges = set()
    for t in ref + hyp:
        edges.add(t.onset_s)
        edges.add(t.offset_s)
    if collar_s > 0.0:
        for t in ref:
            for b in (t.onset_s, t.offset_s):
                edges.add(b - collar_s)
                edges.add(b + collar_s)
    bounds = sorted(edges)

    ref_edges = [b for t in ref for b in (t.onset_s, t.offset_s)]
    intervals = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        if any(abs(mid - b) < collar_s for b in ref_edges):
            continue
        r_act = frozenset(
            t.speaker_id for t in ref if t.onset_s <= lo and hi <= t.offset_s
        )
        h_act = frozenset(
            t.speaker_id for t in hyp if t.onset_s <= lo and hi <= t.offset_s
        )
        intervals.append((hi - lo, r_act, h_act))

    total_ref = sum(d * len(r) for d, r, _ in intervals)
    if total_ref == 0:
        raise ValueError("no reference speech")

    r_spk = sorted({s for _, r, _ in intervals for s in r})
    h_spk = sorted({s for _, _, h in intervals for s in h})
    best = None
    small, large, flipped = (
        (r_spk, h_spk, False) if len(r_spk) <= len(h_spk) else (h_spk, r_spk, True)
    )
    for chosen in itertools.permutations(large, len(small)):
        pairs = set(zip(chosen, small) if flipped else zip(small, chosen))
        err = 0.0
        for d, r_act, h_act in intervals:
            matches = sum(1 for rr, hh in pairs if rr in r_act and hh in h_act)
            err += d * (max(len(r_act), len(h_act)) - matches)
        if best is None or err < best:
            best = err
    if best is None:  # one side has no speakers at all
        best = sum(d * max(len(r), len(h)) for d, r, h in intervals)
    return best / total_ref


def eer_dense_oracle(genuine, impostor, n_points=10_000):
    """EER by scanning a dense grid of thresholds."""
    g = np.asarray(genuine, dtype=np.float64)
    im = np.asarray(impostor, dtype=np.float64)
    lo = min(g.min(), im.min()) - 1e-9
    hi = max(g.max(), im.max()) + 1e-9
    ts = np.linspace(lo, hi, n_points)
    far = np.mean(im[None, :] >= ts[:, None], axis=1)
    frr = np.mean(g[None, :] < ts[:, None], axis=1)
    j = int(np.argmin(np.abs(far - frr)))
    return float((far[j] + frr[j]) / 2.0)


def average_linkage_oracle(vectors, threshold=None, k=None):
    """Average-linkage merges by direct recomputation over raw pairs.

    Returns (labels, trace) with the same conventions as the library:
    trace rows (first index of a, first index of b, distance), labels
    numbered by each final cluster's first member.
    """
    matrix = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
    unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    pair = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)

    clusters = [frozenset([i]) for i in range(len(matrix))]
    trace = []
    while len(clusters) > 1:
        if k is not None and len(clusters) <= k:
            break
        best = None
        for a, b in itertools.combinations(range(len(clusters)), 2):
            ca, cb = clusters[a], clusters[b]
            d = float(np.mean([pair[i, j] for i in ca for j in cb]))
            lo, hi = sorted((min(ca), min(cb)))
            key = (d, lo, hi)
            if best is None or key < best[0]:
                best = (key, a, b)
        (d, lo, hi), a, b = best
        if threshold is not None and d > threshold:
            break
        merged = clusters[a] | clusters[b]
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
        clusters.append(merged)
        trace.append((lo, hi, d))

    order = sorted(clusters, key=min)
    labels = [0] * len(matrix)
    for label, members in enumerate(order):
        for i in members:
            labels[i] = label
    return labels, trace


def ctc_paths_oracle(log_probs, labels):
    """CTC loss by summing the probability of every frame path.

    Enumerates all V^T label paths, collapses each by removing repeats
    and then blanks, and adds up the probabilities of the paths whose
    collapse equals the target sequence.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    t_len, n_classes = lp.shape
    target = list(labels)
    total = 0.0
    for path in itertools.product(range(n_classes), repeat=t_len):
        collapsed = [v for i, v in enumerate(path) if i == 0 or v != path[i - 1]]
        collapsed = [v for v in collapsed if v != 0]
        if collapsed == target:
            total += float(np.exp(sum(lp[t, v] for t, v in enumerate(path))))
    return -np.log(total) if total > 0.0 else np.inf


def finite_difference_grad(fn, x, h=1e-5):
    """Central-difference gradient of a scalar function, element by element."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        bump = flat.copy()
        bump[i] += h
        hi = fn(bump.reshape(x.shape))
        bump[i] -= 2.0 * h
        lo = fn(bump.reshape(x.shape))
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def resample_oracle(x, ratio, outputs=None, half_width=16, beta=8.6):
    """Kaiser-windowed sinc evaluated at n / ratio, one output at a time.

    Output n sums x[j] * cutoff * sinc(cutoff * (t - j)) * window over every
    in-range j with |t - j| < half_width / cutoff, t = n / ratio and
    cutoff = min(1, ratio); the Kaiser window is I0(beta * sqrt(1 - v^2)) /
    I0(beta) at v = (t - j) / (half_width / cutoff). ``outputs`` picks the
    indices n to evaluate (default: all round(len(x) * ratio) of them).
    """
    x = np.asarray(x, dtype=np.float64)
    n_out = int(np.floor(len(x) * ratio + 0.5))
    if outputs is None:
        outputs = range(max(n_out, 0))
    cutoff = min(1.0, ratio)
    half = half_width / cutoff
    out = np.zeros(len(outputs))
    for i, n in enumerate(outputs):
        t = n / ratio
        j = np.arange(int(np.floor(t - half)), int(np.ceil(t + half)) + 1)
        j = j[(j >= 0) & (j < len(x)) & (np.abs(t - j) < half)]
        u = t - j
        window = np.i0(beta * np.sqrt(1.0 - (u / half) ** 2)) / np.i0(beta)
        out[i] = np.sum(x[j] * cutoff * np.sinc(cutoff * u) * window)
    return out
