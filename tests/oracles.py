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


def cosine_pairs_oracle(vectors):
    """n x n cosine distances, each pair computed alone in a loop.

    1 - cos is taken as half the squared distance of the unit vectors,
    capped at 2, so copies of one vector read exactly 0.
    """
    matrix = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
    unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    pair = np.zeros((len(unit), len(unit)))
    for i, j in itertools.combinations(range(len(unit)), 2):
        pair[i, j] = pair[j, i] = min(2.0, 0.5 * np.sum((unit[i] - unit[j]) ** 2))
    return pair


def average_linkage_oracle(vectors, threshold=None, k=None):
    """Average-linkage merges by direct recomputation over raw pairs.

    Returns (labels, trace) with the same conventions as the library:
    trace rows (first index of a, first index of b, distance), labels
    numbered by each final cluster's first member.
    """
    pair = cosine_pairs_oracle(vectors)

    clusters = [frozenset([i]) for i in range(len(pair))]
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
    labels = [0] * len(pair)
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


def partition_oracle(ref, hyp, collar_s=0.0):
    """Elementary intervals with constant speaker sets, by testing every
    turn against every interval and every reference edge against every
    midpoint.

    Intervals whose midpoint falls within collar_s of any reference
    turn boundary are excluded entirely (numerator and denominator).
    """
    edges: set[float] = set()
    for t in ref + hyp:
        edges.add(t.onset_s)
        edges.add(t.offset_s)
    ref_edges = sorted({b for t in ref for b in (t.onset_s, t.offset_s)})
    if collar_s > 0.0:
        for b in ref_edges:
            edges.add(b - collar_s)
            edges.add(b + collar_s)
    bounds = sorted(edges)

    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        if collar_s > 0.0 and any(abs(mid - b) < collar_s for b in ref_edges):
            continue
        r_act = frozenset(
            t.speaker_id for t in ref if t.onset_s <= lo and hi <= t.offset_s
        )
        h_act = frozenset(
            t.speaker_id for t in hyp if t.onset_s <= lo and hi <= t.offset_s
        )
        if r_act or h_act:
            out.append((hi - lo, r_act, h_act))
    return out


def frame_energies_oracle(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Frame energies from a full (n_frames, frame) fancy-index matrix."""
    n_frames = 1 + (len(x) - frame) // hop
    idx = np.arange(frame)[None, :] + (np.arange(n_frames) * hop)[:, None]
    return np.sum(x[idx] ** 2, axis=1)


def _deltas_oracle(c: np.ndarray, n: int = 2) -> np.ndarray:
    """Regression deltas over frames with edge padding, in new arrays."""
    padded = np.pad(c, ((n, n), (0, 0)), mode="edge")
    num = np.zeros_like(c)
    for k in range(1, n + 1):
        num += k * (padded[n + k : len(padded) - n + k] - padded[n - k : len(padded) - n - k])
    return num / (2.0 * sum(k * k for k in range(1, n + 1)))


def buffer_features_oracle(buf, n_mels, n_coeffs, frame_ms, hop_ms):
    """Cepstra + deltas from a whole-buffer pre-emphasis and a full
    (n_frames, frame) fancy-index matrix.

    The framing and the deltas are independent; the filterbank and the
    constants come from ``diarkit.embed``, because they are not what
    this oracle checks.
    """
    from scipy.fft import dct

    from diarkit.embed import (
        _LOG_FLOOR,
        _MIN_NFFT,
        _PRE_EMPHASIS,
        _frame_starts,
        _mel_filterbank,
    )

    rate = buf.sample_rate_hz
    frame = int(round(rate * frame_ms / 1000.0))
    hop = int(round(rate * hop_ms / 1000.0))
    starts = _frame_starts(len(buf), frame, hop)
    if len(starts) == 0:
        return starts, np.zeros((0, 3 * n_coeffs))

    x = buf.samples.astype(np.float64)
    x = np.concatenate([x[:1], x[1:] - _PRE_EMPHASIS * x[:-1]])
    idx = starts[:, None] + np.arange(frame)[None, :]
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(frame) / (frame - 1))
    # Zero-pad to a power of two; a frame longer than _MIN_NFFT is never cropped.
    nfft = max(_MIN_NFFT, 1 << (frame - 1).bit_length())
    power = np.abs(np.fft.rfft(x[idx] * window, n=nfft, axis=1)) ** 2
    fb = _mel_filterbank(n_mels, nfft, rate)
    logmel = np.log(np.maximum(power @ fb.T, _LOG_FLOOR))
    cepstra = dct(logmel, type=2, norm="ortho", axis=1)[:, 1 : n_coeffs + 1]
    cepstra = cepstra - np.mean(cepstra, axis=0, keepdims=True)
    d1 = _deltas_oracle(cepstra)
    d2 = _deltas_oracle(d1)
    return starts, np.concatenate([cepstra, d1, d2], axis=1)


def spectral_flatness_oracle(x: np.ndarray, frame: int, hop: int) -> float:
    """Spectral flatness of the frame-averaged power spectrum, from a full
    (n_frames, frame) fancy-index matrix."""
    n_frames = 1 + (len(x) - frame) // hop
    idx = np.arange(frame)[None, :] + (np.arange(n_frames) * hop)[:, None]
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    spec = np.abs(np.fft.rfft(x[idx] * w, axis=1)) ** 2
    power = np.mean(spec, axis=0)[1:]  # DC excluded; it was removed anyway
    peak = float(np.max(power))
    if peak <= 0.0:
        return 1.0
    p = power / peak + 1e-12
    return float(np.exp(np.mean(np.log(p))) / np.mean(p))


def speech_runs_oracle(speech, frame: int, hop: int, hangover: float):
    """[onset, offset) sample spans of the speech frames, from a loop over
    every speech frame: touching or overlapping frames form a run, then
    runs are merged across gaps shorter than ``hangover`` samples."""
    runs = []
    for i in np.flatnonzero(speech):
        on = int(i) * hop
        off = int(i) * hop + frame
        if runs and on <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], off)
        else:
            runs.append([on, off])
    merged = []
    for on, off in runs:
        if merged and on - merged[-1][1] < hangover:
            merged[-1][1] = max(merged[-1][1], off)
        else:
            merged.append([on, off])
    return merged


def energy_vad_oracle(buf, frame_ms=30.0, hop_ms=10.0, threshold_db=6.0, hangover_ms=200.0):
    """Speech regions from a full float64 copy of the buffer, centred on
    ``np.mean`` of that copy and framed by the fancy-index oracles above.

    Only the detection rule is shared: the constants and the region type
    come from ``diarkit.vad``.
    """
    from diarkit.vad import _ZERO_DB, MIN_REGION_S, SpeechRegion

    rate = buf.sample_rate_hz
    frame = int(round(rate * frame_ms / 1000.0))
    hop = int(round(rate * hop_ms / 1000.0))
    x = buf.samples.astype(np.float64)
    x -= np.mean(x)
    if not np.any(x):
        return []
    energy = frame_energies_oracle(x, frame, hop)
    db = np.full(len(energy), _ZERO_DB)
    nz = energy > 0.0
    db[nz] = 10.0 * np.log10(energy[nz])
    floor = float(np.percentile(db, 10.0))
    if float(np.max(db)) - floor < threshold_db:
        if spectral_flatness_oracle(x, frame, hop) < 0.3:
            return [SpeechRegion(0.0, buf.duration_s)]
        return []

    runs = []
    for i in np.flatnonzero(db >= floor + threshold_db):
        on, off = int(i) * hop, int(i) * hop + frame
        if runs and on <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], off)
        else:
            runs.append([on, off])
    merged = []
    for on, off in runs:
        if merged and on - merged[-1][1] < hangover_ms / 1000.0 * rate:
            merged[-1][1] = max(merged[-1][1], off)
        else:
            merged.append([on, off])
    return [
        SpeechRegion(on / rate, off / rate)
        for on, off in merged
        if (off - on) / rate >= MIN_REGION_S
    ]


def synth_utterance_oracle(profile, duration_s: float, seed: int):
    """One voice from a full-length harmonic recurrence: the loop
    multiplies whole (n,) complex arrays, one pass per harmonic.

    Only the recurrence is independent: the formant weights and the
    constants come from ``diarkit.corpus``, because they are not what
    this oracle checks.
    """
    import math

    from diarkit.audio_io import AudioBuffer
    from diarkit.corpus import MAX_HARMONIC_HZ, RATE, _formant_weight
    from diarkit.errors import TooShort

    if duration_s < 0.5:
        raise TooShort(f"utterance needs >= 0.5 s, got {duration_s}")
    rng = np.random.default_rng(np.random.SeedSequence([profile.seed, abs(int(seed))]))
    n = int(round(duration_s * RATE))
    t = np.arange(n) / RATE

    # Slow +-3% wander of the fundamental.
    n_ctrl = max(int(math.ceil(duration_s * 25.0)) + 2, 4)
    ctrl = np.clip(rng.normal(scale=0.5, size=n_ctrl), -1.0, 1.0)
    ctrl_t = np.linspace(0.0, duration_s, n_ctrl)
    f0_track = profile.f0_hz * (1.0 + 0.03 * np.interp(t, ctrl_t, ctrl))
    phase = 2.0 * np.pi * np.cumsum(f0_track) / RATE

    n_harm = max(1, int(MAX_HARMONIC_HZ / profile.f0_hz))
    k = np.arange(1, n_harm + 1)
    tilt_gain = 10.0 ** (profile.harmonic_tilt_db_per_octave * np.log2(k) / 20.0)
    amps = _formant_weight(k * profile.f0_hz, profile) * tilt_gain
    phases0 = rng.uniform(0.0, 2.0 * np.pi, size=n_harm)

    base = np.exp(1j * phase)
    rot = np.exp(1j * phases0)
    cur = np.ones(n, dtype=np.complex128)
    voiced = np.zeros(n)
    for i in range(n_harm):
        cur = cur * base
        voiced += amps[i] * np.imag(cur * rot[i])
    voiced /= max(np.sqrt(np.mean(voiced**2)), 1e-12)

    # Syllabic amplitude modulation with inter-syllable dips.
    syl_rate = rng.uniform(3.0, 5.0)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    env = 0.5 + 0.5 * np.sin(2.0 * np.pi * syl_rate * t + am_phase)
    env = 0.25 + 0.75 * env**1.5

    x = (voiced + 0.04 * rng.standard_normal(n)) * env
    x *= 0.1 / max(np.sqrt(np.mean(x**2)), 1e-12)
    return AudioBuffer(samples=x.astype(np.float32), sample_rate_hz=RATE)


def spectral_gate_denoise_oracle(buf, params=None):
    """Spectral gate from full-length STFT arrays: an (n_frames, frame_len)
    index matrix, whole-recording spectra and gains, scipy's
    ``uniform_filter`` and a per-frame overlap-add loop.

    Only the gate rule is shared: the parameter type and errors come from
    ``diarkit``.
    """
    from scipy.ndimage import uniform_filter

    from diarkit.audio_io import AudioBuffer
    from diarkit.errors import TooShort
    from diarkit.preprocess import DenoiseParams

    p = params or DenoiseParams()
    x = buf.samples.astype(np.float64)
    if len(x) < p.frame_len:
        raise TooShort(f"need at least {p.frame_len} samples, got {len(x)}")

    # pad one frame on each side so the overlap-add window sum is constant
    # over the original extent, then frame on the hop grid
    pad = p.frame_len
    n_frames = int(np.ceil((len(x) + pad) / p.hop)) + 1
    total = pad + (n_frames - 1) * p.hop + p.frame_len
    xp = np.zeros(total)
    xp[pad : pad + len(x)] = x

    idx = np.arange(p.frame_len)[None, :] + (np.arange(n_frames) * p.hop)[:, None]
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(p.frame_len) / p.frame_len)
    frames = xp[idx] * window

    spec = np.fft.rfft(frames, axis=1)
    mag = np.abs(spec)

    # Noise floor per frequency bin, estimated from the quietest
    # noise_percentile fraction of frames (by broadband energy): their
    # per-bin RMS magnitude is the noise level. A naive independent per-bin
    # percentile misestimates the floor in speech-bearing bins and
    # self-masks stationary tones. Padding-only frames are excluded from
    # the estimate.
    starts = np.arange(n_frames) * p.hop
    interior = np.flatnonzero((starts >= pad) & (starts + p.frame_len <= pad + len(x)))
    frame_energy = np.sum(mag**2, axis=1)
    k_quiet = max(1, int(round(p.noise_percentile * len(interior))))
    quiet = interior[np.argsort(frame_energy[interior], kind="stable")[:k_quiet]]
    floor = np.sqrt(np.mean(mag[quiet] ** 2, axis=0))
    # A bin whose floor towers over the median bin is carrying a persistent
    # signal (a steady tone has no quiet moments to estimate noise from), not
    # noise; cap it so stationary signal bins are not self-masked.
    floor = np.minimum(floor, 10.0 * np.median(floor))
    gate = floor * 10.0 ** (p.gate_threshold_db / 20.0)
    # Decide on a short moving average over time per bin: averaging pulls
    # stationary noise well below the gate while bridging brief dips in
    # sustained tones, so the gate separates the two far more cleanly than
    # raw per-cell magnitudes would.
    decision = uniform_filter(mag, size=(5, 1), mode="nearest")
    passing = decision >= gate[None, :]
    # A window's main lobe spills into the neighbouring bins at half
    # amplitude; keep those skirts with their peak instead of gating them.
    passing |= np.roll(passing, 1, axis=1) | np.roll(passing, -1, axis=1)
    att = 10.0 ** (-p.attenuation_db / 20.0)
    gain = np.where(passing, 1.0, att)
    # Soften edges of kept regions; the max keeps passing cells at unit
    # gain so narrow harmonics are not dragged down by their surroundings.
    gain = np.maximum(gain, uniform_filter(gain, size=(5, 3), mode="nearest"))

    rec = np.fft.irfft(spec * gain, n=p.frame_len, axis=1) * window
    y = np.zeros(total)
    wsum = np.zeros(total)
    for k in range(n_frames):
        s = k * p.hop
        y[s : s + p.frame_len] += rec[k]
        wsum[s : s + p.frame_len] += window**2
    out = y[pad : pad + len(x)] / wsum[pad : pad + len(x)]
    return AudioBuffer(out, buf.sample_rate_hz)
