"""Shared helpers for the test suite: signal builders, an FFT peak meter,
and a check that no test leaves a worker process running."""

import multiprocessing

import numpy as np
import pytest

from diarkit.audio_io import AudioBuffer


@pytest.fixture(autouse=True)
def no_worker_left_running():
    yield
    assert multiprocessing.active_children() == [], "a worker process outlived the test"


def tone(freq_hz: float, duration_s: float, rate_hz: int = 16000, amp: float = 0.5) -> AudioBuffer:
    t = np.arange(int(round(duration_s * rate_hz))) / rate_hz
    return AudioBuffer(amp * np.sin(2 * np.pi * freq_hz * t), rate_hz)


def white(duration_s: float, rate_hz: int = 16000, amp_rms: float = 0.05, seed: int = 0) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate_hz))
    x = rng.standard_normal(n)
    x *= amp_rms / np.sqrt(np.mean(x**2))
    return AudioBuffer(np.clip(x, -1.0, 1.0), rate_hz)


def random_der_case(rng, max_speakers: int = 5, max_turns: int = 20):
    """Reference and perturbed-hypothesis turn lists for one file.

    The hypothesis is the reference with speakers renamed by a random
    permutation, boundaries jittered, some turns dropped, and a few
    spurious turns added, so every DER component gets exercised.
    """
    from diarkit.audio_io import Turn

    n_spk = int(rng.integers(1, max_speakers + 1))
    ref = []
    for s in range(n_spk):
        t = float(rng.uniform(0.0, 4.0))
        for _ in range(int(rng.integers(1, max(2, max_turns // n_spk + 1)))):
            dur = float(rng.uniform(0.5, 4.0))
            ref.append(Turn("f", f"spk{s}", round(t, 3), round(dur, 3)))
            t += dur + float(rng.uniform(0.3, 3.0))
    ref = ref[:max_turns]

    perm = rng.permutation(n_spk)
    hyp = []
    for t in ref:
        if rng.random() < 0.15:
            continue  # missed turn
        onset = max(0.0, t.onset_s + float(rng.uniform(-0.3, 0.3)))
        dur = max(0.1, t.duration_s + float(rng.uniform(-0.4, 0.4)))
        s = perm[int(t.speaker_id.removeprefix("spk"))]
        if rng.random() < 0.1:
            s = int(rng.integers(0, n_spk))  # confusion
        hyp.append(Turn("f", f"hyp{s}", round(onset, 3), round(dur, 3)))
    for _ in range(int(rng.integers(0, 3))):  # false alarms
        onset = float(rng.uniform(0.0, 30.0))
        hyp.append(
            Turn("f", f"hyp{int(rng.integers(0, n_spk))}", round(onset, 3),
                 round(float(rng.uniform(0.3, 2.0)), 3))
        )
    return ref, hyp


def fft_peak_hz(buf: AudioBuffer) -> float:
    """Dominant frequency via a Hann-windowed FFT with parabolic interpolation."""
    x = buf.samples.astype(np.float64)
    x = x - np.mean(x)
    w = np.hanning(len(x))
    mag = np.abs(np.fft.rfft(x * w))
    k = int(np.argmax(mag[1:])) + 1  # skip DC
    if 1 <= k < len(mag) - 1 and mag[k] > 0:
        # parabolic interpolation on log magnitude
        a, b, c = np.log(mag[k - 1] + 1e-300), np.log(mag[k] + 1e-300), np.log(mag[k + 1] + 1e-300)
        denom = a - 2 * b + c
        delta = 0.5 * (a - c) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    return (k + delta) * buf.sample_rate_hz / len(x)
