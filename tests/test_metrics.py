"""Metric correctness against brute-force oracles and hand-derived values."""

import math
import time
import tracemalloc
from dataclasses import replace
from itertools import compress

import numpy as np
import pytest

from diarkit.audio_io import Turn, TurnColumns, emit_rttm, rttm_columns
from diarkit.errors import (
    EmptyInput,
    EmptyMatrix,
    EmptyReference,
    EmptyScores,
    LengthMismatch,
    MixedFiles,
    ZeroBaseline,
)
from diarkit.metrics import (
    DerReport,
    _columns,
    _intervals,
    MetricReport,
    cluster_purity,
    compute_der,
    compute_eer,
    compute_jer,
    hungarian_assign,
    _lap_value,
    pooled_report,
    relative_improvement,
    turns_purity,
)

from conftest import random_der_case
from oracles import (
    assignment_oracle,
    der_oracle,
    eer_dense_oracle,
    hungarian_assign_oracle,
    partition_oracle,
    pooled_report_oracle,
)


def _t(spk, on, dur, f="f"):
    return Turn(f, spk, on, dur)


# --- hungarian_assign ---


def test_diagonal_optimum():
    assert hungarian_assign([[0.0, 1.0], [1.0, 0.0]]) == {0: 0, 1: 1}


def test_one_by_one():
    assert hungarian_assign([[7.0]]) == {0: 0}


def test_tie_break_is_lexicographic():
    assert hungarian_assign([[1.0, 1.0], [1.0, 1.0]]) == {0: 0, 1: 1}
    assert hungarian_assign(np.zeros((3, 3))) == {0: 0, 1: 1, 2: 2}


def test_rectangular_assignments():
    # 2x3: both rows assigned; 3x2: only two rows can be.
    a = hungarian_assign([[5.0, 1.0, 9.0], [1.0, 5.0, 9.0]])
    assert a == {0: 1, 1: 0}
    b = hungarian_assign([[9.0, 9.0], [0.0, 9.0], [9.0, 0.0]])
    assert b == {1: 0, 2: 1}


def test_random_4x4_matches_permutation_minimum():
    rng = np.random.default_rng(3)
    for _ in range(100):
        cost = rng.integers(0, 50, size=(4, 4)).astype(float)
        got = hungarian_assign(cost)
        total = sum(cost[i, j] for i, j in got.items())
        assert total == assignment_oracle(cost)


def test_random_up_to_6x6_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.normal(size=(n, m))
        got = hungarian_assign(cost)
        assert len(got) == min(n, m)
        total = sum(cost[i, j] for i, j in got.items())
        assert total == pytest.approx(assignment_oracle(cost), abs=1e-9)


def test_hungarian_errors():
    with pytest.raises(EmptyMatrix):
        hungarian_assign(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        hungarian_assign([[np.inf, 1.0], [1.0, 0.0]])


def _random_costs(rng, count):
    """Cost matrices from 1x1 to 7x9, half of them transposed: normal
    costs, small integers (dense ties, with -0.0 among the zeros), rows
    whose entries are all equal, and scoring-like negated overlaps."""
    for case in range(count):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        if case % 2:
            n, m = m, n
        kind = (case // 2) % 4
        if kind == 0:
            c = rng.normal(size=(n, m))
        elif kind == 1:
            c = rng.integers(-3, 4, size=(n, m)).astype(float)
            c[(c == 0) & (rng.random((n, m)) < 0.5)] = -0.0
        elif kind == 2:
            c = rng.normal(size=(n, m))
            same = rng.random(n) < 0.5
            c[same] = rng.integers(0, 3, size=(int(same.sum()), 1))
        else:
            c = -np.round(rng.uniform(0.0, 900.0, size=(n, m)), 3) * (rng.random((n, m)) < 0.6)
        yield c


def test_hungarian_assign_equals_the_scipy_pin_loop():
    rng = np.random.default_rng(19)
    for case, c in enumerate(_random_costs(rng, 2400)):
        assert hungarian_assign(c) == hungarian_assign_oracle(c), (case, c.tolist())


def test_lap_value_is_the_permutation_minimum_with_feasible_duals():
    rng = np.random.default_rng(20)
    for case, c in enumerate(_random_costs(rng, 800)):
        total, pairs, u, v = _lap_value(c)
        assert len(pairs) == min(c.shape), case
        assert len(set(pairs.values())) == len(pairs), case
        assert total == sum(c[r, q] for r, q in sorted(pairs.items())), case
        if math.perm(max(c.shape), min(c.shape)) <= 20_160:  # keep enumeration short
            if np.all(c == np.round(c)):
                assert total == assignment_oracle(c), case
            else:
                assert total == pytest.approx(assignment_oracle(c), abs=1e-12), case
        # The duals prove the optimum: no negative reduced cost, none on
        # the pairs, and the longer side's duals are <= 0.
        reduced = c - np.array(u)[:, None] - np.array(v)
        assert reduced.min() >= -1e-12, case
        assert all(abs(reduced[r, q]) <= 1e-12 for r, q in pairs.items()), case
        longer = u if c.shape[0] > c.shape[1] else v
        assert max(longer) <= 0.0, case


def test_scoring_an_hour_with_a_speaker_per_hypothesis_turn_within_budget():
    ref, hyp = _hour_case(np.random.default_rng(15))
    hyp = [replace(t, speaker_id=f"h{i:04d}") for i, t in enumerate(hyp)]
    files = {"hour": (ref, hyp)}
    start = time.perf_counter()
    report = pooled_report(files, collar_s=0.25)
    elapsed = time.perf_counter() - start
    assert len(report.der.mapping) == 4
    assert report.to_dict() == pooled_report_oracle(files, 0.25)
    assert elapsed < 0.5, f"{elapsed:.3f} s"


# --- compute_der ---


def test_worked_example_is_15_percent():
    # One speaker talks for 100 s; the hypothesis misses 5 s, adds 3 s
    # of spurious speech past the end, and hands 7 s to a second
    # speaker: (5 + 3 + 7) / 100.
    ref = [_t("A", 0.0, 100.0)]
    hyp = [_t("A", 0.0, 85.0), _t("B", 90.0, 7.0), _t("A", 97.0, 6.0)]
    rep = compute_der(ref, hyp)
    assert rep.der == pytest.approx(0.15, abs=1e-9)
    assert rep.missed_s == pytest.approx(5.0, abs=1e-9)
    assert rep.false_alarm_s == pytest.approx(3.0, abs=1e-9)
    assert rep.confusion_s == pytest.approx(7.0, abs=1e-9)
    assert rep.total_ref_speech_s == pytest.approx(100.0, abs=1e-9)


def test_identity_and_renaming_give_zero():
    ref = [_t("A", 0.0, 5.0), _t("B", 4.0, 6.0), _t("A", 12.0, 2.0)]
    renamed = [_t("x9", 0.0, 5.0), _t("q", 4.0, 6.0), _t("x9", 12.0, 2.0)]
    assert compute_der(ref, ref).der == 0.0
    rep = compute_der(ref, renamed)
    assert rep.der == 0.0
    assert rep.missed_s == rep.false_alarm_s == rep.confusion_s == 0.0
    assert rep.mapping == {"A": "x9", "B": "q"}


def test_der_matches_brute_force_on_random_cases():
    rng = np.random.default_rng(11)
    for case in range(50):
        ref, hyp = random_der_case(rng)
        got = compute_der(ref, hyp).der
        want = der_oracle(ref, hyp)
        assert got == pytest.approx(want, abs=1e-9), f"case {case}"


def test_der_with_collar_matches_brute_force_on_random_cases():
    rng = np.random.default_rng(13)
    for case in range(50):
        ref, hyp = random_der_case(rng)
        got = compute_der(ref, hyp, collar_s=0.25).der
        want = der_oracle(ref, hyp, collar_s=0.25)
        assert got == pytest.approx(want, abs=1e-9), f"case {case}"


def test_hyp_relabeling_never_changes_the_report():
    rng = np.random.default_rng(12)
    ref, hyp = random_der_case(rng)
    base = compute_der(ref, hyp)
    renamed = [Turn(t.file_id, "z" + t.speaker_id, t.onset_s, t.duration_s) for t in hyp]
    rep = compute_der(ref, renamed)
    assert rep.der == pytest.approx(base.der, abs=1e-12)
    assert rep.missed_s == pytest.approx(base.missed_s, abs=1e-12)
    assert rep.false_alarm_s == pytest.approx(base.false_alarm_s, abs=1e-12)
    assert rep.confusion_s == pytest.approx(base.confusion_s, abs=1e-12)


def test_der_can_exceed_one():
    ref = [_t("A", 0.0, 1.0)]
    hyp = [_t(f"h{i}", 0.0, 1.0) for i in range(5)]
    assert compute_der(ref, hyp).der == pytest.approx(4.0)


def test_overlapping_reference_speech_counts_per_speaker():
    ref = [_t("A", 0.0, 10.0), _t("B", 0.0, 10.0)]
    hyp = [_t("X", 0.0, 10.0)]
    rep = compute_der(ref, hyp)
    assert rep.total_ref_speech_s == pytest.approx(20.0)
    assert rep.missed_s == pytest.approx(10.0)
    assert rep.der == pytest.approx(0.5)


def test_collar_excludes_boundary_neighborhoods():
    ref = [_t("A", 0.0, 10.0)]
    hyp = [_t("A", 0.2, 9.8)]
    strict = compute_der(ref, hyp, collar_s=0.0)
    assert strict.der == pytest.approx(0.02, abs=1e-9)
    relaxed = compute_der(ref, hyp, collar_s=0.25)
    assert relaxed.der == 0.0
    assert relaxed.total_ref_speech_s == pytest.approx(9.5, abs=1e-9)


def test_der_errors():
    with pytest.raises(MixedFiles):
        compute_der([_t("A", 0.0, 1.0, f="a")], [_t("A", 0.0, 1.0, f="b")])
    with pytest.raises(EmptyReference):
        compute_der([], [_t("A", 0.0, 1.0)])
    with pytest.raises(ValueError):
        compute_der([_t("A", 0.0, 1.0)], [], collar_s=-0.1)


@pytest.mark.parametrize("collar", [float("nan"), float("inf"), -0.1])
def test_collar_must_be_finite_and_not_negative(collar):
    ref = [_t("A", 0.0, 10.0)]
    with pytest.raises(ValueError):
        compute_der(ref, ref, collar_s=collar)
    with pytest.raises(ValueError):
        pooled_report({"f": (ref, ref)}, collar_s=collar)


# --- pooled_report ---


def test_pooled_report_charges_unscored_files_their_hypothesis_speech():
    # X overlaps itself: 2 s of X and 2 s of Y, counted per speaker.
    hyp = [_t("X", 0.0, 2.0, f="n"), _t("Y", 1.0, 2.0, f="n"), _t("X", 1.5, 0.5, f="n")]
    talk = [_t("A", 20.0, 10.0, f="talk")]

    def pooled(ref, hyp):
        return pooled_report({"n": (ref, hyp), "talk": (talk, talk)}, collar_s=0.5).der

    assert pooled([], hyp).false_alarm_s == pytest.approx(4.0)
    assert pooled([_t("A", 10.0, 0.2, f="n")], hyp).false_alarm_s == pytest.approx(4.0)
    # Collars cover 1.5-2.7 s: X keeps 0-1.5 s, Y keeps 1-1.5 s and 2.7-3 s.
    rep = pooled([_t("A", 2.0, 0.2, f="n")], hyp)
    assert rep.false_alarm_s == pytest.approx(2.3)
    assert rep.total_ref_speech_s == pytest.approx(9.0)  # talk's, inside its collars
    assert pooled([], []).false_alarm_s == 0.0


def _pooled_by_file(files, collar):
    """Pooled DER components, mapping, and JER composed from the
    per-file functions as md-eval pools them."""
    missed = fa = conf = total = 0.0
    jers, mapping = [], {}
    for fid in sorted(files):
        ref, hyp = files[fid]
        try:
            der = compute_der(ref, hyp, collar_s=collar)
        except EmptyReference:
            # All hypothesis speech outside the collars is false alarm.
            fa += sum(d * len(h) for d, _, h in _partition(ref, hyp, collar))
            continue
        missed += der.missed_s
        fa += der.false_alarm_s
        conf += der.confusion_s
        total += der.total_ref_speech_s
        mapping.update({f"{fid}/{k}": v for k, v in der.mapping.items()})
        jers.append(compute_jer(ref, hyp) * der.total_ref_speech_s)
    return missed, fa, conf, total, (missed + fa + conf) / total, mapping, sum(jers) / total


def test_pooled_report_equals_the_per_file_functions_exactly():
    rng = np.random.default_rng(16)
    noise = [_t("X", 1.0, 2.0, f="noise"), _t("Y", 2.5, 1.0, f="noise")]
    collared = [_t("A", 5.0, 0.3, f="collared")]
    for case in range(40):
        files = {"noise": ([], noise), "collared": (collared, [_t("X", 4.0, 2.0, f="collared")])}
        for k in range(int(rng.integers(1, 5))):
            ref, hyp = random_der_case(rng)
            files[f"f{k}"] = ([replace(t, file_id=f"f{k}") for t in ref],
                              [replace(t, file_id=f"f{k}") for t in hyp])
        for collar in (0.0, 0.25):
            rep = pooled_report(files, collar_s=collar)
            d = rep.der
            got = (d.missed_s, d.false_alarm_s, d.confusion_s, d.total_ref_speech_s, d.der,
                   d.mapping, rep.jer)
            assert got == _pooled_by_file(files, collar), f"case {case}, collar {collar}"
            # Purity: each file's credit over hypothesis speech counted per speaker.
            speech = {f: sum(x * len(s) for x, _, s in _partition(*files[f])) for f in files}
            credit = sum(turns_purity(*files[f]) * speech[f] for f in files)
            assert rep.cluster_purity == pytest.approx(credit / sum(speech.values()), abs=1e-12)


def test_a_perfect_hypothesis_scores_zero_error_and_purity_at_most_one():
    # Credit and hypothesis time are sums of the same durations in
    # different orders, so without the cap purity can exceed 1 by an ulp
    # and MetricReport would refuse the report.
    rng = np.random.default_rng(17)
    for case in range(200):
        ref, _ = random_der_case(rng)
        rep = pooled_report({"f": (ref, ref)})
        assert (rep.der.der, rep.jer) == (0.0, 0.0), f"case {case}"
        for purity in (rep.cluster_purity, turns_purity(ref, ref)):
            assert 1.0 - 1e-12 <= purity <= 1.0, f"case {case}"


def test_pooled_report_without_scored_speech_raises():
    hyp = [_t("X", 0.0, 1.0, f="n")]
    with pytest.raises(EmptyReference):
        pooled_report({"n": ([], hyp)})
    with pytest.raises(EmptyReference):
        pooled_report({"n": ([_t("A", 0.0, 0.2, f="n")], hyp)}, collar_s=0.25)
    with pytest.raises(EmptyReference):
        pooled_report({})
    with pytest.raises(MixedFiles):
        pooled_report({"n": ([_t("A", 0.0, 1.0, f="n")], [_t("A", 0.0, 1.0, f="m")])})


# --- _partition ---


def _partition(ref, hyp, collar_s=0.0):
    """``_intervals`` as (duration, reference speakers, hypothesis
    speakers) tuples, one per kept interval."""
    iv = _intervals(_columns(ref), _columns(hyp), collar_s)
    return [
        (d, frozenset(compress(iv.r_spk, r)), frozenset(compress(iv.h_spk, h)))
        for d, r, h in zip(iv.d.tolist(), iv.ref.tolist(), iv.hyp.tolist())
    ]


def _crowded_case(rng):
    """A random case plus same-speaker turns that overlap, touch, or last
    only a millisecond, on the 1 ms grid RTTM files use."""
    ref, hyp = random_der_case(rng)
    for turns in (ref, hyp):
        for t in list(turns[:4]):
            kind = int(rng.integers(0, 3))
            if kind == 0:  # overlaps the same speaker's turn
                onset, dur = t.onset_s + 0.2, t.duration_s
            elif kind == 1:  # starts where it ends
                onset, dur = t.offset_s, float(rng.uniform(0.001, 1.0))
            else:  # a millisecond inside it
                onset, dur = t.onset_s + 0.1, 0.001
            turns.append(Turn(t.file_id, t.speaker_id, round(onset, 3), round(dur, 3)))
    return ref, hyp


def test_partition_equals_the_oracle_exactly():
    rng = np.random.default_rng(14)
    for case in range(150):
        ref, hyp = _crowded_case(rng)
        for collar in (0.0, 0.1, 0.25, 0.5):
            assert _partition(ref, hyp, collar) == partition_oracle(ref, hyp, collar), (
                f"case {case}, collar {collar}"
            )


def test_partition_of_one_side_only():
    turns = [_t("A", 0.0, 1.0), _t("A", 1.0, 0.001), _t("B", 0.5, 2.0)]
    for collar in (0.0, 0.25):
        assert _partition(turns, [], collar) == partition_oracle(turns, [], collar)
        assert _partition([], turns, collar) == partition_oracle([], turns, collar)
    assert _partition([], []) == []


def _hour_case(rng, n_ref=1000, n_hyp=1200, n_spk=4):
    """An hour of alternating turns and a perturbed hypothesis, built as
    random_der_case builds one: renamed speakers, jittered boundaries,
    missed and confused turns, and false alarms up to n_hyp turns."""
    ref, t = [], 0.5
    for _ in range(n_ref):
        dur = float(rng.uniform(0.5, 4.0))
        ref.append(Turn("hour", f"spk{int(rng.integers(0, n_spk))}", round(t, 3), round(dur, 3)))
        t += dur + float(rng.uniform(0.3, 3.0))
    perm = rng.permutation(n_spk)
    hyp = []
    for r in ref:
        if rng.random() < 0.15:
            continue
        onset = max(0.0, r.onset_s + float(rng.uniform(-0.3, 0.3)))
        dur = max(0.1, r.duration_s + float(rng.uniform(-0.4, 0.4)))
        s = perm[int(r.speaker_id.removeprefix("spk"))]
        if rng.random() < 0.1:
            s = int(rng.integers(0, n_spk))
        hyp.append(Turn("hour", f"hyp{s}", round(onset, 3), round(dur, 3)))
    while len(hyp) < n_hyp:
        hyp.append(
            Turn("hour", f"hyp{int(rng.integers(0, n_spk))}", round(float(rng.uniform(0.0, t)), 3),
                 round(float(rng.uniform(0.3, 2.0)), 3))
        )
    return ref, hyp


def test_scoring_an_hour_of_turns_within_budget():
    ref, hyp = _hour_case(np.random.default_rng(15))
    assert ref[-1].offset_s > 3000.0
    start = time.perf_counter()
    der = compute_der(ref, hyp, collar_s=0.25)
    jer = compute_jer(ref, hyp)
    purity = turns_purity(ref, hyp)
    pooled = pooled_report({"hour": (ref, hyp)}, collar_s=0.25)
    elapsed = time.perf_counter() - start
    assert 0.0 < der.der < 1.0 and 0.0 < jer < 1.0 and 0.0 < purity < 1.0
    assert pooled.der.der == der.der and pooled.jer == pytest.approx(jer, abs=1e-12)
    assert elapsed < 0.1, f"{elapsed:.3f} s"


def test_scoring_an_hour_of_turns_within_two_megabytes():
    files = {"hour": _hour_case(np.random.default_rng(15))}
    pooled_report(files, collar_s=0.25)
    tracemalloc.start()
    try:
        pooled_report(files, collar_s=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, f"{peak / 1e6:.2f} MB"


# --- pooled_report against the loop scorer ---


def _columns_of(turns):
    """Turns as columns, built field by field."""
    return TurnColumns([t.file_id for t in turns], [t.speaker_id for t in turns],
                       [t.onset_s for t in turns], [t.duration_s for t in turns])


def _read_back(files):
    """Each side of ``files`` written as one RTTM document and parsed back
    into per-file columns, as ``evaluate`` reads a single-file input."""
    sides = [rttm_columns("".join(emit_rttm(pair[i]) for pair in files.values())).by_file()
             for i in (0, 1)]
    return {f: tuple(side.get(f, TurnColumns()) for side in sides) for f in files}


def _assert_scores_as_the_loop_scorer(files, collar, case, columns=None):
    """pooled_report fed Turn lists and fed per-file columns (``columns``,
    else ``files`` as columns) gives the loop scorer's report, bit for bit."""
    if columns is None:
        columns = {f: (_columns_of(ref), _columns_of(hyp)) for f, (ref, hyp) in files.items()}
    try:
        want = pooled_report_oracle(files, collar)
    except EmptyReference:
        for given in (files, columns):
            with pytest.raises(EmptyReference):
                pooled_report(given, collar_s=collar)
        return
    assert pooled_report(files, collar_s=collar).to_dict() == want, case
    assert pooled_report(columns, collar_s=collar).to_dict() == want, case


def test_pooled_report_equals_the_loop_scorer_on_random_files():
    rng = np.random.default_rng(16)
    noise = [_t("X", 1.0, 2.0, f="noise"), _t("Y", 2.5, 1.0, f="noise")]
    collared = [_t("A", 5.0, 0.3, f="collared")]
    for case in range(40):
        files = {"noise": ([], noise), "collared": (collared, [_t("X", 4.0, 2.0, f="collared")])}
        for k in range(int(rng.integers(1, 5))):
            ref, hyp = random_der_case(rng)
            files[f"f{k}"] = ([replace(t, file_id=f"f{k}") for t in ref],
                              [replace(t, file_id=f"f{k}") for t in hyp])
        # Every time has 3 decimals, so the RTTM text holds it exactly.
        read_back = _read_back(files)
        for collar in (0.0, 0.25):
            _assert_scores_as_the_loop_scorer(files, collar, (case, collar), read_back)


def test_pooled_report_equals_the_loop_scorer_on_crowded_cases():
    rng = np.random.default_rng(14)
    for case in range(150):
        files = {"f": _crowded_case(rng)}
        for collar in (0.0, 0.1, 0.25, 0.5):
            _assert_scores_as_the_loop_scorer(files, collar, (case, collar))


def test_pooled_report_equals_the_loop_scorer_on_an_hour():
    files = {"hour": _hour_case(np.random.default_rng(15))}
    for collar in (0.0, 0.1, 0.25, 0.5):
        _assert_scores_as_the_loop_scorer(files, collar, collar)


def test_pooled_report_equals_the_loop_scorer_on_edge_cases():
    rng = np.random.default_rng(18)
    ref, _ = random_der_case(rng)
    many = [_t(f"h{i:02d}", float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.2, 3.0)))
            for i in range(40) for _ in range(2)]
    # A speaks only inside B's collars; B's two hypothesis speakers tie, so
    # an unused row for A in the assignment would hand B the second one.
    tie = ([_t("A", 4.9, 0.2), _t("B", 0.0, 20.0)], [_t("X", 0.0, 20.0), _t("Y", 0.0, 20.0)])
    # The same speaker's turns touch, overlap, and nest.
    touching = ([_t("A", 0.0, 2.0), _t("A", 2.0, 2.0), _t("A", 3.0, 2.0), _t("B", 1.0, 3.0)],
                [_t("X", 0.0, 3.0), _t("X", 1.0, 1.0), _t("X", 3.0, 0.001), _t("Y", 3.0, 2.0)])
    cases = {
        "empty hypothesis": {"f": (ref, [])},
        "collared speaker": {"f": tie},
        "forty hypothesis speakers": {"f": (ref, many)},
        "touching turns": {"f": touching},
    }
    for name, files in cases.items():
        for collar in (0.0, 0.1, 0.25, 0.5):
            _assert_scores_as_the_loop_scorer(files, collar, (name, collar))
    mapping = pooled_report({"f": tie}, collar_s=0.25).der.mapping
    assert mapping == {"f/B": "X"}


# --- compute_jer ---


def test_jer_identity_is_zero():
    ref = [_t("A", 0.0, 5.0), _t("B", 6.0, 3.0)]
    assert compute_jer(ref, ref) == 0.0


def test_jer_disjoint_is_one():
    ref = [_t("A", 0.0, 5.0)]
    hyp = [_t("X", 10.0, 5.0)]
    assert compute_jer(ref, hyp) == 1.0


def test_jer_hand_example():
    ref = [_t("A", 0.0, 10.0)]
    hyp = [_t("X", 0.0, 8.0)]
    assert compute_jer(ref, hyp) == pytest.approx(0.2, abs=1e-12)


def test_jer_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ref, hyp = random_der_case(rng)
        assert 0.0 <= compute_jer(ref, hyp) <= 1.0


# --- cluster_purity ---


def test_purity_homogeneous_clusters():
    assert cluster_purity(["A", "A", "B", "B"], [0, 0, 1, 1]) == 1.0


def test_purity_majority_count_example():
    # Clusters {A, A, B} and {B, B}: (2 + 2) / 5.
    speakers = ["A", "A", "B", "B", "B"]
    labels = [0, 0, 0, 1, 1]
    assert cluster_purity(speakers, labels) == pytest.approx(0.8)


def test_purity_single_cluster_single_speaker():
    assert cluster_purity(["A", "A", "A"], [0, 0, 0]) == 1.0


def test_purity_relabeling_invariance():
    speakers = ["A", "B", "A", "C", "B", "B"]
    labels = [0, 0, 1, 1, 2, 2]
    base = cluster_purity(speakers, labels)
    assert cluster_purity(speakers, [7, 7, 3, 3, 9, 9]) == base
    swapped = [{"A": "C", "B": "A", "C": "B"}[s] for s in speakers]
    assert cluster_purity(swapped, labels) == base


def test_purity_weighted():
    speakers = ["A", "B"]
    labels = [0, 0]
    assert cluster_purity(speakers, labels, weights=[3.0, 1.0]) == pytest.approx(0.75)


def test_purity_errors():
    with pytest.raises(LengthMismatch):
        cluster_purity(["A"], [0, 1])
    with pytest.raises(EmptyInput):
        cluster_purity([], [])


def test_turns_purity_identity_and_empty():
    ref = [_t("A", 0.0, 5.0), _t("B", 6.0, 3.0)]
    assert turns_purity(ref, ref) == pytest.approx(1.0)
    assert turns_purity(ref, []) == 0.0


def test_turns_purity_mixed_cluster():
    ref = [_t("A", 0.0, 6.0), _t("B", 6.0, 2.0)]
    hyp = [_t("X", 0.0, 8.0)]  # 6 s of A, 2 s of B
    assert turns_purity(ref, hyp) == pytest.approx(0.75)


# --- compute_eer ---


def test_eer_perfect_separation():
    assert compute_eer([1.0, 1.0, 1.0], [0.0, 0.0]) == 0.0


def test_eer_identical_single_scores():
    assert compute_eer([0.5], [0.5]) == pytest.approx(0.5)


def test_eer_frozen_example_is_one_third():
    got = compute_eer([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert got == pytest.approx(
        eer_dense_oracle([0.9, 0.8, 0.3], [0.7, 0.2, 0.1]), abs=1e-9
    )


def test_eer_matches_dense_sweep():
    rng = np.random.default_rng(14)
    for _ in range(5):
        genuine = rng.normal(1.0, 0.8, size=2000)
        impostor = rng.normal(-1.0, 0.8, size=2000)
        got = compute_eer(genuine, impostor)
        want = eer_dense_oracle(genuine, impostor)
        assert got == pytest.approx(want, abs=1e-3)


def test_eer_empty_scores():
    with pytest.raises(EmptyScores):
        compute_eer([], [0.1])
    with pytest.raises(EmptyScores):
        compute_eer([0.1], [])


# --- relative_improvement ---


def test_relative_improvement_values():
    assert relative_improvement(62.3, 62.3) == 0.0
    assert round(100 * relative_improvement(62.3, 25.7), 1) == 58.7
    assert round(100 * relative_improvement(62.3, 30.4), 1) == 51.2
    assert relative_improvement(100.0, 0.0) == 1.0


def test_relative_improvement_errors():
    with pytest.raises(ZeroBaseline):
        relative_improvement(0.0, 1.0)
    with pytest.raises(ValueError):
        relative_improvement(1.0, -0.5)


# --- report serialization ---


def test_metric_report_json_field_names():
    rep = MetricReport(
        der=compute_der([_t("A", 0.0, 10.0)], [_t("A", 0.0, 10.0)]),
        jer=0.0,
        cluster_purity=1.0,
    )
    doc = rep.to_json()
    import json

    data = json.loads(doc)
    assert set(data) == {
        "der", "jer", "cluster_purity", "snr_db", "eer", "relative_improvement",
    }
    assert set(data["der"]) == {
        "missed_s", "false_alarm_s", "confusion_s",
        "total_ref_speech_s", "der", "mapping",
    }
    assert data["snr_db"] is None
    assert data["der"]["der"] == 0.0
    assert data["cluster_purity"] == 1.0


def test_report_validation():
    der = compute_der([_t("A", 0.0, 1.0)], [_t("A", 0.0, 1.0)])
    with pytest.raises(ValueError):
        MetricReport(der=der, jer=1.5, cluster_purity=1.0)
    with pytest.raises(ValueError):
        MetricReport(der=der, jer=0.0, cluster_purity=1.0, eer=0.9)
    with pytest.raises(ValueError):
        DerReport(
            missed_s=-1.0, false_alarm_s=0.0, confusion_s=0.0,
            total_ref_speech_s=10.0, der=0.0,
        )
