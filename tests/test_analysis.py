import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipxfer.analysis import (
    AnalysisError,
    FlipStats,
    binned_top_quartile_delta,
    flip_entropy,
    flip_stats_from_flags,
    knowledge_gain_loss,
    per_class_gain,
    positive_flips,
    semantic_similarity,
    success_rate,
    top_share_classes,
    transfer_rate,
)

from oracles import brute_force_flips

RNG = np.random.default_rng(777)


def _stats(counts, n=None):
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    n = n or max(total, 1)
    flags = np.zeros(n, dtype=bool)
    flags[:total] = True
    return FlipStats(flags, counts, total / n)


# ---------------------------------------------------------------------------
# positive flips


def test_identical_models_have_zero_flips():
    logits = RNG.normal(size=(50, 4))
    labels = RNG.integers(0, 4, size=50)
    stats = positive_flips(logits, logits, labels)
    assert stats.rho_pos == 0.0
    assert stats.total == 0


def test_hand_enumerated_flips():
    # teacher correct on {0,1,2}, student correct on {1,3}
    labels = np.array([0, 1, 2, 3])
    teacher = np.eye(4)[[0, 1, 2, 0]] * 5
    student = np.eye(4)[[1, 1, 3, 3]] * 5
    stats = positive_flips(teacher, student, labels)
    assert list(np.flatnonzero(stats.per_sample_flags)) == [0, 2]
    assert stats.rho_pos == 0.5
    assert np.array_equal(stats.per_class_counts, [1, 0, 1, 0])


def test_flips_match_brute_force_recount():
    for trial in range(5):
        rng = np.random.default_rng(trial)
        n, c = 400, 7
        teacher = rng.normal(size=(n, c))
        student = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        stats = positive_flips(teacher, student, labels)
        flags, counts, rho = brute_force_flips(teacher, student, labels)
        assert np.array_equal(stats.per_sample_flags, flags)
        assert np.array_equal(stats.per_class_counts, counts)
        assert stats.rho_pos == rho


def test_flip_ties_break_to_lowest_class():
    labels = np.array([0])
    tied = np.zeros((1, 3))  # argmax -> class 0 everywhere
    stats = positive_flips(tied, tied, labels)
    assert stats.rho_pos == 0.0  # both "predict" class 0, no flip


def test_flips_reject_misaligned_shapes():
    with pytest.raises(AnalysisError):
        positive_flips(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(3, dtype=int))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**24 - 1))
def test_rho_pos_bounded_by_accuracies(seed):
    rng = np.random.default_rng(seed)
    n, c = 50, 4
    teacher = rng.normal(size=(n, c))
    student = rng.normal(size=(n, c))
    labels = rng.integers(0, c, size=n)
    stats = positive_flips(teacher, student, labels)
    teacher_acc = float((np.argmax(teacher, axis=1) == labels).mean())
    student_acc = float((np.argmax(student, axis=1) == labels).mean())
    assert 0.0 <= stats.rho_pos <= min(teacher_acc, 1.0 - student_acc) + 1e-15


def test_random_teacher_flip_rate_matches_chance_analogue():
    # against a fixed student wrong on a known share, a random teacher flips
    # ~ (student error rate)/c of all samples
    rng = np.random.default_rng(42)
    n, c = 20000, 10
    labels = rng.integers(0, c, size=n)
    student_preds = labels.copy()
    wrong = rng.random(n) < 0.3  # student errs on 30%
    student_preds[wrong] = (labels[wrong] + 1) % c
    student = np.eye(c)[student_preds] * 3.0
    rates = []
    for seed in range(10):
        teacher = np.random.default_rng(seed).normal(size=(n, c))
        rates.append(positive_flips(teacher, student, labels).rho_pos)
    expected = 0.3 / c
    assert np.mean(rates) == pytest.approx(expected, rel=0.15)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_single_class_is_zero():
    h = flip_entropy(_stats([7, 0, 0]))
    assert h == 0.0 and math.copysign(1.0, h) == 1.0  # +0.0, which JSON and CSV write as 0.0, not -0.0


def test_entropy_uniform_is_log_c():
    assert flip_entropy(_stats([3, 3, 3, 3])) == pytest.approx(np.log(4), abs=1e-12)


def test_entropy_direct_formula():
    # counts [2,1,1]: H = ln4 - (2/4)ln2 = 1.5 ln2 ... evaluated independently
    counts = np.array([2, 1, 1])
    p = counts / counts.sum()
    expected = float(-(p * np.log(p)).sum())
    assert flip_entropy(_stats(counts)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(np.log(4) - 0.5 * np.log(2), abs=1e-12)


def test_entropy_of_zero_flips_is_none():
    assert flip_entropy(_stats([0, 0])) is None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=2, max_size=12).filter(lambda c: sum(c) > 0))
def test_entropy_bounded_by_support(counts):
    h = flip_entropy(_stats(counts))
    support = sum(1 for c in counts if c > 0)
    assert -1e-12 <= h <= np.log(support) + 1e-12
    if support > 1 and len(set(c for c in counts if c > 0)) == 1:
        assert h == pytest.approx(np.log(support), abs=1e-12)


# ---------------------------------------------------------------------------
# top-share classes


def test_top_share_all_flips():
    got = top_share_classes(_stats([5, 0, 3, 2]), 100.0)
    assert sorted(got) == [0, 2, 3]


def test_top_share_50_of_532():
    assert top_share_classes(_stats([5, 3, 2]), 50.0) == [0]


def test_top_share_60_needs_two():
    assert top_share_classes(_stats([5, 3, 2]), 60.0) == [0, 1]


def test_top_share_ties_by_class_id():
    assert top_share_classes(_stats([3, 3, 0]), 50.0) == [0]
    assert top_share_classes(_stats([3, 3, 0]), 100.0) == [0, 1]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=2, max_size=10).filter(lambda c: sum(c) > 0),
    st.floats(1, 100),
    st.floats(1, 100),
)
def test_top_share_monotone(counts, x1, x2):
    lo, hi = sorted((x1, x2))
    stats = _stats(counts)
    assert set(top_share_classes(stats, lo)) <= set(top_share_classes(stats, hi))


def test_top_share_rejects_bad_percent():
    with pytest.raises(AnalysisError):
        top_share_classes(_stats([1]), 0.0)
    with pytest.raises(AnalysisError):
        top_share_classes(_stats([0, 0]), 100.5)
    assert top_share_classes(_stats([0, 0]), 50.0) == []


# ---------------------------------------------------------------------------
# semantic similarity


def test_semantic_similarity_full_set_is_zero():
    emb = RNG.normal(size=(6, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    assert semantic_similarity(emb, range(6)) == pytest.approx(0.0, abs=1e-12)


def test_semantic_similarity_identical_pair_positive():
    emb = np.eye(4)
    emb[1] = emb[0]  # classes 0 and 1 identical, rest orthogonal
    rel = semantic_similarity(emb, [0, 1])
    assert rel > 0.0
    # within-set sim 1.0; overall mean = 2/12
    assert rel == pytest.approx(1.0 / (2.0 / 12.0) - 1.0, abs=1e-12)


def test_semantic_similarity_random_set_near_zero():
    # random embeddings in a cone (positive mean similarity, as language
    # embeddings have); a random subset then matches the global average
    diffs = []
    for seed in range(150):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(12, 16)) + 2.0  # shared direction
        idx = rng.choice(12, size=4, replace=False)
        diffs.append(semantic_similarity(emb, idx))
    assert abs(float(np.mean(diffs))) < 0.02


def test_semantic_similarity_of_fewer_than_two_classes_is_none():
    assert semantic_similarity(np.eye(3), [1]) is None
    assert semantic_similarity(np.eye(3), []) is None


# ---------------------------------------------------------------------------
# transfer rate, gain/loss


def _flip_fixture():
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
    flags = np.array([1, 1, 1, 0, 1, 0, 1, 0, 1, 0], dtype=bool)
    return flip_stats_from_flags(flags, labels, 5), labels


def test_transfer_rate_all_corrected():
    stats, labels = _flip_fixture()
    after = np.ones(10, dtype=bool)
    rate = transfer_rate(stats, after, labels)
    assert rate["overall"] == 1.0
    assert all(v == 1.0 for v in rate["by_top_share"].values() if v is not None)


def test_transfer_rate_none_corrected():
    stats, labels = _flip_fixture()
    rate = transfer_rate(stats, np.zeros(10, dtype=bool), labels)
    assert rate["overall"] == 0.0


def test_transfer_rate_without_flips_is_none():
    labels = np.array([0, 1, 1])
    stats = flip_stats_from_flags(np.zeros(3, dtype=bool), labels, 2)
    assert transfer_rate(stats, np.ones(3, dtype=bool), labels) is None
    with pytest.raises(AnalysisError):
        transfer_rate(stats, np.ones(2, dtype=bool), labels)


def test_per_class_gain_is_none_for_a_class_without_flips():
    stats, labels = _flip_fixture()
    after = np.array([1, 0, 0, 1, 1, 1, 1, 1, 0, 0], dtype=bool)
    assert per_class_gain(stats, after, labels) == [0.5, 0.0, 1.0, 1.0, 0.0]
    none = flip_stats_from_flags(np.zeros(10, dtype=bool), labels, 6)
    assert per_class_gain(none, after, labels) == [None] * 6


def test_transfer_rate_fraction():
    labels = np.zeros(10, dtype=int)
    flags = np.ones(10, dtype=bool)
    stats = flip_stats_from_flags(flags, labels, 2)
    after = np.zeros(10, dtype=bool)
    after[:6] = True
    assert transfer_rate(stats, after, labels)["overall"] == pytest.approx(0.6)


def test_gain_loss_unchanged_predictions():
    before = np.array([1, 1, 0, 0], dtype=bool)
    flips = np.array([0, 0, 1, 0], dtype=bool)
    gain, loss = knowledge_gain_loss(before, before.copy(), flips)
    assert gain == 0.0 and loss == 0.0


def test_gain_loss_student_copies_teacher():
    # 6 samples: teacher correct on 0-3, student(before) correct on 2-5
    labels = np.zeros(6, dtype=int)
    teacher_ok = np.array([1, 1, 1, 1, 0, 0], dtype=bool)
    before = np.array([0, 0, 1, 1, 1, 1], dtype=bool)
    flips = teacher_ok & ~before
    after = teacher_ok.copy()  # student now mirrors the teacher
    gain, loss = knowledge_gain_loss(before, after, flips)
    assert gain == 1.0
    assert loss == pytest.approx(2 / 4)  # lost the teacher-wrong half of its correct set


def test_gain_loss_random_predictions_monte_carlo():
    rng = np.random.default_rng(0)
    n, c = 60000, 10
    before = rng.random(n) < 0.7
    flips = ~before & (rng.random(n) < 0.5)
    after = rng.random(n) < 1 / c  # chance-level correctness
    gain, loss = knowledge_gain_loss(before, after, flips)
    assert gain == pytest.approx(1 / c, rel=0.1)
    assert loss == pytest.approx(1 - 1 / c, rel=0.05)


def test_gain_loss_empty_denominators():
    assert knowledge_gain_loss(np.ones(3, bool), np.array([1, 0, 0], bool), np.zeros(3, bool)) == (0.0, 2 / 3)
    with pytest.raises(AnalysisError):
        knowledge_gain_loss(np.zeros(3, bool), np.ones(3, bool), np.ones(3, bool))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**24 - 1), st.integers(10, 24))
def test_knowledge_identity_decomposes_delta(bits, n):
    # construct aligned flags where every newly-correct sample is a flip
    rng = np.random.default_rng(bits)
    before = rng.random(n) < 0.6
    flips = ~before & (rng.random(n) < 0.6)
    stays = before & (rng.random(n) < 0.8)
    gained = flips & (rng.random(n) < 0.5)
    after = stays | gained
    if not flips.any() or not before.any():
        return
    gain, loss = knowledge_gain_loss(before, after, flips)
    rho = flips.mean()
    delta = after.mean() - before.mean()
    assert delta == pytest.approx(gain * rho - loss * before.mean(), abs=1e-12)


# ---------------------------------------------------------------------------
# sweep summaries


def _report(delta_acc, delta_transf):
    return {"teacher": "t", "student": "s", "delta_acc": delta_acc, "delta_transf": delta_transf}


def test_success_rate_all_positive():
    assert success_rate([_report(0, 0.1), _report(0, 0.2)]) == 1.0


def test_success_rate_half():
    assert success_rate([_report(0, -1.0), _report(0, 1.0)]) == 0.5


def test_success_rate_zero_delta_is_not_success():
    assert success_rate([_report(0, 0.0)]) == 0.0


def test_binned_top_quartile_single_bin():
    reports = [_report(0.5, d) for d in (1.0, 2.0, 3.0, 4.0)]
    out = binned_top_quartile_delta(reports, [0.0, 1.0])
    assert out[(0.0, 1.0)] == 4.0  # ceil(4/4) = 1 element


def test_binned_top_quartile_empty_bin_absent():
    reports = [_report(-0.5, 1.0)]
    out = binned_top_quartile_delta(reports, [-1.0, 0.0, 1.0])
    assert (-1.0, 0.0) in out
    assert (0.0, 1.0) not in out


def test_binned_top_quartile_takes_ceil_quarter():
    reports = [_report(0.1, d) for d in (0.0, 1.0, 2.0, 3.0, 4.0)]  # 5 -> top 2
    out = binned_top_quartile_delta(reports, [0.0, 1.0])
    assert out[(0.0, 1.0)] == pytest.approx(3.5)
