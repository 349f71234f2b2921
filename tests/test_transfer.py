import functools
import hashlib
import itertools
import pickle
import re
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipxfer import autodiff as ad
from flipxfer.autodiff import Tape, Tensor, backward, np_softmax
from flipxfer.config import dump_json
from flipxfer.data import Dataset
from flipxfer.models import ModelSpec, as_tensors, build, model_forward, predict_classes, predict_logits
from flipxfer.transfer import (
    METHODS,
    MclState,
    PartitionMask,
    TrainingDivergedError,
    TransferError,
    TransferHyperparams,
    _topk_target,
    cd_loss,
    check_dataset,
    confidence_winner,
    default_hyperparams,
    dp_loss,
    dp_masks_supervised,
    dp_masks_unsupervised,
    kl_loss,
    mcl_interpolate,
    run_transfer,
    sgd_epochs,
    soft_target_kl,
    topk_restricted_kl,
    val_correct,
    winner_logprobs,
    xe_kl_loss,
    xe_loss,
)

from conftest import count_val_forwards
from oracles import (
    analytic_grads,
    finite_diff_grads,
    max_rel_error,
    oracle_cd,
    oracle_dp,
    oracle_kl,
    oracle_topk,
    oracle_xe,
)

RNG = np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# kl_loss


def test_kl_identical_logits_is_exactly_zero():
    z = RNG.normal(size=(6, 5))
    assert kl_loss(Tensor(z), z, 1.0).item() == 0.0
    assert kl_loss(Tensor(z), z, 2.0).item() == 0.0  # doubling T keeps it zero


def test_kl_value_against_scalar_oracle():
    student = np.zeros((1, 3))  # uniform student
    teacher = np.array([[10.0, 0.0, 0.0]])
    got = kl_loss(Tensor(student), teacher, 1.0).item()
    assert got == pytest.approx(oracle_kl(student, teacher, 1.0), rel=1e-12)


def test_kl_random_values_match_oracle_many_temps():
    for temp in (0.5, 1.0, 4.0):
        s = RNG.normal(size=(9, 6), scale=3)
        t = RNG.normal(size=(9, 6), scale=3)
        assert kl_loss(Tensor(s), t, temp).item() == pytest.approx(
            oracle_kl(s, t, temp), rel=1e-10
        )


def test_kl_nonnegative_and_zero_only_on_match():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        s, t = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        value = kl_loss(Tensor(s), t, 1.0).item()
        assert value >= 0.0
        if np.abs(np_softmax(s) - np_softmax(t)).max() > 1e-10:
            assert value > 0.0


def test_kl_rejects_bad_temperature():
    z = np.zeros((2, 2))
    with pytest.raises(TransferError):
        kl_loss(Tensor(z), z, 0.0)


# ---------------------------------------------------------------------------
# xe_kl


def test_xe_kl_endpoints_match_components_bitwise():
    s = RNG.normal(size=(5, 4))
    t = RNG.normal(size=(5, 4))
    y = RNG.integers(0, 4, size=5)
    assert xe_kl_loss(Tensor(s), t, y, 1.0, 1.0).item() == kl_loss(Tensor(s), t, 1.0).item()
    assert xe_kl_loss(Tensor(s), t, y, 0.0, 1.0).item() == xe_loss(Tensor(s), y).item()


def test_xe_kl_midpoint_is_mean():
    s = RNG.normal(size=(5, 4))
    t = RNG.normal(size=(5, 4))
    y = RNG.integers(0, 4, size=5)
    mid = xe_kl_loss(Tensor(s), t, y, 0.5, 1.0).item()
    kl = kl_loss(Tensor(s), t, 1.0).item()
    xe = xe_loss(Tensor(s), y).item()
    assert mid == pytest.approx(0.5 * (kl + xe), rel=1e-14)


def test_xe_matches_oracle():
    s = RNG.normal(size=(7, 5))
    y = RNG.integers(0, 5, size=7)
    assert xe_loss(Tensor(s), y).item() == pytest.approx(oracle_xe(s, y), rel=1e-12)


# ---------------------------------------------------------------------------
# MCL interpolation


def _mcl(tau, every=1):
    slow = {"w": np.array([0.0, 0.0])}
    fast = {"w": Tensor(np.array([1.0, 2.0]))}
    return MclState(slow=slow, fast=fast, tau=tau, every=every)


def test_mcl_tau_one_pins_slow_bitwise():
    state = _mcl(1.0)
    before = state.slow["w"].copy()
    for _ in range(9):
        mcl_interpolate(state)
    assert np.array_equal(state.slow["w"], before)


def test_mcl_tau_zero_copies_fast():
    state = _mcl(0.0)
    mcl_interpolate(state)
    assert np.array_equal(state.slow["w"], state.fast["w"].data)


def test_mcl_momentum_value():
    state = _mcl(0.9999)
    state.fast["w"].data = np.array([1.0, 1.0])
    mcl_interpolate(state)
    assert state.slow["w"][0] == pytest.approx(1e-4, rel=1e-9)


def test_mcl_respects_interval():
    state = _mcl(0.5, every=2)
    mcl_interpolate(state)  # skipped
    assert np.array_equal(state.slow["w"], [0.0, 0.0])
    mcl_interpolate(state)  # applied
    assert np.allclose(state.slow["w"], [0.5, 1.0])


# ---------------------------------------------------------------------------
# data-partition masks


def test_supervised_mask_follows_ground_truth_probability():
    # teacher 0.8 vs frozen student 0.6 on the true class -> teacher wins
    teacher = np.log(np.array([[0.8, 0.1, 0.1]]))
    st_ = np.log(np.array([[0.6, 0.2, 0.2]]))
    mask = dp_masks_supervised(teacher, st_, np.array([0]))
    assert mask.m_t[0] and not mask.m_st[0]


def test_supervised_mask_tie_goes_to_student_reference():
    z = RNG.normal(size=(4, 3))
    mask = dp_masks_supervised(z, z.copy(), np.array([0, 1, 2, 0]))
    assert not mask.m_t.any()
    assert mask.m_st.all()


def test_unsupervised_confident_teacher_everywhere():
    teacher = np.eye(4) * 9.0
    st_ = np.zeros((4, 4))
    mask = dp_masks_unsupervised(teacher, st_)
    assert mask.m_t.all()


def test_unsupervised_equals_supervised_when_both_argmax_correct():
    rng = np.random.default_rng(3)
    n, c = 300, 6
    labels = rng.integers(0, c, size=n)
    teacher = rng.normal(size=(n, c))
    st_ = rng.normal(size=(n, c))
    # force both argmax to the label on a subset
    boost = rng.random(n) < 0.5
    teacher[boost, labels[boost]] += 10
    st_[boost, labels[boost]] += 10
    sup = dp_masks_supervised(teacher, st_, labels)
    unsup = dp_masks_unsupervised(teacher, st_)
    both_correct = (np.argmax(teacher, axis=1) == labels) & (np.argmax(st_, axis=1) == labels)
    assert np.array_equal(sup.m_t[both_correct], unsup.m_t[both_correct])


def test_mask_partition_enforced():
    with pytest.raises(TransferError):
        PartitionMask(np.array([True, False]), np.array([True, False]))


# ---------------------------------------------------------------------------
# dp_loss


def test_dp_all_teacher_equals_kl_bitwise():
    s = RNG.normal(size=(6, 5))
    t = RNG.normal(size=(6, 5))
    st_ = RNG.normal(size=(6, 5))
    mask = PartitionMask(np.ones(6, bool), np.zeros(6, bool))
    assert dp_loss(Tensor(s), t, st_, mask, 2.0).item() == kl_loss(Tensor(s), t, 2.0).item()


def test_dp_all_student_reference_self_distillation_zero():
    s = RNG.normal(size=(4, 3))
    mask = PartitionMask(np.zeros(4, bool), np.ones(4, bool))
    assert dp_loss(Tensor(s), RNG.normal(size=(4, 3)), s, mask, 1.0).item() == 0.0


def test_dp_half_half_matches_oracle():
    s = RNG.normal(size=(6, 4))
    t = RNG.normal(size=(6, 4))
    st_ = RNG.normal(size=(6, 4))
    m_t = np.array([1, 0, 1, 0, 1, 0], dtype=bool)
    mask = PartitionMask(m_t, ~m_t)
    got = dp_loss(Tensor(s), t, st_, mask, 1.5).item()
    assert got == pytest.approx(oracle_dp(s, t, st_, m_t, 1.5), rel=1e-10)


def test_dp_reduction_bitwise_on_100_random_fixtures():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        s = rng.normal(size=(n, c), scale=4)
        t = rng.normal(size=(n, c), scale=4)
        st_ = rng.normal(size=(n, c), scale=4)
        temp = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        mask = PartitionMask(np.ones(n, bool), np.zeros(n, bool))
        assert dp_loss(Tensor(s), t, st_, mask, temp).item() == kl_loss(Tensor(s), t, temp).item()


# ---------------------------------------------------------------------------
# targets built once over the transfer set vs the per-batch objectives


def _loss_and_grad(build, s):
    z = Tensor(s.copy(), requires_grad=True)
    with Tape() as tape:
        loss = build(z)
    backward(tape, loss)
    return loss.item(), z.grad


@pytest.mark.parametrize("method", ["kl", "xe_kl", "kl_dp_sup", "kl_dp_unsup", "kl_topk"])
@pytest.mark.parametrize("batch", [1, 7, 32, 64])
@pytest.mark.parametrize("temp", [0.5, 1.0, 2.0, 4.0])
def test_precomputed_target_rows_equal_the_per_batch_objective(method, batch, temp):
    """The rows of a target built on the whole set give the loss and the
    student-logit gradient of the per-batch objective, bit for bit. For
    ``kl`` with ``topk`` 3 the target is restricted once, and a batch gathers
    the student's logits at its rows' columns."""
    rng = np.random.default_rng([batch, int(temp * 10), len(method)])
    n, c, lam = 150, 6, 0.3
    teacher, st_ = rng.normal(size=(n, c), scale=3), rng.normal(size=(n, c), scale=3)
    labels = rng.integers(0, c, size=n)
    sources = [st_, teacher] if method.startswith("kl_dp") else [teacher]
    winner = confidence_winner(sources, labels if method == "kl_dp_sup" else None)
    targets = winner_logprobs(winner, sources, temp)
    cols = None
    if method == "kl_topk":
        cols, targets = _topk_target(targets, 3)
    for _ in range(5):
        b = rng.choice(n, size=batch, replace=False)
        s = rng.normal(size=(batch, c), scale=3)
        if method == "kl":
            want = lambda z: kl_loss(z, teacher[b], temp)
        elif method == "xe_kl":
            want = lambda z: xe_kl_loss(z, teacher[b], labels[b], lam, temp)
        elif method == "kl_dp_sup":
            want = lambda z: dp_loss(z, teacher[b], st_[b], dp_masks_supervised(teacher[b], st_[b], labels[b]), temp)
        elif method == "kl_dp_unsup":
            want = lambda z: dp_loss(z, teacher[b], st_[b], dp_masks_unsupervised(teacher[b], st_[b]), temp)
        else:
            want = lambda z: topk_restricted_kl(z, teacher[b], temp, 3)

        def got(z):
            kl = soft_target_kl(z if cols is None else ad.gather_cols(z, cols[b]), targets[b], temp)
            if method != "xe_kl":
                return kl
            xe = xe_loss(z, labels[b])
            return ad.add(ad.scale(kl, lam), ad.scale(xe, 1.0 - lam))

        loss_got, grad_got = _loss_and_grad(got, s)
        loss_want, grad_want = _loss_and_grad(want, s)
        assert loss_got == loss_want
        assert np.array_equal(grad_got, grad_want)


# ---------------------------------------------------------------------------
# top-k restricted divergence


def test_topk_full_k_equals_kl():
    s = RNG.normal(size=(5, 6))
    t = RNG.normal(size=(5, 6))
    assert topk_restricted_kl(Tensor(s), t, 1.0, 6).item() == pytest.approx(
        kl_loss(Tensor(s), t, 1.0).item(), abs=1e-12
    )


def test_topk_matched_top1_mass_zero():
    t = np.array([[30.0, 0.0, -30.0]])
    s = np.array([[5.0, -40.0, -80.0]])  # same argmax, rest negligible
    assert topk_restricted_kl(Tensor(s), t, 1.0, 1).item() == pytest.approx(0.0, abs=1e-12)


def test_topk_three_class_hand_fixture():
    t = np.log(np.array([[0.6, 0.3, 0.1]]))
    s = np.log(np.array([[0.2, 0.5, 0.3]]))
    got = topk_restricted_kl(Tensor(s), t, 1.0, 2).item()
    assert got == pytest.approx(oracle_topk(s, t, 1.0, 2), rel=1e-10)


def test_topk_matches_oracle_random():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(7, 8), scale=2)
        t = rng.normal(size=(7, 8), scale=2)
        k = int(rng.integers(1, 9))
        got = topk_restricted_kl(Tensor(s), t, 2.0, k).item()
        assert got == pytest.approx(oracle_topk(s, t, 2.0, k), rel=1e-9)


def test_topk_out_of_range():
    z = np.zeros((2, 3))
    for k in (0, 4):
        with pytest.raises(TransferError):
            topk_restricted_kl(Tensor(z), z, 1.0, k)


# ---------------------------------------------------------------------------
# cd_loss


def test_cd_identical_features_zero():
    f = RNG.normal(size=(5, 7))
    assert cd_loss(Tensor(f.copy()), f).item() == 0.0


def test_cd_scale_invariance():
    f = RNG.normal(size=(5, 7))
    assert cd_loss(Tensor(2.0 * f), f).item() == pytest.approx(0.0, abs=1e-12)


def test_cd_orthogonal_vs_collinear_fixture():
    teacher = np.array([[1.0, 0.0], [1.0, 0.0]])  # collinear pair
    student = np.array([[1.0, 0.0], [0.0, 1.0]])  # orthogonal pair
    got = cd_loss(Tensor(student), teacher).item()
    assert got == pytest.approx(oracle_cd(student, teacher), rel=1e-10)
    assert got > 0


def test_cd_one_row_batch_is_zero_with_a_zero_gradient():
    """A one-row batch's only similarity is its own: the loss is 0.0 and
    the gradient all zero."""
    feats = Tensor(RNG.normal(size=(1, 4)), requires_grad=True)
    with Tape() as tape:
        loss = cd_loss(feats, RNG.normal(size=(1, 4)))
    backward(tape, loss)
    assert loss.item() == 0.0
    assert np.array_equal(feats.grad, np.zeros((1, 4)))


def test_cd_zero_feature_rows_give_a_finite_loss_and_bounded_gradients():
    """A zero teacher row, and a student row whose ReLU units are all off,
    through a projection: the ReLU mask blocks the 1/1e-12 gradient of the
    zero row, so the parameter gradients are finite, bounded and match
    finite differences."""
    rng = np.random.default_rng(33)
    x = Tensor(rng.normal(size=(5, 3)))
    x.data[2] = 0.0  # row 2 meets only the negative biases: every unit off
    params = {
        "w": Tensor(rng.normal(size=(3, 6)), requires_grad=True),
        "b": Tensor(np.full(6, -0.1), requires_grad=True),
        "proj": Tensor(rng.normal(size=(6, 4)), requires_grad=True),
    }
    teacher = rng.normal(size=(5, 4))
    teacher[1] = 0.0
    hidden = lambda: ad.relu(ad.affine(x, params["w"], params["b"]))
    loss = lambda: cd_loss(ad.matmul(hidden(), params["proj"]), teacher)
    rows = np.abs(hidden().data).sum(axis=1)
    assert rows[2] == 0.0 and np.all(np.delete(rows, 2) > 0)
    value, got = analytic_grads(loss, params)
    assert np.isfinite(value)
    assert all(np.isfinite(g).all() and np.abs(g).max() < 10.0 for g in got.values())
    assert max_rel_error(got, finite_diff_grads(loss, params)) <= 1e-5


def test_cd_projection_steps_with_its_own_batch_gradient(monkeypatch):
    """9 samples at batch_size 4 end the epoch on a one-row batch, whose cd
    term is 0.0: SGD steps the projection with that batch's zero gradient,
    not the one the previous batch left."""
    import flipxfer.transfer as transfer

    step, grads = transfer.sgd_step, []

    def spy(params, opt):
        grads.append(params["cd_proj.w"].grad.copy())
        step(params, opt)

    monkeypatch.setattr(transfer, "sgd_step", spy)
    full = _toy_dataset(3)
    train = Dataset(full.inputs[:9], full.labels[:9], full.num_classes)
    student, teacher = (build(replace(SPEC, width=w), seed) for w, seed in ((5, 1), (7, 2)))
    hp = default_hyperparams("cd", lr=0.02, epochs=1, batch_size=4)
    run_transfer(student, teacher, "cd", hp, train, _toy_dataset(4, n=40))
    assert len(grads) == 3
    assert np.abs(grads[1]).max() > 0
    assert np.array_equal(grads[2], np.zeros_like(grads[2]))


# ---------------------------------------------------------------------------
# analytic gradients of every objective vs finite differences


def _tiny_net(seed, d_in=5, width=6, c=4):
    rng = np.random.default_rng(seed)
    return {
        "w1": Tensor(rng.normal(size=(d_in, width), scale=0.6), requires_grad=True),
        "b1": Tensor(rng.normal(size=width, scale=0.1), requires_grad=True),
        "w2": Tensor(rng.normal(size=(width, c), scale=0.6), requires_grad=True),
        "b2": Tensor(rng.normal(size=c, scale=0.1), requires_grad=True),
    }


def _logits(params, x):
    h = ad.relu(ad.affine(x, params["w1"], params["b1"]))
    return ad.affine(h, params["w2"], params["b2"])


@pytest.mark.parametrize("objective", ["kl", "xe_kl", "dp", "topk", "cd"])
def test_objective_gradients_match_finite_differences(objective):
    rng = np.random.default_rng(hash(objective) % 2**32)
    params = _tiny_net(rng.integers(2**31))
    x = Tensor(rng.normal(size=(6, 5)))
    teacher = rng.normal(size=(6, 4), scale=2)
    st_ = rng.normal(size=(6, 4), scale=2)
    labels = rng.integers(0, 4, size=6)
    m_t = rng.random(6) < 0.5
    mask = PartitionMask(m_t, ~m_t)
    teacher_feats = rng.normal(size=(6, 6))

    def loss():
        z = _logits(params, x)
        if objective == "kl":
            return kl_loss(z, teacher, 2.0)
        if objective == "xe_kl":
            return xe_kl_loss(z, teacher, labels, 0.7, 2.0)
        if objective == "dp":
            return dp_loss(z, teacher, st_, mask, 2.0)
        if objective == "topk":
            return topk_restricted_kl(z, teacher, 2.0, 2)
        return cd_loss(ad.affine(x, params["w1"], params["b1"]), teacher_feats)

    _, got = analytic_grads(loss, params)
    want = finite_diff_grads(loss, params)
    assert max_rel_error(got, want) <= 1e-5


# ---------------------------------------------------------------------------
# run_transfer plumbing


def _toy_dataset(seed, n=120, c=4, dims=6):
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(c, dims)) * 2.5
    labels = np.repeat(np.arange(c), n // c)
    inputs = anchors[labels] + rng.normal(size=(n, dims))
    order = rng.permutation(n)
    return Dataset(inputs[order], labels[order], c)


SPEC = ModelSpec(family="mlp", depth=2, input_shape=(6,), num_classes=4, width=8)
HP = TransferHyperparams(lr=0.02, epochs=2, batch_size=32, seed=1)


@pytest.fixture(scope="module")
def toy_sets():
    return _toy_dataset(1), _toy_dataset(2)


def _fresh(ds: Dataset) -> Dataset:
    """The same samples, the very arrays, in a new set whose memo of val
    forwards is empty, so a test counts its own forwards."""
    return Dataset(ds.inputs, ds.labels, ds.num_classes)


@pytest.mark.parametrize("method", METHODS)
def test_run_transfer_frozen_models_untouched(toy_sets, method):
    """SGD steps a copy of the student, so neither the student nor the teacher
    changes, after a transfer that diverges too: a sweep worker reuses its
    checkpoints across tasks, and a diverged sequential stage keeps its student."""
    train, val = toy_sets
    student = build(SPEC, seed=1)
    teacher = build(SPEC, seed=2)
    kept = (student.copy(), teacher.copy())

    def untouched() -> bool:
        return all(np.array_equal(ck.params[k], v) for ck, was in zip((student, teacher), kept)
                   for k, v in was.params.items())

    with pytest.raises(TrainingDivergedError):
        run_transfer(student, teacher, method, replace(HP, lr=1e200), train, val)
    assert untouched()
    res = run_transfer(student, teacher, method, HP, train, val)
    assert untouched()
    assert res.doc["delta_transf"] == pytest.approx(
        res.per_epoch[-1].val_accuracy - res.doc["acc_before"], abs=1e-15
    )


@pytest.mark.parametrize("weight, scale_by, message", [
    (np.inf, 1.0, "kl: non-finite loss nan at epoch 0, step 0"),
    (1e308, 10.0, "kl: non-finite gradient of parameter 'w' at epoch 0, step 0"),
], ids=["loss", "gradient"])
def test_sgd_epochs_reports_a_non_finite_loss_or_gradient_as_divergence(weight, scale_by, message):
    """w is 0, so the loss is 0 * weight: NaN for an infinite weight, and 0
    for a finite one whose gradient, weight * scale_by, overflows."""
    params = {"w": Tensor(np.zeros(1), requires_grad=True)}
    loss_fn = lambda b: ad.scale(ad.weighted_sum(params["w"], np.array([weight])), scale_by)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as exc:
        list(sgd_epochs(params, ad.SgdState(lr=0.1), 1, 1, 1, 0, loss_fn, "kl"))
    assert str(exc.value) == message
    assert np.array_equal(params["w"].data, [0.0])  # no update was applied


def test_run_transfer_rejects_class_mismatch(toy_sets):
    train, val = toy_sets
    other = ModelSpec(family="mlp", depth=2, input_shape=(6,), num_classes=5, width=8)
    with pytest.raises(TransferError):
        run_transfer(build(SPEC, 1), build(other, 2), "kl", HP, train, val)


@pytest.mark.parametrize("dataset, message", [
    (lambda d: Dataset(d.inputs, d.labels, 5), "class count does not match model student: set 5, model 4"),
    (lambda d: Dataset(d.inputs[:, :5], d.labels, 4), "input shape does not match model student: set (5,), model (6,)"),
])
def test_run_transfer_rejects_a_dataset_that_does_not_fit(toy_sets, dataset, message):
    """The message names the set that misfits."""
    train, val = toy_sets
    for which, sets in (("transfer", (dataset(train), val)), ("val", (train, dataset(val)))):
        with pytest.raises(TransferError, match=re.escape(f"{which} set {message}")):
            run_transfer(build(SPEC, 1), build(SPEC, 2), "kl", HP, *sets, student_name="student")
    with pytest.raises(TransferError, match=re.escape(f"val set {message}")):
        check_dataset(build(SPEC, 1), "student", train=train, val=dataset(val))


def test_run_transfer_rejects_unknown_method(toy_sets):
    train, val = toy_sets
    with pytest.raises(TransferError) as exc:
        run_transfer(build(SPEC, 1), build(SPEC, 2), "fancy", HP, train, val)
    assert "kl_dp_sup" in str(exc.value)


def test_run_transfer_deterministic(toy_sets):
    train, val = toy_sets
    student, teacher = build(SPEC, 3), build(SPEC, 4)
    a = run_transfer(student, teacher, "kl_dp_sup", HP, train, val)
    b = run_transfer(student, teacher, "kl_dp_sup", HP, train, val)
    for k in a.student_after.params:
        assert np.array_equal(a.student_after.params[k], b.student_after.params[k])
    assert (a.doc["delta_acc"], a.doc["delta_transf"]) == (b.doc["delta_acc"], b.doc["delta_transf"])
    assert a.doc["per_class_gain"] == b.doc["per_class_gain"]  # a class without flips is None in both


def test_run_transfer_mcl_tau_one_returns_init_bitwise(toy_sets):
    train, val = toy_sets
    student, teacher = build(SPEC, 5), build(SPEC, 6)
    hp = TransferHyperparams(lr=0.05, epochs=2, batch_size=32, seed=0, lam=0.7, mcl_tau=1.0)
    res = run_transfer(student, teacher, "xe_kl_mcl", hp, train, val)
    for k in student.params:
        assert np.array_equal(res.student_after.params[k], student.params[k])
    assert res.per_epoch[-1].fast_val_accuracy is not None


def test_self_distillation_is_near_neutral(toy_sets):
    from flipxfer.zoo import TrainConfig, train_model

    train, val = toy_sets
    ck = train_model(SPEC, TrainConfig(epochs=4, lr=0.05, init_seed=3, order_seed=3), train, val)
    res = run_transfer(ck, ck, "kl_dp_sup", TransferHyperparams(lr=0.02, epochs=5, batch_size=32, seed=1), train, val)
    assert res.per_epoch[0].mask_teacher_share == 0.0  # ties all go to the frozen student
    assert res.doc["delta_transf"] >= -0.005


def test_run_transfer_cd_projection_when_widths_differ(toy_sets):
    """A 12-wide teacher's features meet an 8-wide student's through the
    seeded projections: fixed bits for the trained student and its report."""
    train, val = toy_sets
    wide = ModelSpec(family="mlp", depth=2, input_shape=(6,), num_classes=4, width=12)
    res = run_transfer(build(SPEC, 7), build(wide, 8), "cd", default_hyperparams("cd", lr=0.02, epochs=1, batch_size=32), train, val)
    assert np.isfinite(res.doc["delta_transf"])
    assert res.student_after.digest() == "5740de04f724fc8c"
    assert hashlib.sha256(dump_json(res.doc).encode()).hexdigest()[:16] == "5d54e216289985cb"


def test_run_transfer_kl_topk_bits_are_pinned(toy_sets):
    """``kl`` with ``topk`` 2 at temperature 2 trains on the top-k restriction
    of the target built once before SGD: fixed bits for the trained student,
    its report and its traces, the same as when each batch built its own."""
    train, val = toy_sets
    res = run_transfer(build(SPEC, 1), build(SPEC, 2), "kl", replace(HP, topk=2, epochs=3, temperature=2.0), train, val)
    assert res.student_after.digest() == "4bc5cb97f5106973"
    assert hashlib.sha256(dump_json(res.doc).encode()).hexdigest()[:16] == "89ef38b2a944d2d2"
    assert hashlib.sha256(repr(res.per_epoch).encode()).hexdigest()[:16] == "bbfbe146be09bbe1"


@pytest.mark.parametrize("method, forwards", [("kl", lambda e: e + 2), ("xe_kl_mcl", lambda e: 2 * e + 2)])
@pytest.mark.parametrize("epochs", [0, 3])
def test_run_transfer_forwards_the_val_set_once_per_weight_state(toy_sets, monkeypatch, method, forwards, epochs):
    """With ``forward_epochs`` (the default) the eval queue forwards the
    student, the teacher and every epoch state (MCL: slow and fast), and the
    report and the traces read the memo, the trained weights being the last
    epoch's. Without it the queue forwards the student and the teacher, the
    report the trained weights (none with no epochs: the student's), and the
    result has no traces; the report and the checkpoint are the same."""
    train = toy_sets[0]
    calls = count_val_forwards(monkeypatch, toy_sets[1])
    hp = TransferHyperparams(lr=0.02, epochs=epochs, batch_size=32, seed=1, lam=0.7)
    runs = {}
    for forward_epochs in (True, False):
        val = _fresh(toy_sets[1])
        calls.clear()
        res = run_transfer(build(SPEC, 1), build(SPEC, 2), method, hp, train, val, forward_epochs=forward_epochs)
        assert len(calls) == len(val.correct) == (forwards(epochs) if forward_epochs else 3 if epochs else 2)
        runs[forward_epochs] = res
    eager = runs[True]
    assert len(eager.per_epoch) == epochs
    want = eager.per_epoch[-1].val_accuracy if epochs else eager.doc["acc_before"]
    assert eager.doc["acc_before"] + eager.doc["delta_transf"] == pytest.approx(want, abs=1e-15)
    assert _fingerprint([runs[False]]) == _without_traces(_fingerprint([eager]))


def test_a_transfer_without_forward_epochs_has_no_traces(toy_sets):
    res = run_transfer(build(SPEC, 1), build(SPEC, 2), "kl", replace(HP, epochs=3), *toy_sets, forward_epochs=False)
    assert res.per_epoch == []


def test_the_memo_of_val_forwards_is_per_val_set(toy_sets, monkeypatch):
    """One checkpoint on two sets of the same samples is forwarded once on
    each: the memo belongs to the set, not to the arrays. Its flags are
    read-only, since every later transfer on the set reads them."""
    import flipxfer.transfer as transfer

    a, b = _fresh(toy_sets[1]), _fresh(toy_sets[1])
    calls = []

    def counted(ck, batch):
        calls.append(batch is a.inputs)
        return predict_classes(ck, batch)

    monkeypatch.setattr(transfer, "predict_classes", counted)
    ck = build(SPEC, 1)
    flags = val_correct(ck, a)
    assert val_correct(ck, a) is flags
    assert sum(calls) == 1
    assert np.array_equal(val_correct(build(SPEC, 1), b), flags)
    assert sum(calls) == 2
    assert list(a.correct) == list(b.correct) == [ck.digest()]
    with pytest.raises(ValueError, match="read-only"):
        flags[0] = not flags[0]


@pytest.mark.parametrize("method, sources", [("kl", 1), ("kl_dp_sup", 2), ("kl_dp_unsup", 2), ("cd", 0)])
def test_run_transfer_forwards_the_transfer_set_only_for_its_sources(toy_sets, monkeypatch, method, sources):
    import flipxfer.transfer as transfer

    train, val = toy_sets
    calls = []

    def counted(ck, batch):
        calls.append(batch is train.inputs)
        return predict_logits(ck, batch)

    monkeypatch.setattr(transfer, "predict_logits", counted)
    run_transfer(build(SPEC, 1), build(SPEC, 2), method, default_hyperparams(method, epochs=1, batch_size=32), train, val)
    assert sum(calls) == sources


def test_default_hyperparams_per_method():
    assert default_hyperparams("kl").lam == 1.0
    assert default_hyperparams("kl").lr == 1e-4
    assert default_hyperparams("kl").epochs == 20
    assert default_hyperparams("kl").temperature == 1.0
    assert default_hyperparams("xe_kl").lam == 0.5
    mcl = default_hyperparams("xe_kl_mcl")
    assert (mcl.lam, mcl.lr, mcl.mcl_tau, mcl.mcl_every) == (0.7, 0.01, 0.9999, 2)
    assert default_hyperparams("cd").lam == 0.5
    assert default_hyperparams("kl_dp_sup").lam == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_masks_partition_property(seed):
    rng = np.random.default_rng(seed)
    n, c = 40, 5
    t, s = rng.normal(size=(n, c)), rng.normal(size=(n, c))
    y = rng.integers(0, c, size=n)
    for mask in (dp_masks_supervised(t, s, y), dp_masks_unsupervised(t, s)):
        assert np.all(mask.m_t ^ mask.m_st)


@pytest.mark.parametrize("who, what", [
    ("kl", None), ("kl", "gradient of parameter 'fc1.w'"), ("m", None), ("m", "gradient of parameter 'fc2.w'"),
], ids=["None", "gradient of parameter 'fc1.w'", "zoo-None", "zoo-gradient of parameter 'fc2.w'"])
def test_diverged_error_survives_pickling(who, what):
    """A pool worker's exception reaches the parent pickled: it must come back
    with its message and fields, not break the pool. A sweep's worker raises
    it naming the method, a zoo's naming the model."""
    e = TrainingDivergedError(who, 3, 7, float("nan"), what)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is TrainingDivergedError and str(back) == str(e)
    assert (back.who, back.epoch, back.step, back.what) == (who, 3, 7, what) and np.isnan(back.value)


# ---------------------------------------------------------------------------
# the val forwards beside SGD: the baseline, then each finished epoch

# a CNN student whose eval runs in chunks of 56 rows: the 169-row val set is
# four chunks, so each val forward of it may itself use thread_map
_CNN = ModelSpec(family="cnn", depth=2, input_shape=(1, 8, 8), num_classes=4, channels=(8, 4))
_MLP = ModelSpec(family="mlp", depth=2, input_shape=(1, 8, 8), num_classes=4, width=8)


def _image_dataset(seed, n):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 4
    anchors = np.random.default_rng(99).normal(size=(4, 1, 8, 8)) * 2.0
    return Dataset(anchors[labels] + rng.normal(size=(n, 1, 8, 8)), labels, 4)


@pytest.fixture(scope="module")
def cnn_sets():
    return _image_dataset(1, 64), _image_dataset(2, 3 * 56 + 1)


def _fingerprint(results) -> list:
    """Each result's report document, trained checkpoint and epoch traces, as bytes."""
    return [(dump_json(r.doc), r.student_after.digest(), dump_json(r.student_after.meta), repr(r.per_epoch))
            for r in results]


def _without_traces(fingerprint) -> list:
    """The fingerprint of the same results with no epoch traces."""
    return [(*r[:3], repr([])) for r in fingerprint]


def _at_cpus(monkeypatch, cpus):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("method", ["kl", "kl_dp_sup", "xe_kl_mcl", "cd"])
def test_run_transfer_bits_do_not_depend_on_usable_cpus(cnn_sets, monkeypatch, method):
    """SGD in this thread, the queued forwards in a helper and, once SGD
    ends, in this thread too (each chunked eval may start another), give the
    one-CPU report, checkpoint and traces; without ``forward_epochs``, the
    same report and checkpoint and no traces. Each run has a val set of its
    own, so each forwards every state itself, once."""
    train, val = cnn_sets
    hp = default_hyperparams(method, lr=0.05, epochs=2, batch_size=32, seed=3, mcl_every=1)
    calls = count_val_forwards(monkeypatch, val)
    runs = []
    for cpus in (1, 2, 3):
        _at_cpus(monkeypatch, cpus)
        for forward_epochs in (True, False):
            calls.clear()
            fresh = _fresh(val)
            res = run_transfer(build(_CNN, 1), build(_MLP, 2), method, hp, train, fresh, forward_epochs=forward_epochs)
            runs.append((forward_epochs, _fingerprint([res])))
            # the student, the teacher and each epoch's weights (MCL: slow and fast), the last of
            # them the trained weights; without forward_epochs, the trained weights alone
            states = hp.epochs * (1 + (method == "xe_kl_mcl")) if forward_epochs else 1
            assert len(calls) == len(set(calls)) == len(fresh.correct) == 2 + states
    want = {True: runs[0][1], False: _without_traces(runs[0][1])}
    assert all(run == want[forward_epochs] for forward_epochs, run in runs)


@pytest.mark.parametrize("protocol", ["sequential", "soup", "parallel"])
def test_multi_teacher_bits_do_not_depend_on_usable_cpus(cnn_sets, monkeypatch, protocol):
    """Stages and branches share the val set's memo; each joins its helper
    before the next reads the memo, so every state is forwarded once. Without
    ``forward_epochs`` each stage or run forwards its trained weights but no
    other epoch, and gives the same report and checkpoint and no traces. Each
    run has a val set of its own, so each forwards every state itself."""
    import flipxfer.multiteacher as multiteacher
    from flipxfer.transfer import distill

    train, val = cnn_sets
    teachers = [("a", build(_MLP, 2)), ("b", build(_MLP, 3))]
    hp = TransferHyperparams(lr=0.05, epochs=2, batch_size=32, seed=3)
    calls = count_val_forwards(monkeypatch, val)
    runs = []
    for cpus in (1, 2, 3):
        _at_cpus(monkeypatch, cpus)
        for forward_epochs in (True, False):
            monkeypatch.setattr(multiteacher, "distill", functools.partial(distill, forward_epochs=forward_epochs))
            monkeypatch.setattr(multiteacher, "run_transfer",
                                functools.partial(run_transfer, forward_epochs=forward_epochs))
            calls.clear()
            fresh = _fresh(val)
            if protocol == "sequential":
                out = multiteacher.sequential_transfer(build(_CNN, 1), teachers, "kl_dp_sup", hp, train, fresh,
                                                       order="given")
            else:
                run = getattr(multiteacher, f"{protocol}_transfer")
                out = [run(build(_CNN, 1), teachers, "kl_dp_sup", hp, train, fresh)]
            runs.append((forward_epochs, _fingerprint(out)))
            # the student, each teacher, and each stage's epochs; the parallel run's epochs;
            # or the soup's two branches' trained states and the merge
            states = hp.epochs if forward_epochs else 1  # the last epoch's are the trained weights
            want = {"sequential": 3 + 2 * states, "soup": 6, "parallel": 3 + states}[protocol]
            assert len(calls) == len(set(calls)) == len(fresh.correct) == want
    want = {True: runs[0][1], False: _without_traces(runs[0][1])}  # a soup has no traces either way
    assert all(run == want[forward_epochs] for forward_epochs, run in runs)


def test_sweep_tasks_and_soup_branches_forward_no_epoch_weights(toy_sets):
    """Neither reads its per-epoch traces: at 3 epochs the val set's memo
    holds only the student, the teachers and the trained states."""
    from flipxfer.cli import _sweep_task
    from flipxfer.multiteacher import soup_transfer

    train, val = toy_sets
    student, teachers = build(SPEC, 1), [("a", build(SPEC, 2)), ("b", build(SPEC, 3))]
    hp = replace(HP, epochs=3)
    trained = {}  # each teacher's transfer's trained state, the last of the epoch states an eager run forwards
    for name, teacher in teachers:
        eager = _fresh(val)
        trained[name] = run_transfer(student, teacher, "kl", hp, train, eager).student_after.digest()
        epochs = set(eager.correct) - {student.digest(), teacher.digest()}
        assert len(epochs) == hp.epochs and trained[name] in epochs
    sweep_val = _fresh(val)
    row = _sweep_task(({"s": student, "a": teachers[0][1]}, train, sweep_val), ("a", "s", "kl", asdict(hp)))
    assert "error" not in row
    assert set(sweep_val.correct) == {student.digest(), teachers[0][1].digest(), trained["a"]}
    soup_val = _fresh(val)
    res = soup_transfer(student, teachers, "kl", hp, train, soup_val)
    assert set(soup_val.correct) == {
        student.digest(), *(t.digest() for _, t in teachers), trained["a"], trained["b"], res.student_after.digest(),
    }


def _val_forwards(monkeypatch, val, before=None) -> list:
    """Patch transfer's forwards: record each val forward's checkpoint digest
    and thread, and first call ``before(ck)`` in that thread when given, to
    sleep, wait or raise."""
    import flipxfer.transfer as transfer

    forwards = []

    def patched(ck, batch):
        if batch is val.inputs:
            forwards.append((ck.digest(), threading.current_thread()))
            if before is not None:
                before(ck)
        return predict_classes(ck, batch)

    monkeypatch.setattr(transfer, "predict_classes", patched)
    return forwards


def _raise(error):
    raise error


def _loss_hook(monkeypatch, hook):
    """Patch the ``kl`` objective so ``hook(step)`` runs before each SGD step's
    loss (steps counted from 0 across epochs); a true result makes the loss NaN."""
    import flipxfer.transfer as transfer

    kl, steps = transfer.soft_target_kl, itertools.count()
    monkeypatch.setattr(transfer, "soft_target_kl", lambda *a: ad.scale(kl(*a), np.nan if hook(next(steps)) else 1.0))


def test_the_baseline_runs_in_a_helper_thread_beside_sgd(cnn_sets, monkeypatch):
    """At 2 CPUs the student's and teacher's val forwards run in one helper
    thread; each epoch's weights in that helper or, once SGD ends, in this
    thread; the report's forward of the trained weights is the last epoch's."""
    train, val = cnn_sets[0], _fresh(cnn_sets[1])
    _at_cpus(monkeypatch, 2)
    forwards = _val_forwards(monkeypatch, val)
    before = threading.active_count()
    student, teacher = build(_CNN, 1), build(_MLP, 2)
    res = run_transfer(student, teacher, "kl", HP, train, val)
    by_state = dict(forwards)
    assert len(forwards) == len(by_state) == 2 + HP.epochs
    helper = by_state[student.digest()]
    assert helper is by_state[teacher.digest()] is not threading.current_thread()
    assert set(by_state.values()) <= {helper, threading.current_thread()}
    assert res.student_after.digest() in by_state
    assert threading.active_count() == before


def test_with_one_usable_cpu_a_transfer_starts_no_thread(cnn_sets, monkeypatch):
    train, val = cnn_sets[0], _fresh(cnn_sets[1])
    _at_cpus(monkeypatch, 1)
    forwards = _val_forwards(monkeypatch, val)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    run_transfer(build(_CNN, 1), build(_MLP, 2), "kl", HP, train, val)
    assert started == []
    assert [t for _, t in forwards] == [threading.current_thread()] * (2 + HP.epochs)


def test_a_diverged_sgd_leaves_no_thread_running(cnn_sets, monkeypatch):
    """SGD diverges at its first step once the helper has taken the student,
    whose forward then waits for the join: the teacher, still queued, is
    dropped, and the divergence is raised once the helper is joined."""
    train, val = cnn_sets[0], _fresh(cnn_sets[1])
    _at_cpus(monkeypatch, 2)
    taken, joined = threading.Event(), threading.Event()
    join = threading.Thread.join
    monkeypatch.setattr(threading.Thread, "join", lambda self, *a: joined.set() or join(self, *a))
    forwards = _val_forwards(monkeypatch, val, before=lambda ck: taken.set() or joined.wait(10))
    _loss_hook(monkeypatch, lambda step: not taken.wait(10))  # the first step waits; lr 1e308 diverges it
    student = build(_CNN, 1)
    before = threading.active_count()
    with pytest.raises(TrainingDivergedError, match="kl: non-finite"):
        run_transfer(student, build(_MLP, 2), "kl", replace(HP, lr=1e308), train, val)
    assert threading.active_count() == before
    assert [s for s, _ in forwards] == [student.digest()] and forwards[0][1] is not threading.current_thread()


def test_sgd_diverging_with_epochs_queued_drops_them_and_leaves_no_thread_running(cnn_sets, monkeypatch):
    """SGD diverges at epoch 2 once the helper has taken the teacher, whose
    forward then waits for the join: the two queued epochs are dropped, the
    helper forwards only the baseline, and the divergence is raised."""
    train, val = cnn_sets[0], _fresh(cnn_sets[1])
    _at_cpus(monkeypatch, 2)
    student, teacher = build(_CNN, 1), build(_MLP, 2)
    taken, joined = threading.Event(), threading.Event()
    join = threading.Thread.join
    monkeypatch.setattr(threading.Thread, "join", lambda self, *a: joined.set() or join(self, *a))

    def teacher_waits(ck):
        if ck.digest() == teacher.digest():
            taken.set()
            joined.wait(10)

    forwards = _val_forwards(monkeypatch, val, before=teacher_waits)
    _loss_hook(monkeypatch, lambda step: step >= 4 and taken.wait(10))  # two steps an epoch: epoch 2, step 0
    before = threading.active_count()
    with pytest.raises(TrainingDivergedError, match="kl: non-finite loss nan at epoch 2, step 0"):
        run_transfer(student, teacher, "kl", replace(HP, epochs=3), train, val)
    assert threading.active_count() == before
    assert [s for s, _ in forwards] == [student.digest(), teacher.digest()]
    assert forwards[0][1] is forwards[1][1] is not threading.current_thread()


def test_an_epoch_forward_failing_in_the_helper_beside_sgd_reaches_the_caller(cnn_sets, monkeypatch):
    """The helper's forward of epoch 0 raises while SGD waits at epoch 1; SGD
    ends, this thread forwards the later epochs, and the helper's error is
    raised once it is joined."""
    train, val = cnn_sets[0], _fresh(cnn_sets[1])
    _at_cpus(monkeypatch, 2)
    student, teacher = build(_CNN, 1), build(_MLP, 2)
    failed = threading.Event()

    def before(ck):
        if not failed.is_set() and ck.digest() not in (student.digest(), teacher.digest()):
            failed.set()
            _raise(ArithmeticError("helper forward"))

    forwards = _val_forwards(monkeypatch, val, before=before)
    # SGD waits at epoch 1, step 0 for the helper's failure (and diverges if it never comes)
    _loss_hook(monkeypatch, lambda step: step == 2 and not failed.wait(10))
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="helper forward"):
        run_transfer(student, teacher, "kl", replace(HP, epochs=3), train, val)
    assert threading.active_count() == threads
    helper = forwards[0][1]
    assert helper is not threading.current_thread()
    assert [t for _, t in forwards] == [helper] * 3 + [threading.current_thread()] * 2


def test_a_forward_failing_in_the_training_threads_drain_reaches_the_caller(cnn_sets, monkeypatch):
    """The helper's first forward waits until this thread's drain has failed;
    the helper then forwards the rest of the queue, and this thread's error is
    raised once it is joined."""
    train, val = cnn_sets[0], _fresh(cnn_sets[1])
    _at_cpus(monkeypatch, 2)
    failed = threading.Event()
    me = threading.current_thread()

    def before(ck):
        if threading.current_thread() is not me:
            failed.wait(10)
        elif not failed.is_set():
            failed.set()
            _raise(ArithmeticError("drain forward"))

    forwards = _val_forwards(monkeypatch, val, before=before)
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="drain forward"):
        run_transfer(build(_CNN, 1), build(_MLP, 2), "kl", replace(HP, epochs=3), train, val)
    assert threading.active_count() == threads
    # this thread's drain took the first epoch; the helper, the baseline and the other two
    assert len(forwards) == 5 and [t is me for _, t in forwards].count(True) == 1


def test_a_baseline_error_reaches_the_caller_and_leaves_no_thread_running(cnn_sets, monkeypatch):
    train, val = cnn_sets[0], _fresh(cnn_sets[1])
    _at_cpus(monkeypatch, 2)
    forwards = _val_forwards(monkeypatch, val, before=lambda ck: _raise(ArithmeticError("val forward")))
    before = threading.active_count()
    student = build(_CNN, 1)
    with pytest.raises(ArithmeticError, match="val forward"):
        run_transfer(student, build(_MLP, 2), "kl", HP, train, val)
    assert threading.active_count() == before
    assert dict(forwards)[student.digest()] is not threading.current_thread()
