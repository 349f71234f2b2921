import numpy as np
import pytest

from flipxfer.data import SyntheticConfig, train_val_pair
from flipxfer.models import ModelSpec, predict_logits
from flipxfer.transfer import TransferError, TransferHyperparams, ValBaseline, run_transfer
from flipxfer.multiteacher import (
    MultiTeacherPlan,
    parallel_transfer,
    sequential_transfer,
    soup_transfer,
)
from flipxfer.zoo import TrainConfig, train_model

S = (1, 8, 8)
HP = TransferHyperparams(lr=0.01, epochs=3, batch_size=32, seed=2)


@pytest.fixture(scope="module")
def setup():
    cfg = SyntheticConfig(
        classes=6, samples=360, image_size=8, modes_per_class=2,
        label_noise=0.02, seed=31, anchor_seed=32, sigma=1.0, anchor_scale=1.8,
    )
    train, val = train_val_pair(cfg, val_samples=300)
    mk = lambda w, seed, ep: train_model(
        ModelSpec("mlp", 2, S, 6, width=w),
        TrainConfig(epochs=ep, lr=0.06, init_seed=seed, order_seed=seed),
        train, val, name=f"w{w}s{seed}",
    )
    student = mk(10, 1, 4)
    teachers = {"t_a": mk(24, 2, 8), "t_b": mk(16, 3, 6), "t_c": mk(12, 4, 5)}
    return train, val, student, teachers


def _plan(teachers, mode, names=None, **kw):
    names = names or tuple(teachers)
    return MultiTeacherPlan(
        tuple(t for t in teachers.values()) if isinstance(teachers, dict) else tuple(teachers),
        mode,
        teacher_names=tuple(names),
        **kw,
    )


def test_single_teacher_sequential_equals_run_transfer(setup):
    train, val, student, teachers = setup
    one = {"t_a": teachers["t_a"]}
    stages = sequential_transfer(student, _plan(one, "sequential"), HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val, "t_a")
    assert len(stages) == 1
    assert stages[0].report.delta_transf == direct.report.delta_transf
    for k in direct.student_after.params:
        assert np.array_equal(stages[0].student_after.params[k], direct.student_after.params[k])


def test_empty_sequential_plan_is_identity(setup):
    train, val, student, _ = setup
    stages = sequential_transfer(student, _plan({}, "sequential", names=()), HP, train, val)
    assert stages == []


def test_sequential_cumulative_delta_tracks_original(setup):
    train, val, student, teachers = setup
    stages = sequential_transfer(student, _plan(teachers, "sequential"), HP, train, val)
    assert len(stages) == 3
    total = sum(s.report.delta_transf for s in stages)
    assert stages[-1].extras["cumulative_delta_transf"] == pytest.approx(total, abs=1e-12)


def test_sequential_repeat_teacher_diminishing_returns(setup):
    train, val, student, teachers = setup
    twice = [teachers["t_a"], teachers["t_a"]]
    plan = MultiTeacherPlan(tuple(twice), "sequential", teacher_names=("t_a", "t_a2"), order="given")
    stages = sequential_transfer(student, plan, HP, train, val)
    d1, d2 = stages[0].report.delta_transf, stages[1].report.delta_transf
    assert abs(d2) <= abs(d1) + 0.001


def test_parallel_single_teacher_reduces_to_dp_bitwise(setup):
    train, val, student, teachers = setup
    one = {"t_a": teachers["t_a"]}
    par = parallel_transfer(student, _plan(one, "parallel"), HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val, "t_a")
    for k in direct.student_after.params:
        assert np.array_equal(par.student_after.params[k], direct.student_after.params[k])
    assert par.report.delta_transf == direct.report.delta_transf


def test_parallel_duplicate_teachers_collapse_to_single(setup):
    train, val, student, teachers = setup
    dup = MultiTeacherPlan(
        (teachers["t_a"], teachers["t_a"]), "parallel", teacher_names=("t_a", "t_a_copy")
    )
    one = parallel_transfer(student, _plan({"t_a": teachers["t_a"]}, "parallel"), HP, train, val)
    two = parallel_transfer(student, dup, HP, train, val)
    for k in one.student_after.params:
        assert np.array_equal(one.student_after.params[k], two.student_after.params[k])
    assert two.extras["source_share"][2] == 0.0  # the duplicate never wins a tie


def test_parallel_selection_is_exact_partition(setup):
    train, val, student, teachers = setup
    res = parallel_transfer(student, _plan(teachers, "parallel"), HP, train, val)
    winner = res.extras["winner"]
    assert winner.shape == (train.n,)
    counts = np.bincount(winner, minlength=len(teachers) + 1)
    assert counts.sum() == train.n  # one source per sample
    assert res.extras["source_share"][0] > 0  # retention reference keeps some


def test_parallel_unsupervised_mode_runs(setup):
    train, val, student, teachers = setup
    res = parallel_transfer(
        student, _plan(teachers, "parallel", method="kl_dp_unsup"), HP, train, val
    )
    assert np.isfinite(res.report.delta_transf)


def test_soup_identical_branches_bitwise(setup):
    train, val, student, teachers = setup
    dup = MultiTeacherPlan(
        (teachers["t_a"], teachers["t_a"]), "soup", teacher_names=("x", "y"), order="given"
    )
    soup = soup_transfer(student, dup, HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val)
    for k in direct.student_after.params:
        assert np.array_equal(soup.student_after.params[k], direct.student_after.params[k])


def test_soup_two_branches_elementwise_mean(setup):
    train, val, student, teachers = setup
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    soup = soup_transfer(student, _plan(two, "soup"), HP, train, val)
    ra = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val)
    rb = run_transfer(student, teachers["t_b"], "kl_dp_sup", HP, train, val)
    for k in student.params:
        mean = (ra.student_after.params[k] + rb.student_after.params[k]) / 2
        assert np.array_equal(soup.student_after.params[k], mean)


def test_soup_permutation_invariant_bitwise(setup):
    train, val, student, teachers = setup
    fwd = MultiTeacherPlan(
        (teachers["t_a"], teachers["t_b"], teachers["t_c"]), "soup",
        teacher_names=("t_a", "t_b", "t_c"), order="given",
    )
    rev = MultiTeacherPlan(
        (teachers["t_c"], teachers["t_b"], teachers["t_a"]), "soup",
        teacher_names=("t_c", "t_b", "t_a"), order="given",
    )
    a = soup_transfer(student, fwd, HP, train, val)
    b = soup_transfer(student, rev, HP, train, val)
    for k in student.params:
        assert np.array_equal(a.student_after.params[k], b.student_after.params[k])


def test_plan_rejects_unknown_mode(setup):
    _, _, _, teachers = setup
    with pytest.raises(TransferError):
        MultiTeacherPlan(tuple(teachers.values()), "blend")


def test_plan_orders_by_accuracy(setup):
    _, _, _, teachers = setup
    plan = _plan(teachers, "sequential", order="ascending")
    accs = [ck.meta["val_accuracy"] for _, ck in plan.ordered()]
    assert accs == sorted(accs)
    plan_d = _plan(teachers, "sequential", order="descending")
    accs_d = [ck.meta["val_accuracy"] for _, ck in plan_d.ordered()]
    assert accs_d == sorted(accs_d, reverse=True)


def test_retain_original_reference_flag(setup):
    train, val, student, teachers = setup
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    default = sequential_transfer(student, _plan(two, "sequential"), HP, train, val)
    retained = sequential_transfer(
        student, _plan(two, "sequential", retain_original_reference=True), HP, train, val
    )
    # both run two stages; the frozen reference differs from stage 2 onward
    assert len(default) == len(retained) == 2
    diff = any(
        not np.array_equal(default[1].student_after.params[k], retained[1].student_after.params[k])
        for k in student.params
    )
    assert diff


def test_parallel_one_teacher_dp_sup_equals_run_transfer_per_epoch(setup):
    """DP is parallel transfer with one teacher: same weights, same epochs."""
    train, val, student, teachers = setup
    par = parallel_transfer(student, _plan({"t_a": teachers["t_a"]}, "parallel"), HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val, "t_a")
    assert par.student_after.digest() == direct.student_after.digest()
    assert len(par.per_epoch) == len(direct.per_epoch) == HP.epochs
    for p, d in zip(par.per_epoch, direct.per_epoch):
        assert (p.val_accuracy, p.gain, p.loss, p.train_loss) == (d.val_accuracy, d.gain, d.loss, d.train_loss)


def _count_val_forwards(monkeypatch, val):
    import flipxfer.models as models

    calls = []
    predict = models._predict

    def counted(ck, batch):
        calls.append(batch is val.inputs)
        return predict(ck, batch)

    monkeypatch.setattr(models, "_predict", counted)
    return calls


def test_sequential_forwards_the_val_set_once_per_stage_state(setup, monkeypatch):
    """Each stage forwards its teacher and its trained weights; the first
    stage also forwards the original student, and every later stage's student
    is the previous stage's output, already forwarded. The original student's
    accuracy comes from the first stage."""
    train, val, student, teachers = setup
    calls = _count_val_forwards(monkeypatch, val)
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    hp = TransferHyperparams(lr=0.01, epochs=1, batch_size=32, seed=2)
    stages = sequential_transfer(student, _plan(two, "sequential"), hp, train, val)
    assert len(stages) == 2
    assert sum(calls) == 5
    acc0 = float((predict_logits(student, val.inputs).argmax(axis=1) == val.labels).mean())
    assert stages[-1].extras["cumulative_delta_transf"] == (
        stages[-1].extras["acc_before"] + stages[-1].report.delta_transf - acc0
    )


def test_soup_forwards_the_val_set_once_per_state(setup, monkeypatch):
    """The branches forward the shared student once, and each its teacher and
    its trained weights; the soup adds only the merged weights, its baseline
    built from the branches'."""
    train, val, student, teachers = setup
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    hp = TransferHyperparams(lr=0.01, epochs=1, batch_size=32, seed=2)
    calls = _count_val_forwards(monkeypatch, val)
    res = soup_transfer(student, _plan(two, "soup"), hp, train, val)
    assert sum(calls) == 2 * len(two) + 2
    monkeypatch.undo()
    # the same report as a baseline measured from fresh forwards of every model
    measured = ValBaseline.measure(student, list(two.values()), val).result(
        res.method, hp, None, res.student_after.copy(), res.report.teacher, res.report.student, {}, {}
    )
    assert repr(res.report) == repr(measured.report)  # bit-equal floats, nan included
    assert res.extras["teacher_accs"] == measured.baseline.teacher_accs
    assert res.extras["rho_pos"] == measured.extras["rho_pos"]
    assert repr(res.rate) == repr(measured.rate)
