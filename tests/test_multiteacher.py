from dataclasses import replace

import numpy as np
import pytest

from flipxfer.data import Dataset, SyntheticConfig, train_val_pair
from flipxfer.models import ModelSpec, predict_logits
from flipxfer.transfer import (
    TrainingDivergedError, TransferError, TransferHyperparams, ValBaseline, distill, run_transfer,
)
from flipxfer.multiteacher import parallel_transfer, sequential_transfer, soup_transfer
from flipxfer.zoo import TrainConfig, train_model

from conftest import count_val_forwards

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


def test_single_teacher_sequential_equals_run_transfer(setup):
    train, val, student, teachers = setup
    one = {"t_a": teachers["t_a"]}
    stages = sequential_transfer(student, list(one.items()), "kl_dp_sup", HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val, "t_a")
    assert len(stages) == 1
    assert stages[0].doc["delta_transf"] == direct.doc["delta_transf"]
    for k in direct.student_after.params:
        assert np.array_equal(stages[0].student_after.params[k], direct.student_after.params[k])


def test_sequential_cumulative_delta_tracks_original(setup):
    train, val, student, teachers = setup
    stages = sequential_transfer(student, list(teachers.items()), "kl_dp_sup", HP, train, val)
    assert len(stages) == 3
    total = sum(s.doc["delta_transf"] for s in stages)
    assert stages[-1].doc["cumulative_delta_transf"] == pytest.approx(total, abs=1e-12)


def test_sequential_repeat_teacher_diminishing_returns(setup):
    train, val, student, teachers = setup
    twice = [("t_a", teachers["t_a"]), ("t_a2", teachers["t_a"])]
    stages = sequential_transfer(student, twice, "kl_dp_sup", HP, train, val, order="given")
    d1, d2 = stages[0].doc["delta_transf"], stages[1].doc["delta_transf"]
    assert abs(d2) <= abs(d1) + 0.001


def test_parallel_single_teacher_reduces_to_dp_bitwise(setup):
    train, val, student, teachers = setup
    one = {"t_a": teachers["t_a"]}
    par = parallel_transfer(student, list(one.items()), "kl_dp_sup", HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val, "t_a")
    for k in direct.student_after.params:
        assert np.array_equal(par.student_after.params[k], direct.student_after.params[k])
    assert par.doc["delta_transf"] == direct.doc["delta_transf"]


def test_parallel_duplicate_teachers_collapse_to_single(setup):
    train, val, student, teachers = setup
    dup = [("t_a", teachers["t_a"]), ("t_a_copy", teachers["t_a"])]
    one = parallel_transfer(student, [("t_a", teachers["t_a"])], "kl_dp_sup", HP, train, val)
    two = parallel_transfer(student, dup, "kl_dp_sup", HP, train, val)
    for k in one.student_after.params:
        assert np.array_equal(one.student_after.params[k], two.student_after.params[k])
    assert two.doc["source_share"][2] == 0.0  # the duplicate never wins a tie


def test_parallel_selection_is_exact_partition(setup):
    train, val, student, teachers = setup
    res = parallel_transfer(student, list(teachers.items()), "kl_dp_sup", HP, train, val)
    *_, winner = distill(student, list(teachers.items()), "kl_dp_sup", HP, train, val)
    assert winner.shape == (train.n,)
    counts = np.bincount(winner, minlength=len(teachers) + 1)
    assert counts.sum() == train.n  # one source per sample
    assert res.doc["source_share"] == [float(c) for c in counts / train.n]
    assert res.doc["source_share"][0] > 0  # retention reference keeps some


def test_parallel_unsupervised_mode_runs(setup):
    train, val, student, teachers = setup
    res = parallel_transfer(student, list(teachers.items()), "kl_dp_unsup", HP, train, val)
    assert np.isfinite(res.doc["delta_transf"])


@pytest.mark.parametrize("method", ["kl", "kl_dp_sup", "kl_dp_unsup"])
def test_a_diverging_parallel_transfer_names_its_method(setup, method):
    """A parallel run trains under a DP rule, but its divergence names the
    method it was asked for, as a single-teacher run's does."""
    train, val, student, teachers = setup
    with pytest.raises(TrainingDivergedError, match=f"^{method}: non-finite") as err:
        parallel_transfer(student, list(teachers.items()), method, replace(HP, lr=1e200), train, val)
    assert err.value.who == method


def test_soup_identical_branches_bitwise(setup):
    train, val, student, teachers = setup
    dup = [("x", teachers["t_a"]), ("y", teachers["t_a"])]
    soup = soup_transfer(student, dup, "kl_dp_sup", HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val)
    for k in direct.student_after.params:
        assert np.array_equal(soup.student_after.params[k], direct.student_after.params[k])


def test_soup_two_branches_elementwise_mean(setup):
    train, val, student, teachers = setup
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    soup = soup_transfer(student, list(two.items()), "kl_dp_sup", HP, train, val)
    ra = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val)
    rb = run_transfer(student, teachers["t_b"], "kl_dp_sup", HP, train, val)
    for k in student.params:
        mean = (ra.student_after.params[k] + rb.student_after.params[k]) / 2
        assert np.array_equal(soup.student_after.params[k], mean)


def test_soup_permutation_invariant_bitwise(setup):
    train, val, student, teachers = setup
    fwd = [(n, teachers[n]) for n in ("t_a", "t_b", "t_c")]
    rev = fwd[::-1]
    a = soup_transfer(student, fwd, "kl_dp_sup", HP, train, val)
    b = soup_transfer(student, rev, "kl_dp_sup", HP, train, val)
    for k in student.params:
        assert np.array_equal(a.student_after.params[k], b.student_after.params[k])


def test_protocols_reject_what_they_do_not_run(setup):
    """Each protocol checks the values it reads, before any forward."""
    train, val, student, teachers = setup
    named = list(teachers.items())
    for protocol in (sequential_transfer, parallel_transfer, soup_transfer):
        with pytest.raises(TransferError, match="supports kl_dp_sup, kl_dp_unsup, kl, not 'cd'"):
            protocol(student, named, "cd", HP, train, val)
    with pytest.raises(TransferError, match="unknown teacher order 'blend'"):
        sequential_transfer(student, named, "kl_dp_sup", HP, train, val, order="blend")
    for protocol, mode in (
        (sequential_transfer, "sequential"), (parallel_transfer, "parallel"), (soup_transfer, "soup")
    ):
        with pytest.raises(TransferError, match=f"{mode} transfer needs at least one teacher"):
            protocol(student, [], "kl_dp_sup", HP, train, val)


def test_sequential_stage_order_follows_order(setup):
    """Stages run by teacher val accuracy, ties by position, descending the
    reverse of ascending (so a tie runs the later teacher first), or as given."""
    train, val, student, teachers = setup
    named = [*teachers.items(), ("t_a2", teachers["t_a"])]  # t_a2 ties t_a, after it
    acc = {n: ck.meta["val_accuracy"] for n, ck in named}
    assert len({acc["t_a"], acc["t_b"], acc["t_c"]}) == 3
    by_acc = sorted(["t_a", "t_b", "t_c"], key=acc.get)
    ascending = [m for n in by_acc for m in ((n, "t_a2") if n == "t_a" else (n,))]
    hp = replace(HP, epochs=0)

    def stages(order):
        return [r.doc["teacher"] for r in sequential_transfer(student, named, "kl", hp, train, val, order=order)]

    assert stages("ascending") == ascending
    assert stages("descending") == ascending[::-1]
    assert stages("given") == ["t_a", "t_b", "t_c", "t_a2"]


def test_retain_original_reference_flag(setup):
    train, val, student, teachers = setup
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    default = sequential_transfer(student, list(two.items()), "kl_dp_sup", HP, train, val)
    retained = sequential_transfer(
        student, list(two.items()), "kl_dp_sup", HP, train, val, retain_original_reference=True
    )
    # both run two stages; the frozen reference differs from stage 2 onward
    assert len(default) == len(retained) == 2
    diff = any(
        not np.array_equal(default[1].student_after.params[k], retained[1].student_after.params[k])
        for k in student.params
    )
    assert diff


def test_parallel_one_teacher_dp_sup_equals_run_transfer_per_epoch(setup):
    """DP is parallel transfer with one teacher: the same weights, report
    values and epoch traces, the teacher's mask share included, bit for bit."""
    train, val, student, teachers = setup
    par = parallel_transfer(student, [("t_a", teachers["t_a"])], "kl_dp_sup", HP, train, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", HP, train, val, "t_a")
    assert par.student_after.digest() == direct.student_after.digest()
    values = ("delta_acc", "delta_transf", "knowledge_gain", "knowledge_loss", "per_class_gain", "transfer_rate")
    assert [par.doc.get(k) for k in values] == [direct.doc.get(k) for k in values]
    assert len(par.per_epoch) == len(direct.per_epoch) == HP.epochs
    for p, d in zip(par.per_epoch, direct.per_epoch):
        assert (p.val_accuracy, p.gain, p.loss, p.train_loss) == (d.val_accuracy, d.gain, d.loss, d.train_loss)
        assert p.mask_teacher_share == d.mask_teacher_share


def test_parallel_and_dp_compute_the_teacher_share_by_one_rule(setup, monkeypatch):
    """The mask share is the share of samples a teacher won, counted where
    the winner is, for one teacher or several. With 21 of 300 samples kept
    by the frozen student, 1 - 21/300 and 279/300 differ in the last bit:
    both protocols report 279/300."""
    import flipxfer.transfer as transfer

    train, val, student, teachers = setup
    n, kept = 300, 21
    assert 1.0 - kept / n != (n - kept) / n
    winner = np.ones(n, dtype=np.intp)
    winner[np.random.default_rng(0).permutation(n)[:kept]] = 0
    monkeypatch.setattr(transfer, "confidence_winner", lambda logits, labels=None: winner)
    subset, hp = train.subset(np.arange(n)), replace(HP, epochs=1)
    par = parallel_transfer(student, [("t_a", teachers["t_a"])], "kl_dp_sup", hp, subset, val)
    direct = run_transfer(student, teachers["t_a"], "kl_dp_sup", hp, subset, val, "t_a")
    assert par.per_epoch[0].mask_teacher_share == direct.per_epoch[0].mask_teacher_share == (n - kept) / n
    assert par.doc["source_share"] == [kept / n, (n - kept) / n]


def test_sequential_forwards_the_val_set_once_per_stage_state(setup, monkeypatch):
    """Each stage forwards its teacher and its trained weights; the first
    stage also forwards the original student, and every later stage's student
    is the previous stage's output, already forwarded. The original student's
    accuracy comes from the first stage."""
    train, val, student, teachers = setup
    val = Dataset(val.inputs, val.labels, val.num_classes)  # an empty memo: no earlier test's forwards
    calls = count_val_forwards(monkeypatch, val)
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    hp = TransferHyperparams(lr=0.01, epochs=1, batch_size=32, seed=2)
    stages = sequential_transfer(student, list(two.items()), "kl_dp_sup", hp, train, val)
    assert len(stages) == 2
    assert len(calls) == 5
    acc0 = float((predict_logits(student, val.inputs).argmax(axis=1) == val.labels).mean())
    assert stages[-1].doc["cumulative_delta_transf"] == (
        stages[-1].doc["acc_before"] + stages[-1].doc["delta_transf"] - acc0
    )


def test_soup_forwards_the_val_set_once_per_state(setup, monkeypatch):
    """The branches forward the shared student once, and each its teacher and
    its trained weights; the soup adds only the merged weights, its baseline
    measured over the val set's memo, which the branches filled."""
    train, val, student, teachers = setup
    two = {"t_a": teachers["t_a"], "t_b": teachers["t_b"]}
    hp = TransferHyperparams(lr=0.01, epochs=1, batch_size=32, seed=2)
    soup_val = Dataset(val.inputs, val.labels, val.num_classes)  # an empty memo: no earlier test's forwards
    calls = count_val_forwards(monkeypatch, soup_val)
    res = soup_transfer(student, list(two.items()), "kl_dp_sup", hp, train, soup_val)
    assert len(calls) == 2 * len(two) + 2
    # the same report as a baseline measured from fresh forwards of every model
    fresh = ValBaseline.measure(student, list(two.values()), Dataset(val.inputs, val.labels, val.num_classes))
    measured = fresh.result(
        "kl_dp_sup", hp, [], res.student_after.copy(), res.doc["teacher"], res.doc["student"], {}
    )
    assert len(calls) == 2 * len(two) + 2 + (1 + len(two) + 1)  # the student, each teacher and the soup again
    # the soup's baseline, measured over the memo its branches filled, forwards nothing more
    assert ValBaseline.measure(student, list(two.values()), soup_val).teacher_accs == fresh.teacher_accs
    assert len(calls) == 2 * len(two) + 2 + (1 + len(two) + 1)
    assert res.doc["rho_pos"] == measured.doc["rho_pos"]
    assert repr({k: res.doc[k] for k in measured.doc}) == repr(measured.doc)  # soup adds only its own keys
