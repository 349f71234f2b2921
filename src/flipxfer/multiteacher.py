"""Knowledge transfer from several teachers.

Three protocols: sequential (each distilled student becomes the pretrained
student and the frozen retention reference for the next stage), parallel
(per sample, the most confident source among all teachers and the frozen
initial student wins; ties keep the student reference, then the lowest
teacher index), and soup (independent single-teacher transfers merged by a
uniform elementwise parameter average).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .analysis import PairReport, correct_flags
from .autodiff import SgdState, Tensor
from .data import Dataset
from .models import Checkpoint, as_tensors, model_forward, predict_logits
from .transfer import (
    EpochTrace,
    TransferDivergedError,
    TransferError,
    TransferHyperparams,
    TransferResult,
    ValBaseline,
    check_teacher,
    checkpoint_of,
    confidence_winner,
    run_transfer,
    sgd_epochs,
    soft_target_kl,
    winner_logprobs,
)

__all__ = ["MultiTeacherPlan", "check_plan", "sequential_transfer", "parallel_transfer", "soup_transfer"]

MODES = ("sequential", "parallel", "soup")
ORDERS = ("ascending", "descending", "given")  # by teacher val accuracy, or as given
PLAN_METHODS = ("kl_dp_sup", "kl_dp_unsup", "kl")


def check_plan(mode: str, order: str, method: str) -> None:
    """Reject a multi-teacher mode, teacher order or method that no protocol runs."""
    if mode not in MODES:
        raise TransferError(f"unknown multi-teacher mode {mode!r}; valid: {', '.join(MODES)}")
    if order not in ORDERS:
        raise TransferError(f"unknown teacher order {order!r}; valid: {', '.join(ORDERS)}")
    if method not in PLAN_METHODS:
        raise TransferError(f"multi-teacher transfer supports {', '.join(PLAN_METHODS)}, not {method!r}")


@dataclass(frozen=True)
class MultiTeacherPlan:
    teachers: tuple[Checkpoint, ...]
    mode: str
    method: str = "kl_dp_sup"
    order: str = "ascending"
    retain_original_reference: bool = False
    teacher_names: tuple[str, ...] = ()

    def __post_init__(self):
        check_plan(self.mode, self.order, self.method)
        if self.mode in ("parallel", "soup") and len(self.teachers) < 1:
            raise TransferError(f"{self.mode} transfer needs at least one teacher")
        names = self.teacher_names or tuple(
            ck.meta.get("name", f"t{i}") for i, ck in enumerate(self.teachers)
        )
        if len(names) != len(self.teachers):
            raise TransferError("teacher_names must align with teachers")
        object.__setattr__(self, "teacher_names", tuple(names))

    def ordered(self) -> list[tuple[str, Checkpoint]]:
        pairs = list(zip(self.teacher_names, self.teachers))
        if self.order == "given":
            return pairs
        keyed = [(ck.meta.get("val_accuracy", 0.0), i, name, ck) for i, (name, ck) in enumerate(pairs)]
        keyed.sort(key=lambda t: (t[0], t[1]), reverse=(self.order == "descending"))
        return [(name, ck) for _, _, name, ck in keyed]


def sequential_transfer(
    student_ck: Checkpoint,
    plan: MultiTeacherPlan,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
) -> list[TransferResult]:
    """Stage-wise transfer; each stage's output is the next stage's student
    (and its frozen reference, unless the plan retains the original)."""
    if plan.mode != "sequential":
        raise TransferError(f"plan mode is {plan.mode!r}, expected 'sequential'")
    acc0 = float(correct_flags(predict_logits(student_ck, val_set.inputs), val_set.labels).mean())
    reference = student_ck if plan.retain_original_reference else None
    current = student_ck
    results: list[TransferResult] = []
    for name, teacher in plan.ordered():
        try:
            res = run_transfer(
                current,
                teacher,
                plan.method,
                hp,
                transfer_set,
                val_set,
                teacher_name=name,
                student_name=student_name,
                frozen_reference=reference,
            )
        except TransferDivergedError as e:
            stub = TransferResult(
                method=plan.method,
                hyperparams=hp,
                report=PairReport(name, student_name, 0.0, 0.0, 0.0, 0.0),
                per_epoch=[],
                student_after=current,
                extras={"failed": str(e)},
            )
            results.append(stub)
            continue
        res.extras["cumulative_delta_transf"] = (
            res.extras["acc_before"] + res.report.delta_transf - acc0
        )
        results.append(res)
        current = res.student_after
    return results


def parallel_transfer(
    student_ck: Checkpoint,
    plan: MultiTeacherPlan,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
) -> TransferResult:
    """Single run distilling from the per-sample most confident source among
    the frozen initial student and every teacher."""
    if plan.mode != "parallel":
        raise TransferError(f"plan mode is {plan.mode!r}, expected 'parallel'")
    spec = student_ck.spec
    # tie-breaking uses the plan's given teacher sequence, so no reordering here
    teachers = list(zip(plan.teacher_names, plan.teachers))
    for name, t in teachers:
        check_teacher(spec, t, name)

    x_tr = transfer_set.inputs
    temp = hp.temperature
    source_logits = [predict_logits(student_ck, x_tr)] + [predict_logits(t, x_tr) for _, t in teachers]
    # ties resolve to f_st, then the lowest teacher index; kl compares max probabilities
    winner = confidence_winner(source_logits, transfer_set.labels if plan.method == "kl_dp_sup" else None)
    target_logprobs = winner_logprobs(winner, source_logits, temp)
    source_share = np.bincount(winner, minlength=len(source_logits)) / transfer_set.n
    baseline = ValBaseline.measure(student_ck, [t for _, t in teachers], val_set)

    params = as_tensors(student_ck, requires_grad=True)
    opt = SgdState(lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay)
    drop_rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 0xD0]))

    def loss_fn(b):
        logits, _ = model_forward(spec, params, Tensor(x_tr[b]), train=True, dropout_rng=drop_rng)
        return soft_target_kl(logits, target_logprobs[b], temp)

    per_epoch: list[EpochTrace] = [
        baseline.epoch_trace(losses, checkpoint_of(student_ck, params), float(1.0 - source_share[0]))
        for losses in sgd_epochs(
            params, opt, transfer_set.n, hp.epochs, hp.batch_size, hp.seed, loss_fn,
            functools.partial(TransferDivergedError, "parallel"),
        )
    ]
    names = "+".join(name for name, _ in teachers)
    return baseline.result(
        plan.method, hp, per_epoch, checkpoint_of(student_ck, params), f"parallel[{names}]", student_name,
        meta={"transfer_method": "parallel"},
        extras={
            "teacher_accs": baseline.teacher_accs,
            "source_share": [float(s) for s in source_share],
            "winner": winner,
        },
    )


def soup_transfer(
    student_ck: Checkpoint,
    plan: MultiTeacherPlan,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
) -> TransferResult:
    """Distill one student per teacher from the same start, then average all
    variants' parameters uniformly and evaluate the merged model."""
    if plan.mode != "soup":
        raise TransferError(f"plan mode is {plan.mode!r}, expected 'soup'")
    branches: list[TransferResult] = []
    for name, teacher in zip(plan.teacher_names, plan.teachers):
        branches.append(
            run_transfer(
                student_ck,
                teacher,
                plan.method,
                hp,
                transfer_set,
                val_set,
                teacher_name=name,
                student_name=student_name,
            )
        )
    # canonical merge order: by branch checkpoint digest, so teacher order
    # cannot change the floating-point sum
    ordered = sorted(branches, key=lambda r: r.student_after.digest())
    k = len(ordered)
    if all(r.student_after.digest() == ordered[0].student_after.digest() for r in ordered):
        merged = {name: v.copy() for name, v in ordered[0].student_after.params.items()}
    else:
        merged = {
            name: sum(r.student_after.params[name] for r in ordered) / k
            for name in student_ck.params
        }
    student_after = Checkpoint(student_ck.spec, merged, dict(student_ck.meta))
    baseline = ValBaseline.measure(student_ck, plan.teachers, val_set)
    return baseline.result(
        plan.method, hp, [], student_after, f"soup[{'+'.join(plan.teacher_names)}]", student_name,
        meta={"transfer_method": "soup"},
        extras={
            "teacher_accs": baseline.teacher_accs,
            "branch_deltas": [r.report.delta_transf for r in branches],
        },
    )
