"""Knowledge transfer from several teachers.

Three protocols: sequential (each distilled student becomes the pretrained
student and the frozen retention reference for the next stage), parallel
(per sample, the most confident source among all teachers and the frozen
initial student wins; ties keep the student reference, then the lowest
teacher index), and soup (independent single-teacher transfers merged by a
uniform elementwise parameter average).  Each adds to its result's report
document the keys it owns: sequential ``cumulative_delta_transf`` (and a
diverged stage's ``failed``), parallel ``source_share``, soup
``branch_deltas``, and parallel and soup their ``mode``; ``sequential_doc``
gathers the stages' documents into one.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .models import Checkpoint
from .transfer import (
    TrainingDivergedError,
    TransferError,
    TransferHyperparams,
    TransferResult,
    ValBaseline,
    distill,
    report_doc,
    run_transfer,
)

__all__ = ["check_plan", "sequential_transfer", "sequential_doc", "parallel_transfer", "soup_transfer"]

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


def _check_run(mode: str, order: str, method: str, teachers: list) -> None:
    """``check_plan``, and at least one teacher to run."""
    check_plan(mode, order, method)
    if not teachers:
        raise TransferError(f"{mode} transfer needs at least one teacher")


def sequential_transfer(
    student_ck: Checkpoint,
    teachers: list[tuple[str, Checkpoint]],
    method: str,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
    order: str = "ascending",
    retain_original_reference: bool = False,
) -> list[TransferResult]:
    """Stage-wise transfer from named teachers, taken in ``order``; each
    stage's output is the next stage's student (and its frozen reference,
    unless the original student is retained)."""
    _check_run("sequential", order, method, teachers)
    if order != "given":  # by checkpoint val accuracy, then position; descending reverses both
        rank = sorted(range(len(teachers)), key=lambda i: (teachers[i][1].meta.get("val_accuracy", 0.0), i))
        teachers = [teachers[i] for i in (rank[::-1] if order == "descending" else rank)]
    acc0 = None  # the original student's accuracy: the acc_before of the first stage that ran
    reference = student_ck if retain_original_reference else None
    current = student_ck
    results: list[TransferResult] = []
    for name, teacher in teachers:
        try:
            res = run_transfer(
                current, teacher, method, hp, transfer_set, val_set, teacher_name=name,
                student_name=student_name, frozen_reference=reference,
            )
        except TrainingDivergedError as e:
            results.append(TransferResult(current, report_doc(method, hp, name, student_name) | {"failed": str(e)}))
            continue
        if acc0 is None:
            acc0 = res.doc["acc_before"]
        res.doc["cumulative_delta_transf"] = res.doc["acc_before"] + res.doc["delta_transf"] - acc0
        results.append(res)
        current = res.student_after
    return results


def sequential_doc(stages: list[TransferResult]) -> dict:
    """A sequential transfer's report document: its stages' documents and the
    last stage's cumulative delta (null if that stage diverged)."""
    return {
        "mode": "sequential",
        "stages": [r.doc for r in stages],
        "cumulative_delta_transf": stages[-1].doc.get("cumulative_delta_transf"),
    }


def parallel_transfer(
    student_ck: Checkpoint,
    teachers: list[tuple[str, Checkpoint]],
    method: str,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
) -> TransferResult:
    """Single run distilling from the per-sample most confident source among
    the frozen initial student and every teacher: DP over K teachers."""
    _check_run("parallel", "given", method, teachers)
    # tie-breaking uses the given teacher sequence, so no reordering here;
    # kl compares maximum probabilities, as the unsupervised rule does
    rule = "kl_dp_sup" if method == "kl_dp_sup" else "kl_dp_unsup"
    try:
        baseline, per_epoch, student_after, winner = distill(
            student_ck, teachers, rule, hp, transfer_set, val_set, student_name
        )
    except TrainingDivergedError as e:  # it names the rule; the run is the method's
        raise TrainingDivergedError(method, e.epoch, e.step, e.value, e.what) from e
    source_share = np.bincount(winner, minlength=len(teachers) + 1) / transfer_set.n
    res = baseline.result(
        method, hp, per_epoch, student_after, f"parallel[{'+'.join(n for n, _ in teachers)}]", student_name,
        meta={"transfer_method": "parallel"},
    )
    res.doc.update(source_share=[float(s) for s in source_share], mode="parallel")
    return res


def soup_transfer(
    student_ck: Checkpoint,
    teachers: list[tuple[str, Checkpoint]],
    method: str,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
) -> TransferResult:
    """Distill one student per teacher from the same start, then average all
    variants' parameters uniformly and evaluate the merged model against the
    student's baseline over every teacher, measured from the branches' forwards."""
    _check_run("soup", "given", method, teachers)
    branches = [  # nothing reads a branch's per-epoch traces, so it keeps and forwards no epoch state
        run_transfer(student_ck, teacher, method, hp, transfer_set, val_set, name, student_name,
                     forward_epochs=False)
        for name, teacher in teachers
    ]
    # canonical merge order: by branch checkpoint digest, so teacher order
    # cannot change the floating-point sum
    ordered = [r.student_after for r in sorted(branches, key=lambda r: r.student_after.digest())]
    student_after = Checkpoint(student_ck.spec, ordered[0].flat.copy(), dict(student_ck.meta))
    if any(ck.digest() != ordered[0].digest() for ck in ordered):  # equal branches merge to themselves
        student_after.flat[...] = sum(ck.flat for ck in ordered) / len(ordered)
    baseline = ValBaseline.measure(student_ck, [t for _, t in teachers], val_set)
    res = baseline.result(
        method, hp, [], student_after, f"soup[{'+'.join(n for n, _ in teachers)}]", student_name,
        meta={"transfer_method": "soup"},
    )
    res.doc.update(branch_deltas=[r.doc["delta_transf"] for r in branches], mode="soup")
    return res
