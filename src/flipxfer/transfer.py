"""Transfer objectives, the shared SGD loop, and the single-teacher transfer.

The base objective is temperature-scaled soft-target distillation: the
frozen source's tempered softmax is the target distribution and the
divergence is scaled by T^2/n.  On top of it sit the lambda-weighted
cross-entropy combination, momentum weight interpolation between a slow and
a fast copy of the student, confidence-based data partitioning between the
teacher and a frozen copy of the initial student (supervised on the
ground-truth class probability, unsupervised on the maximum probability,
ties retained by the frozen student), a top-k class-restricted divergence,
and a contrastive baseline matching row-softmaxed cosine-similarity
matrices of pre-head features.

Every objective is assembled from tape ops, so analytic gradients flow to
the adapting student only; frozen sources enter as constants.

Zoo training runs the one minibatch-SGD loop here (``sgd_epochs``); single-
and multi-teacher transfer run one training path on it (``distill``), whose
KL-family target comes from the one confidence rule (``confidence_winner``)
before SGD and equals the per-batch objectives' bit for bit.  ``ValBaseline``
measures every before/after outcome, and ``report_doc`` builds its report
document, the one record of a transfer.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .analysis import (
    FlipStats,
    correct_flags,
    flip_stats_from_flags,
    knowledge_gain_loss,
    per_class_gain,
    transfer_rate,
)
from .autodiff import (
    SgdState,
    Tape,
    Tensor,
    backward,
    gather_cols,
    gram,
    l2_normalize_rows,
    log_softmax,
    np_log_softmax,
    np_softmax,
    scale,
    sgd_step,
    weighted_sum,
)
from .data import Dataset, epoch_permutation
from .models import Checkpoint, ModelSpec, as_tensors, model_forward, predict_features, predict_logits
from .pool import keep_freed_memory

__all__ = [
    "METHODS",
    "TransferError",
    "TransferDivergedError",
    "TransferHyperparams",
    "MclState",
    "PartitionMask",
    "EpochTrace",
    "EpochStates",
    "TransferResult",
    "ValBaseline",
    "report_doc",
    "default_hyperparams",
    "soft_target_kl",
    "kl_loss",
    "xe_loss",
    "xe_kl_loss",
    "mcl_interpolate",
    "confidence_winner",
    "winner_logprobs",
    "dp_masks_supervised",
    "dp_masks_unsupervised",
    "dp_loss",
    "topk_restricted_kl",
    "cd_loss",
    "check_dataset",
    "checkpoint_of",
    "sgd_epochs",
    "distill",
    "run_transfer",
]

METHODS = ("kl", "xe_kl", "xe_kl_mcl", "kl_dp_sup", "kl_dp_unsup", "cd")
DP_METHODS = ("kl_dp_sup", "kl_dp_unsup")


class TransferError(ValueError):
    pass


class TransferDivergedError(RuntimeError):
    """Training hit a non-finite loss, or a non-finite gradient or updated
    parameter (``what`` names it) behind a finite one; carries the failing
    step for diagnosis."""

    def __init__(self, method: str, epoch: int, step: int, value: float, what: str | None = None):
        self.method, self.epoch, self.step, self.value, self.what = method, epoch, step, value, what
        super().__init__(
            f"{method}: non-finite {what or f'loss {value!r}'} at epoch {epoch}, step {step}"
        )

    def __reduce__(self):  # rebuilt from its fields, so it crosses a process boundary
        return type(self), (self.method, self.epoch, self.step, self.value, self.what)


@dataclass(frozen=True)
class TransferHyperparams:
    lr: float = 1e-4
    temperature: float = 1.0
    lam: float = 1.0  # weight of the distillation term in mixed objectives
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0
    momentum: float = 0.9
    weight_decay: float = 1e-3
    mcl_tau: float = 0.9999
    mcl_every: int = 2
    topk: int | None = None

    def __post_init__(self):
        try:
            SgdState(lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay)
        except ValueError as e:
            raise TransferError(str(e)) from e
        if self.temperature <= 0:
            raise TransferError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.lam <= 1.0:
            raise TransferError(f"lambda must be in [0,1], got {self.lam}")
        if not 0.0 <= self.mcl_tau <= 1.0:
            raise TransferError(f"mcl_tau must be in [0,1], got {self.mcl_tau}")
        if self.mcl_every < 1 or self.epochs < 0 or self.batch_size < 1:
            raise TransferError("mcl_every and batch_size must be positive, epochs nonnegative")
        if self.seed < 0:
            raise TransferError(f"seed must be nonnegative, got {self.seed}")
        if self.topk is not None and self.topk < 1:  # the class count bounds it at run time
            raise TransferError(f"topk must be at least 1, got {self.topk}")


def default_hyperparams(method: str, **overrides) -> TransferHyperparams:
    """Per-method defaults; DP runs pure distillation (lambda 1)."""
    if method not in METHODS:
        raise TransferError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    base: dict = {}
    if method == "xe_kl":
        base["lam"] = 0.5
    elif method == "xe_kl_mcl":
        base.update(lam=0.7, lr=0.01)
    elif method == "cd":
        base["lam"] = 0.5
    base.update(overrides)
    return TransferHyperparams(**base)


@dataclass
class MclState:
    """Slow/fast weight copies joined by momentum interpolation."""

    slow: dict[str, np.ndarray]
    fast: dict[str, Tensor]
    tau: float = 0.9999
    every: int = 2


@dataclass(frozen=True)
class PartitionMask:
    """Per-sample binary source assignment; always an exact partition."""

    m_t: np.ndarray
    m_st: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m_t", np.asarray(self.m_t, dtype=bool))
        object.__setattr__(self, "m_st", np.asarray(self.m_st, dtype=bool))
        if self.m_t.shape != self.m_st.shape:
            raise TransferError("mask halves disagree on length")
        if not np.all(self.m_t ^ self.m_st):
            raise TransferError("mask is not an exact partition")

    def slice(self, idx: np.ndarray) -> "PartitionMask":
        return PartitionMask(self.m_t[idx], self.m_st[idx])


@dataclass
class EpochTrace:
    train_loss: float
    val_accuracy: float
    gain: float
    loss: float
    mask_teacher_share: float | None  # DP and parallel only
    fast_val_accuracy: float | None  # MCL only


@dataclass
class EpochStates:
    """What each epoch of a transfer left: its mean train loss and a copy of
    its weights (MCL: the slow weights, plus the fast ones).  They are
    forwarded over the val set only when ``traces`` is called."""

    spec: ModelSpec
    train_loss: list[float] = field(default_factory=list)
    weights: list[dict[str, np.ndarray]] = field(default_factory=list)
    fast_weights: list[dict[str, np.ndarray]] | None = None
    teacher_share: float | None = None  # DP and parallel: the share of samples a teacher won

    def traces(self, baseline: "ValBaseline") -> list[EpochTrace]:
        """One trace per epoch: its train loss, and its weights' val accuracy,
        gain and loss against ``baseline``, forwarded through the baseline's
        memo; the teacher's mask share, and (MCL) the fast weights' accuracy."""
        out = []
        for i, (train_loss, weights) in enumerate(zip(self.train_loss, self.weights)):
            now = baseline.correct(Checkpoint(self.spec, weights))
            fast = None if self.fast_weights is None else baseline.correct(Checkpoint(self.spec, self.fast_weights[i]))
            out.append(EpochTrace(
                train_loss, float(now.mean()), *baseline.gain_loss(now), self.teacher_share,
                None if fast is None else float(fast.mean()),
            ))
        return out


@dataclass
class TransferResult:
    """One transfer: the trained student and ``doc``, its report document
    (``report.json``, or a sequential stage in it), the one record of its
    outcome, which ``report_doc`` built and to which a multi-teacher protocol
    adds the keys it owns.  ``baseline`` and ``epochs`` are None for a
    sequential stage that diverged.
    """

    student_after: Checkpoint
    doc: dict
    baseline: "ValBaseline | None" = field(default=None, repr=False)
    epochs: EpochStates | None = field(default=None, repr=False)

    @functools.cached_property
    def per_epoch(self) -> list[EpochTrace]:
        """One trace per epoch; the epochs' weights are forwarded over the val
        set on first read, through the baseline's memo."""
        return self.epochs.traces(self.baseline) if self.epochs is not None else []


# ---------------------------------------------------------------------------
# objectives


def _temper(z: np.ndarray, temperature: float) -> np.ndarray:
    return z * (1.0 / temperature)


def _as_student(student_logits) -> Tensor:
    return student_logits if isinstance(student_logits, Tensor) else Tensor(student_logits)


def soft_target_kl(student_logits: Tensor, target_logprobs: np.ndarray, temperature: float) -> Tensor:
    """(T^2/n) * sum_i KL(target_i || student_i) with a constant target.

    The shared arithmetic path for plain, partitioned, and multi-source
    distillation, so equal targets give bit-equal losses.  The constant term
    reuses the same weight array as the student term, which makes the loss
    exactly zero when the two log-distributions agree bit for bit.
    """
    n = target_logprobs.shape[0]
    coeff = temperature * temperature / n
    weights = -coeff * np.exp(target_logprobs)
    bias = -float(np.sum(weights * target_logprobs))
    ls = log_softmax(scale(student_logits, 1.0 / temperature))
    return weighted_sum(ls, weights, bias)


def kl_loss(student_logits, teacher_logits, temperature: float = 1.0) -> Tensor:
    """Soft-target distillation: teacher rows are the target distribution."""
    student = _as_student(student_logits)
    teacher = np.asarray(teacher_logits, dtype=np.float64)
    if temperature <= 0:
        raise TransferError(f"temperature must be positive, got {temperature}")
    if student.data.shape != teacher.shape:
        raise ad.ShapeError("kl_loss", student.data.shape, teacher.shape)
    return soft_target_kl(student, np_log_softmax(_temper(teacher, temperature)), temperature)


def xe_loss(student_logits, labels) -> Tensor:
    """Mean cross-entropy against integer labels (temperature 1)."""
    student = _as_student(student_logits)
    labels = np.asarray(labels)
    n, c = student.data.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return weighted_sum(log_softmax(student), -onehot / n)


def xe_kl_loss(student_logits, teacher_logits, labels, lam: float, temperature: float = 1.0) -> Tensor:
    """lam * KL + (1 - lam) * XE."""
    if not 0.0 <= lam <= 1.0:
        raise TransferError(f"lambda must be in [0,1], got {lam}")
    student = _as_student(student_logits)
    kl = kl_loss(student, teacher_logits, temperature)
    xe = xe_loss(student, labels)
    return ad.add(scale(kl, lam), scale(xe, 1.0 - lam))


def mcl_interpolate(state: MclState, iteration: int) -> None:
    """slow <- tau*slow + (1-tau)*fast, applied when iteration % every == 0."""
    if iteration < 1:
        raise TransferError("iteration counter starts at 1")
    if iteration % state.every != 0:
        return
    if state.tau == 1.0:
        return  # slow copy is pinned
    for name, slow in state.slow.items():
        fast = state.fast[name].data
        if fast.shape != slow.shape:
            raise ad.ShapeError("mcl_interpolate", fast.shape, slow.shape)
        if state.tau == 0.0:
            state.slow[name] = fast.copy()
        else:
            state.slow[name] = state.tau * slow + (1.0 - state.tau) * fast


def confidence_winner(source_logits, labels=None) -> np.ndarray:
    """Per sample, the index of the most confident frozen source: the one
    putting the highest probability on the ground-truth class when labels
    are given, else the one with the highest maximum probability.  Ties go to
    the lowest index, so callers put the frozen student first."""
    probs = [np_softmax(z) for z in source_logits]
    if labels is None:
        conf = np.stack([p.max(axis=1) for p in probs])
    else:
        rows = np.arange(probs[0].shape[0])
        conf = np.stack([p[rows, labels] for p in probs])
    return np.argmax(conf, axis=0)


def winner_logprobs(winner: np.ndarray, source_logits, temperature: float) -> np.ndarray:
    """Per sample, the tempered log-probabilities of the source that won it."""
    out = np.empty(source_logits[0].shape)
    for s, z in enumerate(source_logits):
        rows = winner == s
        if rows.any():
            out[rows] = np_log_softmax(_temper(z[rows], temperature))
    return out


def _teacher_partition(op: str, teacher_logits, st_logits, labels=None) -> PartitionMask:
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    st_logits = np.asarray(st_logits, dtype=np.float64)
    if teacher_logits.shape != st_logits.shape:
        raise ad.ShapeError(op, teacher_logits.shape, st_logits.shape)
    m_t = confidence_winner([st_logits, teacher_logits], labels) == 1
    return PartitionMask(m_t, ~m_t)


def dp_masks_supervised(teacher_logits, st_logits, labels) -> PartitionMask:
    """Assign each sample to whichever frozen model puts the higher
    probability on its ground-truth class; ties retain the student-teacher."""
    return _teacher_partition("dp_masks_supervised", teacher_logits, st_logits, np.asarray(labels))


def dp_masks_unsupervised(teacher_logits, st_logits) -> PartitionMask:
    """Label-free variant: compare maximum prediction probabilities."""
    return _teacher_partition("dp_masks_unsupervised", teacher_logits, st_logits)


def dp_loss(student_logits, teacher_logits, st_logits, mask: PartitionMask, temperature: float = 1.0) -> Tensor:
    """Partitioned distillation: per sample, distill from the teacher on m_t
    and from the frozen initial student on m_st; no auxiliary cross-entropy."""
    student = _as_student(student_logits)
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    st_logits = np.asarray(st_logits, dtype=np.float64)
    if temperature <= 0:
        raise TransferError(f"temperature must be positive, got {temperature}")
    if teacher_logits.shape != st_logits.shape or student.data.shape != teacher_logits.shape:
        raise ad.ShapeError("dp_loss", student.data.shape, teacher_logits.shape)
    if mask.m_t.shape[0] != teacher_logits.shape[0]:
        raise TransferError("mask length does not match the batch")
    targets = winner_logprobs(mask.m_t.astype(np.intp), [st_logits, teacher_logits], temperature)
    return soft_target_kl(student, targets, temperature)


def topk_restricted_kl(student_logits, teacher_logits, temperature: float, k: int) -> Tensor:
    """Distillation restricted per sample to the k most probable teacher
    classes, both distributions renormalized over that subset."""
    student = _as_student(student_logits)
    teacher = np.asarray(teacher_logits, dtype=np.float64)
    if student.data.shape != teacher.shape:
        raise ad.ShapeError("topk_restricted_kl", student.data.shape, teacher.shape)
    n, c = teacher.shape
    if not 1 <= k <= c:
        raise TransferError(f"k must be in [1, {c}], got {k}")
    if temperature <= 0:
        raise TransferError(f"temperature must be positive, got {temperature}")
    lt = np_log_softmax(_temper(teacher, temperature))
    idx = np.argsort(-lt, axis=1, kind="stable")[:, :k]  # ties to lowest class id
    lt_sub = np.take_along_axis(lt, idx, axis=1)
    lt_renorm = lt_sub - _logsumexp(lt_sub)  # renormalize over the kept subset
    coeff = temperature * temperature / n
    weights = -coeff * np.exp(lt_renorm)
    bias = -float(np.sum(weights * lt_renorm))
    ls_sub = log_softmax(gather_cols(scale(student, 1.0 / temperature), idx))
    return weighted_sum(ls_sub, weights, bias)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    zmax = np.max(z, axis=1, keepdims=True)
    return zmax + np.log(np.sum(np.exp(z - zmax), axis=1, keepdims=True))


def cd_loss(student_feats, teacher_feats) -> Tensor:
    """Match row-softmaxed cosine-similarity matrices of the two batches'
    L2-normalized features, teacher rows as the target, mean over rows."""
    student = _as_student(student_feats)
    teacher = np.asarray(teacher_feats, dtype=np.float64)
    n = teacher.shape[0]
    if n < 2:
        raise TransferError("cd_loss needs a batch of at least 2 samples")
    if student.data.shape[0] != n:
        raise ad.ShapeError("cd_loss", student.data.shape, teacher.shape)
    norms = np.linalg.norm(teacher, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise TransferError("cd_loss: zero-norm teacher feature")
    unit_t = teacher / norms
    # same einsum path as the student-side gram op, so equal features give
    # bit-equal similarity matrices and an exactly zero loss
    target_logprobs = np_log_softmax(ad._mm_nt(unit_t, unit_t))
    if np.any(np.linalg.norm(student.data, axis=1) == 0.0):
        raise TransferError("cd_loss: zero-norm student feature")
    sim_s = gram(l2_normalize_rows(student))
    ls = log_softmax(sim_s)
    weights = -np.exp(target_logprobs) / n
    bias = -float(np.sum(weights * target_logprobs))
    return weighted_sum(ls, weights, bias)


# ---------------------------------------------------------------------------
# the shared training loop and before/after report


def check_dataset(ck: Checkpoint, name: str, *datasets: Dataset) -> None:
    """Reject a dataset whose class count or input shape differs from the model's."""
    for ds in datasets:
        for what, got, want in (
            ("class count", ds.num_classes, ck.spec.num_classes),
            ("input shape", ds.input_shape, ck.spec.input_shape),
        ):
            if got != want:
                raise TransferError(f"dataset {what} does not match model {name}: dataset {got}, model {want}")


def sgd_epochs(params: dict[str, Tensor], opt: SgdState, n: int, epochs: int, batch_size: int,
               seed: int, loss_fn, diverged, after_step=None):
    """Minibatch SGD over ``epochs`` seeded shuffles of ``n`` samples; yields
    each epoch's step losses so the caller can do its per-epoch work (or stop).

    ``loss_fn(b)`` builds the loss of the batch with sample indices ``b``
    under an active tape.  A non-finite loss raises ``diverged(epoch, step,
    value)``, and a non-finite gradient or updated parameter behind a finite
    loss ``diverged(epoch, step, value, what)``, ``what`` naming the
    parameter.  ``after_step()``, when given, runs after every update.
    """
    keep_freed_memory()  # each step's temporaries are reused, not faulted back in
    for epoch in range(epochs):
        perm = epoch_permutation(n, seed, epoch)
        losses = []
        for step, start in enumerate(range(0, n, batch_size)):
            # overflow in a diverging run surfaces as a non-finite loss below
            with np.errstate(all="ignore"), Tape() as tape:
                loss = loss_fn(perm[start : start + batch_size])
            value = loss.item()
            if not np.isfinite(value):
                raise diverged(epoch, step, value)
            losses.append(value)
            backward(tape, loss)
            grads = {k: p.grad for k, p in params.items() if p.grad is not None}
            try:
                sgd_step({k: params[k] for k in grads}, grads, opt)
            except ad.NonFiniteError as e:
                raise diverged(epoch, step, value, e.what) from e
            if after_step is not None:
                after_step()
        yield losses


def checkpoint_of(base: Checkpoint, params: dict[str, Tensor]) -> Checkpoint:
    """A checkpoint of base's parameters, valued from the trained tensors."""
    return Checkpoint(base.spec, {k: params[k].data.copy() for k in base.params}, dict(base.meta))


def _val_flags(seen: dict[str, np.ndarray], ck: Checkpoint, val_set: Dataset) -> np.ndarray:
    """ck's per-sample correctness on val_set, forwarded once per digest."""
    key = ck.digest()
    if key not in seen:
        seen[key] = correct_flags(predict_logits(ck, val_set.inputs), val_set.labels)
    return seen[key]


def report_doc(method: str, hp: TransferHyperparams, teacher: str, student: str, delta_acc: float = 0.0,
               delta_transf: float = 0.0, knowledge_gain: float = 0.0, knowledge_loss: float = 0.0,
               per_class_gain=(), acc_before: float | None = None, rho_pos: float | None = None,
               rate: dict | None = None) -> dict:
    """The report document of one transfer, as ``report.json`` holds it:
    ``delta_acc`` is the best teacher's val accuracy minus the student's before
    transfer, ``delta_transf`` the student's after minus before, and a NaN
    class gain is null.  A sequential stage that diverged keeps the zero
    deltas and no class gains, with null accuracies and ``rho_pos``."""
    doc = {
        "method": method,
        "teacher": teacher,
        "student": student,
        "delta_acc": delta_acc,
        "delta_transf": delta_transf,
        "knowledge_gain": knowledge_gain,
        "knowledge_loss": knowledge_loss,
        "acc_before": acc_before,
        "acc_after": None if acc_before is None else acc_before + delta_transf,
        "rho_pos": rho_pos,
        "hyperparams": asdict(hp),
        "per_class_gain": [None if np.isnan(v) else float(v) for v in per_class_gain],
    }
    if rate is not None:
        doc["transfer_rate"] = rate
    return doc


@dataclass
class ValBaseline:
    """A student's validation standing before transfer from one or more
    teachers.  The flips are the union of the teachers' positive flips (for a
    single teacher, its own).  ``result`` measures a trained student against
    it and builds the transfer's report document.

    Each weight state is forwarded over the val set once: ``correct`` keeps
    the flags of every checkpoint it saw, by digest, so epoch traces read
    after the report reuse its forward of the last epoch's weights (and,
    with no epochs, the report reuses the untrained student's). Baselines
    measured with one ``seen`` memo share it: a sequential plan's stages
    (each stage's output is the next stage's student), and soup's branches
    and the soup itself (one student and its teachers, each forwarded once).
    """

    val_set: Dataset
    before_correct: np.ndarray
    teacher_accs: list[float]
    flips: FlipStats
    seen: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def measure(cls, student_ck: Checkpoint, teachers, val_set: Dataset,
                seen: dict[str, np.ndarray] | None = None) -> "ValBaseline":
        """Forward the student and each teacher not yet in ``seen`` (a
        digest -> flags memo on this val set, which the baseline extends)."""
        seen = {} if seen is None else seen
        before = _val_flags(seen, student_ck, val_set)
        any_teacher_correct = np.zeros(val_set.n, dtype=bool)
        accs = []
        for t in teachers:
            correct = _val_flags(seen, t, val_set)
            accs.append(float(correct.mean()))
            any_teacher_correct |= correct
        flips = flip_stats_from_flags(any_teacher_correct & ~before, val_set.labels, student_ck.spec.num_classes)
        return cls(val_set, before, accs, flips, seen)

    @property
    def acc_before(self) -> float:
        return float(self.before_correct.mean())

    def correct(self, ck: Checkpoint) -> np.ndarray:
        return _val_flags(self.seen, ck, self.val_set)

    def gain_loss(self, after_correct: np.ndarray) -> tuple[float, float]:
        """Per-run gain/loss; gain is 0 when there is nothing to transfer."""
        if self.flips.total == 0:
            lost = float((self.before_correct & ~after_correct).sum())
            total_before = float(self.before_correct.sum())
            return 0.0, lost / total_before if total_before else 0.0
        return knowledge_gain_loss(self.before_correct, after_correct, self.flips.per_sample_flags)

    def result(self, method: str, hp: TransferHyperparams, epochs: EpochStates | None,
               student_after: Checkpoint, teacher: str, student: str, meta: dict) -> TransferResult:
        """Evaluate the transferred student and report it against the baseline;
        ``meta`` goes into its checkpoint, and ``epochs`` stay unforwarded
        until the result's traces are read."""
        y = self.val_set.labels
        after_correct = self.correct(student_after)
        acc_after = float(after_correct.mean())
        rate = transfer_rate(self.flips, after_correct, y) if self.flips.total else None
        student_after.meta.update({"val_accuracy": acc_after, **meta})
        doc = report_doc(
            method, hp, teacher, student, max(self.teacher_accs) - self.acc_before, acc_after - self.acc_before,
            *self.gain_loss(after_correct), per_class_gain(self.flips, after_correct, y),
            self.acc_before, self.flips.rho_pos, rate,
        )
        return TransferResult(student_after, doc, self, epochs)


def distill(
    student_ck: Checkpoint,
    teachers: list[tuple[str, Checkpoint]],
    method: str,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
    frozen_reference: Checkpoint | None = None,
    seen: dict[str, np.ndarray] | None = None,
) -> tuple[ValBaseline, EpochStates, Checkpoint, np.ndarray | None]:
    """Distill named teachers into a pretrained student over a fixed epoch
    budget.  Returns the baseline (measured with the val memo ``seen``), the
    epoch states (not yet forwarded over the val set), the trained checkpoint
    (MCL: the slow weights) and the per-sample winning source.

    The KL family's target is built once, before SGD: per sample, the
    tempered distribution of the most confident frozen source, the teacher
    for ``kl``/``xe_kl*``; DP ranks the frozen reference (by default the
    initial student) before every teacher.  Top-k KL and ``cd`` build their
    losses per batch and have no winner.
    """
    if method not in METHODS:
        raise TransferError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    spec = student_ck.spec
    for name, ck in [(student_name, student_ck), *teachers]:  # fitting one dataset, they fit each other
        check_dataset(ck, name, transfer_set, val_set)
    teacher_cks = [t for _, t in teachers]

    x_tr, y_tr = transfer_set.inputs, transfer_set.labels
    temp = hp.temperature
    params = as_tensors(student_ck)
    winner = targets = z_teacher = t_feats = proj = None
    if method == "cd":
        t_feats = predict_features(teacher_cks[0], x_tr)
        w_s, w_t = spec.feature_width(), teacher_cks[0].spec.feature_width()
        if w_s != w_t:  # project both to the narrower width, the teacher's side fixed and the student's trained
            d = min(w_s, w_t)
            rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 0xCD]))
            t_feats = t_feats @ (rng.normal(size=(w_t, d)) / np.sqrt(w_t))
            bound = np.sqrt(6.0 / w_s)
            params["cd_proj.w"] = proj = Tensor(rng.uniform(-bound, bound, size=(w_s, d)), requires_grad=True)
    elif method == "kl" and hp.topk is not None:
        z_teacher = predict_logits(teacher_cks[0], x_tr)
    else:
        sources = ([frozen_reference or student_ck] if method in DP_METHODS else []) + teacher_cks
        source_logits = [predict_logits(ck, x_tr) for ck in sources]
        winner = confidence_winner(source_logits, y_tr if method == "kl_dp_sup" else None)
        targets = winner_logprobs(winner, source_logits, temp)
    baseline = ValBaseline.measure(student_ck, teacher_cks, val_set, seen)

    opt = SgdState(lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay)
    mcl = after_step = None
    if method == "xe_kl_mcl":
        mcl = MclState(
            slow={k: v.copy() for k, v in student_ck.params.items()},
            fast={k: params[k] for k in student_ck.params},
            tau=hp.mcl_tau,
            every=hp.mcl_every,
        )
        iterations = itertools.count(1)
        after_step = lambda: mcl_interpolate(mcl, next(iterations))
    drop_rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 0xD0]))

    def loss_fn(b):
        logits, feats = model_forward(spec, params, Tensor(x_tr[b]), train=True, dropout_rng=drop_rng)
        if z_teacher is not None:
            return topk_restricted_kl(logits, z_teacher[b], temp, hp.topk)
        if targets is not None:
            kl = soft_target_kl(logits, targets[b], temp)
            if method not in ("xe_kl", "xe_kl_mcl"):
                return kl
            xe = xe_loss(logits, y_tr[b])
            return ad.add(scale(kl, hp.lam), scale(xe, 1.0 - hp.lam))
        xe = xe_loss(logits, y_tr[b])  # cd
        if b.size < 2:
            return scale(xe, 1.0 - hp.lam)  # singleton batch has no pairs
        cd = cd_loss(feats if proj is None else ad.matmul(feats, proj), t_feats[b])
        return ad.add(scale(cd, hp.lam), scale(xe, 1.0 - hp.lam))

    def weights() -> dict[str, np.ndarray]:
        return {k: (mcl.slow[k] if mcl else params[k].data).copy() for k in student_ck.params}

    epochs = EpochStates(spec, fast_weights=[] if mcl else None)
    for losses in sgd_epochs(
        params, opt, transfer_set.n, hp.epochs, hp.batch_size, hp.seed, loss_fn,
        functools.partial(TransferDivergedError, method), after_step,
    ):
        epochs.train_loss.append(float(np.mean(losses)) if losses else float("nan"))
        epochs.weights.append(weights())
        if mcl is not None:
            epochs.fast_weights.append({k: params[k].data.copy() for k in student_ck.params})
    return baseline, epochs, Checkpoint(spec, weights(), dict(student_ck.meta)), winner


def run_transfer(
    student_ck: Checkpoint,
    teacher_ck: Checkpoint,
    method: str,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    teacher_name: str = "teacher",
    student_name: str = "student",
    frozen_reference: Checkpoint | None = None,
    seen: dict[str, np.ndarray] | None = None,
) -> TransferResult:
    """``distill`` with one teacher; DP's frozen retention reference is
    ``frozen_reference``, by default the initial student, and ``seen`` the
    val memo shared with other transfers on the same val set."""
    baseline, epochs, student_after, winner = distill(
        student_ck, [(teacher_name, teacher_ck)], method, hp, transfer_set, val_set, student_name,
        frozen_reference, seen,
    )
    if method in DP_METHODS:
        epochs.teacher_share = float((winner == 1).mean())
    return baseline.result(
        method, hp, epochs, student_after, teacher_name, student_name,
        meta={"transfer_method": method, "teacher": teacher_name},
    )
