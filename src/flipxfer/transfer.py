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
KL-family target, top-k included, comes from the one confidence rule
(``confidence_winner``) before SGD and equals the per-batch objectives' bit
for bit.  ``ValBaseline``
measures every before/after outcome, and ``report_doc`` builds its report
document, the one record of a transfer.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from queue import SimpleQueue

import numpy as np

from . import autodiff as ad
from .analysis import (
    FlipStats,
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
from .models import Checkpoint, as_tensors, model_forward, predict_classes, predict_features, predict_logits
from .pool import keep_freed_memory, thread_map

__all__ = [
    "METHODS",
    "TransferError",
    "TrainingDivergedError",
    "TransferHyperparams",
    "MclState",
    "PartitionMask",
    "EpochTrace",
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
    "val_correct",
    "sgd_epochs",
    "distill",
    "run_transfer",
]

METHODS = ("kl", "xe_kl", "xe_kl_mcl", "kl_dp_sup", "kl_dp_unsup", "cd")
DP_METHODS = ("kl_dp_sup", "kl_dp_unsup")


class TransferError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    """``sgd_epochs`` hit a non-finite loss, or a non-finite gradient or
    updated parameter (``what`` names it) behind a finite one: the one
    divergence error of zoo training and of every transfer.  ``who`` is the
    model's name in a zoo and the method in a transfer; the error carries the
    failing epoch and step for diagnosis."""

    def __init__(self, who: str, epoch: int, step: int, value: float, what: str | None = None):
        self.who, self.epoch, self.step, self.value, self.what = who, epoch, step, value, what
        super().__init__(f"{who}: non-finite {what or f'loss {value!r}'} at epoch {epoch}, step {step}")

    def __reduce__(self):  # rebuilt from its fields, so it crosses a process boundary
        return type(self), (self.who, self.epoch, self.step, self.value, self.what)


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
        # each message starts with its field's name, which the CLI prefixes with the section's dotted key
        try:
            SgdState(lr=self.lr, momentum=self.momentum, weight_decay=self.weight_decay)
        except ValueError as e:
            raise TransferError(str(e)) from e
        for name, ok, rule in (
            ("temperature", self.temperature > 0, "positive"),
            ("lam", 0.0 <= self.lam <= 1.0, "in [0,1]"),
            ("mcl_tau", 0.0 <= self.mcl_tau <= 1.0, "in [0,1]"),
            ("mcl_every", self.mcl_every >= 1, "positive"),
            ("epochs", self.epochs >= 0, "nonnegative"),
            ("batch_size", self.batch_size >= 1, "positive"),
            ("seed", self.seed >= 0, "nonnegative"),
            ("topk", self.topk is None or self.topk >= 1, "at least 1"),  # the class count bounds it at run time
        ):
            if not ok:
                raise TransferError(f"{name} must be {rule}, got {getattr(self, name)}")


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
    """Slow and fast copies of the student's weights, joined by momentum
    interpolation: ``fast`` is the vector SGD trains (``distill`` gives its
    copy's ``flat``), ``slow`` the vector of the same shape that
    ``mcl_interpolate`` moves toward it, and ``steps`` counts its calls, one
    per SGD step."""

    slow: np.ndarray
    fast: np.ndarray
    tau: float
    every: int
    steps: int = 0


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
    """What one epoch of a transfer left, measured once ``distill`` has joined
    its eval queue: the epoch's mean train loss, its weights' val accuracy,
    gain and loss against the baseline, the share of transfer samples a
    teacher won (DP and parallel), and the fast weights' val accuracy (MCL)."""

    train_loss: float
    val_accuracy: float
    gain: float
    loss: float
    mask_teacher_share: float | None  # DP and parallel only
    fast_val_accuracy: float | None  # MCL only


@dataclass
class TransferResult:
    """One transfer: the trained student, a checkpoint of its own
    (``distill`` trains a copy; a sequential stage that diverged keeps the
    student it was given), and ``doc``, its report document (``report.json``,
    or a sequential stage in it), the one record of its outcome, which
    ``report_doc`` built and to which a multi-teacher protocol adds the keys
    it owns, and ``per_epoch``, the traces ``distill`` returned, one per
    epoch.  ``per_epoch`` is empty for a sequential stage that diverged, for
    a soup and for a transfer run without ``forward_epochs``.
    """

    student_after: Checkpoint
    doc: dict
    per_epoch: list[EpochTrace] = field(default_factory=list)


# ---------------------------------------------------------------------------
# objectives


def _temper(z: np.ndarray, temperature: float) -> np.ndarray:
    return z * (1.0 / temperature)


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
    student = ad._as_tensor(student_logits)
    teacher = np.asarray(teacher_logits, dtype=np.float64)
    if temperature <= 0:
        raise TransferError(f"temperature must be positive, got {temperature}")
    if student.data.shape != teacher.shape:
        raise ad.ShapeError("kl_loss", student.data.shape, teacher.shape)
    return soft_target_kl(student, np_log_softmax(_temper(teacher, temperature)), temperature)


def xe_loss(student_logits, labels) -> Tensor:
    """Mean cross-entropy against integer labels (temperature 1)."""
    student = ad._as_tensor(student_logits)
    labels = np.asarray(labels)
    n, c = student.data.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return weighted_sum(log_softmax(student), -onehot / n)


def xe_kl_loss(student_logits, teacher_logits, labels, lam: float, temperature: float = 1.0) -> Tensor:
    """lam * KL + (1 - lam) * XE."""
    if not 0.0 <= lam <= 1.0:
        raise TransferError(f"lambda must be in [0,1], got {lam}")
    student = ad._as_tensor(student_logits)
    kl = kl_loss(student, teacher_logits, temperature)
    xe = xe_loss(student, labels)
    return ad.add(scale(kl, lam), scale(xe, 1.0 - lam))


def mcl_interpolate(state: MclState) -> None:
    """Count one SGD step; after every ``every``-th, slow <- tau*slow +
    (1-tau)*fast, written into the slow vector in place."""
    state.steps += 1
    if state.steps % state.every != 0 or state.tau == 1.0:  # tau 1 pins the slow copy
        return
    if state.tau == 0.0:
        state.slow[...] = state.fast
    else:
        state.slow[...] = state.tau * state.slow + (1.0 - state.tau) * state.fast


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
    student = ad._as_tensor(student_logits)
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


def _topk_target(logprobs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``logprobs``, the columns of its k most probable classes
    (ties to the lowest class id) and the target renormalized over them."""
    c = logprobs.shape[1]
    if not 1 <= k <= c:
        raise TransferError(f"k must be in [1, {c}], got {k}")
    cols = np.argsort(-logprobs, axis=1, kind="stable")[:, :k]
    return cols, np_log_softmax(np.take_along_axis(logprobs, cols, axis=1))


def topk_restricted_kl(student_logits, teacher_logits, temperature: float, k: int) -> Tensor:
    """Distillation restricted per sample to the k most probable teacher
    classes, both distributions renormalized over that subset."""
    student = ad._as_tensor(student_logits)
    teacher = np.asarray(teacher_logits, dtype=np.float64)
    if student.data.shape != teacher.shape:
        raise ad.ShapeError("topk_restricted_kl", student.data.shape, teacher.shape)
    if temperature <= 0:
        raise TransferError(f"temperature must be positive, got {temperature}")
    cols, target = _topk_target(np_log_softmax(_temper(teacher, temperature)), k)
    return soft_target_kl(gather_cols(student, cols), target, temperature)


def cd_loss(student_feats, teacher_feats) -> Tensor:
    """Match row-softmaxed cosine-similarity matrices of the two batches'
    L2-normalized features, teacher rows as the target, mean over rows.

    Both sides go through ``l2_normalize_rows`` and ``gram``, so equal
    features give bit-equal similarity matrices and an exactly zero loss.
    A row is divided by max(its norm, 1e-12): an all-zero feature row has
    zero similarity to every row, itself too.  A one-row batch's only
    similarity is its own, so its loss is 0.0 and its gradient zero.
    """
    student = ad._as_tensor(student_feats)
    teacher = np.asarray(teacher_feats, dtype=np.float64)
    n = teacher.shape[0]
    if student.data.shape[0] != n:
        raise ad.ShapeError("cd_loss", student.data.shape, teacher.shape)
    target_logprobs = np_log_softmax(gram(l2_normalize_rows(teacher)).data)
    ls = log_softmax(gram(l2_normalize_rows(student)))
    weights = -np.exp(target_logprobs) / n
    bias = -float(np.sum(weights * target_logprobs))
    return weighted_sum(ls, weights, bias)


# ---------------------------------------------------------------------------
# the shared training loop and before/after report


def check_dataset(ck: Checkpoint, name: str, **sets: Dataset) -> None:
    """Reject a dataset whose class count or input shape differs from the
    model's; the message names the set by its keyword (train, transfer, val)."""
    for label, ds in sets.items():
        for what, got, want in (
            ("class count", ds.num_classes, ck.spec.num_classes),
            ("input shape", ds.input_shape, ck.spec.input_shape),
        ):
            if got != want:
                raise TransferError(f"{label} set {what} does not match model {name}: set {got}, model {want}")


def sgd_epochs(vectors: list[tuple[np.ndarray, dict[str, Tensor]]], opt: SgdState, n: int, epochs: int,
               batch_size: int, seed: int, loss_fn, who: str, after_step=None):
    """Minibatch SGD over ``epochs`` seeded shuffles of ``n`` samples; yields
    each epoch's step losses so the caller can do its per-epoch work (or stop).

    ``loss_fn(b)`` builds the loss of the batch with sample indices ``b``
    under an active tape; ``sgd_step`` then steps each of ``vectors`` by the
    gradients ``backward`` left on its tensors.  A non-finite loss, or a non-finite gradient or updated
    parameter behind a finite loss, raises ``TrainingDivergedError`` naming
    ``who``, the epoch and the step (and the parameter).  ``after_step()``,
    when given, runs after every update.
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
                raise TrainingDivergedError(who, epoch, step, value)
            losses.append(value)
            backward(tape, loss)
            try:
                sgd_step(vectors, opt)
            except ad.NonFiniteError as e:
                raise TrainingDivergedError(who, epoch, step, value, e.what) from e
            if after_step is not None:
                after_step()
        yield losses


def val_correct(ck: Checkpoint, val_set: Dataset) -> np.ndarray:
    """ck's per-sample correctness on val_set, read-only, forwarded once per
    checkpoint digest for the life of the set: ``val_set.correct`` keeps the
    flags.  A val forward is read only through its top-1 class, so it runs
    through ``predict_classes``: a BLAS forward carries a per-row bound E on
    how far any evaluation order's logits are from the exact ones, so a row
    whose top logit leads by more than 4 E has einsum's argmax, untied (the
    proof is in ``models``' docstring); the other rows take the argmax of
    ``predict_logits``.  The flags are
    ``np.argmax(predict_logits(...), axis=1) == labels`` bit for bit.
    A transfer's memo has one writer at a time: ``distill``'s helper while
    SGD runs, then the calling thread once the helper is joined."""
    key = ck.digest()
    flags = val_set.correct.get(key)
    if flags is None:
        flags = predict_classes(ck, val_set.inputs) == val_set.labels
        flags.flags.writeable = False
        val_set.correct[key] = flags
    return flags


def report_doc(method: str, hp: TransferHyperparams, teacher: str, student: str, delta_acc: float = 0.0,
               delta_transf: float = 0.0, knowledge_gain: float = 0.0, knowledge_loss: float = 0.0,
               per_class_gain=(), acc_before: float | None = None, rho_pos: float | None = None,
               rate: dict | None = None) -> dict:
    """The report document of one transfer, as ``report.json`` holds it:
    ``delta_acc`` is the best teacher's val accuracy minus the student's before
    transfer, ``delta_transf`` the student's after minus before, and a class
    gain is null without flips.  A sequential stage that diverged keeps the zero
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
        "per_class_gain": list(per_class_gain),
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

    Every checkpoint is forwarded through the val set's memo
    (``val_correct``), once per weight state for the life of the set:
    ``distill``'s eval queue forwards the baseline and each epoch beside SGD,
    so the baseline, the report (the last epoch's weights) and the traces
    read the memo, and a later transfer on the same set (a sequential plan's
    next stage, a soup's next branch or merge, a sweep worker's next task)
    reuses the forwards of every model that one before it saw.
    """

    val_set: Dataset
    before_correct: np.ndarray
    teacher_accs: list[float]
    flips: FlipStats

    @classmethod
    def measure(cls, student_ck: Checkpoint, teachers, val_set: Dataset) -> "ValBaseline":
        """The student's and each teacher's flags, from the val set's memo."""
        before = val_correct(student_ck, val_set)
        any_teacher_correct = np.zeros(val_set.n, dtype=bool)
        accs = []
        for t in teachers:
            correct = val_correct(t, val_set)
            accs.append(float(correct.mean()))
            any_teacher_correct |= correct
        flips = flip_stats_from_flags(any_teacher_correct & ~before, val_set.labels, student_ck.spec.num_classes)
        return cls(val_set, before, accs, flips)

    @property
    def acc_before(self) -> float:
        return float(self.before_correct.mean())

    def gain_loss(self, after_correct: np.ndarray) -> tuple[float, float]:
        return knowledge_gain_loss(self.before_correct, after_correct, self.flips.per_sample_flags)

    def result(self, method: str, hp: TransferHyperparams, per_epoch: list[EpochTrace],
               student_after: Checkpoint, teacher: str, student: str, meta: dict) -> TransferResult:
        """Evaluate the transferred student and report it against the baseline;
        ``meta`` goes into its checkpoint, and ``per_epoch``, the traces
        ``distill`` returned (none for a soup), into the result."""
        y = self.val_set.labels
        after_correct = val_correct(student_after, self.val_set)
        acc_after = float(after_correct.mean())
        student_after.meta.update({"val_accuracy": acc_after, **meta})
        doc = report_doc(
            method, hp, teacher, student, max(self.teacher_accs) - self.acc_before, acc_after - self.acc_before,
            *self.gain_loss(after_correct), per_class_gain(self.flips, after_correct, y),
            self.acc_before, self.flips.rho_pos, transfer_rate(self.flips, after_correct, y),
        )
        return TransferResult(student_after, doc, per_epoch)


def distill(
    student_ck: Checkpoint,
    teachers: list[tuple[str, Checkpoint]],
    method: str,
    hp: TransferHyperparams,
    transfer_set: Dataset,
    val_set: Dataset,
    student_name: str = "student",
    frozen_reference: Checkpoint | None = None,
    forward_epochs: bool = True,
) -> tuple[ValBaseline, list[EpochTrace], Checkpoint, np.ndarray | None]:
    """Distill named teachers into a pretrained student over a fixed epoch
    budget.  Returns the baseline, one trace per epoch (none without
    ``forward_epochs``: the caller reads no traces), the trained checkpoint
    and the per-sample winning source (none for ``cd``).  A DP rule's traces
    carry the share of samples a teacher won, ``(winner != 0).mean()``.
    SGD steps a ``student_ck.copy()`` in place, and that copy (MCL: a second
    copy, the slow weights) is the trained checkpoint, so ``student_ck`` never
    changes, even when SGD diverges.

    The KL family's target is built once, before SGD: per sample, the
    tempered distribution of the most confident frozen source, the teacher
    for ``kl``/``xe_kl*``; DP ranks the frozen reference (by default the
    initial student) before every teacher.  ``kl`` with ``topk`` restricts
    that target to each sample's k most probable classes, and each batch
    gathers the student's logits at those columns.  ``cd`` builds its loss
    per batch and has no winner.

    SGD never reads the val forwards, so they run beside it through an eval
    queue (``pool.thread_map`` of two jobs): SGD in this thread, which keeps
    its tape, error state and signals and forwards nothing, and in one helper
    thread the queue's one consumer, which forwards in order the student and
    each teacher, queued before SGD starts, then each finished epoch's
    weights (MCL: slow, then fast) as SGD queues them.  SGD queues one stop
    however it ends, so the helper forwards every state queued before it and
    is joined before this returns or raises.  SGD's error is raised (a
    divergence as ``TrainingDivergedError`` naming the method), else the
    helper's.  With one usable CPU both jobs run here, SGD first, then the
    whole queue.
    """
    if method not in METHODS:
        raise TransferError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    spec = student_ck.spec
    for name, ck in [(student_name, student_ck), *teachers]:  # fitting one dataset, they fit each other
        check_dataset(ck, name, transfer=transfer_set, val=val_set)
    teacher_cks = [t for _, t in teachers]

    x_tr, y_tr = transfer_set.inputs, transfer_set.labels
    temp = hp.temperature
    trained = student_ck.copy()  # SGD trains it in place; the caller's student never changes
    params = as_tensors(trained)
    vectors = [(trained.flat, params)]  # sgd_step's: the student's, then cd's projection
    winner = targets = cols = t_feats = proj = None
    if method == "cd":
        t_feats = predict_features(teacher_cks[0], x_tr)
        w_s, w_t = spec.feature_width(), teacher_cks[0].spec.feature_width()
        if w_s != w_t:  # project both to the narrower width, the teacher's side fixed and the student's trained
            d = min(w_s, w_t)
            rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 0xCD]))
            t_feats = t_feats @ (rng.normal(size=(w_t, d)) / np.sqrt(w_t))
            bound = np.sqrt(6.0 / w_s)
            proj = Tensor(rng.uniform(-bound, bound, size=(w_s, d)), requires_grad=True)
            vectors.append((proj.data.reshape(-1), {"cd_proj.w": proj}))
    else:
        sources = ([frozen_reference or student_ck] if method in DP_METHODS else []) + teacher_cks
        source_logits = [predict_logits(ck, x_tr) for ck in sources]
        winner = confidence_winner(source_logits, y_tr if method == "kl_dp_sup" else None)
        targets = winner_logprobs(winner, source_logits, temp)
        if method == "kl" and hp.topk is not None:
            cols, targets = _topk_target(targets, hp.topk)

    opt = SgdState(lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay)
    after_step, kept = None, trained  # kept: the weights the transfer returns, MCL's slow copy
    if method == "xe_kl_mcl":
        kept = student_ck.copy()
        after_step = functools.partial(mcl_interpolate, MclState(kept.flat, trained.flat, hp.mcl_tau, hp.mcl_every))
    drop_rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 0xD0]))

    def loss_fn(b):
        logits, feats = model_forward(spec, params, Tensor(x_tr[b]), train=True, dropout_rng=drop_rng)
        if method == "cd":
            term = cd_loss(feats if proj is None else ad.matmul(feats, proj), t_feats[b])
        else:
            term = soft_target_kl(logits if cols is None else gather_cols(logits, cols[b]), targets[b], temp)
        if method not in ("xe_kl", "xe_kl_mcl", "cd"):
            return term
        return ad.add(scale(term, hp.lam), scale(xe_loss(logits, y_tr[b]), 1.0 - hp.lam))

    train_loss: list[float] = []
    states: list[list[Checkpoint]] = []  # per epoch, its weights (MCL: slow, then fast)
    queue: SimpleQueue = SimpleQueue()  # checkpoints to forward over val; None stops the helper
    for ck in (student_ck, *teacher_cks):
        queue.put(ck)

    def forward_queued() -> None:
        while (ck := queue.get()) is not None:
            val_correct(ck, val_set)

    def train() -> None:
        try:
            for losses in sgd_epochs(
                vectors, opt, transfer_set.n, hp.epochs, hp.batch_size, hp.seed, loss_fn, method, after_step,
            ):
                if not forward_epochs:
                    continue
                train_loss.append(float(np.mean(losses)) if losses else float("nan"))
                states.append([kept.copy(), trained.copy()] if after_step else [kept.copy()])
                for ck in states[-1]:
                    queue.put(ck)
        finally:
            queue.put(None)

    thread_map(lambda job: job(), [train, forward_queued])
    baseline = ValBaseline.measure(student_ck, teacher_cks, val_set)
    share = float((winner != 0).mean()) if method in DP_METHODS else None
    per_epoch = []
    for loss, (state, *fast) in zip(train_loss, states):  # every state read from the memo
        now = val_correct(state, val_set)
        fast_acc = float(val_correct(fast[0], val_set).mean()) if fast else None
        per_epoch.append(EpochTrace(loss, float(now.mean()), *baseline.gain_loss(now), share, fast_acc))
    return baseline, per_epoch, kept, winner


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
    forward_epochs: bool = True,
) -> TransferResult:
    """``distill`` with one teacher; DP's frozen retention reference is
    ``frozen_reference``, by default the initial student.  Its val forwards go
    through the val set's memo, which every transfer on that set shares, a
    sweep worker's tasks included; a caller that never reads ``per_epoch``
    passes ``forward_epochs=False``, and the transfer keeps no epoch state:
    ``per_epoch`` is empty."""
    baseline, per_epoch, student_after, _ = distill(
        student_ck, [(teacher_name, teacher_ck)], method, hp, transfer_set, val_set, student_name,
        frozen_reference, forward_epochs,
    )
    return baseline.result(
        method, hp, per_epoch, student_after, teacher_name, student_name,
        meta={"transfer_method": method, "teacher": teacher_name},
    )
