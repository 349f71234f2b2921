"""Complementarity and evaluation metrics.

Positive prediction flips between a teacher and a student quantify the
complementary knowledge: samples the teacher classifies correctly while the
student does not.  On top of the per-sample flags this module computes the
per-class flip distribution and its Shannon entropy (in nats), expertise
class sets covering the top share of flips, semantic similarity of such
sets relative to the full class pool, the post-transfer transfer rate,
knowledge gain/loss, and sweep-level summaries (success rate and binned
top-quartile transfer deltas).

No flips is an outcome, not an error: entropy and transfer rate are None,
top-share class sets empty, knowledge gain 0.0, class gains None, and so is
the similarity of fewer than 2 classes.  Bad input raises ``AnalysisError``,
as does the knowledge loss of a student with no correct prediction.

Argmax ties break toward the lowest class index everywhere, so flips,
masks, and accuracies agree on the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalysisError",
    "FlipStats",
    "positive_flips",
    "flip_stats_from_flags",
    "flip_entropy",
    "classes_by_flips",
    "top_share_classes",
    "semantic_similarity",
    "transfer_rate",
    "knowledge_gain_loss",
    "per_class_gain",
    "success_rate",
    "binned_top_quartile_delta",
    "TOP_SHARE_LEVELS",
]

TOP_SHARE_LEVELS = (2.0, 5.0, 20.0, 50.0, 100.0)


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class FlipStats:
    """Per-sample positive-flip flags plus their per-class aggregation."""

    per_sample_flags: np.ndarray  # (n,) bool
    per_class_counts: np.ndarray  # (c,) int
    rho_pos: float

    @property
    def total(self) -> int:
        return int(self.per_class_counts.sum())


def positive_flips(
    teacher_logits: np.ndarray, student_logits: np.ndarray, labels: np.ndarray
) -> FlipStats:
    """Flag samples the teacher gets right and the student gets wrong."""
    teacher_logits = np.asarray(teacher_logits)
    student_logits = np.asarray(student_logits)
    labels = np.asarray(labels)
    if teacher_logits.shape != student_logits.shape:
        raise AnalysisError(
            f"logit shapes disagree: {teacher_logits.shape} vs {student_logits.shape}"
        )
    if teacher_logits.shape[0] != labels.shape[0]:
        raise AnalysisError("labels do not align with logits")
    flags = (np.argmax(teacher_logits, axis=1) == labels) & (np.argmax(student_logits, axis=1) != labels)
    return flip_stats_from_flags(flags, labels, teacher_logits.shape[1])


def flip_stats_from_flags(flags: np.ndarray, labels: np.ndarray, num_classes: int) -> FlipStats:
    flags = np.asarray(flags, dtype=bool)
    counts = np.bincount(np.asarray(labels)[flags], minlength=num_classes).astype(np.int64)
    return FlipStats(flags, counts, float(flags.mean()))


def flip_entropy(stats: FlipStats) -> float | None:
    """Shannon entropy (nats) of the per-class flip distribution, or None."""
    total = stats.total
    if total == 0:
        return None
    p = stats.per_class_counts[stats.per_class_counts > 0] / total
    return float(0.0 - np.sum(p * np.log(p)))  # 0 - s, not -s: one class gives +0.0


def classes_by_flips(stats: FlipStats) -> np.ndarray:
    """Class ids sorted by descending flip count, ties by class id."""
    counts = stats.per_class_counts
    return np.lexsort((np.arange(counts.size), -counts))


def top_share_classes(stats: FlipStats, x_percent: float) -> list[int]:
    """Smallest descending-count class prefix holding >= x% of all flips."""
    if not 0.0 < x_percent <= 100.0:
        raise AnalysisError(f"x_percent must be in (0, 100], got {x_percent}")
    total = stats.total
    if total == 0:
        return []
    order = classes_by_flips(stats)
    need = x_percent / 100.0 * total
    out: list[int] = []
    cum = 0
    for k in order:
        out.append(int(k))
        cum += int(stats.per_class_counts[k])
        if cum >= need - 1e-9:
            break
    return out

def semantic_similarity(class_embeddings: np.ndarray, class_set) -> float | None:
    """Mean pairwise cosine similarity within the set, relative to the mean
    over all classes (ratio minus one); None for a set of fewer than 2."""
    emb = np.asarray(class_embeddings, dtype=np.float64)
    idx = sorted(int(k) for k in class_set)
    if len(idx) < 2:
        return None
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise AnalysisError("zero-norm class embedding")
    unit = emb / norms

    def mean_pairwise(rows: np.ndarray) -> float:
        sims = rows @ rows.T
        m = rows.shape[0]
        return float((sims.sum() - np.trace(sims)) / (m * (m - 1)))

    overall = mean_pairwise(unit)
    if overall == 0.0:
        raise AnalysisError("average class similarity is zero; ratio undefined")
    return mean_pairwise(unit[idx]) / overall - 1.0


def transfer_rate(
    flips_before: FlipStats,
    student_correct_after: np.ndarray,
    labels: np.ndarray,
) -> dict | None:
    """Fraction of flip samples now answered correctly, overall and, keyed
    str(X), within the classes holding the top-X% of flips (TOP_SHARE_LEVELS)."""
    after = np.asarray(student_correct_after, dtype=bool)
    labels = np.asarray(labels)
    flags = flips_before.per_sample_flags
    if after.shape != flags.shape or labels.shape != flags.shape:
        raise AnalysisError("flags are not aligned")
    if flips_before.total == 0:
        return None
    out = {"overall": float(after[flags].mean()), "by_top_share": {}}
    for x in TOP_SHARE_LEVELS:
        keep = np.isin(labels, top_share_classes(flips_before, x))
        sel = flags & keep
        out["by_top_share"][str(x)] = float(after[sel].mean()) if sel.any() else None
    return out


def knowledge_gain_loss(
    before_correct: np.ndarray, after_correct: np.ndarray, flips: np.ndarray
) -> tuple[float, float]:
    """gain = corrected flip share; loss = share of prior correct answers lost."""
    before = np.asarray(before_correct, dtype=bool)
    after = np.asarray(after_correct, dtype=bool)
    flips = np.asarray(flips, dtype=bool)
    if before.shape != after.shape or before.shape != flips.shape:
        raise AnalysisError("flags are not aligned")
    n_flips = int(flips.sum())
    n_before = int(before.sum())
    if n_before == 0:
        raise AnalysisError("student had no correct predictions before transfer")
    gain = float((flips & after).sum() / n_flips) if n_flips else 0.0
    loss = float((before & ~after).sum() / n_before)
    return gain, loss


def per_class_gain(
    flips: FlipStats, after_correct: np.ndarray, labels: np.ndarray
) -> list[float | None]:
    """Per class, the corrected share of its flips; None where a class has none."""
    after = np.asarray(after_correct, dtype=bool)
    labels = np.asarray(labels)
    c = flips.per_class_counts.size
    corrected = np.bincount(labels[flips.per_sample_flags & after], minlength=c)
    return [int(k) / int(n) if n else None for k, n in zip(corrected, flips.per_class_counts)]


def success_rate(reports) -> float:
    """Share of report documents (one per transfer) whose ``delta_transf``,
    the student's accuracy after minus before, is strictly positive."""
    deltas = [r["delta_transf"] for r in reports]
    if not deltas:
        raise AnalysisError("no reports")
    return float(np.mean([d > 0.0 for d in deltas]))


def binned_top_quartile_delta(reports, bin_edges) -> dict:
    """Bin report documents by ``delta_acc`` (teacher minus student accuracy
    before transfer); per bin, the mean of the top ceil(n/4) ``delta_transf``
    by rank.  Empty bins are absent from the result, never zero."""
    edges = [float(e) for e in bin_edges]
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise AnalysisError("bin_edges must be strictly increasing with >= 2 entries")
    out: dict[tuple[float, float], float] = {}
    for lo, hi in zip(edges, edges[1:]):
        last = hi == edges[-1]
        deltas = sorted(
            (
                r["delta_transf"]
                for r in reports
                if lo <= r["delta_acc"] < hi or (last and r["delta_acc"] == hi)
            ),
            reverse=True,
        )
        if deltas:
            take = -(-len(deltas) // 4)  # ceil(n/4)
            out[(lo, hi)] = float(np.mean(deltas[:take]))
    return out
