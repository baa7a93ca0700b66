"""Probabilistic label model over conditionally independent binary sources.

Per-source accuracies are recovered from observable pairwise agreement
moments: for each source two partners are chosen to maximize the minimum
pairwise support overlap, and the accuracy follows from the square-root
ratio of the three conditional second moments.  Inference multiplies the
per-source likelihood factors with the class-balance prior; abstains
carry no information about the label and cancel out of the posterior.
Hard labels are scored against gold ones by ``evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegeneracyError, LabelModelParams, LabelVector, VoteMatrix, coverage

__all__ = [
    "ACCURACY_CLAMP",
    "TripletAssignment",
    "pairwise_moments",
    "min_overlap",
    "select_triplets",
    "estimate_accuracies",
    "posterior",
    "predict",
    "majority_vote",
    "MetricsReport",
    "evaluate",
]

# Moment-scale accuracy estimates are clamped to [ACCURACY_CLAMP, 1 - ACCURACY_CLAMP]
# before conversion to probabilities; sampling noise can push the raw ratio past 1.
ACCURACY_CLAMP = 0.001


@dataclass(frozen=True)
class TripletAssignment:
    """Partner pair per source and the minimum pairwise overlap it attains."""

    partners: tuple
    min_overlaps: np.ndarray


def pairwise_moments(votes: VoteMatrix):
    """Conditional second moments and overlap fractions of source pairs.

    ``moments[a, b]`` is the mean of ``vote_a * vote_b`` over rows where
    both vote (nan when they never co-vote); ``overlaps[a, b]`` is the
    fraction of rows where both vote.
    """
    v = votes.votes.astype(np.float64)
    nz = (votes.votes != 0).astype(np.float64)
    prod = v.T @ v
    both = nz.T @ nz
    with np.errstate(invalid="ignore"):
        moments = np.where(both > 0, prod / np.maximum(both, 1.0), np.nan)
    return moments, both / votes.n


def min_overlap(votes: VoteMatrix) -> float:
    """Empirical minimal overlap: min_i max_{j != i} of pairwise support overlap."""
    if votes.m < 2:
        raise ValueError("min_overlap requires at least 2 sources")
    _, pair = pairwise_moments(votes)
    np.fill_diagonal(pair, -np.inf)
    return float(pair.max(axis=1).min())


def select_triplets(votes: VoteMatrix) -> TripletAssignment:
    """For each source, the partner pair maximizing the min pairwise overlap.

    Ties resolve to the lexicographically smallest (j, k).
    """
    m = votes.m
    if m < 3:
        raise DegeneracyError("triplet method requires >= 3 sources")
    _, ov = pairwise_moments(votes)
    partners = []
    best_vals = np.empty(m)
    for i in range(m):
        cand = np.minimum(np.minimum.outer(ov[i], ov[i]), ov)
        cand[i, :] = -np.inf
        cand[:, i] = -np.inf
        cand[np.tril_indices(m)] = -np.inf  # keep j < k only
        flat = int(np.argmax(cand))
        j, k = divmod(flat, m)
        if not cand[j, k] > 0.0:
            raise DegeneracyError(
                f"source {i}: no partner pair with all-positive pairwise overlap"
            )
        partners.append((j, k))
        best_vals[i] = cand[j, k]
    return TripletAssignment(tuple(partners), best_vals)


def estimate_accuracies(
    votes: VoteMatrix,
    prior: float,
    flip_sources: tuple = (),
) -> LabelModelParams:
    """Recover per-source accuracies from pairwise agreement moments.

    Accuracies adopt the better-than-random sign unless a source index is
    listed in ``flip_sources``.  Abstain rates are the empirical
    complement of coverage.
    """
    assignment = select_triplets(votes)
    moments, _ = pairwise_moments(votes)
    m = votes.m
    acc = np.empty(m)
    flip = set(int(i) for i in flip_sources)
    for i, (j, k) in enumerate(assignment.partners):
        denom = moments[j, k]
        if not np.isfinite(denom) or denom == 0.0:
            raise DegeneracyError(f"degenerate triplet for source {i}: E[l{j} l{k}] = 0")
        raw = np.sqrt(abs(moments[i, j] * moments[i, k] / denom))
        raw = min(max(raw, ACCURACY_CLAMP), 1.0 - ACCURACY_CLAMP)
        acc[i] = 0.5 * (1.0 - raw) if i in flip else 0.5 * (1.0 + raw)
    return LabelModelParams(acc, 1.0 - coverage(votes), float(prior))


def _logit(p: float) -> float:
    return float(np.log(p) - np.log1p(-p))


def _log_odds(rows: np.ndarray, params: LabelModelParams) -> np.ndarray:
    # log Pr(+1 | votes) - log Pr(-1 | votes); abstain factors cancel exactly
    w = np.log(params.accuracies) - np.log1p(-params.accuracies)
    return _logit(params.prior) + rows.astype(np.float64) @ w


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def posterior(vote_row, params: LabelModelParams) -> float:
    """Pr(label = +1 | one row of votes), accumulated in log space.

    An all-abstain row returns the prior exactly.
    """
    row = np.asarray(vote_row, dtype=np.int64)
    if row.ndim != 1 or row.shape[0] != params.m:
        raise ValueError(f"vote row must have length {params.m}, got shape {row.shape}")
    if not np.isin(row, (-1, 0, 1)).all():
        raise ValueError("vote row entries must lie in {-1, 0, +1}")
    if not row.any():
        return params.prior
    return float(_sigmoid(_log_odds(row[None, :], params))[0])


def _posteriors(votes: VoteMatrix, params: LabelModelParams) -> np.ndarray:
    q = _sigmoid(_log_odds(votes.votes, params))
    all_abstain = ~votes.votes.any(axis=1)
    q[all_abstain] = params.prior
    return q


def predict(votes: VoteMatrix, params: LabelModelParams):
    """Posteriors and hard labels for every row.

    Hard label is +1 iff the posterior exceeds 0.5; an exact 0.5 goes to
    +1 when the prior favors the positive class, else -1.
    """
    if votes.m != params.m:
        raise ValueError(f"votes have {votes.m} sources but params have {params.m}")
    q = _posteriors(votes, params)
    tie = 1 if params.prior >= 0.5 else -1
    hard = np.where(q > 0.5, 1, np.where(q < 0.5, -1, tie)).astype(np.int8)
    return q, LabelVector(hard)


def majority_vote(votes: VoteMatrix, prior: float) -> LabelVector:
    """Sign of the vote sum per row; zero sums break toward the prior."""
    s = votes.votes.astype(np.int64).sum(axis=1)
    tie = 1 if prior >= 0.5 else -1
    hard = np.where(s > 0, 1, np.where(s < 0, -1, tie)).astype(np.int8)
    return LabelVector(hard)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    n: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "n": self.n,
        }


def evaluate(predictions: LabelVector, gold: LabelVector) -> MetricsReport:
    """Accuracy, precision, recall, and F1 with +1 as the positive class.

    Zero-denominator precision/recall/F1 are reported as 0.
    """
    if predictions.n != gold.n:
        raise ValueError(f"predictions have {predictions.n} entries but gold has {gold.n}")
    p, g = predictions.labels, gold.labels
    tp = int(((p == 1) & (g == 1)).sum())
    fp = int(((p == 1) & (g == -1)).sum())
    fn = int(((p == -1) & (g == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(
        accuracy=float((p == g).mean()),
        precision=precision,
        recall=recall,
        f1=f1,
        n=gold.n,
    )


def _resolve_metric_name(name: str, dev_labels: LabelVector) -> str:
    if name != "auto":
        return name
    balance = float((dev_labels.labels == 1).mean())
    return "f1" if balance < 0.35 else "accuracy"
