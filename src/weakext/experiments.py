"""Synthetic planar tasks, radius sweeps, tuning, and (from ``label_model``) evaluation metrics.

The synthetic family draws points uniformly on the unit square, labels
them by an alternating checkerboard of ``cells x cells`` squares (or
spatially at random), and gives each source a random support on which it
votes the true label with a configured accuracy.  Supports and noise
draws come from per-purpose child seeds, so changing one source's
accuracy never moves any support, and the correct-vote coupling is
monotone in the accuracy.  Distances in this planar space are Euclidean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ._base import DEFAULT_PAIR_BUDGET
from .core import (
    DegeneracyError,
    EmbeddingSet,
    LabelVector,
    Metric,
    RadiusConfig,
    VoteMatrix,
    Weighting,
    _distinct,
    check_radius_grid,
    coverage,
)
from .extension import NeighborTable, neighbor_tables
from .label_model import MetricsReport, _resolve_metric_name, estimate_accuracies, evaluate, predict  # re-exports the first two

if TYPE_CHECKING:  # diagnostics loads only in the functions that use it
    from .diagnostics import LipschitzProfile

__all__ = [
    "SyntheticTask",
    "generate_checkerboard",
    "MetricsReport",
    "evaluate",
    "SweepResult",
    "sweep_radius",
    "TuneResult",
    "tune_shared_radius",
    "RefineResult",
    "refine_radii",
    "TheoryRadiusResult",
    "theory_guided_radius",
]


@dataclass(frozen=True)
class SyntheticTask:
    embeddings: EmbeddingSet
    gold: LabelVector
    votes: VoteMatrix
    seed: int
    layout: str
    cells: int
    accuracies: tuple
    support_fractions: tuple

    @property
    def metric(self) -> Metric:
        return Metric.EUCLIDEAN


def generate_checkerboard(
    n: int,
    cells: int,
    num_sources: int,
    accuracies,
    support_fractions,
    seed: int,
    layout: str = "checkerboard",
) -> SyntheticTask:
    """Planar task with checkerboard (or spatially random) gold labels.

    A cell whose coordinate sum is even is positive.  Each source votes
    on a uniformly random subset of the configured fraction, agreeing
    with the gold label independently with its configured accuracy.
    """
    if n < 1 or cells < 1:
        raise ValueError("n and cells must be positive")
    if num_sources < 3:
        raise ValueError("synthetic tasks need at least 3 sources for the label model")
    if layout not in ("checkerboard", "random"):
        raise ValueError(f"unknown layout {layout!r}")
    accuracies = tuple(float(a) for a in accuracies)
    support_fractions = tuple(float(p) for p in support_fractions)
    if len(accuracies) != num_sources or len(support_fractions) != num_sources:
        raise ValueError("accuracies and support_fractions must have one entry per source")
    if any(not 0.0 <= a <= 1.0 for a in accuracies):
        raise ValueError("accuracies must lie in [0, 1]")
    if any(not 0.0 <= p <= 1.0 for p in support_fractions):
        raise ValueError("support fractions must lie in [0, 1]")

    # independent streams: changing the layout or accuracies never moves
    # the points or the supports
    s_points, s_labels, s_support, s_noise = np.random.SeedSequence(seed).spawn(4)
    points = np.random.default_rng(s_points).uniform(size=(n, 2))
    if layout == "checkerboard":
        cell = np.minimum((points * cells).astype(np.int64), cells - 1)
        gold = np.where((cell.sum(axis=1) % 2) == 0, 1, -1).astype(np.int8)
    else:
        gold = np.where(np.random.default_rng(s_labels).random(n) < 0.5, 1, -1).astype(np.int8)

    rng_support = np.random.default_rng(s_support)
    rng_noise = np.random.default_rng(s_noise)
    votes = np.zeros((n, num_sources), dtype=np.int8)
    for j in range(num_sources):
        size = int(round(support_fractions[j] * n))
        idx = rng_support.choice(n, size=size, replace=False)
        correct = rng_noise.random(size) < accuracies[j]
        votes[idx, j] = np.where(correct, gold[idx], -gold[idx])

    return SyntheticTask(
        embeddings=EmbeddingSet(points),
        gold=LabelVector(gold),
        votes=VoteMatrix(votes),
        seed=seed,
        layout=layout,
        cells=cells,
        accuracies=accuracies,
        support_fractions=support_fractions,
    )


# ---------------------------------------------------------------------------
# Radius sweeps


@dataclass(frozen=True)
class SweepResult:
    """Per-radius coverage, metric, lift, and plug-in lift bound."""

    source: int
    radii: np.ndarray
    coverage: np.ndarray
    metric_values: np.ndarray
    lift: np.ndarray
    bound: np.ndarray | None
    base_metric: float
    weighting: Weighting
    metric_name: str = "accuracy"
    profile: LipschitzProfile | None = None
    extended_accuracy: np.ndarray | None = None
    new_region_accuracy: np.ndarray | None = None

    def to_csv(self, path) -> None:
        """Write (radius, coverage, metric, lift, bound) rows for plotting."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("radius,coverage,metric,lift,bound\n")
            for k in range(self.radii.size):
                b = self.bound[k] if self.bound is not None else None
                cells = [self.radii[k], self.coverage[k], self.metric_values[k], self.lift[k], b]
                fh.write(",".join("" if c is None or not np.isfinite(c) else repr(float(c))
                                  for c in cells))
                fh.write("\n")


def sweep_radius(
    task: SyntheticTask,
    source: int,
    radii,
    prior: float = 0.5,
    weighting: Weighting = Weighting.THRESHOLDED_WEIGHTED_SUM,
    compute_bound: bool = True,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    profile_seed: int = 0,
    threads: int | None = None,
    table: NeighborTable | None = None,
    on_degenerate: str = "raise",
) -> SweepResult:
    """Extend one source over a radius grid, refitting the model each time.

    Records the extended coverage of that source, the label model's
    accuracy against the task's gold labels, the lift over the
    unextended baseline, and the plug-in lift lower bound with the
    per-radius measured accuracies plugged in.

    The default weighting is the uniformly weighted sum: past the peak
    it averages over dissimilar regions and degrades, which is the
    over-extension regime this sweep studies (a 1-nearest-neighbor
    extension saturates once the radius exceeds the support's covering
    distance).

    The extended columns are read from one ``neighbor_tables`` table of
    ``source`` over ``radii``, scanned here unless ``table`` is given.  A
    given table must have the task's queries, support, grid and weighting
    (else ``ValueError``) and is read as the task's ``source``, so one
    scan of a vote matrix stacking the source columns of several tasks
    that share points and supports serves every task's sweep; its support
    votes must be the task's.

    Deep in the over-extension regime an agreement moment can hit an
    exact zero, where accuracy recovery degenerates at that radius;
    ``on_degenerate="skip"`` reports nan for such radii instead of
    raising.
    """
    from .diagnostics import _region_accuracies, estimate_profile, leave_one_out_constant, lift_bound_curve

    if on_degenerate not in ("raise", "skip"):
        raise ValueError(f"on_degenerate must be 'raise' or 'skip', got {on_degenerate!r}")
    radii = np.asarray(radii, dtype=np.float64)
    emb, votes, gold = task.embeddings, task.votes, task.gold
    if not 0 <= source < votes.m:
        raise ValueError(f"source {source} out of range for {votes.m} sources")
    weighting = Weighting(weighting)

    base_params = estimate_accuracies(votes, prior)
    base_post, base_pred = predict(votes, base_params)
    base_metric = evaluate(base_pred, gold).accuracy

    if table is None:
        table = neighbor_tables(emb, votes, {source: radii}, weighting, task.metric, threads)[source]
    elif not (
        table.weighting is weighting
        and np.array_equal(table.radii, _distinct(radii))
        and np.array_equal(table.queries, np.flatnonzero(votes.votes[:, source] == 0))
        and np.array_equal(table.support, votes.support(source))
    ):
        raise ValueError("table does not match this task's queries, support, radius grid and weighting")
    else:
        table = replace(table, source=source)

    cov = np.empty(radii.size)
    met = np.empty(radii.size)
    a_bar = np.empty(radii.size)
    a_new = np.empty(radii.size)
    work = np.array(votes.votes, copy=True)
    for k, r in enumerate(radii):
        col = table.column(votes, float(r))
        work[:, source] = col
        vm = VoteMatrix(work)
        cov[k] = (col != 0).mean()
        try:
            params = estimate_accuracies(vm, prior)
            _, pred = predict(vm, params)
            met[k] = evaluate(pred, gold).accuracy
        except DegeneracyError:
            if on_degenerate == "raise":
                raise
            met[k] = np.nan
        a_bar[k], a_new[k] = _region_accuracies(col, votes.votes[:, source], gold.labels)

    bound = None
    profile = None
    if compute_bound:
        profile = estimate_profile(
            emb, radii, votes=votes, labels=gold, budget=pair_budget,
            seed=profile_seed, metric=task.metric,
        )
        c_const = leave_one_out_constant(votes, base_params, gold, source)
        p_j = float(coverage(votes)[source])
        bound = lift_bound_curve(
            profile, source, float(base_params.accuracies[source]), p_j, c_const,
            extended_accuracy_curve=a_bar, new_region_accuracy_curve=a_new,
        )
    return SweepResult(
        source=source,
        radii=radii,
        coverage=cov,
        metric_values=met,
        lift=met - base_metric,
        bound=bound,
        base_metric=base_metric,
        weighting=weighting,
        profile=profile,
        extended_accuracy=a_bar,
        new_region_accuracy=a_new,
    )


# ---------------------------------------------------------------------------
# Radius tuning on a labeled dev set


def _extendable(votes: VoteMatrix) -> list:
    """Sources with both votes and abstains: the only ones extension can change."""
    return [j for j in range(votes.m) if (votes.votes[:, j] == 0).any() and (votes.votes[:, j] != 0).any()]


def _dev_metric(pred: LabelVector, dev_labels: LabelVector, name: str) -> float:
    head = LabelVector(pred.labels[: dev_labels.n])
    rep = evaluate(head, dev_labels)
    return rep.f1 if name == "f1" else rep.accuracy


@dataclass(frozen=True)
class TuneResult:
    radius: float
    metric_name: str
    metric_value: float
    radii: np.ndarray | None
    metric_curve: np.ndarray | None
    note: str | None = None


def tune_shared_radius(
    emb: EmbeddingSet,
    votes: VoteMatrix,
    dev_labels: LabelVector,
    prior: float,
    radii,
    metric: Metric = Metric.COSINE,
    weighting: Weighting = Weighting.ONE_NEAREST_NEIGHBOR,
    tune_metric: str = "auto",
    threads: int | None = None,
) -> TuneResult:
    """Grid-search one shared radius for the extend-fit-predict pipeline.

    Maximizes the dev metric; ties resolve toward the smaller radius.
    Sources with full coverage have nothing to extend, so if every
    source is fully covered the search is skipped.
    """
    radii = check_radius_grid(radii)
    if dev_labels.n == 0 or dev_labels.n > votes.n:
        raise ValueError("dev labels must cover a nonempty prefix of the dataset")
    name = _resolve_metric_name(tune_metric, dev_labels)
    weighting = Weighting(weighting)

    extendable = _extendable(votes)
    evaluate_radii = _make_pipeline_evaluator(
        emb, votes, dev_labels, prior, name, metric, weighting, {j: radii for j in extendable}, threads
    )
    if not extendable:
        return TuneResult(
            radius=0.0,
            metric_name=name,
            metric_value=evaluate_radii({}),
            radii=None,
            metric_curve=None,
            note="no abstains to extend",
        )
    curve = np.array([evaluate_radii({j: float(r) for j in extendable}) for r in radii])
    best = int(np.argmax(curve))  # first max = smallest radius on ties
    return TuneResult(
        radius=float(radii[best]),
        metric_name=name,
        metric_value=float(curve[best]),
        radii=radii,
        metric_curve=curve,
    )


def _make_pipeline_evaluator(emb, votes, dev_labels, prior, name, metric, weighting, grids, threads):
    """Dev-metric evaluator for per-source radii on their grids, one scan per source."""
    tables = neighbor_tables(emb, votes, grids, weighting, metric, threads)
    work = np.array(votes.votes, copy=True)

    def run(radii_by_source: dict) -> float:
        for j, table in tables.items():
            work[:, j] = table.column(votes, radii_by_source[j])
        vm = VoteMatrix(work)
        params = estimate_accuracies(vm, prior)
        _, pred = predict(vm, params)
        return _dev_metric(pred, dev_labels, name)

    return run


@dataclass(frozen=True)
class RefineResult:
    config: RadiusConfig
    metric_name: str
    metric_value: float
    passes: int


def default_local_grid(r_star: float) -> np.ndarray:
    """Per-coordinate search grid around a shared radius."""
    return _distinct(r_star * np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]))


def refine_radii(
    emb: EmbeddingSet,
    votes: VoteMatrix,
    dev_labels: LabelVector,
    prior: float,
    r_star: float,
    local_grids=None,
    passes: int = 1,
    metric: Metric = Metric.COSINE,
    weighting: Weighting = Weighting.ONE_NEAREST_NEIGHBOR,
    tune_metric: str = "auto",
    threads: int | None = None,
) -> RefineResult:
    """Per-coordinate descent over source radii starting from a shared value.

    Sources in fixed index order, one pass by default; each coordinate
    keeps its current radius among the candidates, so the dev metric
    never decreases.  Full-coverage sources are pinned to radius 0.
    """
    if passes < 1:
        raise ValueError("passes must be at least 1")
    name = _resolve_metric_name(tune_metric, dev_labels)
    weighting = Weighting(weighting)
    extendable = _extendable(votes)
    current = {j: float(r_star) for j in extendable}
    if local_grids is None:
        local_grids = {j: default_local_grid(float(r_star)) for j in extendable}
    elif not isinstance(local_grids, dict):
        local_grids = {j: np.asarray(g, dtype=np.float64) for j, g in zip(extendable, local_grids)}
    # every radius a coordinate can take is known up front
    grids = {j: np.append(local_grids[j], r_star) for j in extendable}
    run = _make_pipeline_evaluator(emb, votes, dev_labels, prior, name, metric, weighting, grids, threads)
    best_val = run(current)

    for _ in range(passes):
        for j in extendable:
            candidates = _distinct(np.append(np.asarray(local_grids[j], dtype=np.float64), current[j]))
            for r in candidates:  # ascending: ties keep the smaller radius
                if r == current[j]:
                    continue
                trial = dict(current)
                trial[j] = float(r)
                val = run(trial)
                if val > best_val or (val == best_val and r < current[j]):
                    best_val = val
                    current = trial

    radii = np.zeros(votes.m)
    for j, r in current.items():
        radii[j] = r
    return RefineResult(
        config=RadiusConfig(radii, weighting),
        metric_name=name,
        metric_value=float(best_val),
        passes=passes,
    )


@dataclass(frozen=True)
class TheoryRadiusResult:
    radius: float
    informative: bool
    bounds: np.ndarray


def theory_guided_radius(
    profile: LipschitzProfile,
    source: int,
    accuracy: float,
    support_fraction: float,
    other_sources_constant: float,
    extended_accuracy_curve=None,
    new_region_accuracy_curve=None,
) -> TheoryRadiusResult:
    """Radius maximizing the plug-in lift lower bound.

    Accuracy plug-ins follow ``lift_bound_curve``: measured curves when
    supplied, chained lower bounds otherwise.  Returns radius 0 flagged
    non-informative when the bound is nowhere positive.
    """
    from .diagnostics import lift_bound_curve

    bounds = lift_bound_curve(
        profile, source, accuracy, support_fraction, other_sources_constant,
        extended_accuracy_curve=extended_accuracy_curve,
        new_region_accuracy_curve=new_region_accuracy_curve,
    )
    best = int(np.argmax(bounds))
    if bounds[best] <= 0.0:
        return TheoryRadiusResult(radius=0.0, informative=False, bounds=bounds)
    return TheoryRadiusResult(radius=float(profile.radii[best]), informative=True, bounds=bounds)
