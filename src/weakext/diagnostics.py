"""Smoothness estimation and risk-bound evaluation.

Empirical profiles estimate, over sampled point pairs within a radius
grid, how often the task label disagrees (label smoothness), how often a
source's voting indicator disagrees (its reach beyond its support), and
what fraction of pairs falls within each radius.  The bound functions
evaluate the closed-form expressions that tie those rates to extended
source accuracy, generalization lift, parameter estimation error, and
ensemble risk; ``diagnose`` extends a dataset's votes, runs all of them
against it and emits a JSON-ready report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from ._base import DEFAULT_PAIR_BUDGET
from .core import (
    DegeneracyError,
    EmbeddingSet,
    LabelModelParams,
    LabelVector,
    Metric,
    RadiusConfig,
    VoteMatrix,
    Weighting,
    check_radius_grid,
    paired_distances,
)
from .extension import NeighborTable, extend_from_tables, extend_votes, neighbor_tables
from .label_model import estimate_accuracies, min_overlap, pairwise_moments, predict, select_triplets

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "default_radius_grid",
    "LipschitzProfile",
    "estimate_profile",
    "extended_accuracy_lower_bound",
    "new_region_accuracy_lower_bound",
    "generalization_lift_lower_bound",
    "EstimationBoundInputs",
    "estimation_error_bound",
    "label_smoothness_bound",
    "extended_source_risk_bound",
    "ensemble_risk_bound",
    "other_sources_constant",
    "leave_one_out_constant",
    "measured_accuracy_curves",
    "lift_bound_curve",
    "DiagnosticsReport",
    "diagnose",
]


def default_radius_grid(lo: float = 0.01, hi: float = 1.0, size: int = 32) -> np.ndarray:
    """Log-spaced radius grid covering the useful cosine-distance range."""
    return np.geomspace(lo, hi, size)


@dataclass(frozen=True)
class LipschitzProfile:
    """Pairwise disagreement rates per radius.

    ``pair_fraction[k]`` is the share of sampled pairs within ``radii[k]``;
    ``label_disagreement`` and per-source ``support_disagreement`` are the
    conditional disagreement rates among those pairs (nan where no pair is
    that close).  Label rates may come from a smaller labeled subset and
    then carry their own pair counts.
    """

    radii: np.ndarray
    metric: Metric
    seed: int
    pairs_sampled: int
    exhaustive: bool
    pair_count: np.ndarray
    pair_fraction: np.ndarray
    support_disagreement: np.ndarray | None = None  # (m, K)
    label_disagreement: np.ndarray | None = None  # (K,)
    label_pair_count: np.ndarray | None = None
    label_pairs_sampled: int = 0
    label_exhaustive: bool = False

    def value_at(self, series: np.ndarray, radius: float) -> float:
        """Value at the largest grid radius <= ``radius`` (0.0 below grid)."""
        k = int(np.searchsorted(self.radii, radius, side="right")) - 1
        if k < 0:
            return 0.0
        v = float(series[k])
        return v if np.isfinite(v) else 0.0


_PAIR_CHUNK = 2**14  # pairs drawn, measured and binned at a time (about 1 MB of scratch)


def _pair_chunks(n: int, budget: int, seed: int):
    """The pair sample over ``n`` points, in chunks of at most ``_PAIR_CHUNK`` pairs.

    Every unordered pair once, row by row, when there are at most
    ``budget``; otherwise ``budget`` seeded draws of ordered pairs of
    distinct points: all first points from ``default_rng(seed)``, then all
    second points from the same stream.  A second generator skips the
    first points' draws, so the chunks join into the same two arrays as
    one draw of each (bounded draws form one stream across calls).
    """
    total = n * (n - 1) // 2
    count = min(total, budget)

    def sizes():
        return (min(_PAIR_CHUNK, count - s) for s in range(0, count, _PAIR_CHUNK))

    if total <= budget:
        i, j = 0, 1  # the next pair
        for size in sizes():
            a, b = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
            k = 0
            while k < size:
                take = min(size - k, n - j)
                a[k : k + take] = i
                b[k : k + take] = np.arange(j, j + take)
                k += take
                i, j = (i + 1, i + 2) if j + take == n else (i, j + take)
            yield a, b
        return
    firsts, seconds = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes():
        seconds.integers(0, n, size=size, dtype=np.int64)
    for size in sizes():
        a = firsts.integers(0, n, size=size, dtype=np.int64)
        b = seconds.integers(0, n - 1, size=size, dtype=np.int64)
        b += b >= a
        yield a, b


def _disagreement_counts(emb, keys, radii, budget, seed, metric):
    """Bin the pair sample over the first ``keys.shape[1]`` points by distance, in one streamed pass.

    Returns the number of pairs, whether they are every pair, the pairs
    within each grid radius and, per row of ``keys``, the pairs within
    each radius whose two keys differ: integer totals, whatever the chunk.
    """
    n = keys.shape[1]
    total = n * (n - 1) // 2
    hist = np.zeros(radii.size + 1, dtype=np.int64)
    flagged = np.zeros((keys.shape[0], radii.size + 1), dtype=np.int64)
    for a, b in _pair_chunks(n, budget, seed):
        # each pair's bin: the first grid radius it lies within (radii.size: beyond all)
        bins = np.searchsorted(radii, paired_distances(emb, a, b, metric), side="left")
        hist += np.bincount(bins, minlength=radii.size + 1)
        for row, differ in zip(flagged, keys[:, a] != keys[:, b]):
            row += np.bincount(bins[differ], minlength=radii.size + 1)
    within = np.cumsum(hist[:-1])
    return min(total, budget), total <= budget, within, np.cumsum(flagged[:, :-1], axis=1)


def _rates(flagged, within):
    """Disagreement rate among pairs within each radius; nan when empty."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(within > 0, flagged / np.maximum(within, 1), np.nan)


def estimate_profile(
    emb: EmbeddingSet,
    radii,
    votes: VoteMatrix | None = None,
    labels: LabelVector | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
    metric: Metric = Metric.COSINE,
) -> LipschitzProfile:
    """Estimate disagreement rates over sampled unordered point pairs.

    Support-indicator rates are measured per source when ``votes`` is
    given.  Label rates are measured when ``labels`` is given; a label
    vector shorter than the dataset refers to the first ``len(labels)``
    points and gets its own pair sample over that prefix.  Pairs are
    drawn, measured and counted ``_PAIR_CHUNK`` at a time, so memory does
    not grow with ``budget``.
    """
    radii = check_radius_grid(radii)
    if budget < 1:
        raise ValueError("pair budget must be positive")
    metric = Metric(metric)
    if votes is not None and votes.n != emb.n:
        raise ValueError(f"votes have {votes.n} rows but embeddings have {emb.n}")
    if labels is not None:
        if labels.n > emb.n:
            raise ValueError(f"labels cover {labels.n} points but embeddings have {emb.n}")
        if labels.n < 2:
            raise ValueError("label disagreement needs at least 2 labeled points")
    shared = labels is not None and labels.n == emb.n  # label flags come from the same pairs

    keys = [np.empty((0, emb.n), dtype=np.int8)]  # one row per compared column
    if votes is not None:
        keys.append((votes.votes != 0).T)
    if shared:
        keys.append(labels.labels[None, :])
    pairs, exhaustive, cuts, flagged = _disagreement_counts(
        emb, np.concatenate(keys, dtype=np.int8), radii, budget, seed, metric
    )

    label = {}
    if labels is not None:
        if shared:
            sampled, exh, counts, flags = pairs, exhaustive, cuts, flagged[-1]
        else:
            sampled, exh, counts, (flags,) = _disagreement_counts(
                emb, labels.labels[None, :], radii, budget, seed + 1, metric
            )
        label = dict(
            label_disagreement=_rates(flags, counts),
            label_pair_count=counts,
            label_pairs_sampled=sampled,
            label_exhaustive=exh,
        )

    return LipschitzProfile(
        radii=radii,
        metric=metric,
        seed=seed,
        pairs_sampled=pairs,
        exhaustive=exhaustive,
        pair_count=cuts,
        pair_fraction=cuts / pairs,
        support_disagreement=_rates(flagged[: votes.m], cuts) if votes is not None else None,
        **label,
    )


# ---------------------------------------------------------------------------
# Bound expressions


def _check_unit(name, value, lo=0.0, hi=1.0):
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


def extended_accuracy_lower_bound(
    accuracy: float,
    label_disagreement: float,
    support_fraction: float,
    support_disagreement: float,
    pair_fraction: float,
) -> float:
    """Lower bound on a source's accuracy after radius extension.

    Equals ``accuracy`` when labels never disagree within the radius; a
    coin-flip source (accuracy 0.5) is unaffected.
    """
    _check_unit("accuracy", accuracy)
    _check_unit("label_disagreement", label_disagreement)
    _check_unit("support_fraction", support_fraction)
    _check_unit("support_disagreement", support_disagreement)
    _check_unit("pair_fraction", pair_fraction)
    if support_fraction == 0.0:
        raise ValueError("support fraction must be positive")
    penalty = label_disagreement / (support_fraction**2 * (1.0 + support_disagreement * pair_fraction))
    return accuracy - (2.0 * accuracy - 1.0) * penalty


def new_region_accuracy_lower_bound(
    accuracy: float,
    extended_accuracy: float,
    label_disagreement: float,
    support_fraction: float,
    support_disagreement: float,
    pair_fraction: float,
) -> float:
    """Lower bound on accuracy over the newly labeled region only."""
    _check_unit("accuracy", accuracy)
    _check_unit("support_fraction", support_fraction)
    if support_fraction == 0.0:
        raise ValueError("support fraction must be positive")
    growth = support_disagreement * pair_fraction
    if growth == 0.0:
        raise ValueError("newly labeled region has zero mass at this radius")
    penalty = label_disagreement / (growth * support_fraction**2 * (1.0 + growth))
    return extended_accuracy - (2.0 * accuracy - 1.0) * penalty


def generalization_lift_lower_bound(
    support_disagreement: float,
    pair_fraction: float,
    support_fraction: float,
    new_region_accuracy: float,
    extended_accuracy: float,
    other_sources_constant: float,
) -> float:
    """Lower bound on the risk reduction from extending one source.

    May be negative, in which case the bound is non-informative at this
    radius.
    """
    for name, v in (
        ("support_disagreement", support_disagreement),
        ("pair_fraction", pair_fraction),
        ("support_fraction", support_fraction),
        ("new_region_accuracy", new_region_accuracy),
        ("extended_accuracy", extended_accuracy),
        ("other_sources_constant", other_sources_constant),
    ):
        _check_unit(name, v)
    agree = new_region_accuracy * extended_accuracy + (1.0 - new_region_accuracy) * (1.0 - extended_accuracy)
    c = other_sources_constant
    return support_disagreement * pair_fraction * support_fraction * (0.5 * (c + 1.0) * agree - c)


@dataclass(frozen=True)
class EstimationBoundInputs:
    """Constants entering the accuracy-estimation error bound.

    ``correlation_floor`` lower-bounds the moment-scale accuracies,
    ``moment_floor`` the pairwise agreement moments, ``min_pattern_prob``
    the probability of the rarest observed vote pattern, and
    ``mean_posterior`` is the average positive-class posterior.
    """

    n: int
    num_sources: int
    min_overlap: float
    correlation_floor: float
    moment_floor: float
    mean_posterior: float
    min_pattern_prob: float
    delta: float
    min_support_disagreement: float = 0.0
    min_pair_fraction: float = 0.0

    def epsilon_n(self) -> float:
        return float(np.sqrt(np.log(2.0 / self.delta) / (2.0 * self.n)))


def estimation_error_bound(inputs: EstimationBoundInputs, extended: bool = False) -> float:
    """High-probability bound on the label-model risk estimation error.

    The extended variant credits the overlap gained by extension through
    the minimum support-disagreement rate; at rate 0 it coincides with
    the unextended bound.
    """
    if inputs.n < 1 or inputs.num_sources < 1:
        raise ValueError("n and num_sources must be positive")
    if not (0.0 < inputs.delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {inputs.delta}")
    for name, v in (
        ("min_overlap", inputs.min_overlap),
        ("correlation_floor", inputs.correlation_floor),
        ("moment_floor", inputs.moment_floor),
    ):
        if v <= 0.0:
            raise ValueError(f"{name} must be positive, got {v}")
    eps = inputs.epsilon_n()
    if inputs.min_pattern_prob <= eps:
        raise DegeneracyError(
            f"bound vacuous at this n, delta: min pattern probability "
            f"{inputs.min_pattern_prob} <= epsilon_n {eps}"
        )
    growth = 1.0
    if extended:
        l_min = inputs.min_support_disagreement
        growth = 1.0 + (2.0 * l_min - l_min**2) * inputs.min_pair_fraction
    lead = 81.0 * np.sqrt(np.pi) / (2.0 * inputs.correlation_floor * inputs.moment_floor**2)
    sampling = lead * inputs.num_sources / np.sqrt(inputs.n * inputs.min_overlap * growth)
    return float((sampling + eps * inputs.mean_posterior) / (inputs.min_pattern_prob - eps))


def label_smoothness_bound(model_disagreement: float, model_risk: float) -> float:
    """Label smoothness inherited from an embedding-based model."""
    _check_unit("model_disagreement", model_disagreement)
    _check_unit("model_risk", model_risk)
    return min(model_disagreement + 2.0 * model_risk, 1.0)


def extended_source_risk_bound(
    accuracy: float,
    model_disagreement: float,
    model_risk: float,
    support_fraction: float,
    support_disagreement: float,
    pair_fraction: float,
) -> float:
    """Risk bound for one source extended to cover the whole space."""
    _check_unit("accuracy", accuracy)
    _check_unit("model_disagreement", model_disagreement)
    _check_unit("model_risk", model_risk)
    _check_unit("support_fraction", support_fraction)
    _check_unit("support_disagreement", support_disagreement)
    _check_unit("pair_fraction", pair_fraction)
    if support_fraction == 0.0:
        raise ValueError("support fraction must be positive")
    smooth = model_disagreement + 2.0 * model_risk
    return 1.0 - accuracy + (2.0 * accuracy - 1.0) * smooth / (
        support_fraction**2 * (1.0 + support_disagreement * pair_fraction)
    )


def ensemble_risk_bound(source_bounds, weights, prior: float, uncovered_mass: float) -> float:
    """Risk bound for the ensemble of extended sources.

    ``source_bounds`` are per-source risk-bound terms, ``weights`` the
    probability mass of each source's region; together with
    ``uncovered_mass`` the weights must sum to 1.
    """
    source_bounds = np.asarray(source_bounds, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if source_bounds.shape != weights.shape:
        raise ValueError("source_bounds and weights must have the same length")
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")
    _check_unit("uncovered_mass", uncovered_mass)
    if not (0.0 < prior < 1.0):
        raise ValueError(f"prior must lie strictly in (0, 1), got {prior}")
    total = float(weights.sum()) + uncovered_mass
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights plus uncovered mass must sum to 1, got {total}")
    odds = max(prior / (1.0 - prior), (1.0 - prior) / prior)
    return float(2.0 * odds * np.dot(weights, source_bounds) + 2.0 * uncovered_mass * prior * (1.0 - prior))


# ---------------------------------------------------------------------------
# Plug-in estimation helpers


def other_sources_constant(posteriors, labels: LabelVector) -> float:
    """Average posterior among confidently-positive, truly-positive points.

    Falls back to the neutral 0.5 when no labeled point qualifies.
    """
    q = np.asarray(posteriors, dtype=np.float64)
    sel = (q >= 0.5) & (labels.labels == 1)
    if not sel.any():
        return 0.5
    return float(q[sel].mean())


def leave_one_out_constant(
    votes: VoteMatrix, params: LabelModelParams, labels: LabelVector, source: int
) -> float:
    """Competing-sources constant for one source's lift bound.

    The bound compares the extended source against the posterior formed
    by the remaining sources alone, so the constant averages that
    leave-one-out posterior over its confident, truly-positive region.
    """
    keep = [j for j in range(votes.m) if j != source]
    if not keep:
        return 0.5
    rest = VoteMatrix(votes.votes[: labels.n, keep])
    rest_params = LabelModelParams(
        params.accuracies[keep], params.abstain_rates[keep], params.prior
    )
    q, _ = predict(rest, rest_params)
    return other_sources_constant(q, labels)


def curves_cap(grid) -> float:
    """The cap a 1nn table needs for accuracy curves at ``grid``: its largest finite radius (inf: the largest float), at least 0."""
    return float(np.fmax.reduce(np.minimum(grid, np.finfo(np.float64).max), initial=0.0))


def _region_accuracies(col, base, labels) -> tuple:
    """``(extended, new_region)`` accuracy of extended column ``col`` on the prefix ``labels`` covers.

    The new region is where ``col`` votes and the source's own ``base`` does not; nan where a region is empty.
    """
    nd = labels.shape[0]
    voted, right = col[:nd] != 0, col[:nd] == labels
    return tuple(float(right[m].mean()) if m.any() else np.nan for m in (voted, voted & (base[:nd] == 0)))


def measured_accuracy_curves(
    table: NeighborTable,
    votes: VoteMatrix,
    dev_labels: LabelVector,
    radii,
):
    """Extended and new-region accuracy of one source at every radius.

    ``table`` is the source's 1nn ``NeighborTable``, whose cap must hold
    every radius (else ``ValueError``).  Measured on the labeled
    prefix under 1-nearest-neighbor extension; nan where no labeled point
    is reached.  Returns ``(extended_accuracy, new_region_accuracy)``
    arrays over ``radii``.
    """
    if table.weighting is not Weighting.ONE_NEAREST_NEIGHBOR:
        raise ValueError("accuracy curves read a 1nn table")
    source = table.source
    radii = np.minimum(np.asarray(radii, dtype=np.float64), np.finfo(np.float64).max)  # every distance is finite
    if radii.size and (not table.radii.size or radii.max() > table.radii[-1]):
        raise ValueError(f"radii beyond the cap {table.radii[-1:]} of source {source}'s table")
    nd = dev_labels.n
    col = votes.votes[:nd, source]
    voted = col != 0
    base_correct = int((col[voted] == dev_labels.labels[voted]).sum())
    base_count = int(voted.sum())

    queries, dist, nearest = table.queries, table.best_dist, table.best_col
    in_dev = queries < nd
    dq, dd = queries[in_dev], dist[in_dev]
    nv = votes.votes[np.minimum(nearest[in_dev], votes.n - 1), source]
    correct = (nv == dev_labels.labels[dq]).astype(np.int64)
    order = np.argsort(dd, kind="stable")
    dd_sorted = dd[order]
    csum = np.concatenate([[0], np.cumsum(correct[order])])
    cuts = np.searchsorted(dd_sorted, radii, side="right")

    a_new = np.full(radii.size, np.nan)
    a_bar = np.full(radii.size, np.nan)
    nz = cuts > 0
    a_new[nz] = csum[cuts[nz]] / cuts[nz]
    denom = base_count + cuts
    ok = denom > 0
    a_bar[ok] = (base_correct + csum[cuts[ok]]) / denom[ok]
    return a_bar, a_new


def lift_bound_curve(
    profile: LipschitzProfile,
    source: int,
    accuracy: float,
    support_fraction: float,
    other_sources_constant: float,
    extended_accuracy_curve=None,
    new_region_accuracy_curve=None,
) -> np.ndarray:
    """Plug-in lift lower bound at every profile radius for one source.

    Radii with no sampled pairs, or where the source's support indicator
    never disagrees, yield exactly 0.  Accuracies plug in from measured
    curves when given (preferring direct dev-set measurement); otherwise
    they come from the chained lower bounds, floored at coin-flip where
    those become vacuous and the lift expression leaves its monotone
    regime.
    """
    if profile.label_disagreement is None:
        raise ValueError("profile carries no label disagreement rates")
    if profile.support_disagreement is None:
        raise ValueError("profile carries no support disagreement rates")
    measured = extended_accuracy_curve is not None or new_region_accuracy_curve is not None
    out = np.zeros(profile.radii.size)
    for k in range(profile.radii.size):
        l_r = profile.support_disagreement[source, k]
        m_r = profile.label_disagreement[k]
        p_d = profile.pair_fraction[k]
        if not np.isfinite(l_r) or not np.isfinite(m_r) or l_r <= 0.0 or p_d <= 0.0:
            continue
        if measured:
            a_bar = extended_accuracy_curve[k] if extended_accuracy_curve is not None else np.nan
            a_new = new_region_accuracy_curve[k] if new_region_accuracy_curve is not None else a_bar
            if not (np.isfinite(a_bar) and np.isfinite(a_new)):
                continue  # no labeled point reached: no claim at this radius
            a_bar = min(max(float(a_bar), 0.0), 1.0)
            a_new = min(max(float(a_new), 0.0), 1.0)
        else:
            a_bar = extended_accuracy_lower_bound(accuracy, m_r, support_fraction, l_r, p_d)
            a_bar = min(max(a_bar, 0.5), 1.0)
            a_new = new_region_accuracy_lower_bound(accuracy, a_bar, m_r, support_fraction, l_r, p_d)
            a_new = min(max(a_new, 0.5), 1.0)
        out[k] = generalization_lift_lower_bound(
            l_r, p_d, support_fraction, a_new, a_bar, other_sources_constant
        )
    return out


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass(frozen=True)
class DiagnosticsReport:
    data: dict

    def to_dict(self) -> dict:
        return self.data


def _nan_to_none(x):
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        return [_nan_to_none(v) for v in x.tolist()]
    if isinstance(x, (float, np.floating)):
        return float(x) if np.isfinite(x) else None
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x


def _pattern_floor(votes: VoteMatrix) -> float:
    """Share of the rarest vote pattern: each row is read as one ``m``-byte key."""
    rows = np.ascontiguousarray(votes.votes).view(np.dtype((np.void, votes.m)))
    _, counts = np.unique(rows.ravel(), return_counts=True)
    return float(counts.min() / votes.n)


def _estimation_inputs(votes, params, posteriors, delta):
    moments, _ = pairwise_moments(votes)
    assignment = select_triplets(votes)
    used = sorted({p for i, (j, k) in enumerate(assignment.partners) for p in [(i, j), (i, k), (j, k)]})
    c1 = min(abs(moments[a, b]) for a, b in used)
    emin = float(np.min(np.abs(2.0 * params.accuracies - 1.0)))
    return EstimationBoundInputs(
        n=votes.n,
        num_sources=votes.m,
        min_overlap=min_overlap(votes),
        correlation_floor=emin,
        moment_floor=c1,
        mean_posterior=float(np.mean(posteriors)),
        min_pattern_prob=_pattern_floor(votes),
        delta=delta,
    )


def diagnose(
    emb: EmbeddingSet,
    votes: VoteMatrix,
    dev_labels: LabelVector | None,
    prior: float,
    config: RadiusConfig,
    *,
    metric: Metric = Metric.COSINE,
    radii=None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    seed: int = 0,
    delta: float = 0.05,
    model_smoothness: tuple | None = None,
    threads: int | None = None,
) -> DiagnosticsReport:
    """Extend ``votes`` by ``config``, then evaluate profiles, coverage deltas, and every bound.

    The label model is fitted at ``prior`` on the original votes and
    again on the extended ones.  Label smoothness comes from
    ``dev_labels`` (a prefix of the dataset) or, failing that, from a
    user-supplied ``(model_disagreement, model_risk)`` pair.  With dev
    labels, the measured accuracy curves read 1nn tables capped at
    ``curves_cap(radii)``: under 1nn one ``neighbor_tables`` call, each
    source capped at the larger of its radius and that cap, serves both
    the extension and the curves; under wsum the extension's scan is
    followed, after the profile, by one 1nn scan of every source with
    support at that cap.  Without dev labels only the extension scans.
    Every scan runs on ``threads`` workers.  The extension fails first,
    then the fit on the original votes, then the profile.
    """
    if dev_labels is None and model_smoothness is None:
        raise ValueError(
            "label disagreement rates require a labeled dev set or a "
            "(model_disagreement, model_risk) smoothness bound"
        )
    if config.radii.shape[0] != votes.m:
        raise ValueError(f"config has {config.radii.shape[0]} radii for {votes.m} sources")
    grid = np.asarray(radii, dtype=np.float64) if radii is not None else default_radius_grid()
    metric = Metric(metric)
    nn = Weighting.ONE_NEAREST_NEIGHBOR

    tables = None
    if dev_labels is not None and config.weighting is nn:
        grids = {j: [max(float(r), curves_cap(grid))] for j, r in enumerate(config.radii)}
        tables = neighbor_tables(emb, votes, grids, nn, metric, threads)
        extended, report = extend_from_tables(votes, config, tables)
    else:
        extended, report = extend_votes(emb, votes, config, metric, threads)
    params = estimate_accuracies(votes, prior)

    profile = estimate_profile(
        emb, grid, votes=votes, labels=dev_labels, budget=pair_budget, seed=seed, metric=metric
    )
    if profile.label_disagreement is None:
        m_dis, m_risk = model_smoothness
        smooth = label_smoothness_bound(float(m_dis), float(m_risk))
        profile = replace(
            profile,
            label_disagreement=np.full(grid.size, smooth),
            label_pair_count=np.full(grid.size, -1, dtype=np.int64),
        )

    cov_before, cov_after = report.original_coverage, report.extended_coverage
    base_post, _ = predict(votes, params)
    if dev_labels is not None and tables is None:
        grids = {j: [curves_cap(grid)] for j in range(votes.m) if cov_before[j] > 0}
        tables = neighbor_tables(emb, votes, grids, nn, metric, threads)

    per_source = []
    for j in range(votes.m):
        r = float(config.radii[j])
        a_j = float(params.accuracies[j])
        p_j = float(cov_before[j])
        c_j = leave_one_out_constant(votes, params, dev_labels, j) if dev_labels is not None else 0.5
        if p_j > 0:
            curves = {}
            if dev_labels is not None:
                a_bar_c, a_new_c = measured_accuracy_curves(tables[j], votes, dev_labels, grid)
                curves = {"extended_accuracy_curve": a_bar_c, "new_region_accuracy_curve": a_new_c}
            curve = lift_bound_curve(profile, j, a_j, p_j, c_j, **curves)
        else:
            curve = np.zeros(grid.size)
        best_k = int(np.argmax(curve))
        entry = {
            "source": j,
            "radius": r,
            "accuracy": a_j,
            "other_sources_constant": c_j,
            "support_fraction": p_j,
            "original_coverage": p_j,
            "extended_coverage": float(cov_after[j]),
            "newly_labeled_fraction": float(report.newly_labeled_fraction[j]),
            "lift_bound_curve": curve,
            "recommended_radius": float(grid[best_k]) if curve[best_k] > 0 else 0.0,
            "recommended_radius_informative": bool(curve[best_k] > 0),
        }
        if r > 0 and p_j > 0:
            l_r = profile.value_at(profile.support_disagreement[j], r)
            m_r = profile.value_at(profile.label_disagreement, r)
            p_d = profile.value_at(profile.pair_fraction, r)
            a_bar = extended_accuracy_lower_bound(a_j, m_r, p_j, l_r, p_d)
            k_r = int(np.searchsorted(grid, r, side="right")) - 1
            entry.update(
                {
                    "support_disagreement_at_radius": l_r,
                    "label_disagreement_at_radius": m_r,
                    "pair_fraction_at_radius": p_d,
                    "extended_accuracy_bound": a_bar,
                    "lift_bound_at_radius": float(curve[k_r]) if k_r >= 0 else 0.0,
                }
            )
        else:
            entry.update(
                {
                    "support_disagreement_at_radius": None,
                    "label_disagreement_at_radius": None,
                    "pair_fraction_at_radius": None,
                    "extended_accuracy_bound": None,
                    "lift_bound_at_radius": 0.0,
                }
            )
        entry["recommend_extension"] = bool(entry["lift_bound_at_radius"] > 0)
        if dev_labels is not None and r > 0:  # nan reads null once cleaned
            entry["measured_extended_accuracy"], entry["measured_new_region_accuracy"] = _region_accuracies(
                extended.votes[:, j], votes.votes[:, j], dev_labels.labels
            )
        per_source.append(entry)

    # estimation error constants, before and after extension
    estimation = {"delta": delta}
    try:
        inputs = _estimation_inputs(votes, params, base_post, delta)
        estimation["epsilon_n"] = inputs.epsilon_n()
        estimation["unextended_inputs"] = asdict(inputs)
        estimation["unextended"] = estimation_error_bound(inputs, extended=False)
    except DegeneracyError as exc:
        estimation["unextended"] = None
        estimation["vacuous"] = str(exc)
    except ValueError as exc:
        estimation["unextended"] = None
        estimation["error"] = str(exc)
    extended_radii = config.radii[config.radii > 0]
    r_min = float(extended_radii.min()) if extended_radii.size else 0.0
    l_min = 0.0
    if extended_radii.size and profile.support_disagreement is not None:
        vals = [
            profile.value_at(profile.support_disagreement[j], float(config.radii[j]))
            for j in range(votes.m)
            if config.radii[j] > 0
        ]
        l_min = min(vals) if vals else 0.0
    try:
        ext_params = estimate_accuracies(extended, params.prior)
        ext_post, _ = predict(extended, ext_params)
        ext_inputs = replace(
            _estimation_inputs(extended, ext_params, ext_post, delta),
            min_support_disagreement=l_min,
            min_pair_fraction=profile.value_at(profile.pair_fraction, r_min),
        )
        estimation["extended_inputs"] = asdict(ext_inputs)
        estimation["extended"] = estimation_error_bound(ext_inputs, extended=True)
    except DegeneracyError as exc:
        estimation["extended"] = None
        estimation.setdefault("vacuous", str(exc))
    except ValueError as exc:
        estimation["extended"] = None
        estimation.setdefault("error", str(exc))

    data = {
        "metric": metric.value,
        "seed": seed,
        "pair_budget": pair_budget,
        "pairs_sampled": profile.pairs_sampled,
        "exhaustive_pairs": profile.exhaustive,
        "radius_grid": grid,
        "weighting": config.weighting.value,
        "radii": config.radii,
        "profile": {
            "pair_fraction": profile.pair_fraction,
            "pair_count": profile.pair_count,
            "label_disagreement": profile.label_disagreement,
            "label_pair_count": profile.label_pair_count,
            "support_disagreement": profile.support_disagreement,
        },
        "coverage_before": cov_before,
        "coverage_after": cov_after,
        "min_overlap_before": report.min_overlap_before,
        "min_overlap_after": report.min_overlap_after,
        "prior": params.prior,
        "accuracies": params.accuracies,
        "abstain_rates": params.abstain_rates,
        "sources": per_source,
        "estimation_error": estimation,
    }
    return DiagnosticsReport(_deep_clean(data))


def _deep_clean(x):
    if isinstance(x, dict):
        return {k: _deep_clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_deep_clean(v) for v in x]
    return _nan_to_none(x)
