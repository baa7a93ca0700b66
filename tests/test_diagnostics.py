"""Smoothness profiles and bound arithmetic against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from weakext import diagnostics
from weakext.core import (
    DegeneracyError,
    EmbeddingSet,
    LabelVector,
    Metric,
    RadiusConfig,
    VoteMatrix,
    Weighting,
    paired_distances,
)
from weakext.diagnostics import (
    EstimationBoundInputs,
    default_radius_grid,
    diagnose,
    ensemble_risk_bound,
    estimate_profile,
    estimation_error_bound,
    extended_accuracy_lower_bound,
    extended_source_risk_bound,
    generalization_lift_lower_bound,
    label_smoothness_bound,
    lift_bound_curve,
    measured_accuracy_curves,
    other_sources_constant,
)
from weakext.extension import extend_votes, neighbor_tables
from weakext.label_model import estimate_accuracies


def covering(emb):
    """A one-radius grid beyond every distance of ``emb``'s rows (twice the bound of two largest norms): a 1nn table capped there keeps every nearest point."""
    return [4.0 * float(np.linalg.norm(emb.data, axis=1).max())]


def _sample_pairs(n, budget, seed):
    """The whole pair sample at once: every pair (upper triangle) or ``budget`` seeded ordered draws."""
    total = n * (n - 1) // 2
    if total <= budget:
        a, b = np.triu_indices(n, k=1)
        return a.astype(np.int64), b.astype(np.int64), True
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=budget, dtype=np.int64)
    b = rng.integers(0, n - 1, size=budget, dtype=np.int64)
    b += (b >= a).astype(np.int64)
    return a, b, False


def _rates_by_radius(dist, radii, flags):
    """Disagreement rate and pair count within each radius, from every pair's distance at once."""
    cuts = np.array([(dist <= r).sum() for r in radii])
    flagged = np.array([(flags & (dist <= r)).sum() for r in radii])
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(cuts > 0, flagged / np.maximum(cuts, 1), np.nan), cuts


def one_shot_profile(emb, radii, votes, labels, budget, seed, metric):
    """Oracle for ``estimate_profile``: every sampled pair held at once, counted per radius."""
    radii = np.asarray(radii, dtype=np.float64)
    a, b, exhaustive = _sample_pairs(emb.n, budget, seed)
    dist = paired_distances(emb, a, b, metric)
    out = {"pairs_sampled": a.size, "exhaustive": exhaustive}
    _, out["pair_count"] = _rates_by_radius(dist, radii, np.zeros(a.size, dtype=bool))
    out["pair_fraction"] = out["pair_count"] / a.size
    if votes is not None:
        nz = votes.votes != 0
        out["support_disagreement"] = np.array(
            [_rates_by_radius(dist, radii, nz[a, j] != nz[b, j])[0] for j in range(votes.m)]
        )
    if labels is not None:
        if labels.n < emb.n:
            a, b, exhaustive = _sample_pairs(labels.n, budget, seed + 1)
            dist = paired_distances(emb, a, b, metric)
        flags = labels.labels[a] != labels.labels[b]
        out["label_disagreement"], out["label_pair_count"] = _rates_by_radius(dist, radii, flags)
        out["label_pairs_sampled"], out["label_exhaustive"] = a.size, exhaustive
    return out


class TestEstimateProfile:
    def test_hand_enumeration_on_a_line(self):
        # 4 collinear points, all 6 pairs enumerated by an independent loop
        x = np.array([[0.0, 1.0], [0.1, 1.0], [0.25, 1.0], [0.6, 1.0]])
        labels = np.array([1, 1, -1, -1], dtype=np.int8)
        votes = np.array([[1], [1], [0], [0]], dtype=np.int8)
        radii = np.array([0.2, 0.4, 0.7])
        profile = estimate_profile(
            EmbeddingSet(x), radii, votes=VoteMatrix(votes), labels=LabelVector(labels),
            budget=1000, seed=0, metric=Metric.EUCLIDEAN,
        )
        assert profile.exhaustive
        # oracle: explicit double loop
        n = 4
        for k, r in enumerate(radii):
            pairs = lab_diff = sup_diff = 0
            total = 0
            for i in range(n):
                for j in range(i + 1, n):
                    total += 1
                    if abs(x[i, 0] - x[j, 0]) <= r:
                        pairs += 1
                        lab_diff += labels[i] != labels[j]
                        sup_diff += (votes[i, 0] != 0) != (votes[j, 0] != 0)
            assert profile.pair_count[k] == pairs
            assert profile.pair_fraction[k] == pairs / total
            assert profile.label_disagreement[k] == lab_diff / pairs
            assert profile.support_disagreement[0, k] == sup_diff / pairs

    def test_constant_labels_zero_disagreement(self):
        rng = np.random.default_rng(0)
        emb = EmbeddingSet(rng.standard_normal((50, 4)))
        labels = LabelVector(np.ones(50, dtype=np.int8))
        profile = estimate_profile(emb, default_radius_grid(), labels=labels, seed=1)
        defined = np.isfinite(profile.label_disagreement)
        assert (profile.label_disagreement[defined] == 0.0).all()

    def test_full_coverage_source_zero_disagreement(self):
        rng = np.random.default_rng(1)
        emb = EmbeddingSet(rng.standard_normal((50, 4)))
        votes = VoteMatrix(rng.choice([-1, 1], size=(50, 1)))
        profile = estimate_profile(emb, default_radius_grid(), votes=votes, seed=1)
        defined = np.isfinite(profile.support_disagreement[0])
        assert (profile.support_disagreement[0][defined] == 0.0).all()

    def test_pair_fraction_nondecreasing(self):
        rng = np.random.default_rng(2)
        emb = EmbeddingSet(rng.standard_normal((300, 6)))
        profile = estimate_profile(emb, default_radius_grid(), seed=3, budget=5000)
        assert (np.diff(profile.pair_fraction) >= 0).all()

    def test_undefined_radii_flagged(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])  # single pair at distance 1.0
        profile = estimate_profile(
            EmbeddingSet(x), np.array([0.5, 1.5]), labels=LabelVector(np.array([1, -1]))
        )
        assert not np.isfinite(profile.label_disagreement[0])
        assert profile.label_disagreement[1] == 1.0

    def test_seeded_sampling_is_reproducible(self):
        rng = np.random.default_rng(4)
        emb = EmbeddingSet(rng.standard_normal((2000, 3)))
        a = estimate_profile(emb, default_radius_grid(), seed=9, budget=10_000)
        b = estimate_profile(emb, default_radius_grid(), seed=9, budget=10_000)
        np.testing.assert_array_equal(a.pair_fraction, b.pair_fraction)
        assert not a.exhaustive

    def test_dev_prefix_labels(self):
        rng = np.random.default_rng(5)
        emb = EmbeddingSet(rng.standard_normal((100, 3)))
        labels = LabelVector(rng.choice([-1, 1], size=30))
        profile = estimate_profile(emb, default_radius_grid(), labels=labels, budget=2000, seed=0)
        assert profile.label_pairs_sampled == 30 * 29 // 2

    def test_empty_grid_rejected(self):
        emb = EmbeddingSet(np.eye(3))
        with pytest.raises(ValueError, match="nonempty"):
            estimate_profile(emb, np.array([]))
        with pytest.raises(ValueError, match="ascending"):
            estimate_profile(emb, np.array([0.5, 0.2]))

    @pytest.mark.parametrize("chunk", [1, 7, 2**14, 2**16])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_streamed_profile_equals_the_one_shot_sample(self, monkeypatch, chunk, metric):
        monkeypatch.setattr(diagnostics, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(13)
        n = 800 if chunk > 7 else 60  # more pairs than the largest budget below
        emb = EmbeddingSet(rng.standard_normal((n, 5)) + 0.5)
        votes = VoteMatrix(rng.choice([-1, 0, 0, 1], size=(n, 3)))
        gold = rng.choice([-1, 1], size=n)
        dist = paired_distances(emb, rng.integers(0, n, 500), rng.integers(0, n, 500), metric)
        at = paired_distances(emb, [0], [1], metric)  # every exhaustive case holds this pair exactly at a radius
        radii = np.unique(np.r_[np.quantile(dist, [0.05, 0.3, 0.6, 0.9]), at])
        cases = [(n, budget, label_n)  # below, at and just above a chunk multiple; full and prefix labels
                 for budget in (3 * chunk - 1, 3 * chunk, 3 * chunk + 1) for label_n in (n, n // 3)]
        # 780 pairs: the exhaustive edge; None: neither votes nor labels
        cases += [(40, 780, 40), (40, 779, 40), (40, 779, 39), (40, 780, None)]
        for (size, budget, label_n) in cases:
            for seed in (0, 5):
                sub = EmbeddingSet(emb.data[:size])
                sub_votes = VoteMatrix(votes.votes[:size]) if label_n is not None else None
                labels = LabelVector(gold[:label_n]) if label_n is not None else None
                got = estimate_profile(sub, radii, votes=sub_votes, labels=labels, budget=budget,
                                       seed=seed, metric=metric)
                want = one_shot_profile(sub, radii, sub_votes, labels, budget, seed, metric)
                assert got.exhaustive == (size * (size - 1) // 2 <= budget)
                for field, value in want.items():
                    np.testing.assert_array_equal(getattr(got, field), value, err_msg=f"{field} {size} {budget} {seed}")

    def test_one_point_has_no_pairs(self):
        emb = EmbeddingSet(np.ones((1, 2)))
        with pytest.warns(RuntimeWarning):  # 0 / 0 pairs, as the profile has always read
            profile = estimate_profile(emb, [0.5], votes=VoteMatrix([[1]]))
        assert profile.pairs_sampled == 0 and profile.exhaustive
        assert profile.pair_count.tolist() == [0] and np.isnan(profile.pair_fraction).all()
        assert np.isnan(profile.support_disagreement).all()

    def test_scratch_does_not_grow_with_the_budget(self):
        rng = np.random.default_rng(21)
        emb = EmbeddingSet(rng.standard_normal((4000, 16)))
        votes = VoteMatrix(rng.choice([-1, 0, 1], size=(4000, 3)))
        labels = LabelVector(rng.choice([-1, 1], size=3000))
        radii = default_radius_grid()

        def peak(size, budget, label_n):
            sub = EmbeddingSet(emb.data[:size])
            sub_votes = VoteMatrix(votes.votes[:size])
            sub_labels = LabelVector(labels.labels[:label_n])
            estimate_profile(sub, radii, sub_votes, sub_labels, budget=10)  # caches the norms
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                profile = estimate_profile(sub, radii, sub_votes, sub_labels, budget=budget)
                return tracemalloc.get_traced_memory()[1] - before, profile.exhaustive
            finally:
                tracemalloc.stop()

        chunk = diagnostics._PAIR_CHUNK * 64  # two indices, a distance and a bin per pair, and the flags
        small, exh = peak(4000, 20_000, 3000)
        assert not exh
        for size, label_n, exhaustive in ((4000, 3000, False), (2000, 2000, True)):  # sampled; every pair
            big, exh = peak(size, 2_000_000, label_n)
            assert exh == exhaustive
            assert big < small + chunk, (size, big, small)


class TestExtendedAccuracyBound:
    def test_zero_label_disagreement_returns_accuracy(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = float(rng.uniform(0.01, 0.99))
            p = float(rng.uniform(0.01, 1.0))
            l_r = float(rng.uniform(0, 1))
            p_d = float(rng.uniform(0, 1))
            assert extended_accuracy_lower_bound(a, 0.0, p, l_r, p_d) == a

    def test_coin_flip_source_unaffected(self):
        assert extended_accuracy_lower_bound(0.5, 0.3, 0.4, 0.2, 0.1) == 0.5

    def test_hand_value(self):
        # 0.9 - 0.8 * 0.05 / (0.5^2 * (1 + 0.4*0.3)) = 0.9 - 1/7
        expected = 0.9 - (2 * 0.9 - 1) * 0.05 / (0.5 * 0.5 * (1 + 0.4 * 0.3))
        got = extended_accuracy_lower_bound(0.9, 0.05, 0.5, 0.4, 0.3)
        assert abs(got - expected) < 1e-15
        assert abs(got - (0.9 - 1.0 / 7.0)) < 1e-12

    def test_zero_support_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            extended_accuracy_lower_bound(0.9, 0.1, 0.0, 0.1, 0.1)


class TestLiftBound:
    def test_zero_support_disagreement_no_lift(self):
        assert generalization_lift_lower_bound(0.0, 0.3, 0.5, 0.9, 0.9, 0.6) == 0.0

    def test_hand_value(self):
        # 0.5*0.2*0.5 * (0.5*(0.6+1)*(0.9*0.9 + 0.1*0.1) - 0.6) = 0.0028
        got = generalization_lift_lower_bound(0.5, 0.2, 0.5, 0.9, 0.9, 0.6)
        assert abs(got - 0.0028) < 1e-12

    def test_non_informative_sign(self):
        got = generalization_lift_lower_bound(0.5, 0.2, 0.5, 0.5, 0.5, 0.5)
        expected = 0.05 * (0.75 * 0.5 - 0.5)
        assert abs(got - expected) < 1e-15
        assert got < 0

    def test_nondecreasing_in_extended_accuracy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            l_r, p_d, p = rng.uniform(0, 1, 3)
            a_new = float(rng.uniform(0.5, 1.0))
            c = float(rng.uniform(0, 1))
            a_bar = float(rng.uniform(0, 0.99))
            lo = generalization_lift_lower_bound(l_r, p_d, p, a_new, a_bar, c)
            hi = generalization_lift_lower_bound(l_r, p_d, p, a_new, min(a_bar + 0.01, 1.0), c)
            assert hi >= lo - 1e-15

    def test_pure_function(self):
        args = (0.5, 0.2, 0.5, 0.9, 0.9, 0.6)
        assert generalization_lift_lower_bound(*args) == generalization_lift_lower_bound(*args)


def spreadsheet_estimation_bound(n, m, o_min, e_min, c_1, c_2, c_p, delta, l_min=0.0, p_d=0.0, extended=False):
    """Independent step-by-step arithmetic with the math module."""
    eps = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    growth = 1.0 + (2.0 * l_min - l_min * l_min) * p_d if extended else 1.0
    first = (81.0 * math.sqrt(math.pi)) / (2.0 * e_min * c_1 * c_1)
    first = first * m / math.sqrt(n * o_min * growth)
    return (first + eps * c_2) / (c_p - eps)


class TestEstimationErrorBound:
    BASE = dict(
        n=10_000, num_sources=3, min_overlap=0.25, correlation_floor=0.5,
        moment_floor=0.2, mean_posterior=0.5, min_pattern_prob=0.1, delta=0.05,
    )

    def test_spreadsheet_oracle(self):
        inputs = EstimationBoundInputs(**self.BASE)
        expected = spreadsheet_estimation_bound(10_000, 3, 0.25, 0.5, 0.2, 0.5, 0.1, 0.05)
        assert abs(estimation_error_bound(inputs) - expected) < 1e-9

    def test_zero_min_disagreement_collapses_to_unextended(self):
        inputs = EstimationBoundInputs(**self.BASE, min_support_disagreement=0.0, min_pair_fraction=0.7)
        assert estimation_error_bound(inputs, extended=True) == estimation_error_bound(inputs, extended=False)

    def test_extension_tightens_the_bound(self):
        inputs = EstimationBoundInputs(**self.BASE, min_support_disagreement=0.4, min_pair_fraction=0.3)
        assert estimation_error_bound(inputs, extended=True) < estimation_error_bound(inputs, extended=False)
        expected = spreadsheet_estimation_bound(
            10_000, 3, 0.25, 0.5, 0.2, 0.5, 0.1, 0.05, l_min=0.4, p_d=0.3, extended=True
        )
        assert abs(estimation_error_bound(inputs, extended=True) - expected) < 1e-9

    def test_quadrupling_n_halves_the_sampling_term(self):
        # isolate the sampling term by zeroing the mean posterior
        base = dict(self.BASE, mean_posterior=0.0)
        small = EstimationBoundInputs(**base)
        big = EstimationBoundInputs(**{**base, "n": 40_000})
        term_small = estimation_error_bound(small) * (small.min_pattern_prob - small.epsilon_n())
        term_big = estimation_error_bound(big) * (big.min_pattern_prob - big.epsilon_n())
        assert abs(term_big / term_small - 0.5) < 1e-12

    def test_vacuous_when_pattern_floor_too_small(self):
        inputs = EstimationBoundInputs(**{**self.BASE, "n": 100, "min_pattern_prob": 0.01})
        with pytest.raises(DegeneracyError, match="vacuous"):
            estimation_error_bound(inputs)

    @pytest.mark.parametrize("m", [1, 2, 5, 17])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_pattern_floor_is_the_rarest_row_share(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        for p_zero in (0.2, 0.9):  # many patterns; a few common ones
            votes = VoteMatrix(rng.choice([-1, 0, 1], p=[(1 - p_zero) / 2, p_zero, (1 - p_zero) / 2], size=(n, m)))
            _, counts = np.unique(votes.votes, axis=0, return_counts=True)
            assert diagnostics._pattern_floor(votes) == float(counts.min() / n)


class TestSmoothnessAndRiskBounds:
    def test_label_smoothness(self):
        assert label_smoothness_bound(0.0, 0.0) == 0.0
        assert label_smoothness_bound(0.1, 0.2) == 0.5
        assert label_smoothness_bound(0.8, 0.3) == 1.0

    def test_extended_risk_coin_flip(self):
        assert extended_source_risk_bound(0.5, 0.2, 0.1, 0.5, 0.4, 0.3) == 0.5

    def test_extended_risk_perfect_source(self):
        # perfect source with a fully representative support: the residual
        # risk is twice the embedding model's risk
        assert extended_source_risk_bound(1.0, 0.0, 0.2, 1.0, 0.0, 0.0) == 2 * 0.2

    def test_extended_risk_hand_value(self):
        # 1 - 0.9 + 0.8 * (0.05 + 0.2) / (0.25 * 1.12)
        expected = 0.1 + 0.8 * 0.25 / 0.28
        got = extended_source_risk_bound(0.9, 0.05, 0.1, 0.5, 0.4, 0.3)
        assert abs(got - expected) < 1e-15

    def test_ensemble_perfect_sources(self):
        assert ensemble_risk_bound([0.0, 0.0], [0.6, 0.4], 0.5, 0.0) == 0.0

    def test_ensemble_uncovered_only(self):
        assert ensemble_risk_bound([], [], 0.5, 1.0) == 0.5

    def test_ensemble_weighted_hand_value(self):
        # 2*b*(0.6*t1 + 0.4*t2) + 2*0.0*p(1-p) with p=0.25 -> b=3
        t1, t2 = 0.2, 0.35
        expected = 2.0 * 3.0 * (0.6 * t1 + 0.4 * t2)
        got = ensemble_risk_bound([t1, t2], [0.6, 0.4], 0.25, 0.0)
        assert abs(got - expected) < 1e-12

    def test_ensemble_validates(self):
        with pytest.raises(ValueError, match="prior"):
            ensemble_risk_bound([0.1], [1.0], 1.0, 0.0)
        with pytest.raises(ValueError, match="sum to 1"):
            ensemble_risk_bound([0.1], [0.5], 0.5, 0.0)


class TestOtherSourcesConstant:
    def test_confident_positive_mean(self):
        q = np.array([0.9, 0.7, 0.2, 0.6])
        labels = LabelVector(np.array([1, 1, 1, -1]))
        # qualifying: 0.9 and 0.7 (q >= 0.5 and positive label)
        assert abs(other_sources_constant(q, labels) - 0.8) < 1e-15

    def test_fallback_when_empty(self):
        q = np.array([0.2, 0.3])
        labels = LabelVector(np.array([1, 1]))
        assert other_sources_constant(q, labels) == 0.5


class TestDiagnose:
    def _setup(self, radii_value):
        from weakext.experiments import generate_checkerboard

        task = generate_checkerboard(1500, 10, 3, (0.9, 0.8, 0.8), (0.2, 0.8, 0.8), seed=11)
        config = RadiusConfig(np.full(3, radii_value))
        ext, report = extend_votes(task.embeddings, task.votes, config, metric=Metric.EUCLIDEAN)
        params = estimate_accuracies(task.votes, 0.5)
        return task, config, ext, report, params

    def test_zero_radii_reports_no_change_and_zero_lift(self):
        task, config, ext, report, params = self._setup(0.0)
        diag = diagnose(
            task.embeddings, task.votes, ext, task.gold, params, config,
            report=report, metric=Metric.EUCLIDEAN, pair_budget=50_000,
        ).to_dict()
        assert diag["coverage_before"] == diag["coverage_after"]
        for entry in diag["sources"]:
            assert entry["lift_bound_at_radius"] == 0.0
            assert not entry["recommend_extension"]

    def test_requires_labels_or_smoothness(self):
        task, config, ext, report, params = self._setup(0.1)
        with pytest.raises(ValueError, match="dev set"):
            diagnose(task.embeddings, task.votes, ext, None, params, config)

    def test_model_smoothness_substitute(self):
        task, config, ext, report, params = self._setup(0.1)
        diag = diagnose(
            task.embeddings, task.votes, ext, None, params, config,
            metric=Metric.EUCLIDEAN, pair_budget=50_000, model_smoothness=(0.1, 0.05),
        ).to_dict()
        # every defined label-disagreement entry equals the supplied bound
        vals = [v for v in diag["profile"]["label_disagreement"] if v is not None]
        assert vals and all(abs(v - 0.2) < 1e-15 for v in vals)

    def test_recommended_radius_matches_theory_guided(self):
        from weakext.experiments import theory_guided_radius

        task, config, ext, report, params = self._setup(0.1)
        grid = default_radius_grid()
        diag = diagnose(
            task.embeddings, task.votes, ext, task.gold, params, config,
            report=report, metric=Metric.EUCLIDEAN, radii=grid, pair_budget=50_000, seed=2,
        ).to_dict()
        profile = estimate_profile(
            task.embeddings, grid, votes=task.votes, labels=task.gold,
            budget=50_000, seed=2, metric=Metric.EUCLIDEAN,
        )
        from weakext.label_model import predict

        q, _ = predict(task.votes, params)
        c_const = other_sources_constant(q, task.gold)
        table = neighbor_tables(task.embeddings, task.votes, {0: covering(task.embeddings)}, metric=Metric.EUCLIDEAN)[0]
        a_bar, a_new = measured_accuracy_curves(table, task.votes, task.gold, grid)
        res = theory_guided_radius(
            profile, 0, float(params.accuracies[0]),
            float((task.votes.votes[:, 0] != 0).mean()), c_const,
            extended_accuracy_curve=a_bar, new_region_accuracy_curve=a_new,
        )
        assert diag["sources"][0]["recommended_radius"] == res.radius

    def test_shared_tables_give_the_same_report(self):
        from unittest import mock

        from weakext import diagnostics

        task, config, ext, report, params = self._setup(0.1)
        kwargs = dict(report=report, metric=Metric.EUCLIDEAN, pair_budget=50_000)
        spy = mock.patch.object(diagnostics, "neighbor_tables", wraps=diagnostics.neighbor_tables)
        with spy as own_scan:
            own = diagnose(task.embeddings, task.votes, ext, task.gold, params, config, threads=1, **kwargs)
        # one scan of every source, capped at the grid's largest radius, on the caller's thread count
        assert own_scan.call_count == 1 and own_scan.call_args.args[2] == dict.fromkeys(range(3), [1.0])
        assert own_scan.call_args.args[5] == 1
        tables = neighbor_tables(task.embeddings, task.votes, dict.fromkeys(range(3), covering(task.embeddings)),
                                 metric=Metric.EUCLIDEAN)
        with spy as shared_scan:
            shared = diagnose(task.embeddings, task.votes, ext, task.gold, params, config, tables=tables, **kwargs)
        assert shared.to_dict() == own.to_dict()
        assert shared_scan.call_args.args[2] == {}  # every source's curves came from the given tables

    def test_measured_accuracies_reported(self):
        task, config, ext, report, params = self._setup(0.1)
        diag = diagnose(
            task.embeddings, task.votes, ext, task.gold, params, config,
            report=report, metric=Metric.EUCLIDEAN, pair_budget=50_000,
        ).to_dict()
        entry = diag["sources"][0]
        new_mask = (task.votes.votes[:, 0] == 0) & (ext.votes[:, 0] != 0)
        expected = float((ext.votes[new_mask, 0] == task.gold.labels[new_mask]).mean())
        assert abs(entry["measured_new_region_accuracy"] - expected) < 1e-15

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_measured_accuracies_agree_with_the_sweep(self, weighting):
        from weakext.experiments import generate_checkerboard, sweep_radius

        task = generate_checkerboard(1500, 10, 3, (0.9, 0.8, 0.8), (0.2, 0.8, 0.8), seed=11)
        # source 1's radius reaches no point beyond its support: its new region is empty
        config = RadiusConfig(np.array([0.08, 1e-9, 0.08]), weighting)
        ext, report = extend_votes(task.embeddings, task.votes, config, metric=Metric.EUCLIDEAN)
        params = estimate_accuracies(task.votes, 0.5)
        diag = diagnose(
            task.embeddings, task.votes, ext, task.gold, params, config,
            report=report, metric=Metric.EUCLIDEAN, pair_budget=50_000,
        ).to_dict()
        for j, r in enumerate(config.radii):
            sweep = sweep_radius(task, j, [r], prior=0.5, weighting=weighting, compute_bound=False)
            entry = diag["sources"][j]
            assert entry["measured_extended_accuracy"] == sweep.extended_accuracy[0]
            if j == 1:
                assert entry["measured_new_region_accuracy"] is None
                assert np.isnan(sweep.new_region_accuracy[0])
            else:
                assert entry["measured_new_region_accuracy"] == sweep.new_region_accuracy[0]


class TestMeasuredAccuracyCurves:
    def test_matches_direct_extension(self):
        from weakext.experiments import generate_checkerboard

        task = generate_checkerboard(800, 6, 3, (0.85, 0.8, 0.8), (0.2, 0.9, 0.9), seed=13)
        radii = np.array([0.05, 0.15, 0.4])
        table = neighbor_tables(task.embeddings, task.votes, {0: covering(task.embeddings)}, metric=Metric.EUCLIDEAN)[0]
        a_bar, a_new = measured_accuracy_curves(table, task.votes, task.gold, radii)
        for k, r in enumerate(radii):
            cfg = np.zeros(3)
            cfg[0] = r
            ext, _ = extend_votes(task.embeddings, task.votes, RadiusConfig(cfg), metric=Metric.EUCLIDEAN)
            col, orig = ext.votes[:, 0], task.votes.votes[:, 0]
            mask_ext = col != 0
            mask_new = mask_ext & (orig == 0)
            assert abs(a_bar[k] - (col[mask_ext] == task.gold.labels[mask_ext]).mean()) < 1e-15
            if mask_new.any():
                assert abs(a_new[k] - (col[mask_new] == task.gold.labels[mask_new]).mean()) < 1e-15

    def test_radii_beyond_the_table_cap_are_refused(self):
        # a capped table knows no nearest point beyond its cap; within it, the
        # curves equal those of a table capped beyond every distance
        from weakext.experiments import generate_checkerboard

        task = generate_checkerboard(800, 6, 3, (0.85, 0.8, 0.8), (0.2, 0.9, 0.9), seed=13)
        radii = np.array([0.05, 0.15, 0.4])
        capped = neighbor_tables(task.embeddings, task.votes, {0: radii[:2]}, metric=Metric.EUCLIDEAN)[0]
        whole = neighbor_tables(task.embeddings, task.votes, {0: covering(task.embeddings)}, metric=Metric.EUCLIDEAN)[0]
        for got, want in zip(measured_accuracy_curves(capped, task.votes, task.gold, radii[:2]),
                             measured_accuracy_curves(whole, task.votes, task.gold, radii[:2])):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="beyond the cap"):
            measured_accuracy_curves(capped, task.votes, task.gold, radii)


class TestLiftBoundCurve:
    def test_zero_pair_radii_give_zero(self):
        from weakext.experiments import generate_checkerboard

        task = generate_checkerboard(500, 5, 3, (0.9, 0.8, 0.8), (0.3, 0.8, 0.8), seed=17)
        grid = np.array([1e-6, 0.2, 0.5])  # first radius is below any pair distance
        profile = estimate_profile(
            task.embeddings, grid, votes=task.votes, labels=task.gold,
            budget=10_000, seed=0, metric=Metric.EUCLIDEAN,
        )
        curve = lift_bound_curve(profile, 0, 0.9, 0.3, 0.6)
        assert curve[0] == 0.0
