"""Synthetic task construction, sweeps, tuning, and evaluation metrics."""

import numpy as np
import pytest

from weakext.core import DataError, LabelVector, Metric, RadiusConfig, VoteMatrix, Weighting
from weakext.diagnostics import LipschitzProfile, default_radius_grid
from weakext.experiments import (
    evaluate,
    generate_checkerboard,
    refine_radii,
    sweep_radius,
    theory_guided_radius,
    tune_shared_radius,
)
from weakext.extension import extend_votes, neighbor_tables
from weakext.label_model import estimate_accuracies, predict


class TestGenerateCheckerboard:
    def test_bit_reproducible(self):
        a = generate_checkerboard(500, 10, 3, (0.9, 0.8, 0.8), (0.2, 0.8, 0.8), seed=5)
        b = generate_checkerboard(500, 10, 3, (0.9, 0.8, 0.8), (0.2, 0.8, 0.8), seed=5)
        np.testing.assert_array_equal(a.embeddings.data, b.embeddings.data)
        np.testing.assert_array_equal(a.votes.votes, b.votes.votes)
        np.testing.assert_array_equal(a.gold.labels, b.gold.labels)

    def test_cell_parity_rule(self):
        task = generate_checkerboard(2000, 10, 3, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), seed=6)
        pts = task.embeddings.data
        cell = np.minimum((pts * 10).astype(int), 9)
        expected = np.where(cell.sum(axis=1) % 2 == 0, 1, -1)
        np.testing.assert_array_equal(task.gold.labels, expected)

    def test_perfect_full_coverage_source_equals_gold(self):
        task = generate_checkerboard(1000, 8, 3, (1.0, 0.7, 0.7), (1.0, 0.5, 0.5), seed=7)
        np.testing.assert_array_equal(task.votes.votes[:, 0], task.gold.labels)

    def test_support_accuracy_near_configured(self):
        task = generate_checkerboard(10_000, 10, 3, (0.89, 0.8, 0.8), (0.1, 1.0, 1.0), seed=8)
        for j, a in enumerate((0.89, 0.8, 0.8)):
            col = task.votes.votes[:, j]
            mask = col != 0
            measured = (col[mask] == task.gold.labels[mask]).mean()
            assert abs(measured - a) <= 0.02

    def test_class_balance_near_half(self):
        task = generate_checkerboard(10_000, 10, 3, (0.9, 0.8, 0.8), (0.5, 0.5, 0.5), seed=9)
        assert abs((task.gold.labels == 1).mean() - 0.5) <= 0.02

    def test_supports_fixed_across_accuracy_variants(self):
        lo = generate_checkerboard(2000, 10, 3, (0.66, 0.8, 0.8), (0.2, 0.6, 0.6), seed=10)
        hi = generate_checkerboard(2000, 10, 3, (0.94, 0.8, 0.8), (0.2, 0.6, 0.6), seed=10)
        np.testing.assert_array_equal(lo.votes.votes != 0, hi.votes.votes != 0)
        # monotone coupling: raising an accuracy can only fix votes
        fixed = (lo.votes.votes[:, 0] != hi.votes.votes[:, 0])
        gold = hi.gold.labels
        assert (hi.votes.votes[fixed, 0] == gold[fixed]).all()

    def test_random_layout_balanced_and_spatial_free(self):
        task = generate_checkerboard(
            10_000, 10, 3, (0.9, 0.8, 0.8), (0.5, 0.5, 0.5), seed=11, layout="random"
        )
        assert abs((task.gold.labels == 1).mean() - 0.5) <= 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_checkerboard(10, 5, 2, (0.9, 0.8), (0.5, 0.5), seed=0)
        with pytest.raises(ValueError):
            generate_checkerboard(10, 5, 3, (0.9, 0.8, 1.2), (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError):
            generate_checkerboard(10, 5, 3, (0.9, 0.8, 0.8), (0.5, 0.5), seed=0)


class TestEvaluate:
    def test_perfect_predictions(self):
        gold = LabelVector(np.array([1, -1, 1, -1]))
        rep = evaluate(gold, gold)
        assert rep.accuracy == 1.0 and rep.f1 == 1.0

    def test_all_positive_on_balanced(self):
        pred = LabelVector(np.array([1, 1, 1, 1]))
        gold = LabelVector(np.array([1, 1, -1, -1]))
        rep = evaluate(pred, gold)
        assert rep.precision == 0.5 and rep.recall == 1.0
        assert abs(rep.f1 - 2.0 / 3.0) < 1e-12

    def test_no_positive_predictions(self):
        pred = LabelVector(np.array([-1, -1]))
        gold = LabelVector(np.array([1, -1]))
        rep = evaluate(pred, gold)
        assert rep.precision == 0.0 and rep.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            evaluate(LabelVector(np.array([1])), LabelVector(np.array([1, -1])))


def small_task(seed=20, n=1500):
    return generate_checkerboard(n, 10, 3, (0.89, 0.8, 0.8), (0.1, 1.0, 1.0), seed=seed)


class TestSweepRadius:
    def test_zero_radius_lift_is_exactly_zero(self):
        task = small_task()
        for w in Weighting:
            sw = sweep_radius(task, 0, np.array([0.0]), weighting=w, compute_bound=False)
            assert sw.lift[0] == 0.0
            assert sw.coverage[0] == (task.votes.votes[:, 0] != 0).mean()

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_matches_full_pipeline(self, weighting):
        task = small_task()
        grid = default_radius_grid(0.02, 0.8, 6)
        sw = sweep_radius(task, 0, grid, weighting=weighting, compute_bound=False)
        for k, r in enumerate(grid):
            radii = np.zeros(3)
            radii[0] = r
            ext, _ = extend_votes(
                task.embeddings, task.votes, RadiusConfig(radii, weighting), metric=Metric.EUCLIDEAN
            )
            params = estimate_accuracies(ext, 0.5)
            _, pred = predict(ext, params)
            acc = (pred.labels == task.gold.labels).mean()
            assert sw.metric_values[k] == acc

    def test_stacked_variants_table_sweep_is_exact(self):
        # variants of one seed share points and supports: one scan of their
        # stacked source-0 columns serves each variant's sweep
        base = small_task(seed=21)
        variants = [base] + [
            generate_checkerboard(1500, cells, 3, (acc, 0.8, 0.8), (0.1, 1.0, 1.0), seed=21, layout=layout)
            for cells, acc, layout in ((4, 0.66, "checkerboard"), (10, 0.94, "random"))
        ]
        stacked = VoteMatrix(np.stack([v.votes.votes[:, 0] for v in variants], axis=1))
        grid = default_radius_grid(0.02, 0.8, 8)
        for w in Weighting:
            tables = neighbor_tables(base.embeddings, stacked, {i: grid for i in range(len(variants))},
                                     w, Metric.EUCLIDEAN)
            assert sum(t.cells for t in tables.values()) == tables[0].cells  # one scan
            for i, variant in enumerate(variants):
                direct = sweep_radius(variant, 0, grid, weighting=w, compute_bound=False)
                shared = sweep_radius(variant, 0, grid, weighting=w, compute_bound=False, table=tables[i])
                np.testing.assert_array_equal(direct.metric_values, shared.metric_values)
                np.testing.assert_array_equal(direct.coverage, shared.coverage)
                np.testing.assert_array_equal(direct.extended_accuracy, shared.extended_accuracy)

    def test_mismatched_table_rejected(self):
        task = small_task(seed=22)
        other = generate_checkerboard(1500, 10, 3, (0.89, 0.8, 0.8), (0.1, 1.0, 1.0), seed=23)
        grid = default_radius_grid(0.02, 0.8, 8)
        wsum = Weighting.THRESHOLDED_WEIGHTED_SUM
        table = neighbor_tables(task.embeddings, task.votes, {0: grid}, wsum, Metric.EUCLIDEAN)[0]
        sweep_radius(task, 0, grid, compute_bound=False, table=table)
        mismatches = [
            (other, 0, grid, wsum),  # another support
            (task, 1, grid, wsum),  # another source's support
            (task, 0, grid[:-1], wsum),  # another grid
            (task, 0, grid, Weighting.ONE_NEAREST_NEIGHBOR),
        ]
        for t, source, g, w in mismatches:
            with pytest.raises(ValueError, match="table does not match"):
                sweep_radius(t, source, g, weighting=w, compute_bound=False, table=table)

    def test_measured_accuracy_consistency(self):
        task = small_task(seed=24)
        grid = default_radius_grid(0.02, 0.8, 5)
        sw = sweep_radius(task, 0, grid, compute_bound=True, pair_budget=20_000)
        assert sw.bound is not None and sw.bound.shape == grid.shape
        # extended accuracy starts near the source accuracy and decays
        assert sw.extended_accuracy[0] > sw.extended_accuracy[-1]

    def test_csv_export(self, tmp_path):
        task = small_task(seed=24)
        grid = default_radius_grid(0.02, 0.8, 4)
        sw = sweep_radius(task, 0, grid, compute_bound=True, pair_budget=20_000)
        path = tmp_path / "sweep.csv"
        sw.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "radius,coverage,metric,lift,bound"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == grid[0]
        assert float(first[3]) == sw.lift[0]


class TestTuneSharedRadius:
    def test_grid_of_zero(self):
        task = small_task(seed=25)
        res = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, np.array([0.0]), metric=Metric.EUCLIDEAN
        )
        assert res.radius == 0.0

    def test_full_coverage_note(self):
        task = generate_checkerboard(400, 5, 3, (0.9, 0.8, 0.8), (1.0, 1.0, 1.0), seed=26)
        res = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, default_radius_grid(), metric=Metric.EUCLIDEAN
        )
        assert res.radius == 0.0
        assert res.note == "no abstains to extend"

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_matches_exhaustive_pipeline_search(self, weighting):
        task = small_task(seed=27)
        grid = default_radius_grid(0.02, 0.8, 10)
        res = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, grid, metric=Metric.EUCLIDEAN,
            weighting=weighting,
        )
        # independent exhaustive search through the full extension pipeline
        best_val, best_r = -1.0, None
        for r in grid:
            ext, _ = extend_votes(
                task.embeddings, task.votes, RadiusConfig(np.full(3, r), weighting),
                metric=Metric.EUCLIDEAN,
            )
            params = estimate_accuracies(ext, 0.5)
            _, pred = predict(ext, params)
            acc = (pred.labels == task.gold.labels).mean()
            if acc > best_val:
                best_val, best_r = acc, r
        assert res.metric_value == best_val
        assert res.radius == best_r

    def test_ties_break_toward_smaller_radius(self):
        task = small_task(seed=28)
        # two radii below the smallest pair distance produce identical
        # pipelines; the smaller one must win
        grid = np.array([1e-9, 2e-9, 0.1])
        res = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, grid, metric=Metric.EUCLIDEAN
        )
        curve = res.metric_curve
        assert curve[0] == curve[1]
        if curve[0] >= curve[2]:
            assert res.radius == 1e-9

    def test_unsorted_grid_is_refused(self):
        # radii 5 and 10 both reach every point of the unit square, so they
        # tie; ties go to the smaller radius only on an ascending grid
        task = small_task(seed=34, n=400)
        res = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, np.array([5.0, 10.0]), metric=Metric.EUCLIDEAN
        )
        assert res.metric_curve[0] == res.metric_curve[1] and res.radius == 5.0
        for grid in ([10.0, 5.0], [5.0, 5.0]):
            with pytest.raises(ValueError, match="strictly ascending"):
                tune_shared_radius(task.embeddings, task.votes, task.gold, 0.5, np.array(grid), metric=Metric.EUCLIDEAN)

    def test_metric_name_auto(self):
        task = small_task(seed=29)
        res = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, np.array([0.05]), metric=Metric.EUCLIDEAN
        )
        assert res.metric_name == "accuracy"  # balanced gold
        skew = LabelVector(np.where(np.arange(task.votes.n) < 200, 1, -1))
        res_f1 = tune_shared_radius(
            task.embeddings, task.votes, skew, 0.5, np.array([0.05]), metric=Metric.EUCLIDEAN
        )
        assert res_f1.metric_name == "f1"


class TestRefineRadii:
    def test_all_full_coverage_pinned_to_zero(self):
        task = generate_checkerboard(400, 5, 3, (0.9, 0.8, 0.8), (1.0, 1.0, 1.0), seed=30)
        res = refine_radii(task.embeddings, task.votes, task.gold, 0.5, 0.3, metric=Metric.EUCLIDEAN)
        np.testing.assert_array_equal(res.config.radii, np.zeros(3))

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_never_decreases_dev_metric(self, weighting):
        task = generate_checkerboard(1500, 10, 3, (0.89, 0.7, 0.8), (0.1, 0.5, 0.7), seed=31)
        grid = default_radius_grid(0.02, 0.5, 8)
        shared = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, grid, metric=Metric.EUCLIDEAN,
            weighting=weighting,
        )
        refined = refine_radii(
            task.embeddings, task.votes, task.gold, 0.5, shared.radius, metric=Metric.EUCLIDEAN,
            weighting=weighting,
        )
        assert refined.metric_value >= shared.metric_value

    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_single_source_equals_shared_tuning(self, weighting):
        # with one extendable source, coordinate search over the tune grid
        # reaches the same optimum as the shared search
        task = small_task(seed=32)
        grid = default_radius_grid(0.02, 0.8, 10)
        shared = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, grid, metric=Metric.EUCLIDEAN,
            weighting=weighting,
        )
        refined = refine_radii(
            task.embeddings, task.votes, task.gold, 0.5, shared.radius,
            local_grids=[grid], metric=Metric.EUCLIDEAN, weighting=weighting,
        )
        assert refined.metric_value == shared.metric_value


@pytest.mark.parametrize("weighting", list(Weighting))
@pytest.mark.parametrize("grid", [[-0.1, 0.2], [0.2, np.nan]], ids=["negative", "nan"])
class TestRadiusGridValidation:
    """A negative or non-finite grid radius is a data error under either weighting.

    ``tune_shared_radius`` refuses a grid holding NaN as not strictly
    ascending before it scans.
    """

    def test_tune_grid(self, grid, weighting):
        task = small_task(seed=33)
        nan = np.isnan(grid).any()
        error, message = (ValueError, "strictly ascending") if nan else (DataError, "finite and nonnegative")
        with pytest.raises(error, match=message):
            tune_shared_radius(
                task.embeddings, task.votes, task.gold, 0.5, np.array(grid),
                metric=Metric.EUCLIDEAN, weighting=weighting,
            )

    def test_refine_local_grid(self, grid, weighting):
        task = small_task(seed=33)
        with pytest.raises(DataError, match="finite and nonnegative"):
            refine_radii(
                task.embeddings, task.votes, task.gold, 0.5, 0.1, local_grids=[np.array(grid)],
                metric=Metric.EUCLIDEAN, weighting=weighting,
            )


class TestTheoryGuidedRadius:
    def _profile(self, label_rates, support_rates, pair_fracs, radii):
        k = radii.size
        return LipschitzProfile(
            radii=radii,
            metric=Metric.EUCLIDEAN,
            seed=0,
            pairs_sampled=1000,
            exhaustive=False,
            pair_count=np.full(k, 100),
            pair_fraction=pair_fracs,
            support_disagreement=support_rates[None, :],
            label_disagreement=label_rates,
            label_pair_count=np.full(k, 100),
            label_pairs_sampled=1000,
        )

    def test_all_nonpositive_flagged_zero(self):
        radii = np.array([0.1, 0.2, 0.4])
        profile = self._profile(
            np.full(3, 0.5), np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.3, 0.6]), radii
        )
        res = theory_guided_radius(profile, 0, 0.9, 0.5, 0.9)
        assert res.radius == 0.0 and not res.informative

    def test_smooth_labels_pick_max_radius(self):
        # zero label disagreement: the bound grows with reach, so the
        # largest grid radius wins
        radii = np.array([0.1, 0.2, 0.4])
        profile = self._profile(
            np.zeros(3), np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.3, 0.6]), radii
        )
        res = theory_guided_radius(profile, 0, 0.89, 0.5, 0.5)
        assert res.informative and res.radius == 0.4
        assert (np.diff(res.bounds) > 0).all()
