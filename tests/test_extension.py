"""Vote extension semantics against brute-force oracles."""

import itertools
import sys
import threading
import tracemalloc
from contextlib import ExitStack
from dataclasses import fields
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from weakext import extension
from weakext.core import (
    DataError,
    EmbeddingSet,
    LabelVector,
    Metric,
    RadiusConfig,
    VoteMatrix,
    Weighting,
    cosine_distance,
    pairwise_distances,
)
from weakext.extension import (
    coverage,
    extend_votes,
    min_overlap,
    neighbor_tables,
    neighbors_in_support,
)


def brute_force_distances(x, metric="cosine"):
    """All pairwise float64 distances.

    Cosine distance is half the squared distance of the unit rows, which
    keeps near duplicates apart where ``1 - u.v`` rounds to noise, summed
    as ``paired_distances`` sums it, so a pair exactly at a radius taken
    from these distances is inside it for the scan too.  Each Euclidean
    difference is scaled by a power of two putting its largest entry in
    [1/2, 1) before squaring, so no spread overflows.
    """
    if metric == "cosine":
        u = x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        return np.array([np.minimum(0.5 * np.einsum("ij,ij->i", u - row, u - row), 2.0) for row in u])
    out = []
    for row in x:
        diff = x - row
        e = np.frexp(np.abs(diff).max(axis=1))[1]
        out.append(np.ldexp(np.linalg.norm(np.ldexp(diff, -e[:, None]), axis=1), e))
    return np.array(out)


def brute_force_extend(x, votes, radii, weighting, metric="cosine"):
    """Independent O(n^2) reference: per-pair distances, explicit loops."""
    n, m = votes.shape
    dist = brute_force_distances(x, metric)
    out = votes.copy()
    for j in range(m):
        if radii[j] <= 0:
            continue
        supp = np.flatnonzero(votes[:, j] != 0)
        if supp.size == 0:
            continue
        for i in range(n):
            if votes[i, j] != 0:
                continue
            ds = dist[i, supp]
            inside = ds <= radii[j]
            if not inside.any():
                continue
            if weighting == "1nn":
                k = int(np.argmin(ds))  # first minimum = lowest index
                if ds[k] <= radii[j]:
                    out[i, j] = votes[supp[k], j]
            else:
                out[i, j] = np.sign(votes[supp[inside], j].sum())
    return out


def brute_force_nearest(x, votes, source, metric="cosine", cap=None):
    """Reference for a 1nn table: first minimum over the support; ``(inf, n)`` where it lies beyond ``cap``."""
    n = votes.shape[0]
    dist = brute_force_distances(x, metric)
    queries = np.flatnonzero(votes[:, source] == 0)
    supp = np.flatnonzero(votes[:, source] != 0)
    if supp.size == 0:
        return queries, np.full(queries.size, np.inf), np.full(queries.size, n)
    k = dist[np.ix_(queries, supp)].argmin(axis=1)
    best, col = dist[queries, supp[k]], supp[k]
    if cap is not None:
        best, col = np.where(best <= cap, best, np.inf), np.where(best <= cap, col, n)
    return queries, best, col


def covering(x, metric="cosine"):
    """A radius beyond every distance of ``x``'s rows, twice their bound: a 1nn table capped there keeps every nearest point.

    Cosine distances are at most 2, Euclidean ones at most twice the
    largest row norm.
    """
    return 4.0 * (1.0 if metric == "cosine" else float(np.sqrt(np.einsum("ij,ij->i", x, x).max())))


def nearest(emb, vm, source, metric=Metric.COSINE, threads=None):
    """``(queries, distances, nearest point)`` of ``source`` from its 1nn table, capped beyond every distance."""
    grid = [covering(emb.data, Metric(metric).value)]
    t = neighbor_tables(emb, vm, {source: grid}, Weighting.ONE_NEAREST_NEIGHBOR, Metric(metric), threads)[source]
    return t.queries, t.best_dist, t.best_col


def random_instance(rng, n_max=150):
    n = int(rng.integers(10, n_max))
    d = int(rng.integers(2, 8))
    m = int(rng.integers(1, 5))
    x = rng.standard_normal((n, d))
    votes = rng.choice([-1, 0, 1], size=(n, m), p=[0.25, 0.5, 0.25])
    radii = rng.uniform(0.0, 1.5, m)
    return x, votes, radii


class TestNeighborsInSupport:
    def setup_method(self):
        self.x = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [1.0, 0.05]])
        self.votes = VoteMatrix(np.array([[0], [1], [-1], [1]]))
        self.emb = EmbeddingSet(self.x)

    def test_zero_radius_empty(self):
        ns = neighbors_in_support(self.emb, self.votes, 0, 0, 0.0)
        assert ns.indices.size == 0

    def test_max_radius_returns_all_support(self):
        ns = neighbors_in_support(self.emb, self.votes, 0, 0, 2.0)
        assert set(ns.indices.tolist()) == {1, 2, 3}

    def test_hand_placed_radius(self):
        # query (1,0) against support {(1,0.1), (0,1)}: distances are
        # 1 - 1/sqrt(1.01) = 0.00496 and 1.0, so only the first is in
        votes = VoteMatrix(np.array([[0], [1], [1], [0]]))
        ns = neighbors_in_support(self.emb, votes, 0, 0, 0.1)
        assert ns.indices.tolist() == [1]
        assert abs(ns.distances[0] - cosine_distance(self.x[0], self.x[1])) < 1e-15

    def test_sorted_by_distance_then_index(self):
        ns = neighbors_in_support(self.emb, self.votes, 0, 0, 2.0)
        assert ns.indices.tolist() == [3, 1, 2]  # 0.0012 < 0.0050 < 1.0
        assert np.all(np.diff(ns.distances) >= 0)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_empty_support(self, metric):
        ns = neighbors_in_support(self.emb, VoteMatrix(np.zeros((4, 1))), 0, 0, 2.0, Metric(metric))
        assert ns.indices.dtype == np.int64 and ns.indices.size == 0
        assert ns.distances.dtype == np.float64 and ns.distances.size == 0

    def test_rejects_voted_query(self):
        with pytest.raises(ValueError, match="already voted"):
            neighbors_in_support(self.emb, self.votes, 0, 1, 0.5)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="nonnegative"):
            neighbors_in_support(self.emb, self.votes, 0, 0, -0.1)


class TestExtendVotes:
    def test_zero_radii_is_identity(self):
        rng = np.random.default_rng(0)
        x, votes, _ = random_instance(rng)
        ext, report = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(np.zeros(votes.shape[1])))
        assert np.array_equal(ext.votes, votes)
        np.testing.assert_array_equal(report.extended_coverage, report.original_coverage)

    def test_single_support_point_propagates_everywhere(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        votes = np.zeros((30, 1), dtype=np.int8)
        votes[17, 0] = 1
        ext, report = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig([2.0]))
        assert (ext.votes[:, 0] == 1).all()
        assert report.extended_coverage[0] == 1.0

    def test_non_abstain_votes_never_altered(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, votes, radii = random_instance(rng)
            for w in Weighting:
                ext, _ = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, w))
                mask = votes != 0
                assert np.array_equal(ext.votes[mask], votes[mask])

    def test_agrees_with_brute_force_cosine(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, votes, radii = random_instance(rng)
            for w in Weighting:
                ext, _ = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, w))
                expected = brute_force_extend(x, votes, radii, w.value)
                assert np.array_equal(ext.votes, expected)

    def test_agrees_with_brute_force_euclidean(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, votes, radii = random_instance(rng)
            x = rng.uniform(size=x.shape) + 0.01
            for w in Weighting:
                ext, _ = extend_votes(
                    EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, w), metric=Metric.EUCLIDEAN
                )
                expected = brute_force_extend(x, votes, radii, w.value, metric="euclidean")
                assert np.array_equal(ext.votes, expected)

    def test_weighted_sum_tie_stays_abstain(self):
        x = np.array([[1.0, 0.0], [1.0, 0.01], [1.0, -0.01]])
        votes = np.array([[0], [1], [-1]], dtype=np.int8)
        ext, _ = extend_votes(
            EmbeddingSet(x), VoteMatrix(votes),
            RadiusConfig([0.5], Weighting.THRESHOLDED_WEIGHTED_SUM),
        )
        assert ext.votes[0, 0] == 0

    def test_coverage_monotone_in_radii_1nn(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, votes, radii = random_instance(rng)
            emb, vm = EmbeddingSet(x), VoteMatrix(votes)
            bigger = radii * rng.uniform(1.0, 2.0, radii.shape)
            _, rep_small = extend_votes(emb, vm, RadiusConfig(radii))
            _, rep_big = extend_votes(emb, vm, RadiusConfig(bigger))
            assert (rep_big.extended_coverage >= rep_small.extended_coverage).all()

    def test_reachable_region_monotone_in_radii_wsum(self):
        # decided-vote coverage is NOT monotone under the weighted sum (a
        # larger radius can create an exact tie, which abstains), but the
        # reachable region itself only grows
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, votes, radii = random_instance(rng)
            emb, vm = EmbeddingSet(x), VoteMatrix(votes)
            bigger = radii * rng.uniform(1.0, 2.0, radii.shape)
            w = Weighting.THRESHOLDED_WEIGHTED_SUM
            _, rep_small = extend_votes(emb, vm, RadiusConfig(radii, w))
            _, rep_big = extend_votes(emb, vm, RadiusConfig(bigger, w))
            assert (rep_big.newly_labeled_fraction >= rep_small.newly_labeled_fraction).all()

    def test_min_overlap_never_decreases(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, votes, radii = random_instance(rng)
            if votes.shape[1] < 2:
                continue
            _, rep = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii))
            assert rep.min_overlap_after >= rep.min_overlap_before - 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            extend_votes(
                EmbeddingSet(np.ones((3, 2))),
                VoteMatrix(np.array([[1], [0]])),
                RadiusConfig([0.1]),
            )
        with pytest.raises(ValueError, match="radii"):
            extend_votes(
                EmbeddingSet(np.ones((2, 2))),
                VoteMatrix(np.array([[1], [0]])),
                RadiusConfig([0.1, 0.2]),
            )

    def test_thread_count_does_not_change_output(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((400, 8))
        votes = rng.choice([-1, 0, 1], size=(400, 3), p=[0.2, 0.5, 0.3])
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        cfg = RadiusConfig([0.4, 0.6, 0.8])
        ref, _ = extend_votes(emb, vm, cfg, threads=1)
        for t in (2, 4):
            ext, _ = extend_votes(emb, vm, cfg, threads=t)
            assert np.array_equal(ref.votes, ext.votes)

    @pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
    def test_all_sources_at_once_equals_one_at_a_time(self, weighting):
        # a dense many-source instance extended in one call must equal
        # extending each source on its own
        rng = np.random.default_rng(8)
        n, m = 5000, 4
        x = rng.standard_normal((n, 12))
        votes = np.zeros((n, m), dtype=np.int8)
        for j in range(m):
            idx = rng.choice(n, int(0.4 * n), replace=False)
            votes[idx, j] = rng.choice([-1, 1], idx.size)
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        together, _ = extend_votes(emb, vm, RadiusConfig([0.5] * m, weighting), threads=2)
        for j in range(m):
            radii = np.zeros(m)
            radii[j] = 0.5
            single, _ = extend_votes(emb, vm, RadiusConfig(radii, weighting), threads=1)
            assert np.array_equal(together.votes[:, j], single.votes[:, j])


class TestNearestInSupport:
    def test_matches_extension_threshold(self):
        rng = np.random.default_rng(9)
        x, votes, _ = random_instance(rng)
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        j = 0
        queries, dist, col = nearest(emb, vm, j)
        for r in (0.2, 0.7, 1.3):
            radii = np.zeros(votes.shape[1])
            radii[j] = r
            ext, _ = extend_votes(emb, vm, RadiusConfig(radii))
            sel = dist <= r
            expected = votes[:, j].copy()
            expected[queries[sel]] = votes[np.minimum(col[sel], vm.n - 1), j]
            assert np.array_equal(ext.votes[:, j], expected)


    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_neighbors_at_nearest_distance_start_with_nearest(self, metric):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((300, 16))
        votes = rng.choice([-1, 0, 1], size=(300, 1), p=[0.25, 0.5, 0.25])
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        queries, dist, best = nearest(emb, vm, 0, metric=Metric(metric))
        for q, r, k in zip(queries, dist, best):
            ns = neighbors_in_support(emb, vm, 0, int(q), float(r), metric=Metric(metric))
            assert ns.indices[0] == k and ns.distances[0] == r


class TestNeighborTables:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
    def test_columns_equal_extend_votes_at_every_grid_radius(self, weighting, metric):
        rng = np.random.default_rng(15)
        n, m = 240, 3
        x = rng.standard_normal((n, 4))
        x[120:160] = x[:40]  # duplicate points
        votes = rng.choice([-1, 0, 1], size=(n, m), p=[0.3, 0.4, 0.3])
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        dist = brute_force_distances(x, metric)
        abst = votes[:, 0] == 0
        assert (dist[np.ix_(abst, ~abst)] <= 1e-15).any()  # a duplicate straddles source 0's support
        values = np.unique(dist[dist > 1e-12])
        grid = np.concatenate([[0.0], values[(np.array([0.005, 0.05, 0.2, 0.6]) * values.size).astype(int)]])
        expected = {
            r: extend_votes(emb, vm, RadiusConfig(np.full(m, r), weighting), metric=Metric(metric))[0]
            for r in grid[1:]
        }
        # tiny blocks: every source splits into many runs of rows and ranges of columns
        with mock.patch.multiple(extension, _CHUNK_ELEMS=700, _BLOCK_ROWS=1):
            for threads in (1, 2):
                tables = neighbor_tables(emb, vm, {j: grid for j in range(m)}, weighting,
                                         Metric(metric), threads)
                for j, table in tables.items():
                    assert np.array_equal(table.column(vm, 0.0), votes[:, j])
                    for r in grid[1:]:
                        assert np.array_equal(table.column(vm, r), expected[r].votes[:, j]), (j, r)

    def test_wsum_radius_must_be_on_the_grid(self):
        rng = np.random.default_rng(16)
        x, votes, _ = random_instance(rng)
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        table = neighbor_tables(emb, vm, {0: [0.5, 0.2]}, Weighting.THRESHOLDED_WEIGHTED_SUM)[0]
        np.testing.assert_array_equal(table.radii, [0.2, 0.5])
        table.column(vm, 0.5)
        with pytest.raises(ValueError, match="not on the grid"):
            table.column(vm, 0.3)

    def test_1nn_radius_beyond_the_cap_is_refused(self):
        rng = np.random.default_rng(16)
        x, votes, _ = random_instance(rng)
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        table = neighbor_tables(emb, vm, {0: [0.5, 0.2]}, Weighting.ONE_NEAREST_NEIGHBOR)[0]
        assert table.radii[-1] == 0.5  # the cap
        m = votes.shape[1]
        for r in (0.0, 0.3, 0.5):  # any radius up to the cap, on the grid or not
            assert np.array_equal(table.column(vm, r), brute_force_extend(x, votes, np.full(m, r), "1nn")[:, 0])
        for read in (table.reached, partial(table.column, vm)):
            with pytest.raises(ValueError, match="beyond the cap"):
                read(0.6)
        # an empty grid scans nothing: no nearest point, no cells, and no positive radius answered
        with mock.patch.object(extension, "_ClassPairs", side_effect=AssertionError("scanned")):
            empties = {w: neighbor_tables(emb, vm, {0: ()}, w)[0] for w in Weighting}
        for w, empty in empties.items():
            assert empty.cells == 0 and np.array_equal(empty.column(vm, 0.0), votes[:, 0])
            if w is Weighting.ONE_NEAREST_NEIGHBOR:
                assert np.isinf(empty.best_dist).all() and (empty.best_col == vm.n).all()
            for read in (empty.reached, partial(empty.column, vm)):
                with pytest.raises(ValueError, match="beyond the cap" if w is Weighting.ONE_NEAREST_NEIGHBOR else "grid"):
                    read(1e-9)

    @pytest.mark.parametrize("grid", [[-0.1, 0.2], [0.2, np.nan], [np.inf]], ids=["negative", "nan", "inf"])
    def test_bad_grid_is_data_error(self, grid):
        x = np.eye(3)
        vm = VoteMatrix(np.array([[1], [0], [-1]]))
        for w in Weighting:
            with pytest.raises(DataError, match="finite and nonnegative"):
                neighbor_tables(EmbeddingSet(x), vm, {0: grid}, w)


class TestCoverageAndOverlap:
    def test_coverage_examples(self):
        votes = VoteMatrix(np.array([[0, 1, 1], [0, 1, 0], [0, 1, -1], [0, 1, 0]]))
        np.testing.assert_allclose(coverage(votes), [0.0, 1.0, 0.5], atol=0)

    def test_min_overlap_identical_columns(self):
        votes = VoteMatrix(np.array([[1, 1], [-1, -1], [1, 1]]))
        assert min_overlap(votes) == 1.0

    def test_min_overlap_disjoint(self):
        votes = VoteMatrix(np.array([[1, 0], [0, 1]]))
        assert min_overlap(votes) == 0.0

    def test_min_overlap_enumeration(self):
        # supports {0,1,2} and {2,3} over n=4: intersection {2} -> 1/4
        votes = VoteMatrix(np.array([[1, 0], [1, 0], [-1, 1], [0, 1]]))
        assert min_overlap(votes) == 0.25

    def test_min_overlap_requires_two_sources(self):
        with pytest.raises(ValueError):
            min_overlap(VoteMatrix(np.array([[1], [0]])))


class TestNewlyLabeledRegionBound:
    def test_region_mass_respects_smoothness_product(self):
        # measured |newly labeled|/n >= L * p_d * p_i - 0.05 on a planar task
        from weakext.diagnostics import estimate_profile
        from weakext.experiments import generate_checkerboard

        task = generate_checkerboard(4000, 10, 3, (0.9, 0.8, 0.8), (0.15, 0.6, 0.6), seed=21)
        radii = np.array([0.05, 0.1, 0.2])
        profile = estimate_profile(
            task.embeddings, radii, votes=task.votes, budget=200_000, seed=0, metric=Metric.EUCLIDEAN
        )
        p = coverage(task.votes)
        for k, r in enumerate(radii):
            cfg = np.zeros(3)
            cfg[0] = r
            _, rep = extend_votes(task.embeddings, task.votes, RadiusConfig(cfg), metric=Metric.EUCLIDEAN)
            lhs = rep.newly_labeled_fraction[0]
            rhs = profile.support_disagreement[0, k] * profile.pair_fraction[k] * p[0]
            assert lhs >= rhs - 0.05


# score cells per fold piece: one row, or a few rows of a narrow support
PIECE_SIZES = hst.sampled_from([1, 7, 64])


@hst.composite
def exact_instances(draw):
    """Instances whose distances are exact in float32 and float64 alike.

    Euclidean points sit on a small integer lattice, shifted by 0, 1024 or
    2**20 and then scaled by 2**-40, 1 or 2**40 (powers of two, so still
    exact); cosine points have 1, 4 or 16 entries of +-1 in 16 dims, so
    unit rows and their dot products are dyadic.  Duplicated rows, all-tie
    neighbourhoods (every row from a pool of two or three points) and radii
    equal to an occurring distance make ties and on-radius pairs exact.
    """
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    metric = draw(hst.sampled_from(["cosine", "euclidean"]))
    n = draw(hst.integers(150, 260))
    m = draw(hst.integers(1, 3))
    pool = draw(hst.sampled_from([None, 2, 3]))
    n_distinct = pool or n
    if metric == "euclidean":
        d = draw(hst.integers(1, 4))
        x = rng.integers(0, draw(hst.integers(1, 4)) + 1, (n_distinct, d)).astype(np.float64)
        x += draw(hst.sampled_from([0.0, 1024.0, 2.0**20]))
        x[(x == 0).all(axis=1), 0] = 1.0  # all-zero rows are invalid input
        x *= draw(hst.sampled_from([2.0**-40, 1.0, 2.0**40]))
    else:
        x = np.zeros((n_distinct, 16))
        for row in x:
            nnz = rng.choice([1, 4, 16])
            row[rng.choice(16, nnz, replace=False)] = rng.choice([-1.0, 1.0], nnz)
        x *= 2.0 ** rng.integers(-2, 3, (n_distinct, 1))  # scaled duplicates in cosine
    if pool is not None:
        x = x[rng.integers(0, pool, n)]
    else:
        dup = rng.random(n) < draw(hst.sampled_from([0.0, 0.3, 0.7]))
        dup[0] = False
        for i in np.flatnonzero(dup):
            x[i] = x[rng.integers(0, i)]
    p_vote = draw(hst.floats(0.1, 0.9))
    votes = rng.choice([-1, 0, 1], size=(n, m), p=[p_vote / 2, 1 - p_vote, p_vote / 2])
    radii = rng.choice(np.unique(brute_force_distances(x, metric)), m)
    radii[rng.random(m) < 0.15] = 0.0
    chunk_elems = draw(hst.integers(1, 4000))
    return x, votes, radii, metric, chunk_elems, draw(hst.sampled_from([1, 5, 16, 256])), draw(PIECE_SIZES)


@hst.composite
def radius_shells(draw):
    """Support points on shells at distance ``r * (1 +- eps)`` around centers.

    ``eps`` in [1e-10, 1e-8] is far above float64 rounding but far below
    the float32 score error, so only the float64 re-check of the band
    sorts the shell into inside and outside, and nearest points differ
    by less than float32 can resolve.
    """
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    metric = draw(hst.sampled_from(["cosine", "euclidean"]))
    d = draw(hst.integers(2, 16))
    r = draw(hst.sampled_from([0.05, 0.3, 0.7]))
    rows = []
    for c in rng.standard_normal((draw(hst.integers(1, 4)), d)):
        rows.append(c)
        k = draw(hst.integers(10, 60))
        s = r * (1.0 + rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-10, -8, k))
        v = rng.standard_normal((k, d))
        if metric == "euclidean":
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            rows.append(c + s[:, None] * v)
        else:
            cu = c / np.linalg.norm(c)
            v -= (v @ cu)[:, None] * cu
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            rows.append((1.0 - s)[:, None] * cu + np.sqrt(s * (2.0 - s))[:, None] * v)
    x = np.vstack(rows)
    n, m = x.shape[0], draw(hst.integers(1, 3))
    votes = rng.choice([-1, 1], size=(n, m))
    votes[rng.random((n, m)) < draw(hst.floats(0.1, 0.5))] = 0
    radii = np.full(m, r)
    return (x, votes, radii, metric, draw(hst.integers(1, 4000)), draw(hst.sampled_from([1, 5, 16, 256])),
            draw(PIECE_SIZES))


def _check_against_oracles(x, votes, radii, metric, chunk_elems, tile_rows, piece_cells):
    # one more source votes on source 0's support, some votes flipped: the
    # two share one scan wherever their radii agree
    flip = np.random.default_rng(votes.shape[0]).choice([-1, 1], votes.shape[0])
    votes, radii = np.column_stack([votes, votes[:, 0] * flip]), np.append(radii, radii[0])
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    m = votes.shape[1]
    # tiny chunks, fold pieces and tiles: every source splits into many query
    # chunks at n ~ 200, pruned tiles mix with whole ones, and a chunk's fold
    # walks pieces of one row or several, its last one short
    patches = dict(_CHUNK_ELEMS=chunk_elems, _BLOCK_ROWS=1, _TILE_ROWS=tile_rows, _PIECE_CELLS=piece_cells)
    with mock.patch.multiple(extension, **patches):
        for w in Weighting:
            expected = brute_force_extend(x, votes, radii, w.value, metric=metric)
            for threads in (1, 2, 4):
                ext, _ = extend_votes(emb, vm, RadiusConfig(radii, w), metric=Metric(metric), threads=threads)
                assert np.array_equal(ext.votes, expected), (w, threads)
        want = [brute_force_nearest(x, votes, j, metric) for j in range(m)]
        grids = dict.fromkeys(range(m), [covering(x, metric)])
        for threads in (1, 2, 4):
            tables = neighbor_tables(emb, vm, grids, metric=Metric(metric), threads=threads)
            for j, t in tables.items():
                assert np.array_equal(t.queries, want[j][0]) and np.array_equal(t.best_col, want[j][2]), threads
                # the oracle's Euclidean norms and the scan's may differ in the last bits
                np.testing.assert_allclose(t.best_dist, want[j][1], rtol=1e-14, atol=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(exact_instances())
def test_chunked_scan_matches_oracles_on_exact_ties(instance):
    _check_against_oracles(*instance)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(radius_shells())
def test_chunked_scan_matches_oracles_inside_float32_band(instance):
    _check_against_oracles(*instance)


def _same_on_both_folds(scan, tables, label):
    """``scan()`` gives ``tables`` with every block folded densely, then from its hits, in its own blocks and in tiny ones.

    A ``_SPARSE_HITS`` of -1 sends every block to the dense fold; a huge one
    folds every block of a scan with a floor from its hits.  A cap of 64
    cells in blocks of 4 rows cuts the columns into ranges of 16 (fewer
    rows only against fewer columns), which cut through most class slices
    of a class-pair scan and through a tiled group's support.
    """
    for limit in (-1, 10**9):
        for tiny in ({}, {"_CHUNK_ELEMS": 64, "_BLOCK_ROWS": 4}):
            with mock.patch.multiple(extension, _SPARSE_HITS=limit, **tiny):
                again = scan()
            for j, t in tables.items():
                for name in ("best_dist", "best_col", "in_count", "vote_sum"):
                    a, b = getattr(t, name), getattr(again[j], name)
                    assert (a is None and b is None) or a.tobytes() == b.tobytes(), (label, limit, tiny, j, name)


def _class_pair_cells(votes, sources):
    """Cells of one class-pair scan of ``sources``: pairs of points with different vote patterns."""
    key = sum((votes[:, j] != 0).astype(np.int64) << b for b, j in enumerate(sources))
    sizes = np.bincount(key)
    return (votes.shape[0] ** 2 - int((sizes**2).sum())) // 2


def _check_class_pairs(x, votes, grid, metric, chunk_elems, piece_cells):
    """Every table of one scan equals its one-source scan and the oracles; cells per batch."""
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    n, m = votes.shape
    expected = {(w, r): brute_force_extend(x, votes, np.full(m, r), w.value, metric) for w in Weighting for r in grid}
    nearest_want = [brute_force_nearest(x, votes, j, metric, cap=max(grid)) for j in range(m)]
    # sources with queries and support, in batches of _CLASS_SOURCES
    scanned = [j for j in range(m) if 0 < (votes[:, j] != 0).sum() < n]
    batches = [scanned[i : i + extension._CLASS_SOURCES] for i in range(0, len(scanned), extension._CLASS_SOURCES)]
    with mock.patch.multiple(extension, _CHUNK_ELEMS=chunk_elems, _BLOCK_ROWS=1, _PIECE_CELLS=piece_cells):
        for w in Weighting:
            alone = {j: neighbor_tables(emb, vm, {j: grid}, w, Metric(metric), 1)[j] for j in range(m)}
            for threads in (1, 2, 4):
                scan = partial(neighbor_tables, emb, vm, dict.fromkeys(range(m), grid), w, Metric(metric), threads)
                tables = scan()
                _same_on_both_folds(scan, tables, (w, threads))
                for j, t in tables.items():
                    for name in ("best_dist", "best_col", "in_count", "vote_sum"):
                        a, b = getattr(t, name), getattr(alone[j], name)
                        assert (a is None and b is None) or np.array_equal(a, b), (w, j, name, threads)
                    for r in grid:
                        assert np.array_equal(t.column(vm, r), expected[w, r][:, j]), (w, j, r, threads)
                    if w is Weighting.ONE_NEAREST_NEIGHBOR:
                        assert np.array_equal(t.best_col, nearest_want[j][2]), (j, threads)
                        np.testing.assert_allclose(t.best_dist, nearest_want[j][1], rtol=1e-14, atol=1e-15)
                # a wsum grid without a positive radius has nothing to scan
                live = batches if w is Weighting.ONE_NEAREST_NEIGHBOR or max(grid) > 0 else []
                for batch in live:
                    assert tables[batch[0]].cells == _class_pair_cells(votes, batch) > 0, (w, batch)
                assert all(tables[j].cells == 0 for j in set(range(m)) - {batch[0] for batch in live})


@hst.composite
def untiled_instances(draw, m):
    """Rows on a sphere in 96 dims, where no tile can prune, with ``m`` sources.

    Each source votes on 15-70% of the points; one point votes on every
    source but a last one with no support, added when drawn.  The grid
    holds 0 and radii between distances near quantiles up to the median,
    so every wsum scan is untiled too.
    """
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    metric = draw(hst.sampled_from(["cosine", "euclidean"]))
    n = draw(hst.integers(80, 200))
    x = rng.standard_normal((n, 96))
    x *= 3.0 / np.linalg.norm(x, axis=1, keepdims=True)
    votes = np.zeros((n, m), dtype=int)
    for j in range(m):
        on = rng.random(n) < rng.uniform(0.15, 0.7)
        votes[on, j] = rng.choice([-1, 1], on.sum())
    votes[rng.integers(n)] = rng.choice([-1, 1], m)
    if draw(hst.booleans()):
        votes = np.column_stack([votes, np.zeros(n, dtype=int)])
    values = np.unique(brute_force_distances(x, metric))
    k = (np.array([0.002, 0.05, 0.5]) * values.size).astype(int)
    grid = np.concatenate([[0.0], (values[k] + values[k + 1]) / 2])  # between occurring distances
    return x, votes, grid, metric, draw(hst.integers(1, 3000)), draw(PIECE_SIZES)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_class_pair_scan_matches_one_source_scans_and_oracles(m):
    # 8 sources take two batches of at most _CLASS_SOURCES = 6; up to 4
    # workers switch often, and the stores they fill must merge into the
    # same tables
    plans = []

    def tile_tasks(space, st):
        plans.append(plan(space, st))
        return plans[-1]

    plan = extension._tile_tasks

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(untiled_instances(m))
    def check(instance):
        with mock.patch.object(extension, "_tile_tasks", tile_tasks):
            _check_class_pairs(*instance)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        check()
    finally:
        sys.setswitchinterval(switch)
    assert plans and all(p is None for p in plans)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(exact_instances())
def test_class_pair_scan_matches_oracles_on_exact_ties(instance):
    # low-dimensional instances would be tiled; scanning them by class
    # pairs anyway puts exact ties, duplicates and on-radius pairs there
    x, votes, radii, metric, chunk_elems, _, piece_cells = instance
    grid = np.unique(np.append(radii, 0.0))
    with mock.patch.object(extension, "_tile_tasks", lambda space, st: None):
        _check_class_pairs(x, votes, grid, metric, chunk_elems, piece_cells)


def test_class_pair_scan_joins_1nn_sources_of_any_grid():
    # a 1nn table answers every radius, so 1nn sources on different grids
    # share one class-pair scan, even two with one support (one bit twice);
    # wsum scans each grid apart
    rng = np.random.default_rng(28)
    n = 300
    x = rng.standard_normal((n, 96))
    votes = np.zeros((n, 3), dtype=int)
    for j in range(2):
        on = rng.random(n) < 0.4
        votes[on, j] = rng.choice([-1, 1], on.sum())
    votes[:, 2] = -votes[:, 0]
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    grids = {0: [0.5], 1: [0.7], 2: [0.9]}
    owned = {Weighting.ONE_NEAREST_NEIGHBOR: [_class_pair_cells(votes, [0, 1, 2]), 0, 0],
             Weighting.THRESHOLDED_WEIGHTED_SUM: [_class_pair_cells(votes, [j]) for j in range(3)]}
    for w in Weighting:
        for threads in (1, 2):
            tables = neighbor_tables(emb, vm, grids, w, Metric.COSINE, threads)
            assert [t.cells for t in tables.values()] == owned[w], (w, threads)
            for j, t in tables.items():
                alone = neighbor_tables(emb, vm, {j: grids[j]}, w, Metric.COSINE, 1)[j]
                for name in ("best_dist", "best_col", "in_count", "vote_sum"):
                    a, b = getattr(t, name), getattr(alone, name)
                    assert (a is None and b is None) or np.array_equal(a, b), (w, j, name, threads)
                r = grids[j][0]
                assert np.array_equal(t.column(vm, r), brute_force_extend(x, votes, np.full(3, r), w.value)[:, j])


def _folds(fn):
    """``(fn(), folds)``: each block's fold, ``"hits"`` or ``"dense"``."""
    folds, spies = [], {}
    for name in ("_nearest", "_weighted", "_nearest_hits", "_weighted_hits"):
        kind = "hits" if name.endswith("_hits") else "dense"
        def spy(self, *args, real=getattr(extension._ClassPairs, name), kind=kind):
            folds.append(kind)
            return real(self, *args)
        spies[name] = spy
    with mock.patch.multiple(extension._ClassPairs, **spies):
        return fn(), folds


@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_high_dimensional_scan_folds_hits_and_a_wide_planar_one_folds_densely(weighting):
    # at d=128 few cells lie within cosine radius 0.7, so every block is
    # folded from its hits; a planar radius beyond the data's spread makes
    # every cell a hit, so every block is folded densely
    rng = np.random.default_rng(30)
    n, m = 1500, 3
    votes = np.zeros((n, m), dtype=int)
    for j in range(m):
        on = rng.random(n) < 0.3
        votes[on, j] = rng.choice([-1, 1], on.sum())
    vm = VoteMatrix(votes)
    for x, metric, r, kind in [(rng.standard_normal((n, 128)), "cosine", 0.7, "hits"),
                               (rng.standard_normal((n, 2)), "euclidean", 100.0, "dense")]:
        scan = partial(neighbor_tables, EmbeddingSet(x), vm, dict.fromkeys(range(m), [r]), weighting, Metric(metric), 2)
        tables, folds = _folds(scan)
        assert folds and set(folds) == {kind}, (metric, set(folds))
        want = brute_force_extend(x, votes, np.full(m, r), weighting.value, metric)
        for j, t in tables.items():
            assert np.array_equal(t.column(vm, r), want[:, j]), (metric, j)


def test_one_1nn_batch_holds_tables_of_different_caps():
    # three caps share one class-pair scan whose hits lie within the widest;
    # each table keeps only the nearest points within its own cap, whether
    # the blocks are folded from their hits or, with no hit allowed, densely
    rng = np.random.default_rng(31)
    n, m = 400, 4
    x = rng.standard_normal((n, 96))
    votes = np.zeros((n, m), dtype=int)
    for j in range(m):
        on = rng.random(n) < 0.4
        votes[on, j] = rng.choice([-1, 1], on.sum())
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    values = np.unique(brute_force_distances(x))
    k = (np.array([0.0005, 0.003, 0.01]) * values.size).astype(int)
    caps = (values[k] + values[k + 1]) / 2  # between occurring distances
    grids = {j: [cap] for j, cap in enumerate(caps)}
    for limit, kind in [(extension._SPARSE_HITS, "hits"), (-1, "dense")]:
        for threads in (1, 2):
            with mock.patch.object(extension, "_SPARSE_HITS", limit):
                tables, folds = _folds(partial(neighbor_tables, emb, vm, grids, Weighting.ONE_NEAREST_NEIGHBOR,
                                               Metric.COSINE, threads))
            assert folds and set(folds) == {kind}, (kind, set(folds))
            assert tables[0].cells == _class_pair_cells(votes, list(grids)) > 0
            assert all(tables[j].cells == 0 for j in list(grids)[1:])
            for j, t in tables.items():
                assert t.radii.tolist() == grids[j]
                q, d, b = brute_force_nearest(x, votes, j, cap=grids[j][0])
                assert np.array_equal(t.queries, q) and np.array_equal(t.best_col, b), (kind, j, threads)
                np.testing.assert_allclose(t.best_dist, d, rtol=1e-14, atol=1e-15)
                assert np.isinf(t.best_dist).any(), (kind, j)  # a cap leaves some unreached


def _scan_kinds(fn):
    """``(fn(), kinds)``: the scan's blocks as ``"pruned"`` (a tile on some columns) or ``"whole"``."""
    kinds = []

    def spy(self, own, a, r0, r1, cols, buf):
        kinds.append("whole" if isinstance(cols, slice) else "pruned")
        return call(self, own, a, r0, r1, cols, buf)

    call = extension._ClassPairs.__call__
    with mock.patch.object(extension._ClassPairs, "__call__", spy):
        return fn(), kinds


def _planned(fn):
    """``(fn(), plans)``: each ``_tile_tasks`` plan of ``fn``'s scans."""
    plans, plan = [], extension._tile_tasks

    def spy(space, st):
        plans.append(plan(space, st))
        return plans[-1]

    with mock.patch.object(extension, "_tile_tasks", spy):
        return fn(), plans


def _rechecked(fn):
    """Sorted ``(query, support)`` pairs ``fn``'s scan re-decides in float64."""
    with mock.patch.object(extension, "paired_distances", wraps=extension.paired_distances) as spy:
        fn()
    return sorted(pair for call in spy.call_args_list for pair in zip(call.args[1].tolist(), call.args[2].tolist()))


def _whole_tiles(space, st, plan=extension._tile_tasks):
    """The tiled plan with every tile keeping every column: each task widened, and one more for the idle rows."""
    tiles = plan(space, st)
    if tiles is None:
        return None
    rows, tasks = tiles
    end = tasks[-1][1] if tasks else 0
    return rows, [(r0, r1, None) for r0, r1, _ in tasks] + [(end, rows.size, None)]


def _check_pruned_scan(x, votes, grid, metric, tile_rows=8, chunk_elems=2000):
    """Tables of every weighting and thread count match the oracles, on scans that prune; returns their plans."""
    plans = []
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    m = votes.shape[1]
    full = sum(int((votes[:, j] == 0).sum() * (votes[:, j] != 0).sum()) for j in range(m))
    extended = {(w, r): brute_force_extend(x, votes, np.full(m, r), w.value, metric) for w in Weighting for r in grid}
    nearest_want = [brute_force_nearest(x, votes, j, metric, cap=max(grid)) for j in range(m)]
    grids = {j: grid for j in range(m)}
    with mock.patch.multiple(extension, _TILE_ROWS=tile_rows, _CHUNK_ELEMS=chunk_elems, _BLOCK_ROWS=1):
        for w in Weighting:
            # a dropped column is one the fold rejects without a float64 check
            # (the reference: the same tiles, each keeping every column)
            pruned = _rechecked(partial(neighbor_tables, emb, vm, grids, w, Metric(metric), 1))
            with mock.patch.object(extension, "_tile_tasks", _whole_tiles):
                whole = _rechecked(partial(neighbor_tables, emb, vm, grids, w, Metric(metric), 1))
            assert pruned == whole, w
            for threads in (1, 2, 4):
                scan = partial(neighbor_tables, emb, vm, grids, w, Metric(metric), threads)
                (tables, kinds), seen = _planned(partial(_scan_kinds, scan))
                plans += seen
                assert "pruned" in kinds and sum(t.cells for t in tables.values()) < full, (w, kinds)
                _same_on_both_folds(scan, tables, (w, threads))
                # planned untiled, by class pairs, the one fold gives the same tables bit for bit
                with mock.patch.object(extension, "_tile_tasks", lambda space, st: None):
                    untiled = scan()
                for j, table in tables.items():
                    for name in ("best_dist", "best_col", "in_count", "vote_sum"):
                        a, b = getattr(table, name), getattr(untiled[j], name)
                        assert (a is None and b is None) or a.tobytes() == b.tobytes(), (w, j, name, threads)
                for j, table in tables.items():
                    if w is Weighting.ONE_NEAREST_NEIGHBOR:
                        assert np.array_equal(table.best_col, nearest_want[j][2]), (j, threads)
                        np.testing.assert_allclose(table.best_dist, nearest_want[j][1], rtol=1e-14, atol=1e-15)
                    for r in grid:
                        assert np.array_equal(table.column(vm, r), extended[w, r][:, j]), (w, j, r, threads)
    return plans


def _lattice(rng, n_side=20):
    """Queries on an ``n_side`` square lattice; source 0's voters sit 5 from two of its
    corners, between lattice points and in a far cluster, source 1's anywhere."""
    q = np.stack(np.meshgrid(np.arange(n_side), np.arange(n_side)), -1).reshape(-1, 2) + 1.0
    ring = np.array([[-2.0, -3.0], [-3.0, -2.0], [-4.0, 1.0], [1.0, -4.0]])  # 5 from the corner (1, 1)
    far = rng.integers(60, 70, (40, 2)).astype(np.float64)
    supp = np.vstack([ring, ring + n_side + 2, q[rng.choice(q.shape[0], 30, replace=False)] + 0.5, far])
    x = np.vstack([q, supp])
    votes = np.zeros((x.shape[0], 2), dtype=int)
    votes[q.shape[0] :, 0] = rng.choice([-1, 1], supp.shape[0])
    votes[rng.choice(x.shape[0], 120, replace=False), 1] = rng.choice([-1, 1], 120)
    return x, votes


class TestPrunedScan:
    def test_support_exactly_at_the_largest_radius_from_a_tile_corner(self):
        # the corner query (1, 1) opens its tile's box; (-2, -3) and its
        # kin sit at exactly 5, the largest grid radius
        x, votes = _lattice(np.random.default_rng(20))
        assert brute_force_distances(x, "euclidean")[0, 400] == 5.0
        plans = _check_pruned_scan(x, votes, [1.0, 2.5, 5.0], "euclidean")
        # source 1's 1nn plan holds a tile keeping every column, a task of its own beside the pruned ones
        assert any(p is not None and {keep is None for _, _, keep in p[1]} == {True, False} for p in plans)

    def test_duplicates_split_across_tiles(self):
        rng = np.random.default_rng(21)
        x, votes = _lattice(rng)
        x[rng.choice(400, 60, replace=False)] = x[7]  # one query row many times over
        x[400:430] = x[rng.choice(400, 30)]  # support rows equal to query rows
        _check_pruned_scan(x, votes, [0.0, 1.0, 3.0], "euclidean", tile_rows=5)

    @pytest.mark.parametrize("scale", [2.0**-40, 2.0**40], ids=["2^-40", "2^40"])
    def test_shifted_and_scaled_rows(self, scale):
        x, votes = _lattice(np.random.default_rng(22))
        _check_pruned_scan((x + 1e3) * scale, votes, [scale, 2.5 * scale, 5.0 * scale], "euclidean")

    def test_cosine_rows_on_a_circle(self):
        # angles k/2 degrees, offset by a third of a step for source 0's
        # voters and two thirds for source 1's, so no query lies midway
        # between two voters (a tie rounding could break either way);
        # duplicates at one angle, scaled by powers of two, tie exactly
        rng = np.random.default_rng(23)
        step = np.pi / 360
        kind = rng.integers(0, 3, 600)
        angle = (rng.integers(0, 720, 600) + kind / 3) * step
        x = np.stack([np.cos(angle), np.sin(angle)], 1) * rng.choice([0.5, 1.0, 4.0], (600, 1))
        votes = np.zeros((600, 2), dtype=int)
        for j in range(2):
            voters = (kind == j + 1) & (rng.random(600) < 0.4)
            votes[voters, j] = rng.choice([-1, 1], voters.sum())
        values = np.unique(brute_force_distances(x))
        k = np.flatnonzero(np.diff(values) > 1e-9)[[3, 30, 100]]
        grid = (values[k] + values[k + 1]) / 2  # well between occurring distances
        _check_pruned_scan(x, votes, grid, "cosine", tile_rows=16)

    def test_plan_pruning_nothing_is_scanned_by_class_pairs(self):
        # offset-euclid's shape: 16-d uniform rows shifted by 1000, too
        # spread for the ball test to skip the tiling, yet every 1nn tile
        # keeps every column; such a plan is None, so the three sources
        # share one class-pair scan
        rng = np.random.default_rng(36)
        n, m, r = 1200, 3, 0.8
        x = rng.random((n, 16)) + 1000.0
        votes = np.zeros((n, m), dtype=int)
        for j in range(m):
            on = rng.random(n) < 0.2
            votes[on, j] = rng.choice([-1, 1], on.sum())
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        scan = partial(neighbor_tables, emb, vm, dict.fromkeys(range(m), [r]), Weighting.ONE_NEAREST_NEIGHBOR,
                       Metric.EUCLIDEAN, threads=2)
        with mock.patch.object(extension, "_kd_tiles", wraps=extension._kd_tiles) as tiled:
            tables, plans = _planned(scan)
        assert tiled.call_count == m and len(plans) == m and all(p is None for p in plans)
        assert [t.cells for t in tables.values()] == [_class_pair_cells(votes, list(range(m))), 0, 0]
        want = brute_force_extend(x, votes, np.full(m, r), "1nn", "euclidean")
        for j, t in tables.items():
            q, d, b = brute_force_nearest(x, votes, j, "euclidean", cap=r)
            assert np.array_equal(t.queries, q) and np.array_equal(t.best_col, b), j
            np.testing.assert_allclose(t.best_dist, d, rtol=1e-14, atol=1e-15)
            assert np.array_equal(t.column(vm, r), want[:, j]), j

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_wsum_scan_with_every_tile_beyond_reach_scores_nothing(self, metric):
        # the source votes on one cluster and abstains on the other, far
        # beyond the largest radius: a plan with no task
        rng = np.random.default_rng(26)
        x = np.repeat([[10.0, 0.0], [0.0, 10.0]], 300, axis=0) + 0.1 * rng.standard_normal((600, 2))
        votes = np.zeros((600, 1), dtype=int)
        votes[:300, 0] = rng.choice([-1, 1], 300)
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        grid = [0.01, 0.02]
        for threads in (1, 2):
            table = neighbor_tables(emb, vm, {0: grid}, Weighting.THRESHOLDED_WEIGHTED_SUM, Metric(metric), threads)[0]
            assert table.cells == 0
            for r in grid:
                assert np.array_equal(table.column(vm, r), brute_force_extend(x, votes, [r], "wsum", metric)[:, 0])


class TestScoredCells:
    def test_planar_wsum_scan_scores_under_half_the_cells(self):
        from weakext.experiments import generate_checkerboard

        task = generate_checkerboard(6000, 10, 3, (0.9, 0.8, 0.8), (0.2, 0.15, 0.15), seed=24)
        votes = task.votes.votes
        grid = np.linspace(0.025, 0.2, 8)
        tables = neighbor_tables(task.embeddings, task.votes, {j: grid for j in range(3)},
                                 Weighting.THRESHOLDED_WEIGHTED_SUM, Metric.EUCLIDEAN, threads=2)
        full = [int((votes[:, j] == 0).sum() * (votes[:, j] != 0).sum()) for j in range(3)]
        assert all(0 < t.cells < 0.5 * f for t, f in zip(tables.values(), full)), [t.cells for t in tables.values()]
        again = neighbor_tables(task.embeddings, task.votes, {j: grid for j in range(3)},
                                Weighting.THRESHOLDED_WEIGHTED_SUM, Metric.EUCLIDEAN, threads=1)
        assert [t.cells for t in again.values()] == [t.cells for t in tables.values()]

    @pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
    def test_high_dimensional_gaussian_scores_every_cell_in_unpruned_chunks(self, weighting):
        # the C7 shape: nothing prunes, so both sources are scanned by class
        # pairs; each block is a chunk of one vote-pattern class's rows
        # against every higher class, so each pair of points with different
        # patterns is scored once and no pair within a class
        rng = np.random.default_rng(25)
        n, m = 3000, 2
        x = rng.standard_normal((n, 128))
        votes = np.zeros((n, m), dtype=int)
        for j in range(m):
            on = rng.random(n) < 0.3
            votes[on, j] = rng.choice([-1, 1], on.sum())
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        blocks, plans = [], []

        def tile_tasks(space, st):
            plans.append(plan(space, st))
            return plans[-1]

        def pairs(self, own, a, r0, r1, cols, buf):
            blocks.append((a, r0, r1, cols.start, cols.stop))
            return call(self, own, a, r0, r1, cols, buf)

        cap, plan, call = 100_000, extension._tile_tasks, extension._ClassPairs.__call__
        with mock.patch.multiple(extension, _CHUNK_ELEMS=cap, _tile_tasks=tile_tasks):
            with mock.patch.object(extension._ClassPairs, "__call__", pairs):
                tables = neighbor_tables(emb, vm, {j: [0.7] for j in range(m)}, weighting, Metric.COSINE, threads=2)
        assert plans == [None, None]  # no tiled task
        sizes = np.bincount((votes[:, 0] != 0) + 2 * (votes[:, 1] != 0), minlength=4)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        want, shapes = [], []
        for a in range(3):  # the last class has no higher one
            # rows: the fewest runs of at most max(1024, cap // width), within one row of each other
            lo, hi, width = starts[a], starts[a + 1], n - starts[a + 1]
            k = -(-(hi - lo) // max(extension._BLOCK_ROWS, cap // width))
            rows = [lo + (hi - lo) * i // k for i in range(k + 1)]
            want += [(a, r0, r1) for r0, r1 in zip(rows, rows[1:])]
            # columns: every higher class, to the end, in the fewest ranges the cap allows beside the tallest run
            c = -(-width // (cap // -(-(hi - lo) // k)))
            cols = [hi + width * i // c for i in range(c + 1)]
            shapes += [(a, r0, r1, c0, c1) for r0, r1 in zip(rows, rows[1:]) for c0, c1 in zip(cols, cols[1:])]
        assert sorted(blocks) == sorted(shapes)
        assert all((r1 - r0) * (c1 - c0) <= cap for _, r0, r1, c0, c1 in blocks)
        assert min(r1 - r0 for _, r0, r1, _, _ in blocks) > 256  # tall blocks, narrowed by columns
        assert any({c0, c1} - set(starts.tolist()) for _, _, _, c0, c1 in blocks)  # ranges cut through classes
        assert tables[0].cells == sum((r1 - r0) * (n - starts[a + 1]) for a, r0, r1 in want)
        assert tables[0].cells == (n * n - int((sizes**2).sum())) // 2 and tables[1].cells == 0

    @pytest.mark.parametrize("blocks", [dict(_CHUNK_ELEMS=200_000, _BLOCK_ROWS=1), dict(_CHUNK_ELEMS=4096)],
                             ids=["one-piece", "column-pieces"])
    @pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
    def test_sources_sharing_a_support_and_grid_scan_once(self, weighting, blocks):
        # sources 0, 2 and 3 vote on one support with different votes (3 on
        # another grid); source 1 elsewhere: each table equals its own scan
        # bit for bit, also when pruned tiles are cut into column ranges,
        # and the cells the blocks score are counted once
        from weakext.experiments import generate_checkerboard

        task = generate_checkerboard(3000, 10, 3, (0.9, 0.8, 0.8), (0.2, 0.15, 0.15), seed=27)
        v = task.votes.votes
        flip = np.random.default_rng(27).choice([-1, 1], v.shape[0])
        vm = VoteMatrix(np.column_stack([v[:, :2], v[:, 0] * flip, -v[:, 0]]))
        grid = np.linspace(0.0, 0.2, 9)
        grids = {0: grid, 1: grid, 2: grid, 3: grid[:-1]}
        names = ["best_dist", "best_col", "in_count", "vote_sum"]
        with mock.patch.multiple(extension, **blocks):
            alone = {
                j: neighbor_tables(task.embeddings, vm, {j: g}, weighting, Metric.EUCLIDEAN, threads=1)[j]
                for j, g in grids.items()
            }
            for threads in (1, 2, 4):
                scored, pruned = [], []

                def spy(self, own, a, r0, r1, cols, buf):
                    scored.append((r1 - r0) * np.arange(self.key.size)[cols].size)
                    if not isinstance(cols, slice):
                        pruned.append((self.batch[0][0].source, r0, r1))
                    return call(self, own, a, r0, r1, cols, buf)

                call = extension._ClassPairs.__call__
                with mock.patch.object(extension._ClassPairs, "__call__", spy):
                    tables = neighbor_tables(task.embeddings, vm, grids, weighting, Metric.EUCLIDEAN, threads)
                assert sum(t.cells for t in tables.values()) == sum(scored) and max(scored) <= blocks["_CHUNK_ELEMS"]
                # a pruned tile is one piece, or column pieces where its 256 rows would pass the cap
                assert pruned and (len(set(pruned)) < len(pruned)) == ("_BLOCK_ROWS" not in blocks), threads
                assert tables[2].cells == 0 and tables[0].cells == alone[0].cells > 0
                assert tables[3].cells == alone[3].cells > 0  # another grid: its own scan
                for j, t in tables.items():
                    for name in names:
                        a, b = getattr(t, name), getattr(alone[j], name)
                        assert (a is None and b is None) or np.array_equal(a, b), (j, name, threads)


@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_high_dimensional_cosine_agrees_with_brute_force(weighting):
    # d=4096 is past the dimension where the float32 error bound, not the
    # 1e-4 floor, sets the re-check band
    rng = np.random.default_rng(10)
    n, d, m = 300, 4096, 3
    centers = rng.standard_normal((6, d))
    x = centers[rng.integers(0, 6, n)] + 0.6 * rng.standard_normal((n, d))
    votes = rng.choice([-1, 0, 1], size=(n, m), p=[0.2, 0.5, 0.3])
    values = np.unique(brute_force_distances(x))
    # radii halfway between neighbouring distances near chosen quantiles:
    # dense pairs lie within the band, none on the radius itself
    k = (np.array([0.02, 0.1, 0.3]) * values.size).astype(int)
    radii = (values[k] + values[k + 1]) / 2
    tau = extension._ScoreSpace(EmbeddingSet(x), Metric.COSINE).tau
    assert tau > 1e-4
    assert all((np.abs(values - r) <= tau).sum() > 10 for r in radii)
    ext, _ = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, weighting))
    assert np.array_equal(ext.votes, brute_force_extend(x, votes, radii, weighting.value))


@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_high_dimensional_euclidean_agrees_with_brute_force(weighting):
    # d=4096 puts the derived float32 bound above the 2e-4 floor; the
    # shift by 1e3 must not widen the band
    rng = np.random.default_rng(11)
    n, d, m = 300, 4096, 3
    centers = rng.standard_normal((6, d))
    x = centers[rng.integers(0, 6, n)] + 0.6 * rng.standard_normal((n, d)) + 1e3
    votes = rng.choice([-1, 0, 1], size=(n, m), p=[0.2, 0.5, 0.3])
    values = np.unique(brute_force_distances(x, "euclidean"))
    k = (np.array([0.02, 0.1, 0.3]) * values.size).astype(int)
    radii = (values[k] + values[k + 1]) / 2
    space = extension._ScoreSpace(EmbeddingSet(x), Metric.EUCLIDEAN)
    c = (x - x.mean(axis=0)) * space.scale
    assert space.tau > 2e-4 * np.einsum("ij,ij->i", c, c).max()
    assert all((np.abs(values**2 - r**2) * space.scale**2 <= space.tau).sum() > 10 for r in radii)
    ext, _ = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, weighting), Metric.EUCLIDEAN)
    assert np.array_equal(ext.votes, brute_force_extend(x, votes, radii, weighting.value, "euclidean"))


@pytest.mark.parametrize(
    "weighting, rechecked",
    [(Weighting.ONE_NEAREST_NEIGHBOR, 89), (Weighting.THRESHOLDED_WEIGHTED_SUM, 0)],
    ids=["1nn", "wsum"],
)
def test_translation_does_not_widen_the_float64_band(weighting, rechecked):
    # coordinates on a 2**-20 grid, so the shift by 1e3 is exact and moves
    # no distance; count the pairs re-decided in float64 (the pinned counts
    # also hold the band's candidate pass to the same cells)
    rng = np.random.default_rng(12)
    n, m = 600, 4
    x = np.round(rng.random((n, 16)) * 2**20) / 2**20
    votes = rng.choice([-1, 0, 1], size=(n, m), p=[0.1, 0.8, 0.1])
    config = RadiusConfig(np.full(m, 0.8), weighting)
    cells = sum(int((votes[:, j] == 0).sum() * (votes[:, j] != 0).sum()) for j in range(m))
    counts, outs = [], []
    for shift in (0.0, 1e3):
        with mock.patch.object(extension, "paired_distances", wraps=extension.paired_distances) as spy:
            ext, _ = extend_votes(EmbeddingSet(x + shift), VoteMatrix(votes), config, Metric.EUCLIDEAN, threads=1)
        counts.append(sum(len(call.args[1]) for call in spy.call_args_list))
        outs.append(ext.votes)
    assert counts == [rechecked, rechecked] and rechecked < 0.01 * cells, (counts, cells)
    assert np.array_equal(outs[0], outs[1])


def _bits(val):
    """A value as comparable bytes: arrays by dtype and contents, tuples item by item."""
    if isinstance(val, tuple):
        return tuple(map(_bits, val))
    return (val.dtype.str, val.tobytes()) if isinstance(val, np.ndarray) else val


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("metric, offset", [("cosine", 0.0), ("euclidean", 0.0), ("euclidean", 1e3)],
                         ids=["cosine", "euclidean", "euclidean-offset"])
def test_a_float32_held_set_scans_as_its_float64_copy(metric, offset, threads):
    # a loaded set holds its file's float32 rows, and every reader casts them to float64 (exactly), so each
    # value the set derives, every table field and the extended votes equal those of a float64 set, to the bit
    rng = np.random.default_rng(35)
    n, m = 900, 4
    x = (rng.standard_normal((n, 24)) + offset).astype(np.float32)
    votes = VoteMatrix(rng.choice([-1, 0, 1], size=(n, m), p=[0.15, 0.7, 0.15]))
    held, wide = EmbeddingSet(x), EmbeddingSet(x.astype(np.float64))
    assert held.data.dtype == np.float32 and wide.data.dtype == np.float64
    metric = Metric(metric)
    dist = pairwise_distances(wide, np.arange(40), np.arange(n), metric)
    grid = np.quantile(dist[dist > 0], [0.002, 0.01, 0.05])
    pairs, order = rng.integers(0, n, (2, 5000)), rng.permutation(n)
    seen = []
    for emb in (held, wide):
        space = extension._ScoreSpace(emb, metric)
        derived = [emb.norms, emb.unit, space.tau, space.proj, space.resid, space.permuted(order).rows,
                   extension.paired_distances(emb, *pairs, metric), pairwise_distances(emb, [3, 1], [0, 7, 2], metric)]
        if metric is Metric.EUCLIDEAN:
            derived += [space.mean, space.exps, space.scale]
        with mock.patch.object(extension, "_CHUNK_ELEMS", 20_000):  # many tasks for the second worker
            tables = [neighbor_tables(emb, votes, dict.fromkeys(range(m), grid), w, metric, threads) for w in Weighting]
            extended = [extend_votes(emb, votes, RadiusConfig(np.full(m, grid[1]), w), metric, threads) for w in Weighting]
        seen.append((
            [_bits(v) for v in derived],
            [_bits(getattr(t[j], f.name)) for t in tables for j in range(m) for f in fields(t[j])],
            [(ext.votes.tobytes(), report.to_dict()) for ext, report in extended],
        ))
    assert seen[0] == seen[1]
    assert any((ext.votes != votes.votes).any() for ext, _ in extended)  # the radii extend something


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_chunks_of_different_shapes_share_a_worker_buffer(metric):
    # sources at 5%, 40% and 90% coverage in one pool: every worker scores
    # blocks of several widths, and every source ends on a shorter chunk
    rng = np.random.default_rng(17)
    n = 400
    x = rng.standard_normal((n, 5))
    votes = np.zeros((n, 3), dtype=int)
    for j, p in enumerate((0.05, 0.4, 0.9)):
        on = rng.random(n) < p
        votes[on, j] = rng.choice([-1, 1], on.sum())
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    values = np.unique(brute_force_distances(x, metric))
    grid = values[(np.array([0.02, 0.1, 0.3]) * values.size).astype(int)]
    chunk_elems = 1080
    for j in range(3):
        nq, ns = int((votes[:, j] == 0).sum()), int((votes[:, j] != 0).sum())
        assert nq > chunk_elems // ns and nq % (chunk_elems // ns) != 0
    nearest_want = [brute_force_nearest(x, votes, j, metric, cap=grid[-1]) for j in range(3)]
    expected = {
        (w, r): brute_force_extend(x, votes, np.full(3, r), w.value, metric) for w in Weighting for r in grid
    }
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers interleave often on the shared task queue
    try:
        with mock.patch.multiple(extension, _CHUNK_ELEMS=chunk_elems, _BLOCK_ROWS=1):
            scans = {
                (w, threads): neighbor_tables(emb, vm, {j: grid for j in range(3)}, w, Metric(metric), threads)
                for w in Weighting
                for threads in (1, 2, 4)
            }
    finally:
        sys.setswitchinterval(switch)
    for (w, threads), tables in scans.items():
        for j, table in tables.items():
            if w is Weighting.ONE_NEAREST_NEIGHBOR:
                assert np.array_equal(table.best_col, nearest_want[j][2]), (j, threads)
                np.testing.assert_allclose(table.best_dist, nearest_want[j][1], rtol=1e-14, atol=1e-15)
            for r in grid:
                assert np.array_equal(table.column(vm, r), expected[w, r][:, j]), (w, j, r, threads)


def _traced(fn):
    """``(result, bytes still held, peak bytes)`` of ``fn()`` above the memory held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - before, peak - before


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_scan_frees_its_block_buffer(weighting, metric):
    rng = np.random.default_rng(18)
    x = rng.standard_normal((600, 6))
    votes = rng.choice([-1, 0, 1], size=(600, 3), p=[0.2, 0.6, 0.2])
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    grids = {j: [0.3, 0.6] for j in range(3)}
    chunk_elems = 40_000
    with mock.patch.multiple(extension, _CHUNK_ELEMS=chunk_elems, _BLOCK_ROWS=1):
        scan = partial(neighbor_tables, emb, vm, grids, weighting, Metric(metric), threads=1)
        scan()  # builds what the set keeps for scans (norms, scalars, projection)
        tables, held, _ = _traced(scan)
    arrays = [getattr(t, f.name) for t in tables.values() for f in fields(t)]
    own = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    slack = 16 * 1024  # the dict and table objects
    assert 4 * chunk_elems > 8 * slack  # a kept block buffer would show
    assert held <= own + slack, (held, own)


def test_class_pair_sorted_copies_do_not_pile_up():
    # six sources on distinct wsum grids are six class-pair batches, each
    # with its own float32 copy of the score rows in key order; the scan
    # runs one batch at a time and drops its copy before the next is
    # built, so the peak holds one copy, however many batches and workers
    rng = np.random.default_rng(29)
    n, d, m = 1000, 256, 6
    x = rng.standard_normal((n, d))
    votes = np.zeros((n, m), dtype=int)
    for j in range(m):
        on = rng.random(n) < 0.3
        votes[on, j] = rng.choice([-1, 1], on.sum())
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    copy = 4 * n * d
    for threads in (1, 2):
        peaks = {}
        with mock.patch.object(extension, "_CHUNK_ELEMS", 20_000):
            for k in (1, m):
                grids = {j: [0.9 + 0.01 * j] for j in range(k)}
                scan = partial(neighbor_tables, emb, vm, grids, Weighting.THRESHOLDED_WEIGHTED_SUM, Metric.COSINE, threads)
                scan()  # builds what the set keeps for scans (norms, scalars, projection)
                tables, _, peaks[k] = _traced(scan)
                assert [t.cells for t in tables.values()] == [_class_pair_cells(votes, [j]) for j in range(k)]
        assert peaks[m] - peaks[1] < copy / 2, (threads, peaks, copy)


@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_scan_scratch_does_not_grow_as_queries_times_support(weighting):
    # nothing prunes on d=64 Gaussian rows, so three sources are scanned by
    # class pairs, whose widest class scores about (n/3)^2 cells; capped
    # blocks hold each worker's buffer to _CHUNK_ELEMS cells, so at 4n the
    # peak grows with the linear terms (the sorted copy, stores and
    # tables), not with the 16-fold block
    rng = np.random.default_rng(32)
    peaks = {}
    for n in (2000, 8000):
        x = rng.standard_normal((n, 64))
        votes = np.zeros((n, 3), dtype=int)
        for j in range(3):
            on = rng.random(n) < 0.3
            votes[on, j] = rng.choice([-1, 1], on.sum())
        emb, vm = EmbeddingSet(x), VoteMatrix(votes)
        scan = partial(neighbor_tables, emb, vm, dict.fromkeys(range(3), [0.6]), weighting, Metric.COSINE, 2)
        scan()  # builds what the set keeps for scans (norms, scalars, projection)
        _, _, peaks[n] = _traced(scan)
    assert peaks[8000] <= 4.5 * peaks[2000], peaks


@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_scan_memory_is_one_sorted_copy_plus_worker_blocks(weighting, metric):
    # the set keeps no n x d array beside its data (norms, scalars and a
    # projection), and a two-worker scan of a fresh set, its lazy builds
    # included, peaks within one float32 copy of the rows in key order,
    # each worker's block buffer and 64 float64 per point (tables, keys,
    # stores and candidates)
    rng = np.random.default_rng(35)
    n, d, threads = 8000, 64, 2
    x = rng.standard_normal((n, d))
    votes = np.zeros((n, 3), dtype=int)
    for j in range(3):
        on = rng.random(n) < 0.3
        votes[on, j] = rng.choice([-1, 1], on.sum())
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    radius = 0.6 if metric is Metric.COSINE else 9.0
    tables, _, peak = _traced(partial(neighbor_tables, emb, vm, dict.fromkeys(range(3), [radius]), weighting, metric, threads))
    assert tables[0].cells > 4 * extension._CHUNK_ELEMS  # the scan runs many full blocks
    kept = [a for v in emb._cache.values() for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert kept and max(a.size for a in kept) < n * d, [a.shape for a in kept]
    budget = 4 * n * d + threads * 4 * extension._CHUNK_ELEMS + 64 * 8 * n
    assert peak <= budget, (peak, budget)


@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_pruned_tiles_are_cut_into_blocks_within_the_cap(weighting):
    # a planar task whose tiles prune: under a cap of 4096 cells a pruned
    # tile's 256 rows take column ranges of 16 of its kept columns, so no
    # task holds more than the cap, and every table equals the uncut scan's
    # bit for bit
    from weakext.experiments import generate_checkerboard

    task = generate_checkerboard(4000, 10, 3, (0.9, 0.8, 0.8), (0.2, 0.15, 0.15), seed=28)
    grids = dict.fromkeys(range(3), np.linspace(0.0, 0.2, 9))
    scan = partial(neighbor_tables, task.embeddings, task.votes, grids, weighting, Metric.EUCLIDEAN)
    want, cap, call = scan(threads=1), 4096, extension._ClassPairs.__call__
    for threads in (1, 2):
        tasks = []

        def spy(self, own, a, r0, r1, cols, buf):
            tasks.append((self.batch[0][0].source, r0, r1, isinstance(cols, slice), self.cells((a, r0, r1, cols))))
            return call(self, own, a, r0, r1, cols, buf)

        with mock.patch.object(extension, "_CHUNK_ELEMS", cap), mock.patch.object(extension._ClassPairs, "__call__", spy):
            got = scan(threads=threads)
        assert max(cells for *_, cells in tasks) <= cap, threads
        pruned = [t[:3] for t in tasks if not t[3]]
        assert len(set(pruned)) < len(pruned), threads  # some tile is cut into column ranges
        for j, t in got.items():
            assert t.cells == want[j].cells, (j, threads)
            for name in ("best_dist", "best_col", "in_count", "vote_sum"):
                a, b = getattr(t, name), getattr(want[j], name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), (j, name, threads)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_are_refused_before_any_worker_starts(threads):
    from weakext.experiments import tune_shared_radius

    rng = np.random.default_rng(34)
    x, votes, radii = random_instance(rng)
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    labels = LabelVector(np.where(rng.random(vm.n) < 0.5, -1, 1))
    calls = [
        partial(neighbor_tables, emb, vm, {0: [0.5]}),
        partial(neighbor_tables, emb, vm, {}),
        partial(extend_votes, emb, vm, RadiusConfig(radii)),
        partial(tune_shared_radius, emb, vm, labels, 0.5, [0.2, 0.5]),
    ]
    refuse = dict(side_effect=AssertionError("a scan started"))
    with mock.patch.object(extension, "ThreadPoolExecutor", **refuse), mock.patch.object(extension, "_run_batches", **refuse):
        for scan in calls:
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                scan(threads=threads)


@pytest.mark.parametrize("n", [1600, 6400])
@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_all_duplicate_support_peak_is_one_block_and_one_piece(metric, n):
    # every support point is the same row, so each query ties with its
    # whole support and every cell of the block is a 1nn band candidate;
    # the fold re-decides them a piece at a time, so its scratch is one
    # piece's whatever the block (16 times larger at 4n); so does a class-pair
    # scan of two such sources
    rng = np.random.default_rng(19)
    ns = n // 4
    x = rng.standard_normal((n, 3))
    votes = np.zeros((n, 1), dtype=int)
    votes[:ns, 0] = rng.choice([-1, 1], ns)
    x[:ns] = x[0]
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    cells = (n - ns) * ns
    paired, rechecked = extension.paired_distances, []

    def counted(emb, a, b, metric):  # keeps no pair, unlike a mock
        rechecked.append(len(a))
        return paired(emb, a, b, metric)

    with mock.patch.multiple(extension, _CHUNK_ELEMS=cells, _BLOCK_ROWS=1, _PIECE_CELLS=1024):
        scan = partial(nearest, emb, vm, 0, Metric(metric), threads=1)
        with mock.patch.object(extension, "paired_distances", counted):
            scan()  # also builds what the set keeps for scans
        (queries, dist, best), _, peak = _traced(scan)
    assert sum(rechecked) == cells
    # the oracle on the whole support and up to 1200 queries (all of them at n = 1600)
    pick = np.sort(rng.choice(n - ns, min(n - ns, 1200), replace=False))
    keep = np.concatenate([np.arange(ns), ns + pick])
    want = brute_force_nearest(x[keep], votes[keep], 0, metric)
    assert np.array_equal(queries, np.arange(ns, n)) and np.array_equal(best[pick], want[2])
    np.testing.assert_allclose(dist[pick], want[1], rtol=1e-14, atol=1e-15)
    # slack: the table, the scan plan and one piece of the float64 re-check
    block = 4 * cells
    assert peak <= 1.25 * block, (peak, block)

    # two sources with different all-duplicate supports, scanned by class
    # pairs (forced: these rows would be tiled); every cell of both folds'
    # sides is a candidate, and the store keeps a few per query and class
    x[ns : 2 * ns] = x[ns]
    votes = np.column_stack([votes[:, 0], np.zeros(n, dtype=int)])
    votes[ns : 2 * ns, 1] = rng.choice([-1, 1], ns)
    emb, vm = EmbeddingSet(x), VoteMatrix(votes)
    block = n * n  # bytes: the n/2 points voting on neither against the n/2 voting on one
    with mock.patch.multiple(extension, _CHUNK_ELEMS=block // 4, _BLOCK_ROWS=1, _PIECE_CELLS=1024,
                             _tile_tasks=lambda space, st: None):
        grids = dict.fromkeys([0, 1], [covering(x, metric)])
        scan = partial(neighbor_tables, emb, vm, grids, Weighting.ONE_NEAREST_NEIGHBOR, Metric(metric), 1)
        scan()
        tables, _, peak = _traced(scan)
    assert tables[0].cells == _class_pair_cells(votes, [0, 1]) == 5 * n * n // 16
    pick = np.sort(rng.choice(np.arange(2 * ns, n), min(n - 2 * ns, 1200), replace=False))
    keep = np.concatenate([np.arange(2 * ns), pick])
    for j, t in tables.items():
        q, d, b = brute_force_nearest(x[keep], votes[keep], j, metric)
        at = np.searchsorted(t.queries, keep[q])
        assert np.array_equal(t.best_col[at], keep[b]), j
        np.testing.assert_allclose(t.best_dist[at], d, rtol=1e-14, atol=1e-15)
    assert peak <= 1.25 * block, (peak, block)


_BLAS = extension._openblas()


def _blas_scan(threads, weighting=Weighting.ONE_NEAREST_NEIGHBOR, planar=False):
    """Tables of a class-pair scan of 900 points in 96 dims, in many small blocks.

    ``planar``: of 2,000 points in 2 dims, Euclidean, whose groups are
    tiled and pruned instead.
    """
    rng = np.random.default_rng(33)
    n, d, metric, radius = (2000, 2, Metric.EUCLIDEAN, 0.1) if planar else (900, 96, Metric.COSINE, 0.8)
    x = rng.standard_normal((n, d))
    votes = np.zeros((n, 3), dtype=int)
    for j in range(3):
        on = rng.random(n) < 0.35
        votes[on, j] = rng.choice([-1, 1], on.sum())
    with mock.patch.object(extension, "_CHUNK_ELEMS", 20_000):
        return neighbor_tables(EmbeddingSet(x), VoteMatrix(votes), dict.fromkeys(range(3), [radius]), weighting,
                               metric, threads)


def _same_tables(a, b):
    return all((getattr(a[j], f) is None and getattr(b[j], f) is None)
               or getattr(a[j], f).tobytes() == getattr(b[j], f).tobytes()
               for j in a for f in ("best_dist", "best_col", "in_count", "vote_sum"))


def _blas_in_scan(get):
    """A patch recording ``(step, get())``, the BLAS thread count, at the start of each projection, plan and scan task.

    The steps are ``_project``, ``_tile_tasks`` and ``task``, into the
    list it returns.
    """
    seen, project, plan, call = [], extension._ScoreSpace._project, extension._tile_tasks, extension._ClassPairs.__call__

    def spy(step, fn):
        def run(*args):
            seen.append((step, get()))
            return fn(*args)
        return run

    patch = ExitStack()
    patch.enter_context(mock.patch.object(extension._ScoreSpace, "_project", spy("_project", project)))
    patch.enter_context(mock.patch.object(extension, "_tile_tasks", spy("_tile_tasks", plan)))
    patch.enter_context(mock.patch.object(extension._ClassPairs, "__call__", spy("task", call)))
    return patch, seen


@pytest.mark.skipif(_BLAS is None, reason="no OpenBLAS with thread-count symbols bundled with numpy")
class TestBlasThreads:
    @pytest.fixture
    def get(self):
        """The bundled OpenBLAS's thread-count getter, the count set to 2 for the test and restored after it."""
        get, put = _BLAS
        before = get()
        put(2)
        try:
            yield get
        finally:
            put(before)

    @pytest.mark.parametrize("planar", [False, True], ids=["class-pairs", "tiled"])
    def test_a_multi_worker_scan_runs_every_blas_call_at_one_thread(self, get, planar):
        # the projection and the tile plans too, not only the pool's tasks:
        # a threaded call just before the pool leaves a BLAS helper spinning
        patch, seen = _blas_in_scan(get)
        with patch:
            for threads, inside in ((2, 1), (4, 1), (1, 2)):  # one worker leaves BLAS as it is
                for w in Weighting:
                    seen.clear()
                    _blas_scan(threads, w, planar)
                    steps = [step for step, _ in seen]
                    assert steps[:2] == ["_project", "_tile_tasks"] and steps.count("task") > 4, (threads, w, steps)
                    assert {count for _, count in seen} == {inside}, (threads, w, seen)
                    assert get() == 2, (threads, w)

    def test_a_raising_fold_still_restores_the_count(self, get):
        def fold(self, *args):
            raise RuntimeError("fold")

        with mock.patch.multiple(extension._ClassPairs, _nearest=fold, _nearest_hits=fold):
            with pytest.raises(RuntimeError, match="fold"):
                _blas_scan(2)
        assert get() == 2

    def test_a_raising_plan_still_restores_the_count(self, get):
        seen = []

        def plan(space, st):
            seen.append(get())
            raise RuntimeError("plan")

        with mock.patch.object(extension, "_tile_tasks", plan):
            with pytest.raises(RuntimeError, match="plan"):
                _blas_scan(2, planar=True)
        assert seen == [1] and get() == 2

    def test_nothing_to_scan_never_looks_the_library_up(self, get):
        rng = np.random.default_rng(37)
        emb, votes = EmbeddingSet(rng.standard_normal((50, 3))), VoteMatrix(rng.choice([-1, 0, 1], (50, 2)))
        lookup = mock.Mock(wraps=extension._openblas)
        with (mock.patch.object(extension, "_openblas", lookup),
              mock.patch.object(extension._ONE_BLAS_THREAD, "calls", None)):
            for grids, w in (({}, Weighting.ONE_NEAREST_NEIGHBOR), ({0: [], 1: []}, Weighting.ONE_NEAREST_NEIGHBOR),
                             ({0: [0.0]}, Weighting.THRESHOLDED_WEIGHTED_SUM)):
                neighbor_tables(emb, votes, grids, w, Metric.EUCLIDEAN, 2)
            assert lookup.call_count == 0
            neighbor_tables(emb, votes, {0: [0.5]}, Weighting.ONE_NEAREST_NEIGHBOR, Metric.EUCLIDEAN, 2)  # the control
            assert lookup.call_count == 1
        assert get() == 2

    @pytest.mark.parametrize("planar", [False, True], ids=["class-pairs", "tiled"])
    def test_tables_are_the_same_at_one_two_and_four_workers(self, get, planar):
        for w in Weighting:
            one = _blas_scan(1, w, planar)
            assert all(_same_tables(_blas_scan(threads, w, planar), one) for threads in (2, 4)), w

    def test_a_scan_folds_its_batches_in_turn_on_one_pool(self, get):
        # eight cosine 1nn sources in 96 dims prune nothing, so they are two
        # class-pair batches (sources 0-5, then 6-7) of many blocks each; a
        # two-worker scan opens one pool and one BLAS hold for both, and
        # once a fold raises, no task of the second batch runs
        rng = np.random.default_rng(36)
        n, m = 900, 8
        x = rng.standard_normal((n, 96))
        votes = np.zeros((n, m), dtype=int)
        for j in range(m):
            on = rng.random(n) < 0.35
            votes[on, j] = rng.choice([-1, 1], on.sum())
        scan = partial(neighbor_tables, EmbeddingSet(x), VoteMatrix(votes), dict.fromkeys(range(m), [0.8]),
                       Weighting.ONE_NEAREST_NEIGHBOR, Metric.COSINE, 2)
        hold, call = extension._OneBlasThread.__enter__, extension._ClassPairs.__call__
        for raises in (False, True):
            holds, firsts, started = [], [], itertools.count()

            def enter(self):
                holds.append(get())
                return hold(self)

            def spy(self, *args):
                firsts.append(self.batch[0][0].source)  # each task's batch, by its first source
                if raises and next(started) == 0:
                    raise RuntimeError("fold")
                return call(self, *args)

            with (mock.patch.object(extension, "ThreadPoolExecutor", wraps=extension.ThreadPoolExecutor) as pools,
                  mock.patch.object(extension._OneBlasThread, "__enter__", enter),
                  mock.patch.object(extension._ClassPairs, "__call__", spy),
                  mock.patch.object(extension, "_CHUNK_ELEMS", 20_000)):
                if raises:
                    with pytest.raises(RuntimeError, match="fold"):
                        scan()
                else:
                    scan()
            assert pools.call_count == 1 and holds == [2], (raises, pools.call_count, holds)
            assert set(firsts) == ({0} if raises else {0, 6}) and len(firsts) > 8, (raises, len(firsts))
            assert get() == 2, raises

    def test_overlapping_scans_from_two_threads_restore_the_count(self, get):
        # each pool's two workers wait at their first task until all four are
        # inside one, so the pools overlap; the first to end leaves BLAS at
        # one thread for the other, the last restores it
        want = _blas_scan(1)
        barrier, lock, started = threading.Barrier(4, timeout=60), threading.Lock(), set()
        seen, call = [], extension._ClassPairs.__call__

        def spy(self, *args):
            with lock:
                first = threading.get_ident() not in started
                started.add(threading.get_ident())
            if first:
                barrier.wait()
            seen.append(get())
            return call(self, *args)

        out = [None, None]

        def scan(i):
            out[i] = _blas_scan(2)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the four workers and two callers switch often
        try:
            with mock.patch.object(extension._ClassPairs, "__call__", spy):
                callers = [threading.Thread(target=scan, args=(i,)) for i in range(2)]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in callers)
        assert len(started) == 4 and set(seen) == {1}
        assert get() == 2
        assert all(o is not None and _same_tables(o, want) for o in out)

    def test_without_the_library_the_scan_leaves_blas_alone_with_the_same_tables(self, get):
        guarded = {w: _blas_scan(2, w) for w in Weighting}
        patch, seen = _blas_in_scan(get)
        with mock.patch.object(extension, "_openblas", lambda: None), patch:
            with mock.patch.object(extension._ONE_BLAS_THREAD, "calls", None):  # looked up again: not found
                for w in Weighting:
                    assert _same_tables(_blas_scan(2, w), guarded[w]), w
        assert seen and {count for _, count in seen} == {2}


class TestScoreSpace:
    @pytest.mark.parametrize(
        "shift, scale",
        [(0.0, 1.0), (1e3, 1.0), (0.0, 1e20), (1e3, 1e20), (0.0, 2.0**-60)],
        ids=["as-is", "shift", "scale-up", "shift-scale-up", "scale-down"],
    )
    def test_euclidean_block_matches_exact_scores(self, shift, scale):
        rng = np.random.default_rng(13)
        emb = EmbeddingSet((rng.standard_normal((120, 7)) + shift) * scale)
        space = extension._ScoreSpace(emb, Metric.EUCLIDEAN)
        s = space.scale
        assert np.frexp(s)[0] == 0.5  # a power of two
        c = (emb.data - emb.data.mean(axis=0)) * s
        assert 0.25 <= np.einsum("ij,ij->i", c, c).max() < 1.0
        rows, cols = np.arange(0, 120, 3), np.arange(120)
        exact = -pairwise_distances(emb, rows, cols, Metric.EUCLIDEAN) ** 2
        block = space.permuted(np.arange(120)).block(rows, cols, np.empty(rows.size * cols.size, dtype=np.float32))
        assert block.dtype == np.float32
        # block / s^2 within tau / s^2 of the exact scores, compared in float64
        assert np.all(np.abs(block.astype(np.float64) / s**2 - exact) <= space.tau / s**2)
        for r in np.quantile(-exact, [0.1, 0.5]) ** 0.5:
            lo, hi = space.band(r)
            assert float(lo) / s**2 <= -(r * r) <= float(hi) / s**2

    @pytest.mark.parametrize(
        "x",
        [np.tile([1.0, 2.0, 3.0], (50, 1)), np.tile([0.1, 0.7, 1e3 / 3], (50, 1)), np.arange(1, 51.0)[:, None] * 1e-320],
        ids=["exact-mean", "rounded-mean", "subnormal-spread"],
    )
    def test_degenerate_spread_extends_every_abstainer(self, x):
        # identical rows (centered norm 0, or rounding-level once the mean
        # is rounded), or rows whose squared differences underflow to 0
        assert np.isfinite(extension._ScoreSpace(EmbeddingSet(x), Metric.EUCLIDEAN).scale)
        votes = np.zeros((50, 2), dtype=int)
        votes[[3, 10, 20], 0] = [1, 1, -1]
        votes[[7, 8], 1] = [-1, -1]
        for w in Weighting:
            for r in (1e-300, 1e-6, 1.0, 1e10):
                radii = np.array([r, r])
                ext, _ = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, w), Metric.EUCLIDEAN)
                assert np.array_equal(ext.votes, brute_force_extend(x, votes, radii, w.value, "euclidean"))
                assert (ext.votes != 0).all()

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(seed=hst.integers(0, 2**32 - 1), exponent=hst.floats(155.0, 300.0))
    def test_spread_above_float64_squares_agrees_with_brute_force(self, seed, exponent):
        # plain float64 squares of these differences overflow to inf
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        x = rng.standard_normal((80, 3)) * scale
        votes = rng.choice([-1, 0, 1], size=(80, 2), p=[0.3, 0.4, 0.3])
        for w in Weighting:
            for r in (0.1 * scale, scale):
                radii = np.array([r, r])
                ext, _ = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, w), Metric.EUCLIDEAN)
                assert np.array_equal(ext.votes, brute_force_extend(x, votes, radii, w.value, "euclidean"))

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_spread_below_float64_squares_agrees_with_brute_force(self, scale):
        # plain squared differences underflow; the float64 reference scales
        # them, so the band stays as narrow as at spread 1
        rng = np.random.default_rng(14)
        x = rng.standard_normal((80, 3)) * scale
        if scale == 1e-170:
            assert extension._ScoreSpace(EmbeddingSet(x), Metric.EUCLIDEAN).tau < 1e-3
        votes = rng.choice([-1, 0, 1], size=(80, 2), p=[0.3, 0.4, 0.3])
        for w in Weighting:
            for r in (0.1 * scale, scale):
                radii = np.array([r, r])
                ext, _ = extend_votes(EmbeddingSet(x), VoteMatrix(votes), RadiusConfig(radii, w), Metric.EUCLIDEAN)
                assert np.array_equal(ext.votes, brute_force_extend(x, votes, radii, w.value, "euclidean"))
