"""Acceptance suite: one test per criterion, at its stated tolerance.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s``
to see them live).  The synthetic study shared by criteria 4, 5, and 9
runs once per session: 20 seeds, planar tasks of 10,000 points, three
sources with accuracies (a1, 0.8, 0.8) on support fractions
(0.2, 0.15, 0.15), extending source 0 over a 32-point log radius grid.
The 7 task variants of a seed share points and supports, so one
weighted-sum ``neighbor_tables`` scan of their stacked source-0 columns
gives every variant's table, and each sweep reads its own (``table=``).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from weakext.core import (
    EmbeddingSet,
    LabelModelParams,
    LabelVector,
    Metric,
    RadiusConfig,
    VoteMatrix,
    Weighting,
    load_embeddings,
    load_labels,
    load_votes,
    save_embeddings,
    save_labels,
    save_votes,
)
from weakext.diagnostics import (
    EstimationBoundInputs,
    default_radius_grid,
    ensemble_risk_bound,
    estimation_error_bound,
    extended_accuracy_lower_bound,
    extended_source_risk_bound,
    generalization_lift_lower_bound,
    label_smoothness_bound,
)
from weakext.experiments import (
    generate_checkerboard,
    refine_radii,
    sweep_radius,
    theory_guided_radius,
    tune_shared_radius,
)
from weakext.extension import extend_votes, neighbor_tables
from weakext.label_model import estimate_accuracies, posterior, predict

SEEDS = range(20)
ACCURACY_LEVELS = (0.66, 0.77, 0.89, 0.94)
FRACTIONS = (0.2, 0.15, 0.15)
GRID = default_radius_grid()


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL - {desc}")
        raise
    print(f"[criterion {num}] PASS - {desc}")


# ---------------------------------------------------------------------------
# 1. posterior inference vs brute-force Bayes enumeration


def _bayes_enumeration(row, params):
    out = {}
    for y in (+1, -1):
        prob = params.prior if y == 1 else 1.0 - params.prior
        for i, vote in enumerate(row):
            voted = 1.0 - params.abstain_rates[i]
            if vote == 0:
                prob *= params.abstain_rates[i]
            elif vote == y:
                prob *= params.accuracies[i] * voted
            else:
                prob *= (1.0 - params.accuracies[i]) * voted
        out[y] = prob
    return out[1] / (out[1] + out[-1])


def test_c1_inference_oracle_equivalence():
    with criterion(1, "posterior matches Bayes enumeration on 1000 instances (1e-12, <1 s)"):
        rng = np.random.default_rng(101)
        cases = []
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            params = LabelModelParams(
                rng.uniform(0.05, 0.95, m),
                rng.uniform(0.05, 0.95, m),
                float(rng.uniform(0.05, 0.95)),
            )
            cases.append((rng.choice([-1, 0, 1], size=m), params))
        t0 = time.perf_counter()
        worst = 0.0
        for row, params in cases:
            worst = max(worst, abs(posterior(row, params) - _bayes_enumeration(row, params)))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12, f"max deviation {worst}"
        assert elapsed < 1.0, f"runtime {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 2. triplet accuracy recovery and its 1/sqrt(n) rate


def _conditionally_independent(rng, n, accuracies):
    y = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    votes = np.empty((n, len(accuracies)), dtype=np.int8)
    for i, a in enumerate(accuracies):
        votes[:, i] = np.where(rng.random(n) < a, y, -y)
    return VoteMatrix(votes)


def test_c2_triplet_recovery_and_rate():
    with criterion(2, "median recovery error <= 0.03 and quadrupling n shrinks it by [1.4, 2.8] (<10 s)"):
        t0 = time.perf_counter()
        true = np.array([0.9, 0.8, 0.7])
        errs = {10_000: [], 40_000: []}
        for seed in SEEDS:
            rng = np.random.default_rng(1000 + seed)
            big = _conditionally_independent(rng, 40_000, true)
            for n, vm in ((10_000, VoteMatrix(big.votes[:10_000])), (40_000, big)):
                params = estimate_accuracies(vm, 0.5)
                errs[n].append(float(np.max(np.abs(params.accuracies - true))))
        med10 = float(np.median(errs[10_000]))
        med40 = float(np.median(errs[40_000]))
        elapsed = time.perf_counter() - t0
        assert med10 <= 0.03, f"median error {med10}"
        assert 1.4 <= med10 / med40 <= 2.8, f"shrink factor {med10 / med40:.2f}"
        assert elapsed < 10.0, f"runtime {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 3. extension semantics property suite


def _brute_force_nearest(x, votes, radii):
    # cosine distance as half the squared difference of the unit rows
    u = x / np.linalg.norm(x, axis=1, keepdims=True)
    dist = np.array([np.minimum(0.5 * np.einsum("ij,ij->i", u - row, u - row), 2.0) for row in u])
    out = votes.copy()
    for j in range(votes.shape[1]):
        if radii[j] <= 0:
            continue
        supp = np.flatnonzero(votes[:, j] != 0)
        if supp.size == 0:
            continue
        for i in range(x.shape[0]):
            if votes[i, j] != 0:
                continue
            ds = dist[i, supp]
            k = int(np.argmin(ds))
            if ds[k] <= radii[j]:
                out[i, j] = votes[supp[k], j]
    return out


def test_c3_extension_semantics():
    with criterion(3, "non-abstains preserved, 1nn coverage monotone, zero radii identity, "
                      "1nn equals O(n^2) brute force on 50 instances (<10 s)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(2, 10))
            m = int(rng.integers(1, 5))
            x = rng.standard_normal((n, d))
            votes = rng.choice([-1, 0, 1], size=(n, m), p=[0.25, 0.5, 0.25])
            radii = rng.uniform(0.0, 1.5, m)
            emb, vm = EmbeddingSet(x), VoteMatrix(votes)

            ext, rep = extend_votes(emb, vm, RadiusConfig(radii))
            assert np.array_equal(ext.votes, _brute_force_nearest(x, votes, radii))
            mask = votes != 0
            assert np.array_equal(ext.votes[mask], votes[mask])

            ident, _ = extend_votes(emb, vm, RadiusConfig(np.zeros(m)))
            assert np.array_equal(ident.votes, votes)

            _, rep_big = extend_votes(emb, vm, RadiusConfig(radii * 1.5))
            assert (rep_big.extended_coverage >= rep.extended_coverage).all()
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# 4 / 5 / 9. the shared synthetic study


@pytest.fixture(scope="module")
def study():
    t0 = time.perf_counter()
    curves = {key: [] for key in list(ACCURACY_LEVELS) + ["k4", "k20", "random"]}
    flagship = []  # (task, sweep) at a1 = 0.89, cells = 10
    for seed in SEEDS:
        ref = generate_checkerboard(10_000, 10, 3, (0.89, 0.8, 0.8), FRACTIONS, seed=seed)
        variants = {
            a1: ref if a1 == 0.89 else generate_checkerboard(10_000, 10, 3, (a1, 0.8, 0.8), FRACTIONS, seed=seed)
            for a1 in ACCURACY_LEVELS
        }
        for key, cells, layout in (("k4", 4, "checkerboard"), ("k20", 20, "checkerboard"),
                                   ("random", 10, "random")):
            variants[key] = generate_checkerboard(
                10_000, cells, 3, (0.89, 0.8, 0.8), FRACTIONS, seed=seed, layout=layout
            )
        stacked = VoteMatrix(np.stack([task.votes.votes[:, 0] for task in variants.values()], axis=1))
        tables = neighbor_tables(ref.embeddings, stacked, dict.fromkeys(range(len(variants)), GRID),
                                 Weighting.THRESHOLDED_WEIGHTED_SUM, Metric.EUCLIDEAN)
        for table, (key, task) in zip(tables.values(), variants.items()):
            flagship_run = key == 0.89
            sweep = sweep_radius(
                task, 0, GRID, compute_bound=flagship_run, pair_budget=120_000,
                table=table, on_degenerate="skip",
            )
            curves[key].append(sweep.lift)
            if flagship_run:
                flagship.append((task, sweep))
    median_curves = {k: np.nanmedian(v, axis=0) for k, v in curves.items()}
    return {
        "median": median_curves,
        "flagship": flagship,
        "elapsed": time.perf_counter() - t0,
    }


def test_c4_synthetic_reproduction(study):
    with criterion(4, "interior lift maxima, peak monotone in source accuracy, "
                      f"smoothness ordering of peaks (<120 s; study took {study['elapsed']:.1f} s)"):
        med = study["median"]
        # (a) every checkerboard median lift curve peaks strictly inside the grid
        for key in list(ACCURACY_LEVELS) + ["k4", "k20"]:
            c = med[key]
            k = int(np.nanargmax(c))
            assert 0 < k < GRID.size - 1, f"{key}: argmax at endpoint {k}"
            assert c[k] > c[0] and c[k] > c[-1], f"{key}: peak does not exceed endpoints"
        # (b) peak lift nondecreasing in the extended source's accuracy
        peaks = [float(np.nanmax(med[a])) for a in ACCURACY_LEVELS]
        assert np.all(np.diff(peaks) >= 0), f"peaks not monotone: {peaks}"
        # (c) smoother tasks admit more lift at fixed accuracy
        assert np.nanmax(med["k4"]) > np.nanmax(med["k20"])
        assert np.nanmax(med["k4"]) > np.nanmax(med["random"])
        assert study["elapsed"] < 120.0, f"study took {study['elapsed']:.0f} s"


def test_c5_extended_accuracy_bound_validity(study):
    with criterion(5, "measured extended accuracy respects its plug-in lower bound "
                      "(slack 0.02) in >= 18/20 seeds"):
        passes = 0
        for task, sweep in study["flagship"]:
            params = estimate_accuracies(task.votes, 0.5)
            a1 = float(params.accuracies[0])
            p1 = float((task.votes.votes[:, 0] != 0).mean())
            prof = sweep.profile
            ok = True
            for k in range(GRID.size):
                m_r = prof.label_disagreement[k]
                l_r = prof.support_disagreement[0, k]
                measured = sweep.extended_accuracy[k]
                if not (np.isfinite(m_r) and np.isfinite(l_r) and np.isfinite(measured)):
                    continue
                bound = extended_accuracy_lower_bound(a1, m_r, p1, l_r, prof.pair_fraction[k])
                if measured < bound - 0.02:
                    ok = False
            passes += ok
        assert passes >= 18, f"bound held in only {passes}/20 seeds"


# ---------------------------------------------------------------------------
# 6. bound arithmetic against hand-computed oracles


def test_c6_bound_arithmetic():
    with criterion(6, "every bound reproduces its hand-computed example to 1e-12 "
                      "and satisfies its limit cases exactly"):
        # extended-accuracy bound
        assert extended_accuracy_lower_bound(0.9, 0.0, 0.5, 0.4, 0.3) == 0.9
        assert extended_accuracy_lower_bound(0.5, 0.4, 0.5, 0.4, 0.3) == 0.5
        hand = 0.9 - 0.8 * 0.05 / (0.25 * (1.0 + 0.12))
        assert abs(extended_accuracy_lower_bound(0.9, 0.05, 0.5, 0.4, 0.3) - hand) < 1e-12
        assert abs(hand - (0.9 - 1.0 / 7.0)) < 1e-12

        # generalization lift bound
        assert generalization_lift_lower_bound(0.0, 0.2, 0.5, 0.9, 0.9, 0.6) == 0.0
        assert abs(generalization_lift_lower_bound(0.5, 0.2, 0.5, 0.9, 0.9, 0.6) - 0.0028) < 1e-12
        assert generalization_lift_lower_bound(0.5, 0.2, 0.5, 0.5, 0.5, 0.5) < 0

        # estimation error bound: spreadsheet oracle and collapse at L_min = 0
        base = dict(n=10_000, num_sources=3, min_overlap=0.25, correlation_floor=0.5,
                    moment_floor=0.2, mean_posterior=0.5, min_pattern_prob=0.1, delta=0.05)
        eps = math.sqrt(math.log(2.0 / 0.05) / (2.0 * 10_000))
        first = (81.0 * math.sqrt(math.pi)) / (2.0 * 0.5 * 0.04) * 3.0 / math.sqrt(10_000 * 0.25)
        oracle = (first + eps * 0.5) / (0.1 - eps)
        inputs = EstimationBoundInputs(**base)
        assert abs(estimation_error_bound(inputs) - oracle) < 1e-9
        collapsed = EstimationBoundInputs(**base, min_support_disagreement=0.0, min_pair_fraction=0.9)
        assert estimation_error_bound(collapsed, extended=True) == estimation_error_bound(inputs)
        zero_c2 = EstimationBoundInputs(**{**base, "mean_posterior": 0.0})
        zero_c2_big = EstimationBoundInputs(**{**base, "mean_posterior": 0.0, "n": 40_000})
        t_small = estimation_error_bound(zero_c2) * (0.1 - zero_c2.epsilon_n())
        t_big = estimation_error_bound(zero_c2_big) * (0.1 - zero_c2_big.epsilon_n())
        assert abs(t_big / t_small - 0.5) < 1e-12

        # inherited smoothness
        assert label_smoothness_bound(0.0, 0.0) == 0.0
        assert label_smoothness_bound(0.1, 0.2) == 0.5
        assert label_smoothness_bound(0.8, 0.3) == 1.0

        # extended-source risk
        assert extended_source_risk_bound(0.5, 0.2, 0.1, 0.5, 0.4, 0.3) == 0.5
        assert extended_source_risk_bound(1.0, 0.0, 0.2, 1.0, 0.0, 0.0) == 0.4
        hand = 0.1 + 0.8 * 0.25 / 0.28
        assert abs(extended_source_risk_bound(0.9, 0.05, 0.1, 0.5, 0.4, 0.3) - hand) < 1e-12

        # ensemble risk
        assert ensemble_risk_bound([0.0, 0.0], [0.7, 0.3], 0.5, 0.0) == 0.0
        assert ensemble_risk_bound([], [], 0.5, 1.0) == 0.5
        hand = 2.0 * 3.0 * (0.6 * 0.2 + 0.4 * 0.35)
        assert abs(ensemble_risk_bound([0.2, 0.35], [0.6, 0.4], 0.25, 0.0) - hand) < 1e-12


# ---------------------------------------------------------------------------
# 7. desk-scale runtime of the extend-fit-predict pipeline


def _runtime_instance(rng, n):
    x = rng.standard_normal((n, 128))
    votes = np.zeros((n, 5), dtype=np.int8)
    for j in range(5):
        idx = rng.choice(n, int(0.3 * n), replace=False)
        votes[idx, j] = rng.choice([-1, 1], idx.size)
    return EmbeddingSet(x), VoteMatrix(votes)


def _timed_pipeline(emb, votes):
    t0 = time.perf_counter()
    ext, _ = extend_votes(emb, votes, RadiusConfig([0.7] * 5), threads=2)
    params = estimate_accuracies(ext, 0.5)
    predict(ext, params)
    return time.perf_counter() - t0


def test_c7_runtime():
    with criterion(7, "extend+fit+predict: n=10k,d=128,m=5 in <1 s; n=64k in <30 s"):
        rng = np.random.default_rng(107)
        # one-time BLAS initialization happens outside the timed region
        # (steady-state cost is what the criterion measures)
        warm_e, warm_v = _runtime_instance(rng, 2000)
        _timed_pipeline(warm_e, warm_v)

        emb10, votes10 = _runtime_instance(rng, 10_000)
        t10 = min(_timed_pipeline(emb10, votes10) for _ in range(3))
        assert t10 < 1.0, f"n=10k took {t10:.2f} s"

        emb64, votes64 = _runtime_instance(rng, 64_000)
        t64 = _timed_pipeline(emb64, votes64)
        assert t64 < 30.0, f"n=64k took {t64:.2f} s"
        print(f"  (runtimes: 10k={t10:.2f} s, 64k={t64:.2f} s)")


# ---------------------------------------------------------------------------
# 8. byte-exact I/O and scheduling-independent pipeline outputs


def test_c8_io_determinism(tmp_path):
    with criterion(8, "round-trips byte-exact; pipeline outputs identical across "
                      "runs and --threads {1,4}"):
        rng = np.random.default_rng(108)

        emb = EmbeddingSet(rng.standard_normal((64, 7)))
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        save_embeddings(emb, p1)
        save_embeddings(load_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        votes = VoteMatrix(rng.choice([-1, 0, 1], size=(50, 4)))
        v1, v2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_votes(votes, v1)
        save_votes(load_votes(v1), v2)
        assert v1.read_bytes() == v2.read_bytes()

        labels = LabelVector(rng.choice([-1, 1], size=50))
        l1, l2 = tmp_path / "al.csv", tmp_path / "bl.csv"
        save_labels(labels, l1)
        save_labels(load_labels(l1), l2)
        assert l1.read_bytes() == l2.read_bytes()

        # cosine pipeline on a dense instance (exercises the shared scan)
        from weakext.cli import main

        n, m = 6000, 4
        x = rng.standard_normal((n, 32))
        vm = np.zeros((n, m), dtype=np.int8)
        for j in range(m):
            idx = rng.choice(n, n // 2, replace=False)
            vm[idx, j] = rng.choice([-1, 1], idx.size)
        save_embeddings(EmbeddingSet(x), tmp_path / "x.emb")
        save_votes(VoteMatrix(vm), tmp_path / "v.csv")
        outputs = []
        for name, threads in (("t1", "1"), ("t4", "4"), ("t1b", "1")):
            out = tmp_path / name
            rc = main([
                "pipeline", "--embeddings", str(tmp_path / "x.emb"),
                "--votes", str(tmp_path / "v.csv"), "--prior", "0.5",
                "--radii", "0.6", "--threads", threads,
                "--out", str(out),
            ])
            assert rc == 0
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
            })
        assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# 9. radius tuning correctness


def test_c9_tuning(study):
    with criterion(9, "shared tuning matches the exhaustive pipeline search, "
                      "refinement never loses dev metric, theory-guided radius "
                      "within two grid steps of the empirical argmax"):
        task = generate_checkerboard(10_000, 10, 3, (0.89, 0.8, 0.8), FRACTIONS, seed=0)
        grid = default_radius_grid(0.01, 0.4, 12)

        shared = tune_shared_radius(
            task.embeddings, task.votes, task.gold, 0.5, grid, metric=Metric.EUCLIDEAN
        )
        # independent exhaustive search through the full extension pipeline
        exhaustive = []
        for r in grid:
            ext, _ = extend_votes(
                task.embeddings, task.votes, RadiusConfig(np.full(3, r)), metric=Metric.EUCLIDEAN
            )
            params = estimate_accuracies(ext, 0.5)
            _, pred = predict(ext, params)
            exhaustive.append(float((pred.labels == task.gold.labels).mean()))
        exhaustive = np.array(exhaustive)
        idx_tune = int(np.flatnonzero(grid == shared.radius)[0])
        idx_best = int(np.argmax(exhaustive))
        assert abs(idx_tune - idx_best) <= 1, f"tuned idx {idx_tune} vs exhaustive {idx_best}"
        assert shared.metric_value >= exhaustive.max() - 1e-12

        refined = refine_radii(
            task.embeddings, task.votes, task.gold, 0.5, shared.radius, metric=Metric.EUCLIDEAN
        )
        assert refined.metric_value >= shared.metric_value

        # theory-guided radius vs the study's empirical argmax (20-seed medians)
        emp_idx, thy_idx = [], []
        for flag_task, sweep in study["flagship"]:
            emp_idx.append(int(np.nanargmax(sweep.lift)))
            params = estimate_accuracies(flag_task.votes, 0.5)
            from weakext.diagnostics import leave_one_out_constant

            c_const = leave_one_out_constant(flag_task.votes, params, flag_task.gold, 0)
            res = theory_guided_radius(
                sweep.profile, 0, float(params.accuracies[0]),
                float((flag_task.votes.votes[:, 0] != 0).mean()), c_const,
                extended_accuracy_curve=sweep.extended_accuracy,
                new_region_accuracy_curve=sweep.new_region_accuracy,
            )
            assert res.informative
            thy_idx.append(int(np.flatnonzero(GRID == res.radius)[0]))
        gap = abs(np.median(emp_idx) - np.median(thy_idx))
        assert gap <= 2, f"median empirical idx {np.median(emp_idx)} vs theory {np.median(thy_idx)}"
