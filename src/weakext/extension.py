"""Extend source votes to abstaining points through embedding space.

Each source keeps every vote it already casts.  For an abstaining point,
the source's voting neighborhood within its threshold radius is located
by an exhaustive scan over the source's support, and a weighting rule
(1-nearest-neighbor or a uniformly weighted sum) turns the neighborhood
into a vote; points with an empty neighborhood keep abstaining.  Newly
labeled points never seed further extension.

The scan is exact in float64.  Each source's abstainers are cut into
k-d tiles of about 256 rows on a cached low-dimensional projection of
the score rows, and exact float64 bounds drop, per tile, the support
columns whose scores the fold would reject without a float64 check
(wsum: beyond the grid's largest radius; 1nn: beyond every tile row's
best score).  Tiles keeping every column are joined into query chunks;
each chunk or pruned tile is scored against its columns in one float32
GEMM block (the only score path; Euclidean rows are centered and scaled
by a power of two), written into a buffer that each scan worker owns and
reuses for every block it runs, and folded into per-query results.  The
fold walks the block in pieces of whole rows; each piece marks the cells
near a threshold or a tie in one reused mask and re-evaluates them in
float64, so results are identical to a pure float64 scan whatever the
tiling, chunking, thread count, data offset or scale, and the fold's
scratch is bounded by a piece.

Where nothing can prune (high-dimensional data), no tile is cut, and the
sources are scanned together (wsum: those of one radius grid) by
vote-pattern class pairs (``_ClassPairs``): the score rows are sorted once by each point's
pattern of votes over those sources, and each chunk of one class's rows
is scored in one GEMM against the rows of every higher class, so a point
pair is scored once for all the sources it is a query/support pair of
(and a pair within a class, a pair of none, not at all).  Each column
slice of such a block is folded for the sources the rows abstain on and
the columns vote on, and with the columns as queries for those the
columns abstain on and the rows vote on.  1nn keeps per-source maxima
and the cells within ``tau`` of them, and re-decides the survivors of
each source's final threshold in one float64 pass; wsum adds both sides'
voter counts and vote sums into per-worker integer arrays.  Every merge
is a maximum, an integer sum or a least (distance, point id), so the
tables are those of a scan per source at any thread count.

A scan fills one ``NeighborTable`` per source for a whole radius grid
(wsum folds each block once per grid radius with one skinny float32 GEMM
per piece of rows, which counts the voters and sums every vote column at
once), and ``column`` reads an extended column from it: extension scans
one-radius grids, while tuning and refinement scan each source once over
every radius they will try, and diagnose's 1nn tables serve both its
extension and its accuracy curves.  Sources with equal supports and
grids share one scan (one bit of a class-pair key), so stacked vote
variants fill all their tables in one pass.
"""

from __future__ import annotations

import copy
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import (
    DataError,
    EmbeddingSet,
    Metric,
    RadiusConfig,
    VoteMatrix,
    Weighting,
    paired_distances,
    pairwise_distances,
)

__all__ = [
    "NeighborSet",
    "NeighborTable",
    "ExtensionReport",
    "neighbors_in_support",
    "neighbor_tables",
    "extend_from_tables",
    "extend_votes",
    "coverage",
    "min_overlap",
]

_CHUNK_ELEMS = 32 * 1024 * 1024  # score cells per query chunk
_MIN_CHUNK = 64  # query rows per chunk, whatever the support size
_TILE_ROWS = 256  # query rows per pruning tile, at most
_PROJ_DIMS = 4  # principal directions the tile bounds are taken in
_SLACK = 2.0**-22  # error of a bounded distance; see _ScoreSpace.reach
_PIECE_CELLS = 2**17  # score cells per fold piece of whole rows (at least one row)
_EXACT_COLS = 2**24  # widest wsum fold piece whose float32 vote sums are exact
_CLASS_SOURCES = 6  # groups keyed per class-pair scan: at most 2**6 vote-pattern classes


@dataclass(frozen=True)
class NeighborSet:
    """Voting neighbors of one query point for one source.

    Sorted by ascending distance, ties by ascending point index; every
    index lies in the source's support.
    """

    query_index: int
    indices: np.ndarray
    distances: np.ndarray


@dataclass(frozen=True)
class ExtensionReport:
    """Coverage and overlap statistics before and after extension."""

    radii: np.ndarray
    weighting: Weighting
    original_coverage: np.ndarray
    extended_coverage: np.ndarray
    newly_labeled_fraction: np.ndarray
    min_overlap_before: float | None
    min_overlap_after: float | None

    def to_dict(self) -> dict:
        return {
            "radii": self.radii.tolist(),
            "weighting": self.weighting.value,
            "original_coverage": self.original_coverage.tolist(),
            "extended_coverage": self.extended_coverage.tolist(),
            "newly_labeled_fraction": self.newly_labeled_fraction.tolist(),
            "min_overlap_before": self.min_overlap_before,
            "min_overlap_after": self.min_overlap_after,
        }


def coverage(votes: VoteMatrix) -> np.ndarray:
    """Fraction of points with a nonzero vote, per source."""
    return (votes.votes != 0).mean(axis=0)


def min_overlap(votes: VoteMatrix) -> float:
    """Empirical minimal overlap: min_i max_{j != i} of pairwise support overlap."""
    if votes.m < 2:
        raise ValueError("min_overlap requires at least 2 sources")
    nz = (votes.votes != 0).astype(np.float64)
    pair = (nz.T @ nz) / votes.n
    np.fill_diagonal(pair, -np.inf)
    return float(pair.max(axis=1).min())


def neighbors_in_support(
    emb: EmbeddingSet,
    votes: VoteMatrix,
    source: int,
    query: int,
    radius: float,
    metric: Metric = Metric.COSINE,
) -> NeighborSet:
    """All support points of ``source`` within ``radius`` of ``query``."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if votes.votes[query, source] != 0:
        raise ValueError(f"point {query} is already voted on by source {source}")
    supp = votes.support(source)
    dist = pairwise_distances(emb, [query], supp, metric)[0]
    keep = dist <= radius
    idx, d = supp[keep], dist[keep]
    order = np.lexsort((idx, d))
    return NeighborSet(query, idx[order], d[order])


# ---------------------------------------------------------------------------
# Bulk scan machinery


def _dot_error_bound(d: int) -> float:
    """Worst case of |float32 dot - float64 reference| of two rows in ``d`` dims, per ``|a| |b|``.

    Rounding both rows to float32 and a d-term float32 dot product (any
    summation order, with or without FMA) put at most ``d + 2`` relative
    roundings on each product term, so the error is at most
    ``gamma(d + 2) * sum_k |a_k b_k| <= gamma(d + 2) |a| |b|`` with
    ``gamma(k) = k*u / (1 - k*u)`` and ``u = 2**-24``.  The float64
    reference adds four times that term with ``u = 2**-53``: cosine's
    half squared difference of unit rows errs by ``2 gamma(d + 2)`` and
    misses their exact ``1 - dot`` by at most ``(d + 5) 2**-53``.
    """
    k = d + 2
    return k * 2.0**-24 / (1.0 - k * 2.0**-24) + 4.0 * k * 2.0**-53 / (1.0 - k * 2.0**-53)


class _ScoreSpace:
    """float32 scores, a monotone proxy for closeness, and their error band.

    Cosine scores are dot products of unit rows.  Euclidean scores are
    ``-(scale |a - b|)^2`` on rows centered on the column mean and scaled
    by the power of two putting the largest squared norm ``M`` in [1/4, 1),
    both exact on distances, so the band ignores the data's offset and
    scale.  ``tau`` bounds the float32 error of a score against a threshold
    and of the gap between two scores (twice the error ``e`` of one);
    comparisons within ``tau`` are re-decided in float64.  Euclidean
    ``tau = max(2e-4, 5 gamma(d+2)) M``: ``fl(fl(2 dot - sq_a) - sq_b)``
    errs by ``2 gamma(d+2) M`` (dot, as ``|a| |b| <= M``), ``2u M`` (rounded
    norms) and ``(3 + 4) u M`` (subtractions, as scores lie in [-4M, 0]),
    so ``2e <= max(90u, 5 gamma(d+2)) M``, room left for ``2**-53`` terms;
    the floor wins to d = 669 (cosine: 836).  The float64 reference
    (``paired_distances``) scales before squaring, so no spread needs more,
    except where the scale is capped at 2**1023 (spreads in the subnormal
    range, where ``M`` falls below 1/4): there ``(d + 2) 2**-1070 scale^2``
    is added, which takes tau to 8 and leaves every decision to float64
    (a tau of 8 covers any gap).

    ``rows`` (float32) are the score-space rows, of norm at most 1: a pair
    at score-space distance ``D`` scores ``base - half D^2`` exactly
    (Euclidean ``-D^2``, cosine ``1 - D^2 / 2``).  Built once per set,
    ``proj`` holds them on their top ``min(d, _PROJ_DIMS)`` principal
    directions in float64 and ``resid`` bounds the norm of each row's
    remainder off those directions.  A projection never lengthens a
    difference, so a distance bound taken there holds for the full rows,
    and ``|Pa - Pb|^2 + (resid_a + resid_b)^2`` bounds ``|a - b|^2`` from
    above.
    """

    def __init__(self, emb: EmbeddingSet, metric: Metric):
        self.emb, self.metric, self._bands = emb, Metric(metric), {}
        if self.metric is Metric.COSINE:
            self.rows = emb._cached("unit32", lambda: emb.unit.astype(np.float32))
            self.sq, self.base, self.half = None, 1.0, 0.5
            self.tau = max(1e-4, 2.0 * _dot_error_bound(emb.d))
        else:
            self.rows, self.sq, self.scale, mx, capped = emb._cached("centered32", self._mirror)
            self.base, self.half = 0.0, 1.0
            under = (emb.d + 2) * 2.0**-1070 * self.scale * self.scale if capped else 0.0
            self.tau = min(8.0, max(2e-4, 5.0 * _dot_error_bound(emb.d)) * mx + under)
        self.proj, self.resid = emb._cached(f"proj_{self.metric.value}", self._project)

    def _mirror(self):
        """``(rows, sq_norms, scale, M, capped)``: float32 but for the scalars; capped: scale held at 2**1023."""
        c = self.emb.data - self.emb.data.mean(axis=0)
        e = -int(np.frexp(np.abs(c).max())[1])
        np.ldexp(c, e, out=c)  # entries below 1: no norm overflows
        t = e - (int(np.frexp(np.einsum("ij,ij->i", c, c).max())[1]) + 1) // 2
        capped, t = t > 1023, min(t, 1023)  # a finite scale
        np.ldexp(c, t - e, out=c)
        sq = np.einsum("ij,ij->i", c, c)
        return c.astype(np.float32), sq.astype(np.float32), float(np.ldexp(1.0, t)), float(sq.max()), capped

    def _project(self):
        """``(proj, resid)``, from the top eigenvectors of a strided sample's scatter.

        ``resid^2 = |row|^2 - |proj|^2`` plus ``(d + 4) 2**-48``, which
        covers the float64 rounding of both terms and of the basis for rows
        of norm at most 1.
        """
        rows = self.rows
        c = rows[:: max(1, rows.shape[0] // 1024)].astype(np.float64)
        c -= c.mean(axis=0)
        if c.shape[1] <= c.shape[0]:
            top = np.linalg.eigh(c.T @ c)[1]
        else:  # fewer samples than dimensions: through the samples' Gram matrix
            top = c.T @ np.linalg.eigh(c @ c.T)[1]
        basis = np.linalg.qr(top[:, -_PROJ_DIMS:])[0]  # orthonormal columns
        proj, resid = np.empty((rows.shape[0], basis.shape[1])), np.empty(rows.shape[0])
        step = max(1, 2**16 // rows.shape[1])  # float64 copies of a slice of rows at a time
        for lo in range(0, rows.shape[0], step):
            x = rows[lo : lo + step].astype(np.float64)
            y = np.matmul(x, basis, out=proj[lo : lo + step])
            resid[lo : lo + step] = np.einsum("ij,ij->i", x, x) - np.einsum("ij,ij->i", y, y)
        np.maximum(resid, 0.0, out=resid)
        return proj, np.sqrt(resid + (rows.shape[1] + 4) * 2.0**-48, out=resid)

    def block(self, rows, cols, buf: np.ndarray) -> np.ndarray:
        """float32 scores of every (row, col) pair of ``rows`` indices or slices, in the front of ``buf``."""
        a, b = self.rows[rows], self.rows[cols]
        out = buf[: a.shape[0] * b.shape[0]].reshape(a.shape[0], b.shape[0])
        np.matmul(a, b.T, out=out)
        if self.sq is None:  # cosine
            return out
        out *= 2
        out -= self.sq[rows][:, None]
        out -= self.sq[cols][None, :]
        return out

    def permuted(self, order: np.ndarray) -> "_ScoreSpace":
        """This space with its score rows copied in ``order``: ``block`` takes positions in it."""
        out = copy.copy(self)
        out.rows = self.rows[order]
        out.sq = None if self.sq is None else self.sq[order]
        return out

    def score_at_radius(self, r: float) -> float:
        if self.metric is Metric.COSINE:
            return 1.0 - r
        r = r * self.scale
        return -(r * r)

    def band(self, r: float) -> tuple:
        """float32 scores ``lo <= hi`` enclosing ``score_at_radius(r) -/+ tau``.

        A block score above ``hi`` is inside radius ``r``, one below ``lo``
        outside, one in ``[lo, hi]`` needs a float64 check; each bound is
        rounded one ulp outward, so the band is never narrower than ``tau``.
        Kept per radius: ``_tile_tasks`` fills it for every grid radius on
        the calling thread, so scan workers only read it.
        """
        if r not in self._bands:
            sthr, f = self.score_at_radius(r), np.float32
            with np.errstate(over="ignore"):  # a radius far beyond the data's spread: -inf
                lo = np.nextafter(f(sthr - self.tau), f(-np.inf))
                self._bands[r] = lo, np.nextafter(f(sthr + self.tau), f(np.inf))
        return self._bands[r]

    def reach(self, score: float) -> float:
        """A distance between ``rows`` beyond which every float32 block score is below ``score``.

        A pair at distance ``D`` scores at most ``base - half D^2 + tau/2``;
        the spare ``tau/2`` of the margin used here covers cosine's
        ``O(d 2**-53)`` gap between unit-row dot products and ``1 - D^2/2``.
        Distances measured on ``rows`` or ``proj`` err from those of the
        exact rows by at most ``2**-23`` (two float32 roundings of rows of
        norm at most 1) plus float64 terms far below another ``2**-23``
        for any d under 2**20, hence ``_SLACK``.
        """
        return _SLACK + math.sqrt(max(0.0, (self.base + self.tau - score) / self.half))

    def floor(self, dist: float) -> float:
        """A score below the 1nn threshold ``fl32(m - tau)`` of a row holding a pair within ``dist``.

        The pair scores at least ``base - half (dist + _SLACK)^2 - tau/2``,
        so its row's best score ``m`` does; ``2**-20`` bounds rounding
        ``tau`` and ``m - tau`` (within [-12, 1]) to float32.
        """
        return self.base - self.half * (dist + _SLACK) ** 2 - 1.5 * self.tau - 2.0**-20


@dataclass
class NeighborTable:
    """One source's scan results over its ascending radius grid.

    1nn keeps every abstainer's nearest support point, which answers any
    radius; wsum keeps, per grid radius, the count and signed sum of the
    voters inside it.  Rows follow ``queries``.  ``cells`` counts the
    score cells of the table's scan: the (query, support) pairs of its
    tiles and chunks, or for a class-pair scan (owned by the batch's first
    table) every pair of points with different vote patterns over the
    batch, ``(n^2 - sum of class sizes^2) / 2``.  It is 0 for a table
    sharing another's scan, deterministic, and kept out of every artifact.
    """

    source: int
    queries: np.ndarray  # abstaining rows, ascending
    support: np.ndarray  # voting rows, ascending
    radii: np.ndarray  # ascending grid
    weighting: Weighting
    # 1nn results
    best_dist: np.ndarray | None = None
    best_col: np.ndarray | None = None
    # wsum results, one column per grid radius
    in_count: np.ndarray | None = None
    vote_sum: np.ndarray | None = None
    cells: int = 0

    def _grid_index(self, radius: float) -> int:
        k = int(np.searchsorted(self.radii, radius))
        if k == self.radii.size or self.radii[k] != radius:
            raise ValueError(f"radius {radius} is not on the grid of source {self.source}")
        return k

    def reached(self, radius: float) -> np.ndarray:
        """Mask over ``queries``: abstainers with a voter within ``radius``."""
        if radius <= 0:
            return np.zeros(self.queries.size, dtype=bool)
        if self.weighting is Weighting.ONE_NEAREST_NEIGHBOR:
            return self.best_dist <= radius
        return self.in_count[:, self._grid_index(radius)] > 0

    def column(self, votes: VoteMatrix, radius: float) -> np.ndarray:
        """The source's column extended to ``radius`` (wsum: a grid radius; <= 0: as is)."""
        col = np.array(votes.votes[:, self.source], copy=True)
        member = self.reached(radius)
        if self.weighting is Weighting.ONE_NEAREST_NEIGHBOR:
            col[self.queries[member]] = votes.votes[self.best_col[member], self.source]
        elif member.any():
            col[self.queries[member]] = np.sign(self.vote_sum[member, self._grid_index(radius)])
        return col


def _refine_first_per_group(emb, metric, groups, qids, cids):
    """Exact distances for candidate pairs; keep the best per group.

    Returns the positions of each group's winner among the candidates
    and its distance, ties resolved to the smallest support id.
    """
    dist = paired_distances(emb, qids, cids, metric)
    order = np.lexsort((cids, dist, groups))
    gs = groups[order]
    first = np.empty(gs.size, dtype=bool)
    first[0] = True
    first[1:] = gs[1:] != gs[:-1]
    pick = order[first]
    return pick, dist[pick]


def _scan_chunk(space, votes, group, qpos, cpos, ends, buf):
    """Score queries ``qpos`` of ``group`` against its support (positions ``cpos``; None: all) and fold.

    ``group`` holds the tables of sources sharing one support and grid;
    the first stands for all, and they share its nearest arrays (1nn) or
    voter counts (wsum).  The block goes into the front of the worker's
    ``buf``; tasks of one group cover disjoint query positions, so each
    writes its own result rows without locking.  Both folds walk the
    block in pieces of whole rows of about ``_PIECE_CELLS`` cells, each
    marking its float64 candidates in one reused bool mask, so scratch is
    bounded by a piece, not by the block or its band; a row's decision
    depends on that row alone, so the pieces change no result.  1nn marks
    the cells within ``tau`` of each row's best score and keeps each
    row's float64 nearest among them.  wsum folds each positive grid
    radius ``k`` over the first ``ends[k]`` columns (None: all): a piece's
    inside mask, as float32 in a reused buffer, times ``[ones, vote
    columns...]`` in one GEMM gives the count and every source's vote
    sum.  Each term is 0 or +-1, so every partial sum BLAS forms, in any
    order, is an integer no larger than the piece's width, which
    ``_EXACT_COLS`` (2^24; wider supports fold in column pieces) keeps
    exact in float32.  The band cells are re-decided in float64 and
    added, all columns in one ``np.add.at``.
    """
    st = group[0]
    qids = st.queries[qpos]
    cols = st.support if cpos is None else st.support[cpos]
    sub = space.block(qids, cols, buf)
    emb, metric = space.emb, space.metric
    nn = st.weighting is Weighting.ONE_NEAREST_NEIGHBOR
    wide = cols.size if nn else min(cols.size, _EXACT_COLS)  # columns per piece
    step = min(qpos.size, max(1, _PIECE_CELLS // wide))  # rows per piece, scratch sized to the block
    if not nn:
        w = np.ones((cols.size, 1 + len(group)), dtype=np.float32)
        w[:, 1:] = votes.votes[cols][:, [t.source for t in group]]
        wi = w.astype(np.int64)
        inside, mask32 = np.empty(step * wide, dtype=bool), np.empty(step * wide, dtype=np.float32)
        grid = [(k, float(st.radii[k]), cols.size if ends is None else int(ends[k]))
                for k in np.flatnonzero(st.radii > 0)]
    mask = np.empty(step * wide, dtype=bool)
    for a in range(0, qpos.size, step):
        rows = qpos[a : a + step]
        if nn:
            part = sub[a : a + step]
            top = part.max(axis=1)[:, None] - space.tau  # float32, as the scores
            hit = np.greater_equal(part, top, out=mask[: part.size].reshape(part.shape))
            rr, cc = np.divmod(np.flatnonzero(hit), wide)
            pick, dist = _refine_first_per_group(emb, metric, rr, qids[a + rr], cols[cc])
            st.best_dist[rows[rr[pick]]] = dist
            st.best_col[rows[rr[pick]]] = cols[cc[pick]]
            continue
        res = np.zeros((rows.size, st.radii.size, w.shape[1]), dtype=np.int64)
        for k, radius, e in grid:
            lo_s, hi_s = space.band(radius)
            for c in range(0, e, wide):  # one piece unless the support is wider than _EXACT_COLS
                part = sub[a : a + step, c : min(e, c + wide)]
                ins = np.greater(part, hi_s, out=inside[: part.size].reshape(part.shape))
                fl = mask32[: part.size].reshape(part.shape)
                fl[...] = ins
                res[:, k] += (fl @ w[c : c + part.shape[1]]).astype(np.int64)
                hit = np.greater_equal(part, lo_s, out=mask[: part.size].reshape(part.shape))
                hit ^= ins
                rr, cc = np.divmod(np.flatnonzero(hit), part.shape[1])
                if rr.size:
                    cc += c
                    keep = paired_distances(emb, qids[a + rr], cols[cc], metric) <= radius
                    np.add.at(res[:, k], rr[keep], wi[cc[keep]])
        st.in_count[rows] = res[:, :, 0]
        for i, t in enumerate(group):
            t.vote_sum[rows] = res[:, :, 1 + i]


def _kd_tiles(p):
    """``(order, starts)``: ``p``'s rows in k-d order, cut into tiles of ``_TILE_ROWS`` at ``starts``.

    Each node splits on its widest coordinate at the whole number of tiles
    nearest below its median, so only the last tile is short; all nodes
    of one size split in one vectorized pass.
    """
    order, cols = np.arange(p.shape[0]), np.ascontiguousarray(p.T)
    starts, sizes = np.zeros(1, dtype=np.int64), np.array([p.shape[0]])
    while (sizes > _TILE_ROWS).any():
        cut = np.where(sizes > _TILE_ROWS, -(-sizes // _TILE_ROWS) // 2 * _TILE_ROWS, sizes)
        for s in np.unique(sizes[sizes > _TILE_ROWS]):
            at = starts[sizes == s][:, None] + np.arange(s)
            idx = order[at]
            x = np.take(cols, idx, axis=1)  # (coordinate, node, row), C order
            keys = x[np.argmax(x.max(axis=2) - x.min(axis=2), axis=0), np.arange(idx.shape[0])]
            k = -(-s // _TILE_ROWS) // 2 * _TILE_ROWS
            order[at] = np.take_along_axis(idx, np.argpartition(keys, k, axis=1), axis=1)
        split = cut < sizes
        starts = np.concatenate([starts, starts[split] + cut[split]])
        sizes = np.concatenate([cut, sizes[split] - cut[split]])
    return order, np.sort(starts)


def _box_distances(lo, hi, pts):
    """``(boxes, points)`` float64 distances from each box ``[lo, hi]`` to each point."""
    acc = np.zeros((lo.shape[0], pts.shape[0]))
    for k in range(pts.shape[1]):
        gap = np.maximum(lo[:, k, None] - pts[:, k], pts[:, k] - hi[:, k, None])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        acc += gap
    return np.sqrt(acc, out=acc)


def _tile_tasks(space, st, step):
    """Score tasks ``(query positions, support positions, ends)`` of one table, or None.

    None when nothing could prune: one ball about the support's mean
    holds every query and support point within the least cut a tile
    could have (such tables are scanned by ``_ClassPairs``).  Otherwise
    the queries are cut into k-d tiles on ``space.proj``.  A tile drops
    every support column whose distance from the tile's projected box is
    beyond ``space.reach`` of a score the fold rejects without a float64
    check: for wsum, the outward band edge of the grid's largest radius;
    for 1nn, the ``space.floor`` of every tile row's threshold, from an
    upper bound on each row's distance to the support point nearest the
    tile's centre.  So a pruned tile's fold sees the same candidates as a
    full scan.  A wsum tile orders its kept columns by bound, and
    ``ends[k]`` counts those grid radius ``k`` may reach, the only ones
    it folds.  Tiles keeping every column are joined, in ascending query
    order, into chunks of ``step`` rows (support positions and ends
    None); the others are scored alone.  A wsum tile keeping no column
    has no task, so a plan may have none.
    """
    pq, ps = space.proj[st.queries], space.proj[st.support]
    wsum = st.weighting is Weighting.THRESHOLDED_WEIGHTED_SUM
    if wsum:
        reach = np.array([space.reach(float(space.band(float(r))[0])) for r in st.radii])
        least = reach[-1]
    else:  # a tile's cut exceeds its rows' distance bound, which exceeds this
        least = space.resid[st.queries].min() + space.resid[st.support].min()
    spread, centre = 0.0, ps.mean(axis=0)
    for x in (pq - centre, ps - centre):
        spread += np.sqrt(np.einsum("ij,ij->i", x, x).max())
    if spread <= least:  # every (query, support) pair is within any cut
        return None
    full, tasks = [], []
    qpos, starts = _kd_tiles(pq)
    pq = pq[qpos]
    lo, hi = np.minimum.reduceat(pq, starts), np.maximum.reduceat(pq, starts)
    group = max(1, 2**20 // ps.shape[0])  # tiles per (tiles, support) scratch array
    if wsum:
        cuts = np.full(starts.size, least)
    else:  # every row's best pair is within `far` of it
        mid, sq = (lo + hi) / 2, np.einsum("ij,ij->i", ps, ps)
        near = [(sq - 2 * (mid[g : g + group] @ ps.T)).argmin(axis=1) for g in range(0, mid.shape[0], group)]
        near = np.repeat(np.concatenate(near), np.diff([*starts, qpos.size]))
        gap = pq - ps[near]
        far2 = np.einsum("ij,ij->i", gap, gap) + (space.resid[st.queries[qpos]] + space.resid[st.support[near]]) ** 2
        cuts = np.array([space.reach(space.floor(u)) for u in np.sqrt(np.maximum.reduceat(far2, starts)).tolist()])
    tiles = np.split(qpos, starts[1:])
    for g in range(0, starts.size, group):
        for t, bound in zip(range(g, g + group), _box_distances(lo[g : g + group], hi[g : g + group], ps)):
            keep = np.flatnonzero(bound <= cuts[t])
            if keep.size == bound.size:
                full.append(tiles[t])
            elif wsum and keep.size:
                keep = keep[np.argsort(bound[keep], kind="stable")]
                tasks.append((tiles[t], keep, np.searchsorted(bound[keep], reach, side="right")))
            elif keep.size:
                tasks.append((tiles[t], keep, None))
    run = np.sort(np.concatenate(full)) if full else np.empty(0, dtype=np.int64)
    return [(run[i : i + step], None, None) for i in range(0, run.size, step)] + tasks


class _ClassPairs:
    """One scan of up to ``_CLASS_SOURCES`` groups (wsum: of one grid) that no tile could prune.

    Each point is keyed by its vote pattern over the groups' supports (bit
    ``b``: it votes on group ``b``) and the score rows are copied in key
    order once, so each class is a run of positions.  Two points of one
    class are never a query/support pair of any group; two of different
    classes are one of at least one.  A task scores a chunk of class
    ``a``'s rows against the rows of every higher class in one GEMM, so
    each such pair is scored once and none within a class.  The highest
    bit in which ``a < b`` differ is set in ``b``, so the rows are queries
    of some group in every class ``b`` slice of columns (the row side);
    where ``a`` votes on a group ``b`` abstains on, the columns are its
    queries too (the column side).  Tasks write to their worker's own
    store (``local``), and ``finish`` merges the stores into the tables
    by integer sums (wsum) or by maxima and least ``(distance, point
    id)`` (1nn), so no table depends on which worker ran which task.
    """

    def __init__(self, space, votes, batch):
        self.space, self.batch, n = space, batch, votes.n
        key = np.zeros(n, dtype=np.int64)
        for b, g in enumerate(batch):
            key |= (votes.votes[:, g[0].source] != 0).astype(np.int64) << b
        self.order = np.argsort(key, kind="stable")
        self.key = key[self.order]
        self.starts = np.searchsorted(self.key, np.arange(2 ** len(batch) + 1))
        self.bits = (np.arange(2 ** len(batch))[:, None] >> np.arange(len(batch))) & 1 == 1  # (class, group)
        self.view = space.permuted(self.order)
        self.plan = []  # (class, first row, end row): a chunk of rows against every higher class
        for a in range(2 ** len(batch)):
            lo, c0 = self.starts[a], self.starts[a + 1]
            if lo < c0 < n:
                step = max(_MIN_CHUNK, _CHUNK_ELEMS // (n - c0))
                self.plan += [(a, r, min(r + step, c0)) for r in range(lo, c0, step)]
        batch[0][0].cells = sum(self.cells(task) for task in self.plan)
        self.w = None
        if batch[0][0].weighting is Weighting.THRESHOLDED_WEIGHTED_SUM:
            # in key order: each group's voter indicator, then every table's votes
            v = votes.votes[self.order]
            w = np.empty((n, len(batch) + sum(map(len, batch))), dtype=np.float32)
            w[:, : len(batch)] = self.bits[self.key]
            w[:, len(batch) :] = v[:, [t.source for g in batch for t in g]]
            self.w, self.wi = w, w.astype(np.int32)
            self.owner = np.array([b for b, g in enumerate(batch) for _ in g])  # each table's group
            self.grid = [(k, float(r)) for k, r in enumerate(batch[0][0].radii) if r > 0]

    def cells(self, task):
        a, r0, r1 = task
        return int((r1 - r0) * (self.key.size - self.starts[a + 1]))

    def local(self):
        n, lead = self.key.size, self.batch[0][0]
        if self.w is None:  # per (position, group) best float32 score, and (query, partner, score) candidates
            return np.full((n, len(self.batch)), -np.inf, dtype=np.float32), []
        return np.zeros((n, lead.radii.size, self.w.shape[1]), dtype=np.int32)

    def __call__(self, a, r0, r1, buf, own):
        if self not in own:
            own[self] = self.local()
        c0 = self.starts[a + 1]
        sub = self.view.block(slice(r0, r1), slice(c0, None), buf)
        cls = np.flatnonzero(np.diff(self.starts[a + 1 :]) > 0) + a + 1  # the column slices' classes
        ls = self.starts[cls] - c0
        colq = (self.bits[a] & ~self.bits[cls]).any(axis=1)  # per slice: its columns are queries too
        if self.w is None:
            self._nearest(a, r0, c0, sub, own[self], cls, ls, colq)
        else:
            self._weighted(a, r0, c0, sub, own[self], cls, ls, colq.any())

    def _winners(self, groups, q, p):
        """Positions of each group's float64 nearest pair (query ``q``, partner ``p``, in key order)."""
        return _refine_first_per_group(self.space.emb, self.space.metric, groups, self.order[q], self.order[p])[0]

    def _nearest(self, a, r0, c0, sub, own, cls, ls, colq):
        """1nn fold: per-group row maxima, column maxima and the cells within ``tau`` of them.

        Row side, per piece: each row's best score over the slices voting
        on each group it abstains on, and the cells within ``tau`` of the
        least such threshold a slice answers to.  Column side, after the
        rows: each column's best over the block and the cells within
        ``tau`` of it.  A local best never exceeds the group's, so the
        cells kept hold every cell the final threshold keeps.  Pieces
        keeping more cells than (row, slice) pairs, or column passes
        keeping more than two per column, keep one float64 winner per
        pair (the group's nearest is its winner wherever it lies), so the
        store stays within a few entries per query and class.
        """
        best, found = own
        tau, (rows, width) = self.space.tau, sub.shape
        vote = self.bits[cls] & ~self.bits[a]  # (slice, group): the slice votes where the rows abstain
        used = np.flatnonzero(vote.any(axis=0))
        vote = vote[:, used]
        step = max(1, _PIECE_CELLS // width)
        mask = np.empty(min(rows, step) * width, dtype=bool)
        live = np.repeat(colq, np.diff([*ls, width]))  # columns that are queries of some group
        lo, hi = (int(i) for i in np.flatnonzero(live)[[0, -1]] + [0, 1]) if live.any() else (0, 0)
        colmax = np.full(hi - lo, -np.inf, dtype=np.float32)
        hits = []  # (query, partner, score) per piece, in key order
        for p in range(0, rows, step):
            part = sub[p : p + step]
            q = slice(r0 + p, r0 + p + part.shape[0])
            top = np.where(vote, np.maximum.reduceat(part, ls, axis=1)[:, :, None], -np.inf).max(axis=1)
            thr = top - tau  # float32, as the scores
            cut = np.where(vote, thr[:, None, :], np.inf).min(axis=2)  # (row, slice)
            hit = np.greater_equal(part, thr.min(axis=1)[:, None], out=mask[: part.size].reshape(part.shape))
            rr, cc = np.divmod(np.flatnonzero(hit), width)
            sl = np.searchsorted(ls, cc, side="right") - 1
            sc = part[rr, cc]
            keep = sc >= cut[rr, sl]
            rr, cc, sl, sc = rr[keep], cc[keep], sl[keep], sc[keep]
            if rr.size > cut.size:
                pick = self._winners(rr * ls.size + sl, q.start + rr, c0 + cc)
                rr, cc, sc = rr[pick], cc[pick], sc[pick]
            hits.append((q.start + rr, c0 + cc, sc))
            best[q, used] = np.maximum(best[q, used], top)
            if hi > lo:
                np.maximum(colmax, part[:, lo:hi].max(axis=0), out=colmax)
        if hi > lo:
            for g in np.flatnonzero(self.bits[a]):  # the columns abstaining on a group the rows vote on
                on = ~np.repeat(self.bits[cls, g], np.diff([*ls, width]))[lo:hi]
                at = c0 + lo + np.flatnonzero(on)
                best[at, g] = np.maximum(best[at, g], colmax[on])
            cut = colmax - tau
            cut[~live[lo:hi]] = np.inf
            cols, kept = [], 0
            for p in range(0, rows, step):
                part = sub[p : p + step, lo:hi]
                hit = np.greater_equal(part, cut, out=mask[: part.size].reshape(part.shape))
                rr, cc = np.divmod(np.flatnonzero(hit), hi - lo)
                cols.append((c0 + lo + cc, r0 + p + rr, part[rr, cc]))
                kept += rr.size
                if kept > 2 * (hi - lo):
                    cq, cp, sc = (np.concatenate(x) for x in zip(*cols))
                    pick = self._winners(cq, cq, cp)
                    cols, kept = [(cq[pick], cp[pick], sc[pick])], pick.size
            hits += cols
        q, p, sc = (np.concatenate(x) for x in zip(*hits))
        found.append((q.astype(np.int32), p.astype(np.int32), sc))

    def _weighted(self, a, r0, c0, sub, acc, cls, ls, both):
        """wsum fold: each inside mask counts and sums votes for the rows and, if ``both``, the columns.

        Per piece and positive grid radius, the inside mask (float32 0/1)
        gives each row's inside cells per column slice (``reduceat``),
        hence its voter count for every group the rows abstain on, and
        times those groups' vote columns, its vote sums; the columns' ones
        and vote sums for the groups the rows vote on come from the rows'
        ``[1, votes]`` times the mask.  Entries of a point for a group it
        votes on are never read.  Band cells are re-decided in float64
        once for both sides.  Sums stay exact as in ``_scan_chunk``: at
        most ``_EXACT_COLS`` columns and ``_PIECE_CELLS`` rows per piece.
        """
        emb, metric, order, groups = self.space.emb, self.space.metric, self.order, len(self.batch)
        rows, width = sub.shape
        wide = min(width, _EXACT_COLS)
        step = max(1, _PIECE_CELLS // wide)
        ga, gv = np.flatnonzero(~self.bits[a]), np.flatnonzero(self.bits[a])  # groups: rows abstain, vote
        ta, tv = (groups + np.flatnonzero(np.isin(self.owner, x)) for x in (ga, gv))  # their tables' columns
        counts = self.bits[cls][:, ga].astype(np.float32)  # (slice, group the rows abstain on): votes
        wc = self.w[c0:, ta]
        wr = np.ones((rows, 1 + tv.size), dtype=np.float32)
        wr[:, 1:] = self.w[r0 : r0 + rows, tv]
        wri, wci = self.wi[r0 : r0 + rows], self.wi[c0:]
        size = min(rows, step) * wide
        inside, mask32, mask = np.empty(size, dtype=bool), np.empty(size, dtype=np.float32), np.empty(size, dtype=bool)
        for p in range(0, rows, step):
            for c in range(0, width, wide):
                part = sub[p : p + step, c : c + wide]
                q, s = slice(r0 + p, r0 + p + part.shape[0]), slice(c0 + c, c0 + c + part.shape[1])
                first = np.searchsorted(ls, c, side="right") - 1  # the slices the piece's columns are in
                cuts = np.maximum(ls[first : np.searchsorted(ls, c + part.shape[1])] - c, 0)
                for k, radius in self.grid:
                    lo_s, hi_s = self.space.band(radius)
                    ins = np.greater(part, hi_s, out=inside[: part.size].reshape(part.shape))
                    fl = mask32[: part.size].reshape(part.shape)
                    fl[...] = ins
                    per_slice = np.add.reduceat(fl, cuts, axis=1)
                    acc[q, k, ga] += (per_slice @ counts[first : first + cuts.size]).astype(np.int32)
                    acc[q, k, ta] += (fl @ wc[c : c + part.shape[1]]).astype(np.int32)
                    if both:
                        col = (wr[p : p + part.shape[0]].T @ fl).T.astype(np.int32)
                        acc[s, k, gv] += col[:, :1]
                        acc[s, k, tv] += col[:, 1:]
                    hit = np.greater_equal(part, lo_s, out=mask[: part.size].reshape(part.shape))
                    hit ^= ins
                    if hit.any():
                        rr, cc = np.divmod(np.flatnonzero(hit), part.shape[1])
                        keep = paired_distances(emb, order[q][rr], order[s][cc], metric) <= radius
                        rr, cc = rr[keep], cc[keep]
                        np.add.at(acc[q, k], rr, wci[c + cc])
                        if both:
                            np.add.at(acc[s, k], cc, wri[p + rr])

    def finish(self, owns):
        """Merge the workers' stores into the batch's tables."""
        n, groups = self.key.size, len(self.batch)
        if self.w is not None:
            acc = owns[0].astype(np.int64)
            for o in owns[1:]:
                acc += o
            at = np.empty(n, dtype=np.int64)
            at[self.order] = np.arange(n)
            cols = iter(range(groups, self.w.shape[1]))
            for b, g in enumerate(self.batch):
                pos = at[g[0].queries]
                g[0].in_count[...] = acc[pos, :, b]
                for t in g:
                    t.vote_sum[...] = acc[pos, :, next(cols)]
            return
        best = owns[0][0]
        for o in owns[1:]:
            np.maximum(best, o[0], out=best)
        q, p, sc = (np.concatenate(x) for x in zip(*[f for o in owns for f in o[1]]))
        for b, g in enumerate(self.batch):
            st = g[0]
            thr = best[:, b] - self.space.tau  # float32, as in _scan_chunk
            sel = np.flatnonzero(~self.bits[self.key[q], b] & self.bits[self.key[p], b] & (sc >= thr[q]))
            qid, pid = self.order[q[sel]], self.order[p[sel]]
            pos = np.searchsorted(st.queries, qid)
            pick, dist = _refine_first_per_group(self.space.emb, self.space.metric, pos, qid, pid)
            st.best_dist[pos[pick]] = dist
            st.best_col[pos[pick]] = pid[pick]


def _run_tasks(tasks, threads, cells):
    """Run ``tasks`` on up to ``threads`` worker loops that take them in order.

    Each worker owns one float32 buffer of ``cells`` (the largest block
    of the scan) and one dict, and passes both to every task it runs, so
    chunks reuse their block's memory and class-pair tasks keep their
    results per worker; the buffers are freed when the workers return.
    Returns the workers' dicts.
    """
    queue = deque(tasks)

    def work():
        buf, own = np.empty(cells, dtype=np.float32), {}
        while True:
            try:
                task = queue.popleft()
            except IndexError:  # drained
                return own
            task(buf, own)

    workers = min(threads, len(tasks))
    if workers <= 1:
        return [work()]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [f.result() for f in [pool.submit(work) for _ in range(workers)]]


def neighbor_tables(
    emb: EmbeddingSet,
    votes: VoteMatrix,
    grids: dict,
    weighting: Weighting = Weighting.ONE_NEAREST_NEIGHBOR,
    metric: Metric = Metric.COSINE,
    threads: int | None = None,
) -> dict:
    """Scan every source of ``grids`` (source -> radii) in one pool.

    Returns a ``NeighborTable`` per source, whose ``column(votes, r)``
    is that source's column as ``extend_votes`` extends it at radius
    ``r`` (for wsum, ``r`` must be on the grid).  Each grid is sorted and
    deduplicated and must be finite and nonnegative (else ``DataError``).

    Sources with equal supports and grids form one group, planned, scored
    and folded once.  Each group's queries are cut into k-d tiles of at
    most ``_TILE_ROWS`` rows, and each tile drops the support columns
    that exact distance bounds prove its fold would reject
    (``_tile_tasks``).  Tiles keeping every column are joined into chunks
    of about ``_CHUNK_ELEMS`` score cells (at least ``_MIN_CHUNK`` rows);
    the others are scored alone, each one block and one fold
    (``_scan_chunk``).  Groups where no tile could prune (under wsum,
    those of one grid) are scanned together, up to ``_CLASS_SOURCES`` at
    a time, by vote-pattern class pairs (``_ClassPairs``): each point pair
    that is a query/support pair of any of them is scored once, in chunks
    of about ``_CHUNK_ELEMS`` cells.  All blocks run on one pool of ``threads``
    workers, each scoring into its own buffer sized for the largest
    block.  A group's first table, or a class-pair scan's first, owns its
    scan's ``cells`` (the others count 0).  A wsum group without a
    positive radius has nothing to fold.
    """
    weighting = Weighting(weighting)
    if emb.n != votes.n:
        raise ValueError(f"embeddings have {emb.n} rows but votes have {votes.n}")
    tables, groups = {}, {}
    for j, radii in grids.items():
        if not 0 <= j < votes.m:
            raise ValueError(f"source {j} out of range for {votes.m} sources")
        radii = np.unique(np.asarray(radii, dtype=np.float64))
        if not np.isfinite(radii).all() or (radii < 0).any():
            raise DataError(f"radius grid of source {j} must be finite and nonnegative")
        abstain = votes.votes[:, j] == 0
        group = groups.setdefault((abstain.tobytes(), radii.tobytes()), [])
        if group:
            lead = group[0]
            t = replace(lead, source=j, vote_sum=None if lead.vote_sum is None else np.zeros_like(lead.vote_sum))
        else:
            queries, support = np.flatnonzero(abstain), np.flatnonzero(~abstain)
            t = NeighborTable(j, queries, support, radii, weighting)
            if weighting is Weighting.ONE_NEAREST_NEIGHBOR:
                t.best_dist = np.full(queries.size, np.inf)
                t.best_col = np.full(queries.size, votes.n, dtype=np.int64)
            else:
                t.in_count = np.zeros((queries.size, radii.size), dtype=np.int64)
                t.vote_sum = np.zeros((queries.size, radii.size), dtype=np.int64)
        group.append(t)
        tables[j] = t
    scans = [g for g in groups.values() if g[0].queries.size and g[0].support.size]
    if weighting is Weighting.THRESHOLDED_WEIGHTED_SUM:  # a grid without a positive radius has nothing to fold
        scans = [g for g in scans if (g[0].radii > 0).any()]
    if not scans:
        return tables
    space, tasks, untiled = _ScoreSpace(emb, metric), [], {}
    for g in scans:
        st = g[0]
        plan = _tile_tasks(space, st, max(_MIN_CHUNK, _CHUNK_ELEMS // st.support.size))
        if plan is None:  # a 1nn table answers every radius: its scan ignores the grid
            wsum = weighting is Weighting.THRESHOLDED_WEIGHTED_SUM
            untiled.setdefault(st.radii.tobytes() if wsum else b"", []).append(g)
            continue
        sizes = [q.size * (st.support.size if c is None else c.size) for q, c, _ in plan]
        st.cells = sum(sizes)
        # a tiled block writes its own rows of the tables: no per-worker store
        tasks += [(size, lambda buf, own, task=(g, *t): _scan_chunk(space, votes, *task, buf))
                  for size, t in zip(sizes, plan)]
    pairs = [_ClassPairs(space, votes, same[i : i + _CLASS_SOURCES])
             for same in untiled.values() for i in range(0, len(same), _CLASS_SOURCES)]
    for cp in pairs:
        tasks += [(cp.cells(task), partial(cp, *task)) for task in cp.plan]
    if tasks:  # none when every tile is beyond a wsum scan's largest radius
        threads = min(4, os.cpu_count() or 1) if threads is None else max(1, int(threads))
        owns = _run_tasks([task for _, task in tasks], threads, max(size for size, _ in tasks))
        for cp in pairs:
            cp.finish([own[cp] for own in owns if cp in own])
    return tables


def extend_votes(
    emb: EmbeddingSet,
    votes: VoteMatrix,
    config: RadiusConfig,
    metric: Metric = Metric.COSINE,
    threads: int | None = None,
) -> tuple[VoteMatrix, ExtensionReport]:
    """Extend every source's votes to abstainers within its radius.

    Existing votes are never altered; a radius of 0 leaves a source
    untouched; abstainers with an empty neighborhood keep abstaining.
    With the weighted-sum rule a neighborhood voting to an exact zero sum
    stays an abstain.
    """
    if config.radii.shape[0] != votes.m:
        raise ValueError(f"config has {config.radii.shape[0]} radii for {votes.m} sources")
    grids = {j: config.radii[j : j + 1] for j in range(votes.m) if config.radii[j] > 0.0}
    tables = neighbor_tables(emb, votes, grids, config.weighting, metric, threads)
    return extend_from_tables(votes, config, tables)


def extend_from_tables(
    votes: VoteMatrix, config: RadiusConfig, tables: dict
) -> tuple[VoteMatrix, ExtensionReport]:
    """``extend_votes`` read from scanned tables (source -> ``NeighborTable``).

    Every source with a positive radius needs a table of the config's
    weighting; a wsum table must hold that radius on its grid.
    """
    if config.radii.shape[0] != votes.m:
        raise ValueError(f"config has {config.radii.shape[0]} radii for {votes.m} sources")
    radii = config.radii
    extended = np.array(votes.votes, copy=True)
    newly = np.zeros(votes.m, dtype=np.float64)
    for j in np.flatnonzero(radii > 0.0):
        t = tables[j]
        if t.weighting is not config.weighting:
            raise ValueError(f"table of source {j} is {t.weighting.value}, config is {config.weighting.value}")
        extended[:, j] = t.column(votes, radii[j])
        newly[j] = t.reached(radii[j]).sum() / votes.n

    out = VoteMatrix(extended)
    report = ExtensionReport(
        radii=config.radii,
        weighting=config.weighting,
        original_coverage=coverage(votes),
        extended_coverage=coverage(out),
        newly_labeled_fraction=newly,
        min_overlap_before=min_overlap(votes) if votes.m >= 2 else None,
        min_overlap_after=min_overlap(out) if votes.m >= 2 else None,
    )
    return out, report
