"""Extend source votes to abstaining points through embedding space.

Each source keeps every vote it already casts.  For an abstaining point,
the source's voting neighborhood within its threshold radius is located
by an exhaustive scan over the source's support, and a weighting rule
(1-nearest-neighbor or a uniformly weighted sum) turns the neighborhood
into a vote; points with an empty neighborhood keep abstaining.  Newly
labeled points never seed further extension.

The scan is exact in float64, and every scan runs through one fold
(``_ClassPairs``).  Each point is keyed by its pattern of votes over the
scanned sources, the float32 score rows (unit rows, or Euclidean rows
centered and scaled by a power of two) are derived from the set's
float64 rows in key order, chunk by chunk, into the batch's one copy,
and each task scores a run of one class's rows against a range of
columns of higher classes in one GEMM block, written into a buffer that
each scan worker owns and reuses.  A scan runs one batch at a time, so
it holds, beside the set's data, one float32 copy, each worker's block
buffer and bounded scratch: the set keeps no ``n x d`` array of its own
but the data (``_ScoreSpace``).  Every block, whichever plan made it, holds at
most ``_CHUNK_ELEMS`` cells (8 MB): rows stay tall (``_BLOCK_ROWS`` or
more where the class has them) and a wide block is cut by columns, so
the buffers do not grow with queries x support, as in exact blocked
search, which selects from each tile of scores in turn (Johnson, Douze &
Jegou 2017).  A scan of two or more workers holds the bundled OpenBLAS
at one thread from its projection to its last merge, so one worker's
GEMM runs beside the other's fold and no BLAS helper thread spins beside
them (``_OneBlasThread``).  Two points of one class are never a query/support
pair of any source, so no such pair is scored.  Each source's
abstainers are first cut into k-d tiles of about 256 rows on a
cached low-dimensional projection, and exact float64 bounds drop, per
tile, the support columns whose scores the fold would reject without a
float64 check (wsum: beyond the grid's largest radius; 1nn: beyond every
tile row's best score).  Where some tile prunes, the source's group is a
batch of its own with two classes, abstainers and voters, and each tile
is cut into blocks against its kept columns (the whole support, where it
keeps every one).  Where no tile prunes (as on high-dimensional data),
the sources are scanned together (wsum: those of one radius grid), and
each class's rows are scored in blocks against the rows of every higher
class, so a point pair is scored once for all the sources it is a
query/support pair of.

Each column slice of a block is folded for the sources the rows abstain
on and the columns vote on, and with the columns as queries for those
the columns abstain on and the rows vote on.  The fold walks the block
in pieces of whole rows; each piece marks the cells near a threshold or
a tie in one reused mask, so its scratch is bounded by a piece.  Every
table is capped at its grid's largest radius, so no output reads a
neighbor beyond the widest radius of the scan, and the fold first lists
the block's hits, the cells scoring at or above that radius's band.  Where they are few (at
most two per row and class slice plus two per column, the bound the
dense 1nn fold keeps its store to), the block is folded from its hits
alone: 1nn stores each as a candidate in both orientations, and wsum
decides each per grid radius.  Other blocks are folded densely: 1nn
keeps per-source maxima and the cells within ``tau`` of them.  1nn
re-decides the survivors of each source's final threshold, taken from
those maxima and the candidates' own scores, in one float64 call and
drops winners beyond the table's cap; wsum re-decides its band cells in
float64 and adds both sides' voter counts and vote sums into per-worker
integer arrays.  Every merge is a maximum, an integer sum or a least
(distance, point id), so the tables are those of a pure float64 scan
per source whatever the tiling, blocking, folding, thread count, data
offset or scale.

A scan fills one ``NeighborTable`` per source for a whole radius grid
(wsum folds each block once per grid radius with one skinny float32 GEMM
per piece of rows, which counts the voters and sums every vote column at
once), and ``column`` reads an extended column from it: extension scans
one-radius grids, while tuning and refinement scan each source once over
every radius they will try, and diagnose's 1nn tables, capped at the
largest radius it reads, serve both its extension and its accuracy
curves.  Sources with equal supports and grids share one scan (one bit
of a class-pair key), so stacked vote variants fill all their tables in
one pass.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DataError,
    EmbeddingSet,
    Metric,
    RadiusConfig,
    VoteMatrix,
    Weighting,
    _distinct,
    _row_chunks,
    coverage,
    paired_distances,
    pairwise_distances,
)
from .label_model import min_overlap

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

_CHUNK_ELEMS = 2**21  # score cells per scan task, at most (8 MB of float32); below 2**24, so no block is wider than float32 counts exactly
_BLOCK_ROWS = 1024  # rows per scan block, unless its run of rows is shorter or the cap smaller
_TILE_ROWS = 256  # query rows per pruning tile, at most
_PROJ_DIMS = 4  # principal directions the tile bounds are taken in
_SLACK = 2.0**-22  # error of a bounded distance; see _ScoreSpace.reach
_PIECE_CELLS = 2**17  # score cells per fold piece of whole rows (at least one row)
_CLASS_SOURCES = 6  # groups keyed per class-pair scan: at most 2**6 vote-pattern classes
_SPARSE_HITS = 2  # hits per (row, class slice) pair and per column a block may have to be folded from its hits


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


def _gather(a, sel):
    """Rows ``sel`` of ``a``: a view for a slice, else a copy by ``np.take`` (on short rows, several times faster than ``a[sel]``)."""
    return a[sel] if isinstance(sel, slice) else np.take(a, sel, axis=0)


def _centered(data, sel, mean, e, t):
    """Rows ``sel`` (a slice or indices) of ``data`` minus ``mean``, scaled by ``2**e`` and then by ``2**(t - e)``, in float64."""
    x = np.subtract(_gather(data, sel), mean, dtype=np.float64)
    np.ldexp(x, e, out=x)
    return np.ldexp(x, t - e, out=x)


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

    The score rows (float32, of norm at most 1) are the set's rows divided
    by their norms (cosine) or centered and scaled (Euclidean, ``_rows``),
    rounded to float32: a pair at score-space distance ``D`` scores
    ``base - half D^2`` exactly (Euclidean ``-D^2``, cosine
    ``1 - D^2 / 2``).  No copy of them is kept: ``permuted`` derives them
    from the float64 data in chunks of rows, in the order a batch asks
    for, and ``block`` scores that copy.  The set keeps the Euclidean
    scalars (column mean, scale exponents, ``M``), found in chunked passes
    over the data, and ``proj``, the float32 rows on their top ``min(d,
    _PROJ_DIMS)`` principal directions in float64, with ``resid``, a bound
    on the norm of each row's remainder off those directions.  A
    projection never lengthens a difference, so a distance bound taken
    there holds for the full rows, and ``|Pa - Pb|^2 + (resid_a +
    resid_b)^2`` bounds ``|a - b|^2`` from above.
    """

    def __init__(self, emb: EmbeddingSet, metric: Metric):
        self.emb, self.metric, self._bands = emb, Metric(metric), {}
        self.rows = self.sq = None  # the score rows and (Euclidean) their float32 squared norms, in a batch's order
        if self.metric is Metric.COSINE:
            self.base, self.half = 1.0, 0.5
            self.tau = max(1e-4, 2.0 * _dot_error_bound(emb.d))
        else:
            self.mean, self.exps, mx, capped = emb._cached("euclidean_scale", self._scalars)
            self.scale = float(np.ldexp(1.0, self.exps[1]))
            self.base, self.half = 0.0, 1.0
            under = (emb.d + 2) * 2.0**-1070 * self.scale * self.scale if capped else 0.0
            self.tau = min(8.0, max(2e-4, 5.0 * _dot_error_bound(emb.d)) * mx + under)
        self.proj, self.resid = emb._cached(f"proj_{self.metric.value}", self._project)

    def _scalars(self):
        """``(mean, (e, t), M, capped)`` of the Euclidean score rows; capped: scale held at 2**1023.

        The rows, centered on ``mean``, are scaled by ``2**e`` to bring
        every entry below 1 (so no squared norm overflows), then by
        ``2**(t - e)``, which puts the largest squared norm ``M`` in
        [1/4, 1).  Each is a maximum over chunks of rows.
        """
        data = self.emb.data
        chunks, mean = _row_chunks(*data.shape), data.mean(axis=0, dtype=np.float64)
        e = -int(np.frexp(max(np.abs(np.subtract(data[s], mean, dtype=np.float64)).max() for s in chunks))[1])

        def top(t):  # the largest squared norm of the centered rows scaled by 2**e, then by 2**(t - e)
            return max(np.einsum("ij,ij->i", x, x).max() for x in (_centered(data, s, mean, e, t) for s in chunks))

        t = e - (int(np.frexp(top(e))[1]) + 1) // 2
        capped, t = t > 1023, min(t, 1023)  # a finite scale
        return mean, (e, t), float(top(t)), capped

    def _rows(self, sel) -> np.ndarray:
        """The float64 score rows of the points ``sel`` (a slice or indices), before rounding to float32."""
        if self.metric is Metric.EUCLIDEAN:
            return _centered(self.emb.data, sel, self.mean, *self.exps)
        return np.divide(_gather(self.emb.data, sel), _gather(self.emb.norms, sel)[:, None], dtype=np.float64)

    def _project(self):
        """``(proj, resid)``, from the top eigenvectors of a strided sample's scatter.

        ``resid^2 = |row|^2 - |proj|^2`` plus ``(d + 4) 2**-48``, which
        covers the float64 rounding of both terms and of the basis for rows
        of norm at most 1.
        """
        n, d = self.emb.n, self.emb.d
        c = self._rows(slice(None, None, max(1, n // 1024))).astype(np.float32).astype(np.float64)
        c -= c.mean(axis=0)
        if c.shape[1] <= c.shape[0]:
            top = np.linalg.eigh(c.T @ c)[1]
        else:  # fewer samples than dimensions: through the samples' Gram matrix
            top = c.T @ np.linalg.eigh(c @ c.T)[1]
        basis = np.linalg.qr(top[:, -_PROJ_DIMS:])[0]  # orthonormal columns
        proj, resid = np.empty((n, basis.shape[1])), np.empty(n)
        for s in _row_chunks(n, d):
            x = self._rows(s)
            x[...] = x.astype(np.float32)  # the float32 score rows, as float64
            y = np.matmul(x, basis, out=proj[s])
            resid[s] = np.einsum("ij,ij->i", x, x) - np.einsum("ij,ij->i", y, y)
        np.maximum(resid, 0.0, out=resid)
        return proj, np.sqrt(resid + (d + 4) * 2.0**-48, out=resid)

    def block(self, rows, cols, buf: np.ndarray) -> np.ndarray:
        """float32 scores of every (row, col) pair of ``rows`` and ``cols`` (positions or slices), in the front of ``buf``.

        Only a ``permuted`` space holds score rows to take them from.
        """
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
        """This space with the float32 score rows of the points ``order``, in that order: ``block`` takes positions in it.

        The rows (and Euclidean squared norms, taken in float64 before
        rounding) are derived from the data in chunks of rows, so the copy
        is the only array of the set's size it allocates.
        """
        out = copy.copy(self)
        out.rows = np.empty((order.size, self.emb.d), dtype=np.float32)
        out.sq = None if self.metric is Metric.COSINE else np.empty(order.size, dtype=np.float32)
        for s in _row_chunks(order.size, self.emb.d):
            x = self._rows(order[s])
            out.rows[s] = x
            if out.sq is not None:
                out.sq[s] = np.einsum("ij,ij->i", x, x)
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
        Kept per radius: ``_ClassPairs`` fills it for every grid radius on
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

    1nn keeps each abstainer's nearest support point within its cap, the
    grid's largest radius ``radii[-1]``, and ``(inf, n)`` where none lies
    within it, so it answers any radius up to the cap; wsum keeps, per
    grid radius, the count and signed sum of the voters inside it.  A
    positive radius beyond the cap (any, for an empty grid, which scans
    nothing) or off a wsum grid raises ``ValueError``.  Rows
    follow ``queries``.  ``cells`` counts the score cells of the scan the
    table's class-pair batch owns (kept by its first table): for a tiled
    group, the kept (query, support) pairs of its tiles; for an untiled
    batch, every pair of points with different vote patterns over the
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
            if not self.radii.size or radius > self.radii[-1]:
                raise ValueError(f"radius {radius} is beyond the cap {self.radii[-1:]} of source {self.source}'s table")
            return self.best_dist <= radius
        return self.in_count[:, self._grid_index(radius)] > 0

    def column(self, votes: VoteMatrix, radius: float) -> np.ndarray:
        """The source's column extended to ``radius`` (1nn: at most the cap; wsum: a grid radius; <= 0: as is)."""
        col = np.array(votes.votes[:, self.source], copy=True)
        member = self.reached(radius)
        if self.weighting is Weighting.ONE_NEAREST_NEIGHBOR:
            col[self.queries[member]] = votes.votes[self.best_col[member], self.source]
        elif member.any():
            col[self.queries[member]] = np.sign(self.vote_sum[member, self._grid_index(radius)])
        return col


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
        for s in _distinct(sizes[sizes > _TILE_ROWS]):
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


def _tile_tasks(space, st):
    """The tiled plan ``(rows, tasks)`` of one table, or None.

    None when no tile drops a column: such tables are scanned with
    others by vote-pattern class pairs, which score no more cells.  The
    tiling is skipped where one ball about the support's mean holds every
    query and support point within the least cut a tile could have.
    Otherwise the queries are cut into k-d tiles on ``space.proj``.  A
    tile drops every support column whose distance from the tile's
    projected box is beyond ``space.reach`` of a score the fold rejects
    without a float64 check: for wsum, the outward band edge of the
    grid's largest radius; for 1nn, the ``space.floor`` of every tile
    row's threshold, from an upper bound on each row's distance to the
    support point nearest the tile's centre.  So a pruned tile's fold
    sees the same candidates as a full scan.

    ``rows`` orders the query positions: the tiles with a task, in plan
    order, then the idle ones.  A task ``(first row, end row, support
    positions)`` is one tile against its kept columns, or against the
    whole support (positions None); ``_ClassPairs`` cuts each into
    blocks.  A wsum tile keeping no column is idle, so a plan may have no
    task.
    """
    pq, ps = space.proj[st.queries], space.proj[st.support]
    wsum = st.weighting is Weighting.THRESHOLDED_WEIGHTED_SUM
    if wsum:
        least = space.reach(float(space.band(float(st.radii[-1]))[0]))
    else:  # a tile's cut exceeds its rows' distance bound, which exceeds this
        least = space.resid[st.queries].min() + space.resid[st.support].min()
    spread, centre = 0.0, ps.mean(axis=0)
    for x in (pq - centre, ps - centre):
        spread += np.sqrt(np.einsum("ij,ij->i", x, x).max())
    if spread <= least:  # every (query, support) pair is within any cut
        return None
    kept, idle = [], []
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
            if not keep.size:
                idle.append(tiles[t])
            else:
                kept.append((tiles[t], None if keep.size == bound.size else keep))
    if not idle and all(keep is None for _, keep in kept):  # no tile drops a column
        return None
    tasks, at = [], 0
    for tile, keep in kept:
        tasks.append((at, at + tile.size, keep))
        at += tile.size
    return np.concatenate([*(tile for tile, _ in kept), *idle]), tasks


def _merged(parts):
    """One tuple of arrays from a list of tuples of arrays, each array joined with its kin."""
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(x) for x in zip(*parts))


def _cuts(lo, hi, most):
    """Bounds cutting ``[lo, hi)`` into the fewest runs of at most ``most``, their lengths within one of each other."""
    k = -(-(hi - lo) // most)
    return [lo + (hi - lo) * i // k for i in range(k + 1)]


def _blocks(r0, r1, c0, c1):
    """Rows ``[r0, r1)`` against columns ``[c0, c1)`` as ``(first row, end row, first column, end column)`` blocks.

    Each block holds at most ``_CHUNK_ELEMS`` cells.  Rows are cut as
    tall as the cap allows across every column, but at least
    ``_BLOCK_ROWS`` (fewer only in a shorter run or under a smaller cap);
    the columns are then cut into ranges the cap allows beside them.  So a
    wide run keeps tall blocks, whose GEMMs run at full rate, and no block
    grows with the number of columns.
    """
    rows = _cuts(r0, r1, min(_CHUNK_ELEMS, max(_BLOCK_ROWS, _CHUNK_ELEMS // (c1 - c0))))
    tallest = -(-(r1 - r0) // (len(rows) - 1))
    cols = _cuts(c0, c1, _CHUNK_ELEMS // tallest)
    return [(a, b, x, y) for a, b in zip(rows, rows[1:]) for x, y in zip(cols, cols[1:])]


class _ClassPairs:
    """One scan of up to ``_CLASS_SOURCES`` groups (wsum: of one grid): the fold of every scan.

    Each point is keyed by its vote pattern over the groups' supports (bit
    ``b``: it votes on group ``b``) and the score rows are copied in key
    order, so each class is a run of positions.  Two points of one class
    are never a query/support pair of any group; two of different classes
    are one of at least one.  A task ``(class, first row, end row,
    columns)`` scores a run of class ``a``'s rows against columns of
    higher classes in one GEMM.  Untiled, each class's rows against every
    higher class are cut into blocks of at most ``_CHUNK_ELEMS`` cells
    (``_blocks``: tall runs of rows, each against a column range), so each
    such pair is scored once.  A tiled group (``tiles``) is a batch of its
    own, its queries class 0 in the plan's row order and its support class
    1: each tile's rows are cut into blocks the same way against the whole
    support or its run of kept positions.  A column range may cut through
    a class, so the fold arguments a task shares with others (``sides``:
    the class slices, each clipped to the range, and the hit limit's slice
    count) are kept per (class, column range).  The highest bit in which
    ``a < b`` differ is set in ``b``, so the rows are queries of some
    group in every class ``b`` slice of columns (the row side); where
    ``a`` votes on a group ``b`` abstains on, the columns are its queries
    too (the column side).  Tasks write
    to their worker's own store (``local``), and ``finish`` merges the
    stores into the tables by integer sums (wsum) or by maxima and least
    ``(distance, point id)`` (1nn), so no table depends on which worker
    ran which task.  Every table is capped at its grid's largest radius,
    so a block with few cells within the batch's widest cap is folded from
    those cells alone (``_hits``).  The sorted copy of the score rows (and
    wsum's weights) is built with the batch, and a scan runs one batch at
    a time (``_run_batches``), so it holds one copy, not one per batch.
    """

    def __init__(self, space, votes, batch, tiles=None):
        self.space, self.batch, n = space, batch, votes.n
        key = np.zeros(n, dtype=np.int64)
        for b, g in enumerate(batch):
            key |= (votes.votes[:, g[0].source] != 0).astype(np.int64) << b
        if tiles is None:
            self.order = np.argsort(key, kind="stable")
        else:  # one group: its queries in the plan's row order, then its support
            self.order = np.concatenate([batch[0][0].queries[tiles[0]], batch[0][0].support])
        self.key = key[self.order]
        self.starts = np.searchsorted(self.key, np.arange(2 ** len(batch) + 1))
        self.bits = (np.arange(2 ** len(batch))[:, None] >> np.arange(len(batch))) & 1 == 1  # (class, group)
        if tiles is None:  # each class's rows against every higher class
            runs = [(a, self.starts[a], self.starts[a + 1], None) for a in range(2 ** len(batch))]
        else:  # each tile against its kept columns
            runs = [(0, *task) for task in tiles[1]]
        self.plan = []  # (class, first row, end row, columns: a slice of positions or positions)
        for a, r0, r1, keep in runs:
            c0 = int(self.starts[a + 1])
            width = n - c0 if keep is None else keep.size  # every higher class, or a pruned tile's kept positions
            if r0 == r1 or not width:
                continue
            for x0, x1, y0, y1 in _blocks(r0, r1, 0, width):
                self.plan.append((a, x0, x1, slice(c0 + y0, c0 + y1) if keep is None else c0 + keep[y0:y1]))
        batch[0][0].cells = sum(self.cells(task) for task in self.plan)
        self.wsum = batch[0][0].weighting is Weighting.THRESHOLDED_WEIGHTED_SUM
        self.owner = np.array([b for b, g in enumerate(batch) for _ in g])  # each table's group
        # bands are filled here, on the calling thread, so scan workers only read them
        self.grid = [(k, float(r), *space.band(float(r))) for k, r in enumerate(batch[0][0].radii) if r > 0]
        self.floor = space.band(float(max(g[0].radii[-1] for g in batch)))[0]  # the widest cap's outward band edge
        self.store_rows = n if tiles is None else self.starts[1]  # tiled: only the abstainers (class 0) are written
        # (class, first column, end column) -> (class slices in the range, fold arguments)
        self.sides = {k: self._side(*k) for k in {self._range(a, cols) for a, _, _, cols in self.plan}}
        self.view = space.permuted(self.order)
        if self.wsum:  # the weights in key order: each group's voter indicator, then every table's votes
            groups = len(batch)
            w = np.empty((n, groups + sum(map(len, batch))), dtype=np.float32)
            w[:, :groups] = self.bits[self.key]
            w[:, groups:] = votes.votes[:, [t.source for g in batch for t in g]][self.order]
            self.w, self.wi = w, w.astype(np.int32)

    def _range(self, a, cols):
        """``(a, first column, end column)``: the column range of a task of row class ``a`` (positions: every higher class)."""
        return (a, cols.start, cols.stop) if isinstance(cols, slice) else (a, int(self.starts[a + 1]), self.key.size)

    def _side(self, a, c0, c1):
        """``(slices, fold arguments)`` every task of row class ``a`` on columns ``[c0, c1)`` shares.

        ``slices`` counts the classes the range holds (its class slices, each
        clipped to the range); see ``_nearest`` and ``_weighted`` for the
        arguments.
        """
        edges = np.clip(self.starts[a + 1 :], c0, c1)  # class a + 1 + i starts at edges[i] in the range
        cls = np.flatnonzero(np.diff(edges) > 0) + a + 1
        colq = (self.bits[a] & ~self.bits[cls]).any(axis=1)
        if not self.wsum:
            vote = self.bits[cls] & ~self.bits[a]
            used = np.flatnonzero(vote.any(axis=0))
            return cls.size, (cls, edges[cls - a - 1] - c0, colq, vote[:, used], used)
        ga = ~self.bits[a]
        into = np.flatnonzero(np.concatenate([ga, ga[self.owner]]))
        if into[-1] - into[0] + 1 == into.size:
            into = slice(into[0], into[-1] + 1)
        return cls.size, (colq.any(), into, np.flatnonzero(~ga), len(self.batch) + np.flatnonzero(~ga[self.owner]))

    def cells(self, task):
        _, r0, r1, cols = task
        return int((r1 - r0) * (cols.stop - cols.start if isinstance(cols, slice) else cols.size))

    def local(self):
        if self.wsum:
            return np.zeros((self.store_rows, self.batch[0][0].radii.size, self.w.shape[1]), dtype=np.int32)
        # per (position, group) best float32 score, (query, partner, score) candidates not yet
        # measured, and measured ones with their float64 distance
        return np.full((self.key.size, len(self.batch)), -np.inf, dtype=np.float32), [], []

    def __call__(self, own, a, r0, r1, cols, buf):
        sub = self.view.block(slice(r0, r1), cols, buf)
        slices, side = self.sides[self._range(a, cols)]
        hits = self._hits(sub, _SPARSE_HITS * ((r1 - r0) * slices + sub.shape[1]))  # two per (row, class slice), per column
        if hits is not None:
            rr, cc, sc = hits
            p = cols[cc] if isinstance(cols, np.ndarray) else cols.start + cc
            if self.wsum:
                self._weighted_hits(r0 + rr, p, sc, own, side[0])
            else:
                self._nearest_hits(r0 + rr, p, cc, sc, own, *side[1:3])
        elif self.wsum:
            self._weighted(r0, cols, sub, own, *side)
        else:
            pos = cols if isinstance(cols, np.ndarray) else np.arange(cols.start, cols.stop)
            self._nearest(a, r0, pos, sub, own, *side)

    def _hits(self, sub, limit):
        """``(row, column, score)`` of the block's cells scoring at least ``floor``, or None past ``limit`` of them.

        Each piece of whole rows is compared into one reused mask, counted,
        then listed, so a block past the limit stops at the piece that
        passes it.
        """
        rows, width = sub.shape
        step = max(1, _PIECE_CELLS // width)
        mask = np.empty(min(rows, step) * width, dtype=bool)
        found, count = [], 0
        for p in range(0, rows, step):
            part = sub[p : p + step]
            hit = np.greater_equal(part, self.floor, out=mask[: part.size].reshape(part.shape))
            k = np.count_nonzero(hit)
            count += k
            if count > limit:
                return None
            if k:
                found.append(np.flatnonzero(hit) + p * width)
        flat = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
        return *np.divmod(flat, width), sub.reshape(-1)[flat]

    def _winners(self, groups, q, p, dist, every=True):
        """Positions of each group's least (float64 distance, partner id) among candidate pairs.

        Queries ``q`` and partners ``p`` are positions in key order.  The
        NaN entries of ``dist`` (distances not yet known) are filled in
        place in one float64 call: all of them, or without ``every`` only
        those of groups with a choice to make, since a lone candidate wins
        its group unmeasured.  A pair listed twice wins twice.
        """
        pid = self.order[p]
        need = np.isnan(dist)
        if not every:
            need &= np.bincount(groups)[groups] > 1
        need = np.flatnonzero(need)
        if need.size:
            dist[need] = paired_distances(self.space.emb, self.order[q[need]], pid[need], self.space.metric)
        size = int(groups.max()) + 1 if groups.size else 0
        least = np.full(size, np.inf)
        np.fmin.at(least, groups, dist)
        tie = np.flatnonzero(~(dist > least[groups]))  # the least distances, and the lone unmeasured
        first = np.full(size, self.key.size)
        np.minimum.at(first, groups[tie], pid[tie])
        return tie[pid[tie] == first[groups[tie]]]

    def _nearest(self, a, r0, pos, sub, own, cls, ls, colq, vote, used):
        """Dense 1nn fold: per-group row maxima, column maxima and the cells within ``tau`` of them.

        It folds the blocks with too many hits to fold from them alone
        (``_nearest_hits``).  ``pos`` holds the block columns' positions.
        Row side, per piece: each row's best score over the slices voting
        on each group it abstains on, and the cells within ``tau`` of the least such
        threshold a slice answers to.  Column side, after the rows: each
        column's best over the block and the cells within ``tau`` of it.
        A local best never exceeds the group's, so the cells kept hold
        every cell the final threshold keeps.  Where a piece keeps more
        than two cells per (row, slice) pair, or the column pass more than
        two per column, only each pair's or column's float64 winner stays
        (the group's nearest is its winner wherever it lies), so the store
        holds a few entries per query and class; a lone cell stays
        unmeasured, for ``finish`` to re-decide; the store keeps a float64
        distance only for the measured.
        """
        best, found, measured = own
        tau, (rows, width) = self.space.tau, sub.shape
        step = max(1, _PIECE_CELLS // width)
        mask = np.empty(min(rows, step) * width, dtype=bool)
        lo = hi = 0  # the span of the columns that are queries of some group
        if ls.size > 1 or colq[0]:  # else one class of columns, all of them partners only
            of = np.repeat(np.arange(ls.size), np.diff([*ls, width]))  # each column's slice
            live = colq[of]
            if live.any():
                lo, hi = (int(i) for i in np.flatnonzero(live)[[0, -1]] + [0, 1])
        colmax = np.full(hi - lo, -np.inf, dtype=np.float32)
        hits = []  # (query, partner, score, distance or NaN) per piece, in key order
        for p in range(0, rows, step):
            part = sub[p : p + step]
            q = slice(r0 + p, r0 + p + part.shape[0])
            top = np.where(vote, np.maximum.reduceat(part, ls, axis=1)[:, :, None], -np.inf).max(axis=1)
            thr = top - tau  # float32, as the scores
            cut = np.where(vote, thr[:, None, :], np.inf).min(axis=2)  # (row, slice)
            hit = np.greater_equal(part, thr.min(axis=1)[:, None], out=mask[: part.size].reshape(part.shape))
            rr, cc = np.divmod(np.flatnonzero(hit), width)
            sc, sl = part[rr, cc], 0
            if ls.size > 1:  # a cell answers to its own slice's threshold only
                sl = of[cc]
                keep = sc >= cut[rr, sl]
                rr, cc, sl, sc = rr[keep], cc[keep], sl[keep], sc[keep]
            dist = np.full(rr.size, np.nan)
            if rr.size > 2 * cut.size:
                pick = self._winners(rr * ls.size + sl, q.start + rr, pos[cc], dist, every=False)
                rr, cc, sc, dist = rr[pick], cc[pick], sc[pick], dist[pick]
            hits.append((q.start + rr, pos[cc], sc, dist))
            if len(hits) > 64:  # a few arrays, not a few per piece
                hits = [_merged(hits)]
            best[q, used] = np.maximum(best[q, used], top)
            if hi > lo:
                np.maximum(colmax, part[:, lo:hi].max(axis=0), out=colmax)
        if hi > lo:
            for g in np.flatnonzero(self.bits[a]):  # the columns abstaining on a group the rows vote on
                on = ~self.bits[cls[of[lo:hi]], g]
                at = pos[lo:hi][on]
                best[at, g] = np.maximum(best[at, g], colmax[on])
            cut = colmax - tau
            cut[~live[lo:hi]] = np.inf
            cols, kept = [], 0
            for p in range(0, rows, step):
                part = sub[p : p + step, lo:hi]
                hit = np.greater_equal(part, cut, out=mask[: part.size].reshape(part.shape))
                rr, cc = np.divmod(np.flatnonzero(hit), hi - lo)
                cols.append((pos[lo + cc], r0 + p + rr, part[rr, cc], np.full(rr.size, np.nan)))
                kept += rr.size
                if kept > 2 * (hi - lo):
                    cq, cp, sc, dist = _merged(cols)
                    pick = self._winners(cq, cq, cp, dist, every=False)
                    cols, kept = [(cq[pick], cp[pick], sc[pick], dist[pick])], pick.size
            hits += cols
        q, p, sc, dist = _merged(hits)
        q, p, known = q.astype(np.int32), p.astype(np.int32), ~np.isnan(dist)
        found.append((q[~known], p[~known], sc[~known]))
        measured.append((q[known], p[known], sc[known], dist[known]))

    def _nearest_hits(self, q, p, cc, sc, own, ls, colq):
        """1nn fold of a block's hits, at positions ``q`` (rows) and ``p`` (block columns ``cc``).

        Each hit is an unmeasured candidate with its row as query and, where
        its column's slice is a query of some group the rows vote on
        (``colq``), with its column as query too; ``finish`` takes each
        group's threshold from the candidates' own scores.
        """
        side = colq[np.searchsorted(ls, cc, side="right") - 1]
        q, p = q.astype(np.int32), p.astype(np.int32)
        own[1].append((np.concatenate([q, p[side]]), np.concatenate([p, q[side]]), np.concatenate([sc, sc[side]])))

    def _weighted(self, r0, cols, sub, acc, both, into, gv, tv):
        """Dense wsum fold: each inside mask counts and sums votes for the rows and, if ``both``, the columns.

        It folds the blocks with too many hits to fold from them alone
        (``_weighted_hits``, which decides every cell as this does).

        Per piece and positive grid radius ``k``, the inside mask as
        float32 0/1 times the columns' weights ``into`` (voter indicators of
        the groups the rows abstain on, then those groups' tables' votes)
        gives each row's counts and sums in one GEMM.  The rows' ones and
        votes of the tables ``tv`` of the groups ``gv`` they vote on, times
        the mask, give the columns' (only untiled tasks, whose columns are a
        slice, have a column side).  Band cells are re-decided in float64
        once for both sides.  Each term is 0 or +-1, so every partial sum
        BLAS forms, in any order, is an integer no larger than the block's
        width (at most ``_CHUNK_ELEMS``, below 2^24) or the piece's row
        count (at most ``_PIECE_CELLS``), which float32 holds exactly.
        """
        emb, metric, order = self.space.emb, self.space.metric, self.order
        rows, width = sub.shape
        step = max(1, _PIECE_CELLS // width)
        wc, wci, pid = self.w[cols][:, into], self.wi[cols], order[cols]
        wr = np.ones((rows, 1 + tv.size), dtype=np.float32)
        wr[:, 1:] = self.w[r0 : r0 + rows, tv]
        wri = self.wi[r0 : r0 + rows]
        size = min(rows, step) * width
        inside, mask32, mask = np.empty(size, dtype=bool), np.empty(size, dtype=np.float32), np.empty(size, dtype=bool)
        for p in range(0, rows, step):
            q = slice(r0 + p, r0 + min(p + step, rows))
            part = sub[p : p + step]
            for k, radius, lo_s, hi_s in self.grid:
                ins = np.greater(part, hi_s, out=inside[: part.size].reshape(part.shape))
                fl = mask32[: part.size].reshape(part.shape)
                fl[...] = ins
                acc[q, k, into] += (fl @ wc).astype(np.int32)
                if both:
                    col = (wr[p : p + part.shape[0]].T @ fl).T.astype(np.int32)
                    acc[cols, k, gv] += col[:, :1]
                    acc[cols, k, tv] += col[:, 1:]
                hit = np.greater_equal(part, lo_s, out=mask[: part.size].reshape(part.shape))
                hit ^= ins
                if hit.any():
                    rr, cc = np.divmod(np.flatnonzero(hit), width)
                    keep = paired_distances(emb, order[q][rr], pid[cc], metric) <= radius
                    rr, cc = rr[keep], cc[keep]
                    np.add.at(acc[q, k], rr, wci[cc])
                    if both:
                        np.add.at(acc[cols, k], cc, wri[p + rr])

    def _weighted_hits(self, q, p, sc, acc, both):
        """wsum fold of a block's hits, at positions ``q`` (rows) and ``p`` (columns).

        Per grid radius, a hit above its band is inside and one in it is
        re-decided in float64; each inside hit adds the column's weights to
        the row and, if ``both``, the row's to the column.  Unlike the dense
        fold it adds every weight column, also to the store entries of
        groups the position votes on, which ``finish`` never reads.
        """
        for k, radius, lo, hi in self.grid:
            inside = sc > hi
            band = np.flatnonzero(sc >= lo)
            band = band[~inside[band]]
            if band.size:
                d = paired_distances(self.space.emb, self.order[q[band]], self.order[p[band]], self.space.metric)
                inside[band] = d <= radius
            qi, pi = q[inside], p[inside]
            np.add.at(acc[:, k], qi, self.wi[pi])
            if both:
                np.add.at(acc[:, k], pi, self.wi[qi])

    def finish(self, owns):
        """Merge the workers' stores into the batch's tables.

        1nn: each group's threshold is its float32 best, from the dense
        folds' maxima and the candidates' own scores (a block folded from
        its hits holds its best among them, if within the widest cap),
        minus ``tau``; the candidates at or above it are re-decided in one
        float64 call, and a winner beyond the table's own cap is dropped,
        so such queries keep ``(inf, n)``.
        """
        n, groups = self.key.size, len(self.batch)
        if self.wsum:
            acc = owns[0]  # each cell is folded once, so every sum stays within n
            for o in owns[1:]:
                acc += o
            at = np.empty(n, dtype=np.int64)
            at[self.order] = np.arange(n)
            cols = iter(range(groups, acc.shape[2]))
            for b, g in enumerate(self.batch):
                pos = at[g[0].queries]
                g[0].in_count[...] = acc[pos, :, b]
                for t in g:
                    t.vote_sum[...] = acc[pos, :, next(cols)]
            return
        best = owns[0][0]
        for o in owns[1:]:
            np.maximum(best, o[0], out=best)
        # the unmeasured candidates, then the measured ones, whose distances are `known`
        q, p, sc = _merged([f for o in owns for f in o[1]] + [f[:3] for o in owns for f in o[2]])
        known = np.concatenate([np.empty(0), *(f[3] for o in owns for f in o[2])])
        first = q.size - known.size
        kq, kp = self.key[q], self.key[p]
        row = np.empty(n, dtype=np.int64)
        for b, g in enumerate(self.batch):
            st = g[0]
            row[st.queries] = np.arange(st.queries.size)  # each query's row of the table
            ok = np.flatnonzero(~self.bits[kq, b] & self.bits[kp, b])
            qo, so, top = q[ok], sc[ok], best[:, b]
            np.maximum.at(top, qo, so)  # a hit-folded block's best is among its hits
            sel = ok[so >= (top - self.space.tau)[qo]]  # float32, as the scores
            qs, ps, d = q[sel], p[sel], np.full(sel.size, np.nan)
            was = sel >= first
            d[was] = known[sel[was] - first]
            pick = self._winners(qs, qs, ps, d)
            pick = pick[d[pick] <= st.radii[-1]]  # only winners within the table's own cap stay
            pos = row[self.order[qs[pick]]]
            st.best_dist[pos] = d[pick]
            st.best_col[pos] = self.order[ps[pick]]


def _openblas():
    """``(get, set)`` of the thread count of the OpenBLAS bundled with numpy, or None where it or a symbol is missing."""
    import ctypes

    libs = os.path.dirname(np.__file__) + ".libs"
    names = sorted(f for f in os.listdir(libs) if f.startswith("libscipy_openblas")) if os.path.isdir(libs) else []
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
        return get, put
    return None


class _OneBlasThread:
    """Holds the bundled OpenBLAS at one thread, process-wide, while any scan of two or more workers runs.

    ``neighbor_tables`` enters it before it builds the scan's score space
    and leaves it after the last batch's ``finish``, so no BLAS call of
    such a scan runs threaded: not the workers' GEMMs, which then run
    beside each other's folds instead of spreading over every core, and
    not the calling thread's projection (a scatter product and ``eigh``)
    or 1nn tile planning either.  After a threaded call, OpenBLAS's idle
    helper threads spin-wait before they sleep (``OPENBLAS_THREAD_TIMEOUT``,
    by default about 2^28 cycles, some 0.1 s), so one such call just
    before the pool opens leaves a helper spinning on a core the two
    workers need for about that long.

    The library is looked up at the first such scan (``_openblas``), so
    a run without one never loads ``ctypes``.  A count of running scans,
    under a lock, lets the first scan to enter save the thread count and
    set 1, and the last to leave restore it, so scans that overlap (from
    concurrent caller threads) cannot leave the process at one thread.
    Where the library or a symbol is missing, it does nothing.
    """

    def __init__(self):
        self.lock, self.calls, self.scans, self.saved = threading.Lock(), None, 0, 0

    def __enter__(self):
        with self.lock:
            if self.calls is None:
                self.calls = _openblas() or ()
            if self.calls and not self.scans:
                self.saved = self.calls[0]()
                self.calls[1](1)
            self.scans += 1

    def __exit__(self, *exc):
        with self.lock:
            self.scans -= 1
            if self.calls and not self.scans:
                self.calls[1](self.saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _drain(cp, queue, cells):
    """Fold batch ``cp``'s tasks from ``queue`` until it is empty, each into one reused buffer of ``cells``; return the store."""
    buf, own = np.empty(cells, dtype=np.float32), cp.local()
    while True:
        try:
            task = queue.popleft()
        except IndexError:  # drained
            return own
        cp(own, *task, buf)


def _run_batches(batches, threads):
    """Fold the class-pair batches ``batches`` yields one at a time, each on up to ``threads`` workers.

    The workers take a batch's tasks in order (``_drain``), and its
    ``finish`` merges their stores on the calling thread before the next
    batch is built, so one sorted copy is alive at a time.  The first batch
    of two or more tasks opens one pool for the rest of the scan; a task
    that raises ends the scan once the batch's other workers have drained
    its tasks.  BLAS threading is the caller's (``neighbor_tables``).
    """
    with ExitStack() as stack:
        pool = None
        for cp in batches:
            queue, cells = deque(cp.plan), max(map(cp.cells, cp.plan))
            workers = min(threads, len(cp.plan))
            if workers <= 1:
                cp.finish([_drain(cp, queue, cells)])
            else:
                if pool is None:
                    pool = stack.enter_context(ThreadPoolExecutor(max_workers=threads))
                cp.finish([f.result() for f in [pool.submit(_drain, cp, queue, cells) for _ in range(workers)]])
            del cp  # its copies go before the next batch is built


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
    ``r`` (for 1nn, ``r`` must not exceed the grid's largest radius; for
    wsum, ``r`` must be on the grid).  Each grid is sorted and
    deduplicated and must be finite and nonnegative (else
    ``DataError``); ``threads`` below 1 raises ``ValueError``.

    Every table is capped at its grid's largest radius.  An empty grid
    scans nothing under either weighting: its 1nn rows stay ``(inf, n)``,
    its ``cells`` is 0, and no positive radius is answered.  Neither is a
    wsum grid without a positive radius scanned.

    Sources with equal supports and grids form one group, planned, scored
    and folded once.  Each group's queries are cut into k-d tiles of at
    most ``_TILE_ROWS`` rows, and each tile drops the support columns
    that exact distance bounds prove its fold would reject
    (``_tile_tasks``).  A group where some tile prunes is a class-pair
    batch of its own.  Groups where no tile prunes (under wsum,
    those of one grid; under 1nn, all of them, whatever their grids) are
    batched together, up to ``_CLASS_SOURCES`` at a time, so each point
    pair that is a query/support pair of any of them is scored once.
    Every task is a block of at most ``_CHUNK_ELEMS`` cells, so a
    worker's buffer does not grow with queries x support, and a block
    with few cells within its batch's widest cap is folded from those
    cells alone (``_ClassPairs``).  Every group is planned first; then
    the batches run one at a time, each built just before it runs, on one
    pool of ``threads`` workers (default: the cores, at most 4), each
    scoring into its own buffer sized for the batch's largest block
    (``_run_batches``).  A batch's first table owns its scan's ``cells``
    (the others count 0).

    With ``threads`` of 2 or more and something to scan, the OpenBLAS
    bundled with numpy is held at one thread for the whole process from
    before the score space is built to after the last batch's merge
    (``_OneBlasThread``): an idle OpenBLAS helper spin-waits after each
    threaded call, and one left spinning by the projection would take a
    core from the workers.  Other numpy calls of the process, on any
    thread, run single-threaded meanwhile.  The caller's count comes back
    when the scan ends, also when it raises.  Where the library or its
    thread-count symbols are not found, BLAS threading is left as it is;
    a one-worker scan never touches it.
    """
    weighting = Weighting(weighting)
    if emb.n != votes.n:
        raise ValueError(f"embeddings have {emb.n} rows but votes have {votes.n}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    tables, groups, wsum = {}, {}, weighting is Weighting.THRESHOLDED_WEIGHTED_SUM
    for j, radii in grids.items():
        if not 0 <= j < votes.m:
            raise ValueError(f"source {j} out of range for {votes.m} sources")
        radii = _distinct(np.asarray(radii, dtype=np.float64))
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
    # an empty grid has nothing to fold, nor has a wsum grid without a positive radius
    scans = [g for g in groups.values()
             if g[0].queries.size and g[0].support.size and g[0].radii.size and (g[0].radii[-1] > 0 or not wsum)]
    if not scans:
        return tables
    threads = min(4, os.cpu_count() or 1) if threads is None else int(threads)
    with _ONE_BLAS_THREAD if threads > 1 else nullcontext():
        space, untiled, batches = _ScoreSpace(emb, metric), {}, []
        for g in scans:
            tiles = _tile_tasks(space, g[0])
            if tiles is None:  # a 1nn scan takes any caps: each table drops the winners beyond its own
                untiled.setdefault(g[0].radii.tobytes() if wsum else b"", []).append(g)
            elif tiles[1]:  # no task where every tile is beyond a wsum scan's largest radius
                batches.append(([g], tiles))
        batches += [(same[i : i + _CLASS_SOURCES], None)
                    for same in untiled.values() for i in range(0, len(same), _CLASS_SOURCES)]
        _run_batches((_ClassPairs(space, votes, *b) for b in batches), threads)
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
