"""Core domain types, distance functions, and file I/O.

Data model: an embedding matrix (one row per data point), a vote matrix
over {-1, 0, +1} where 0 means the source abstains, hard label vectors
over {-1, +1}, per-source extension radii, and the parameters of the
probabilistic label model (per-source accuracies, abstain rates, and the
class-balance prior).

On-disk formats are byte-deterministic:

* ``.emb`` -- a single JSON header line ``{"d": <int>, "n": <int>}``
  terminated by ``\\n``, followed by ``n * d`` little-endian IEEE-754
  32-bit floats in row-major order.  In memory everything is float64.
* votes / labels -- headerless CSV of integers, one data point per row.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._base import DataError, DegeneracyError, Metric, Weighting

__all__ = [
    "DataError",
    "DegeneracyError",
    "Metric",
    "Weighting",
    "EmbeddingSet",
    "VoteMatrix",
    "coverage",
    "LabelVector",
    "RadiusConfig",
    "LabelModelParams",
    "cosine_distance",
    "pairwise_distances",
    "load_embeddings",
    "save_embeddings",
    "load_votes",
    "save_votes",
    "load_labels",
    "save_labels",
]


def _freeze(val):
    for arr in val if isinstance(val, tuple) else (val,):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return val


@dataclass
class EmbeddingSet:
    """An ``n x d`` real matrix of embeddings, one row per data point.

    Rows must be finite and nonzero (cosine distance is undefined on the
    zero vector).  Instances are immutable after construction and safe
    for concurrent reads.  ``data`` is the set's only ``n x d`` array:
    what is derived from it and kept (the row norms, and ``extension``'s
    score-space scalars and low-dimensional projection) holds O(n) or
    O(d) numbers, each built once, lazily, by ``_cached``, even when
    several scan workers ask for one at the same time; rows derived from
    the data (unit rows, float32 score rows) are computed from it in
    chunks of rows where they are used.
    """

    data: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    # reentrant: building one value may need another (the cosine projection reads the norms)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if data.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {data.shape}")
        if data.shape[0] == 0 or data.shape[1] == 0:
            raise DataError(f"embedding matrix must be nonempty, got shape {data.shape}")
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if bad.size:
            raise DataError(f"non-finite embedding entry in row {bad[0]}")
        zero = np.flatnonzero((data == 0.0).all(axis=1))
        if zero.size:
            raise DataError(f"all-zero embedding row {zero[0]} (cosine distance undefined)")
        self.data = _freeze(data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def _cached(self, key, build):
        val = self._cache.get(key)
        if val is None:
            with self._lock:  # check again: another thread may have built it meanwhile
                val = self._cache.get(key)
                if val is None:
                    val = _freeze(build())
                    self._cache[key] = val
        return val

    @property
    def norms(self) -> np.ndarray:
        """Euclidean norms of the rows (float64), exact to rounding at any row scale (``_scaled_norms``)."""
        chunks = _row_chunks(self.n, self.d)
        return self._cached("norms", lambda: np.concatenate([_scaled_norms(self.data[s]) for s in chunks]))

    @property
    def unit(self) -> np.ndarray:
        """Rows scaled to unit Euclidean norm (float64), a new array on every call: ``data / norms``."""
        return self.data / self.norms[:, None]


def _validate_alphabet(arr: np.ndarray, alphabet: tuple, what: str) -> None:
    ok = np.isin(arr, alphabet)
    if not ok.all():
        if arr.ndim == 2:
            r, c = np.argwhere(~ok)[0]
            raise DataError(f"{what} entry {arr[r, c]} at (row {r}, col {c}) not in {sorted(alphabet)}")
        r = np.flatnonzero(~ok)[0]
        raise DataError(f"{what} entry {arr[r]} at row {r} not in {sorted(alphabet)}")


@dataclass
class VoteMatrix:
    """``n x m`` integer matrix of source votes; entries in {-1, 0, +1}."""

    votes: np.ndarray

    def __post_init__(self):
        votes = np.array(self.votes, dtype=np.int8, order="C", copy=True)
        if votes.ndim != 2:
            raise DataError(f"vote matrix must be 2-D, got shape {votes.shape}")
        _validate_alphabet(votes, (-1, 0, 1), "vote")
        self.votes = _freeze(votes)

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def support(self, j: int) -> np.ndarray:
        """Indices of the points source ``j`` votes on, ascending."""
        return np.flatnonzero(self.votes[:, j] != 0)


def coverage(votes: VoteMatrix) -> np.ndarray:
    """Fraction of points with a nonzero vote, per source."""
    return (votes.votes != 0).mean(axis=0)


@dataclass
class LabelVector:
    """Hard labels over {-1, +1} (gold or predicted)."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int8, order="C", copy=True)
        if labels.ndim != 1:
            raise DataError(f"label vector must be 1-D, got shape {labels.shape}")
        _validate_alphabet(labels, (-1, 1), "label")
        self.labels = _freeze(labels)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass
class RadiusConfig:
    """Per-source extension radii (distance units) plus the weighting rule.

    A radius of 0 means "do not extend this source".
    """

    radii: np.ndarray
    weighting: Weighting = Weighting.ONE_NEAREST_NEIGHBOR

    def __post_init__(self):
        radii = np.array(self.radii, dtype=np.float64, order="C", copy=True)
        if radii.ndim != 1:
            raise DataError(f"radii must be 1-D, got shape {radii.shape}")
        if not np.isfinite(radii).all() or (radii < 0).any():
            raise DataError("radii must be finite and nonnegative")
        self.radii = _freeze(radii)
        self.weighting = Weighting(self.weighting)

    @classmethod
    def from_similarities(cls, sims, weighting=Weighting.ONE_NEAREST_NEIGHBOR) -> "RadiusConfig":
        """Convert cosine-similarity thresholds ``s`` to radii ``1 - s``."""
        sims = np.asarray(sims, dtype=np.float64)
        return cls(1.0 - sims, weighting)

    def to_dict(self) -> dict:
        return {"radii": self.radii.tolist(), "weighting": self.weighting.value}

    @classmethod
    def from_dict(cls, d: dict) -> "RadiusConfig":
        return cls(np.asarray(d["radii"], dtype=np.float64), Weighting(d["weighting"]))


@dataclass
class LabelModelParams:
    """Label-model parameters: accuracies a_i in (0,1), abstain rates, prior."""

    accuracies: np.ndarray
    abstain_rates: np.ndarray
    prior: float

    def __post_init__(self):
        acc = np.array(self.accuracies, dtype=np.float64, order="C", copy=True)
        ab = np.array(self.abstain_rates, dtype=np.float64, order="C", copy=True)
        if acc.ndim != 1 or ab.shape != acc.shape:
            raise DataError("accuracies and abstain_rates must be 1-D and the same length")
        if not ((acc > 0) & (acc < 1)).all():
            raise DataError("accuracies must lie strictly in (0, 1)")
        if not ((ab >= 0) & (ab <= 1)).all():
            raise DataError("abstain rates must lie in [0, 1]")
        if not (0.0 < self.prior < 1.0):
            raise DataError(f"class-balance prior must lie strictly in (0, 1), got {self.prior}")
        self.accuracies = _freeze(acc)
        self.abstain_rates = _freeze(ab)
        self.prior = float(self.prior)

    @property
    def m(self) -> int:
        return self.accuracies.shape[0]

    def to_dict(self) -> dict:
        return {
            "accuracies": self.accuracies.tolist(),
            "abstain_rates": self.abstain_rates.tolist(),
            "prior": self.prior,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LabelModelParams":
        return cls(
            np.asarray(d["accuracies"], dtype=np.float64),
            np.asarray(d["abstain_rates"], dtype=np.float64),
            float(d["prior"]),
        )


# ---------------------------------------------------------------------------
# Distances


def cosine_distance(u, v) -> float:
    """Cosine distance ``1 - <u,v> / (|u||v|)`` in [0, 2].

    Computed as half the squared difference of the unit vectors, as
    ``paired_distances`` does, so near duplicates keep their relative
    precision.  Exactly 0 for identical vectors; raises on zero-norm input.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"vectors must be 1-D and the same length, got {u.shape} and {v.shape}")
    norms = _scaled_norms(np.stack([u, v]))
    if (norms == 0.0).any():
        raise ValueError("cosine distance undefined for zero-norm input")
    diff = u / norms[0] - v / norms[1]
    return min(0.5 * float(diff @ diff), 2.0)


def pairwise_distances(emb: EmbeddingSet, rows, cols, metric: Metric = Metric.COSINE) -> np.ndarray:
    """Exact float64 distance block ``len(rows) x len(cols)``.

    Euclidean distances come from direct coordinate differences (no
    norm-expansion cancellation near duplicates), each scaled by a power
    of two before squaring (no overflow at any spread); cosine distances are
    ``paired_distances`` of every pair, so both functions agree to the
    bit.  Computed in chunks to bound memory.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    metric = Metric(metric)
    out = np.empty((rows.size, cols.size))
    if metric is Metric.COSINE:
        step = max(1, 1_000_000 // max(1, cols.size))
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            pairs = paired_distances(emb, np.repeat(r, cols.size), np.tile(cols, r.size), metric)
            out[lo : lo + step] = pairs.reshape(r.size, cols.size)
        return out
    a = emb.data[rows]
    step = max(1, 2_000_000 // max(1, rows.size * emb.d))
    for lo in range(0, cols.size, step):
        diff = a[:, None, :] - emb.data[cols[lo : lo + step]][None, :, :]
        out[:, lo : lo + step] = _scaled_norms(diff)
    return out


_GATHER_ELEMS = 2**16  # float64 elements per chunk of rows derived from the data (512 KB)


def _row_chunks(n: int, d: int) -> list:
    """Slices cutting ``n`` rows of ``d`` entries into runs of ``_GATHER_ELEMS`` entries (at least one row)."""
    step = max(1, _GATHER_ELEMS // d)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _scaled_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms of ``diff`` over its last axis, exact to rounding at any spread.

    A difference whose plain sum of squares overflows, or falls below
    ``2**-968`` where an underflowed square could matter, is scaled by the
    power of two putting its largest entry in [1/2, 1) before squaring and
    scaled back after the square root.  Elsewhere scaling would give the
    plain result bit for bit unless a square far below half an ulp of the
    sum underflows, so only those differences pay for it (scaling them
    all costs up to 8x the plain pass).
    """
    sq = np.einsum("...k,...k->...", diff, diff)
    out = np.sqrt(sq)
    redo = ~((sq >= 2.0**-968) & (sq < np.inf))
    if redo.any():
        d = diff[redo]
        e = np.frexp(np.abs(d).max(axis=-1))[1]
        np.ldexp(d, -e[:, None], out=d)
        out[redo] = np.ldexp(np.sqrt(np.einsum("ik,ik->i", d, d)), e)
    return out


def paired_distances(emb: EmbeddingSet, idx_a, idx_b, metric: Metric = Metric.COSINE) -> np.ndarray:
    """Exact float64 distances for aligned index pairs (idx_a[k], idx_b[k]).

    Cosine is half the squared difference of the unit rows, so near
    duplicates keep their relative precision (``1 - <a,b>`` rounds them
    to noise of 1e-16, which then picks the nearest of several).  The
    pairs are taken in chunks of ``_GATHER_ELEMS`` entries per side,
    gathered into two reused buffers (a unit row is its data row divided
    in place by its norm, the bits of ``emb.unit``), so scratch memory
    does not grow with the number of pairs.
    """
    idx_a = np.asarray(idx_a, dtype=np.int64)
    idx_b = np.asarray(idx_b, dtype=np.int64)
    metric = Metric(metric)
    out = np.empty(idx_a.size)
    if not idx_a.size:
        return out
    for idx in (idx_a, idx_b):  # valid indices, negative ones as Python reads them: no take below wraps
        if idx.min() < -emb.n or idx.max() >= emb.n:
            raise IndexError(f"point index out of range for {emb.n} points")
    chunks = _row_chunks(idx_a.size, emb.d)
    bufs = np.empty((2, min(chunks[0].stop, idx_a.size), emb.d))
    norms = emb.norms if metric is Metric.COSINE else None
    for s in chunks:
        a, b = idx_a[s], idx_b[s]
        x = np.take(emb.data, a, axis=0, out=bufs[0, : a.size], mode="wrap")
        y = np.take(emb.data, b, axis=0, out=bufs[1, : b.size], mode="wrap")
        if norms is not None:  # the unit rows
            x /= norms[a][:, None]
            y /= norms[b][:, None]
        x -= y
        out[s] = _scaled_norms(x) if norms is None else np.minimum(0.5 * np.einsum("ij,ij->i", x, x), 2.0)
    return out


# ---------------------------------------------------------------------------
# File I/O


def save_embeddings(emb: EmbeddingSet, path) -> None:
    header = json.dumps({"n": emb.n, "d": emb.d}, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(emb.data.astype("<f4")).tobytes())


def load_embeddings(path) -> EmbeddingSet:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        meta = json.loads(header.decode("ascii"))
        n, d = int(meta["n"]), int(meta["d"])
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: bad embedding header line: {exc}") from None
    if n <= 0 or d <= 0:
        raise DataError(f"{path}: header requires positive n and d, got n={n}, d={d}")
    expected = n * d * 4
    if len(payload) < expected:
        raise DataError(f"{path}: truncated payload ({len(payload)} bytes, expected {expected})")
    if len(payload) > expected:
        raise DataError(f"{path}: payload length mismatch ({len(payload)} bytes, expected {expected})")
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(n, d)
    del payload  # released before the set copies ``data``
    try:
        return EmbeddingSet(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_int_csv(path, what: str) -> np.ndarray:
    """Headerless integer CSV (lines stripped, blank ones skipped, cells read by ``int``) as int64.

    Each distinct cell spelling is parsed once; a ragged row or non-integer
    cell raises ``DataError`` naming the first fault's line and cell.
    """
    path = Path(path)
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")  # the lines that iterating the file yields
    rows = [(r, line) for r, line in enumerate(map(str.strip, lines)) if line]
    if not rows:
        raise DataError(f"{path}: no rows")
    width = rows[0][1].count(",") + 1
    cells = ",".join(line for _, line in rows).split(",")
    try:
        if any(line.count(",") != width - 1 for _, line in rows):
            raise ValueError
        value = {c: int(c) for c in set(cells)}
    except ValueError:
        _raise_first_fault(path, what, rows, width)
    return np.fromiter(map(value.__getitem__, cells), dtype=np.int64, count=len(cells)).reshape(len(rows), width)


def _raise_first_fault(path, what, rows, width):
    for r, line in rows:
        cells = line.split(",")
        if len(cells) != width:
            raise DataError(f"{path}: row {r} has {len(cells)} columns, expected {width}")
        for c, cell in enumerate(cells):
            try:
                int(cell)
            except ValueError:
                raise DataError(f"{path}: non-integer {what} entry {cell!r} at (row {r}, col {c})") from None


def load_votes(path) -> VoteMatrix:
    arr = _load_int_csv(path, "vote")
    try:
        return VoteMatrix(arr)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_votes(votes: VoteMatrix, path) -> None:
    _save_int_csv(votes.votes, path)


def load_labels(path) -> LabelVector:
    arr = _load_int_csv(path, "label")
    if arr.ndim == 2 and arr.shape[1] != 1:
        raise DataError(f"{path}: label files must have one column, got {arr.shape[1]}")
    try:
        return LabelVector(arr[:, 0])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_labels(labels: LabelVector, path) -> None:
    _save_int_csv(labels.labels[:, None], path)


def _save_int_csv(arr: np.ndarray, path) -> None:
    values, inverse = np.unique(arr, return_inverse=True)
    text = np.array([str(v) for v in values.tolist()], dtype=object)[inverse.reshape(arr.shape)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(",".join(row) + "\n" for row in text.tolist())
