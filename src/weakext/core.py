"""Core domain types, the exact float64 distance, and file I/O.

Data model: an embedding matrix (one row per data point), a vote matrix
over {-1, 0, +1} where 0 means the source abstains, hard label vectors
over {-1, +1}, per-source extension radii, and the parameters of the
probabilistic label model (per-source accuracies, abstain rates, and the
class-balance prior).

On-disk formats are byte-deterministic:

* ``.emb`` -- a single JSON header line ``{"d": <int>, "n": <int>}``
  terminated by ``\\n``, followed by ``n * d`` little-endian IEEE-754
  32-bit floats in row-major order.  A loaded set holds them as float32;
  every distance and derived quantity is computed in float64.
* votes / labels -- headerless CSV of integers, one data point per row.
"""

from __future__ import annotations

import json
import os
import stat
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
    for concurrent reads.  ``data`` is the set's only ``n x d`` array, a
    copy of the input held as float32 when the input is float32 (as a
    loaded ``.emb`` file is) and as float64 otherwise.  Every reader casts
    the rows it takes to float64 (exact from float32), so both hold the
    same values to every bit of every distance.  What is derived from it
    and kept (the row norms, and ``extension``'s score-space scalars and
    low-dimensional projection) holds O(n) or O(d) numbers, each built
    once, lazily, by ``_cached``, even when several scan workers ask for
    one at the same time.  Rows derived from the data are never kept:
    ``paired_distances`` divides the rows it gathers by their norms, and
    ``extension`` casts each scan batch's rows to float32, chunk by chunk.
    """

    data: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    # reentrant: building one value may need another (the cosine projection reads the norms)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data)
        dtype = np.float32 if data.dtype == np.float32 else np.float64
        self.data = _checked(np.array(data, dtype=dtype, order="C", copy=True))

    @classmethod
    def _adopt(cls, data: np.ndarray) -> "EmbeddingSet":
        """A set holding the C-contiguous float32 array ``data`` itself, not a copy; the caller drops its reference."""
        emb = cls.__new__(cls)
        emb.data, emb._cache, emb._lock = _checked(data), {}, threading.RLock()
        return emb

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
        return self._cached("norms", lambda: np.concatenate([_scaled_norms(_f64(self.data[s])) for s in chunks]))


def _f64(x: np.ndarray) -> np.ndarray:
    """``x`` as float64: exact, and no copy when it already is."""
    return x.astype(np.float64, copy=False)


def _checked(data: np.ndarray) -> np.ndarray:
    """``data``, frozen, once it is a nonempty 2-D array of finite rows none of which is all zero.

    Checked in chunks of rows, so no temporary grows with the set; the
    first non-finite row is reported before any all-zero row.
    """
    if data.ndim != 2:
        raise DataError(f"embedding matrix must be 2-D, got shape {data.shape}")
    if data.shape[0] == 0 or data.shape[1] == 0:
        raise DataError(f"embedding matrix must be nonempty, got shape {data.shape}")
    zero = None
    for s in _row_chunks(*data.shape):
        x = data[s]
        if not np.isfinite(x).all():
            bad = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
            raise DataError(f"non-finite embedding entry in row {s.start + bad}")
        nonzero = (x != 0).any(axis=1)
        if zero is None and not nonzero.all():
            zero = s.start + np.flatnonzero(~nonzero)[0]
    if zero is not None:
        raise DataError(f"all-zero embedding row {zero} (cosine distance undefined)")
    return _freeze(data)


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
        votes = np.asarray(self.votes)
        if votes.ndim != 2:
            raise DataError(f"vote matrix must be 2-D, got shape {votes.shape}")
        _validate_alphabet(votes, (-1, 0, 1), "vote")  # before the cast to int8, which would wrap 257 to 1
        self.votes = _freeze(np.array(votes, dtype=np.int8, order="C", copy=True))

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
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise DataError(f"label vector must be 1-D, got shape {labels.shape}")
        _validate_alphabet(labels, (-1, 1), "label")
        self.labels = _freeze(np.array(labels, dtype=np.int8, order="C", copy=True))

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


def check_radius_grid(radii) -> np.ndarray:
    """``radii`` as float64; ``ValueError`` unless nonempty, strictly ascending and free of NaN."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        raise ValueError("radius grid must be nonempty")
    if not np.all(np.diff(radii) > 0) or np.isnan(radii).any():
        raise ValueError("radius grid must be strictly ascending")
    return radii


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


_GATHER_ELEMS = 2**16  # float64 elements per chunk of rows derived from the data (512 KB)


def _row_chunks(n: int, d: int) -> list:
    """Slices cutting ``n`` rows of ``d`` entries into runs of ``_GATHER_ELEMS`` entries (at least one row)."""
    step = max(1, _GATHER_ELEMS // d)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _distinct(x) -> np.ndarray:
    """The distinct values of ``x``, ascending: ``np.unique``'s, without the ``numpy.ma`` import it pays for.

    Equal values keep their first in input order (so of ``0.0`` and
    ``-0.0``, the earlier); NaNs, sorted last, become one NaN.
    """
    x = np.sort(x, axis=None, kind="stable")
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    if x.size and x[-1] != x[-1]:
        keep[np.searchsorted(x, x[-1]) + 1 :] = False
    return x[keep]


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
    gathered into two reused float64 buffers (a unit row is its data row
    divided in place by its cached norm), so scratch memory does not grow
    with the number of pairs.  This is the package's one float64
    distance: every scan's re-decision and every profile reads it.
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
        x, y = bufs[0, : a.size], bufs[1, : b.size]
        x[...] = np.take(emb.data, a, axis=0, mode="wrap")  # take, not fancy indexing: 10x faster on short rows
        y[...] = np.take(emb.data, b, axis=0, mode="wrap")
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
        for s in _row_chunks(emb.n, emb.d):  # float32 rows as they are, float64 ones rounded chunk by chunk
            fh.write(emb.data[s].astype("<f4", copy=False))


def load_embeddings(path) -> EmbeddingSet:
    """The set stored at ``path``, holding its float32 payload read straight into the set's one array."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            meta = json.loads(header.decode("ascii"))
            n, d = int(meta["n"]), int(meta["d"])
        except (ValueError, KeyError, TypeError) as exc:  # TypeError: a header that is not an object of numbers
            raise DataError(f"{path}: bad embedding header line: {exc}") from None
        if n <= 0 or d <= 0:
            raise DataError(f"{path}: header requires positive n and d, got n={n}, d={d}")
        expected = n * d * 4
        st = os.fstat(fh.fileno())
        # a file's size is checked before allocating; a pipe's length shows only as it is read
        size = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else expected
        if size == expected:
            try:
                data = np.empty((n, d), dtype="<f4")
            except MemoryError:
                raise DataError(f"{path}: a payload of {expected} bytes does not fit in memory") from None
            size = fh.readinto(data)
            if size == expected:
                size += len(fh.read())
    if size != expected:
        what = "truncated payload" if size < expected else "payload length mismatch"
        raise DataError(f"{path}: {what} ({size} bytes, expected {expected})")
    try:
        return EmbeddingSet._adopt(data.astype(np.float32, copy=False))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_int_csv(path, what: str) -> np.ndarray:
    """Headerless integer CSV (lines stripped, blank ones skipped, cells read by ``int``) as int64.

    A file spelled canonically is parsed by ``_parse_canonical``; any
    other spelling is parsed line by line, each distinct cell spelling
    once.  A ragged row, a non-ASCII byte, or a cell that is not an
    integer or lies outside int64 raises ``DataError`` naming the first
    fault's line (and cell).
    """
    path = Path(path)
    raw = path.read_bytes()
    arr = _parse_canonical(raw)
    if arr is not None:
        return arr
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        row = len(_text_lines(raw[: exc.start].decode("ascii"))) - 1
        raise DataError(f"{path}: non-ASCII byte 0x{raw[exc.start]:02x} in row {row}") from None
    rows = [(r, line) for r, line in enumerate(map(str.strip, _text_lines(text))) if line]
    if not rows:
        raise DataError(f"{path}: no rows")
    width = rows[0][1].count(",") + 1
    cells = ",".join(line for _, line in rows).split(",")
    try:
        if any(line.count(",") != width - 1 for _, line in rows):
            raise ValueError
        value = {c: int(c) for c in set(cells)}
        if not all(-(2**63) <= v < 2**63 for v in value.values()):
            raise ValueError
    except ValueError:
        _raise_first_fault(path, what, rows, width)
    return np.fromiter(map(value.__getitem__, cells), dtype=np.int64, count=len(cells)).reshape(len(rows), width)


def _text_lines(text: str) -> list:
    """The lines that reading ``text`` from a file in text mode yields: split at ``\\r\\n``, ``\\r`` and ``\\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_canonical(raw: bytes):
    """The int64 rows of a CSV in the spelling ``save_votes`` writes, else None.

    That spelling is cells matching ``-?[0-9]{1,18}`` (so within int64),
    separated by ``,`` and ended by ``\\n``, with blank lines anywhere and an
    optional final newline, every row as wide as the first.  The bytes
    are parsed as one array: each cell's value is summed digit by digit
    from its end, over all cells at once.
    """
    if raw.translate(None, b"0123456789-,\n"):
        return None
    buf = np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))  # the delimiter closing each cell
    nl = buf[ends] == ord("\n")
    size = np.diff(ends, prepend=-1) - 1
    keep = (size > 0) | ~nl | ~np.concatenate(([True], nl[:-1]))  # all but blank lines
    ends, nl, size = ends[keep], nl[keep], size[keep]
    neg = buf[ends - size] == ord("-")
    digits = size - neg
    if not ends.size or digits.min() < 1 or digits.max() > 18 or np.count_nonzero(buf == ord("-")) != neg.sum():
        return None  # an empty cell, or a sign alone, twice or inside a cell
    last = np.flatnonzero(nl)  # each row's last cell; the file's last cell is one
    width = int(last[0]) + 1
    if (np.diff(last) != width).any():
        return None
    val = np.subtract(buf[ends - 1], ord("0"), dtype=np.int64)  # each cell's last digit
    for k in range(2, int(digits.max()) + 1):  # then its k-th digit from the end, 0 where it has fewer
        kth = np.where(digits >= k, buf[np.maximum(ends - k, 0)], ord("0"))
        val += np.subtract(kth, ord("0"), dtype=np.int64) * 10 ** (k - 1)
    val *= 1 - 2 * neg.astype(np.int8)
    return val.reshape(-1, width)


def _raise_first_fault(path, what, rows, width):
    for r, line in rows:
        cells = line.split(",")
        if len(cells) != width:
            raise DataError(f"{path}: row {r} has {len(cells)} columns, expected {width}")
        for c, cell in enumerate(cells):
            try:
                v = int(cell)
            except ValueError:
                raise DataError(f"{path}: non-integer {what} entry {cell!r} at (row {r}, col {c})") from None
            if not -(2**63) <= v < 2**63:
                raise DataError(f"{path}: {what} entry {cell!r} at (row {r}, col {c}) is outside the int64 range")


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
    """One line per row, cells joined by ``,``; each distinct row is formatted once.

    The rows are sorted (``lexsort``, which sorts small integers by radix)
    to find the distinct ones, and the file is joined through each row's
    index among them.
    """
    order = np.lexsort(arr.T[::-1]) if arr.shape[1] else np.arange(arr.shape[0])  # lexsort needs a key
    rows = arr[order]
    new = np.ones(arr.shape[0], dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(arr.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    lines = [",".join(map(str, row)) + "\n" for row in rows[new].tolist()]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(map(lines.__getitem__, inverse.tolist())))
