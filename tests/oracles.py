"""Independent O(n^2) references for the scan: every pairwise distance, then explicit loops.

They share no code with ``weakext``: distances come from whole float64
rows, never from a table, a tile or a float32 score.
"""

import numpy as np


def brute_force_distances(x, metric="cosine"):
    """All pairwise float64 distances.

    Cosine distance is half the squared distance of the unit rows, which
    keeps near duplicates apart where ``1 - u.v`` rounds to noise, summed
    as ``paired_distances`` sums it, so a pair exactly at a radius taken
    from these distances is inside it for the scan too.  Each cosine row,
    and each Euclidean difference, is scaled by a power of two putting
    its largest entry in [1/2, 1) before squaring, so no scale or spread
    underflows or overflows; the scaling is exact, so squares summed as
    ``paired_distances`` sums them carry its bits.
    """

    def scaled(rows):
        """``rows`` times the power of two putting each one's largest entry in [1/2, 1), and those exponents."""
        e = np.frexp(np.abs(rows).max(axis=1))[1]
        return np.ldexp(rows, -e[:, None]), e

    if metric == "cosine":
        s, _ = scaled(x)
        u = s / np.sqrt(np.einsum("ij,ij->i", s, s))[:, None]
        return np.array([np.minimum(0.5 * np.einsum("ij,ij->i", u - row, u - row), 2.0) for row in u])
    out = []
    for row in x:
        diff, e = scaled(x - row)
        out.append(np.ldexp(np.sqrt(np.einsum("ij,ij->i", diff, diff)), e))
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
