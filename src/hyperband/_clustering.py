"""Single-linkage clusters of the entries of each row, and their means.

Band crossings (`spectra.detect_crossings`) and the branch points of
`spectral_curve` share these: a branch-point row of roots goes straight to
the union-find, a sweep's rows through `spectra._single_linkage` first.
"""

from __future__ import annotations

import numpy as np


def _union_find(rows: np.ndarray, radius: float) -> list:
    """Single-linkage clusters of >= 2 entries within each row, through a
    union-find over candidate pairs; (row index, members) pairs in row order,
    then in order of first member.

    Two entries join a cluster when some chain of pairwise distances
    <= radius connects them, each distance the scalar `abs(x - y)`.
    Candidate pairs come from each row sorted by Re: |Re(x - y)| never
    exceeds abs(x - y), and once no row has entries k apart in that order
    within the radius, no row has any further apart.
    """
    n = rows.shape[1]
    order = np.argsort(rows.real, axis=1)
    re = rows.real[np.arange(len(rows))[:, None], order]
    limit = radius * (1 + 1e-12)
    parent = {}  # node -> parent, for nodes that are not roots

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for k in range(1, n):
        p, i = np.nonzero(re[:, k:] - re[:, :-k] <= limit)
        if p.size == 0:
            break
        a, b = order[p, i], order[p, i + k]
        diffs = (rows[p, a] - rows[p, b]).tolist()
        for x, y, diff in zip((p * n + a).tolist(), (p * n + b).tolist(), diffs):
            if abs(diff) <= radius:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
    clusters: dict = {}
    for x in sorted(set(parent) | set(parent.values())):
        clusters.setdefault(find(x), []).append(x % n)
    return [(root // n, members) for root, members in clusters.items()]


def _gather_means(rows: np.ndarray, p: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """complex(np.mean(rows[p[k], cols[k]])) for each k, bit for bit: clusters of one size."""
    return np.add.reduce(rows[p[:, None], cols], axis=1) / cols.shape[1]


def _cluster_means(rows: np.ndarray, clusters: list) -> list:
    """`_gather_means` of (p, members) pairs, batched by size."""
    means = [None] * len(clusters)
    by_size: dict = {}
    for k, (_, members) in enumerate(clusters):
        by_size.setdefault(len(members), []).append(k)
    for ks in by_size.values():
        p = np.array([clusters[k][0] for k in ks])
        cols = np.array([clusters[k][1] for k in ks])
        for k, mean in zip(ks, _gather_means(rows, p, cols).tolist()):
            means[k] = mean
    return means
