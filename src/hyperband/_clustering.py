"""Single-linkage clusters of the entries of each row, and their means.

Band crossings (`spectra.detect_crossings`, one row per grid point) and the
branch points of `spectral_curve` (one row of roots) take their clusters from
`single_linkage`: one pass over arrays, with no Python step per pair or per
entry.
"""

from __future__ import annotations

import numpy as np


def single_linkage(rows, radius: float) -> tuple:
    """Single-linkage clusters of >= 2 entries within each row of a 2-D array.

    Two entries join a cluster when some chain of pairwise distances
    <= radius connects them, each distance `np.hypot` of the difference's
    parts: the scalar `abs(x - y)` bit for bit, which the vectorised
    `np.abs` is not.  Candidate pairs come from each row in Re order (rows
    already nondecreasing in Re, as every sweep's are, skip the argsort):
    |Re(x - y)| never exceeds abs(x - y), and once no row has entries k apart
    in that order within the radius, no row has any further apart.  The
    components of the linked pairs come from label propagation: each label
    hooks to the smaller one, then labels jump to their roots until stable.

    Returns (row, start, size, members, means): cluster j is the entries
    members[start[j]:start[j] + size[j]] of row[j], ascending, and means[j]
    is complex(np.mean(...)) of them, bit for bit.  Clusters are in row
    order, then in order of first member.
    """
    rows = np.asarray(rows)
    flat = rows.reshape(-1)
    n = rows.shape[1]
    re = rows.real
    order = np.arange(flat.size)  # each row's flat indices, in Re order
    if not (re[:, 1:] >= re[:, :-1]).all():
        order = (np.argsort(re, axis=1) + order[::n, None]).ravel()
        re = flat.real[order].reshape(rows.shape)
    limit = radius * (1 + 1e-12)
    a_ends, b_ends = [order[:0]], [order[:0]]
    for k in range(1, n):
        near = (re[:, k:] - re[:, :-k] <= limit).ravel().nonzero()[0]
        if near.size == 0:
            break
        first = near + near // (n - k) * k  # the pair's first position in `order`
        a, b = order[first], order[first + k]
        diff = flat[a] - flat[b]
        joined = np.hypot(diff.real, diff.imag) <= radius
        a_ends.append(a[joined])
        b_ends.append(b[joined])
    # nodes: the linked entries' flat indices, ascending; u, v: the ends' ranks among them
    a, b = np.concatenate(a_ends), np.concatenate(b_ends)
    linked = np.zeros(flat.size, dtype=bool)
    linked[a] = linked[b] = True
    nodes = linked.nonzero()[0]
    rank = np.cumsum(linked) - 1
    u, v = rank[a], rank[b]
    label = np.arange(nodes.size)
    lu, lv = u, v
    while (lu != lv).any():
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        jumped = label[label]
        while (jumped != label).any():
            label, jumped = jumped, jumped[jumped]
        lu, lv = label[u], label[v]
    # every label is now its component's smallest node, a root labelled by itself
    roots = (label == np.arange(nodes.size)).nonzero()[0]
    size = np.bincount(label)[roots]
    start = np.cumsum(size) - size
    nodes = nodes[np.argsort(label, kind="stable")]
    # one gather per cluster size, members ascending: np.mean's sum, bit for bit
    means = np.empty(start.size, dtype=complex)
    for m in np.bincount(size).nonzero()[0].tolist():
        k = (size == m).nonzero()[0]
        means[k] = np.add.reduce(flat[nodes[start[k, None] + np.arange(m)]], axis=1) / m
    return nodes[start] // n, start, size, nodes % n, means
