"""Correctness checks made apart from the program under test.

Nothing here calls into ``repro``: the matvec, the norms and the
schedule invariants are computed from plain arrays, so a fault in the
program cannot hide behind the same fault in its own checker.
"""

from __future__ import annotations

import numpy as np

#: Normwise backward error every returned ``x`` must meet.  A double
#: precision solve of these well-conditioned SPD systems lands near
#: 1e-16; a solve left at single-precision accuracy lands near 1e-8.
BACKWARD_ERROR_BOUND = 1e-11

#: Relative slack for comparing simulated times (sums of floats taken
#: in different orders).
TIME_SLACK = 1e-9


def csc_matvec(shape, indptr, indices, data, x) -> np.ndarray:
    """``A @ x`` for a CSC matrix holding every stored entry of ``A``."""
    n_rows, n_cols = shape
    cols = np.repeat(np.arange(n_cols), np.diff(indptr))
    return np.bincount(indices, weights=data * x[cols], minlength=n_rows)


def csc_inf_norm(shape, indptr, indices, data) -> float:
    """``max_i sum_j |a_ij|`` from the CSC arrays."""
    return float(np.bincount(indices, weights=np.abs(data), minlength=shape[0]).max())


def backward_error(a, x, b) -> float:
    """``||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)``.

    ``a`` is anything with ``shape``, ``indptr``, ``indices`` and
    ``data`` holding the full (both triangles) storage of ``A``.
    Non-finite ``x`` gives ``inf``.
    """
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        return float("inf")
    r = b - csc_matvec(a.shape, a.indptr, a.indices, a.data, x)
    denom = (
        csc_inf_norm(a.shape, a.indptr, a.indices, a.data) * np.abs(x).max()
        + np.abs(b).max()
    )
    return float(np.abs(r).max() / denom) if denom > 0 else float("inf")


def solution_ok(a, x, b) -> bool:
    return backward_error(a, x, b) <= BACKWARD_ERROR_BOUND


def is_permutation(perm, n: int) -> bool:
    """``perm`` holds each of ``0..n-1`` exactly once."""
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.issubdtype(perm.dtype, np.integer):
        return False
    seen = np.zeros(n, dtype=bool)
    if n and (perm.min() < 0 or perm.max() >= n):
        return False
    seen[perm] = True
    return bool(seen.all())


def schedule_ok(sparent, tasks, n_workers: int, makespan: float) -> bool:
    """Check one priced schedule against the tree it schedules.

    ``sparent[s]`` is the parent of supernode ``s`` (-1 for a root) and
    ``tasks`` maps every supernode to ``(start, end, width)``, where
    ``width`` is the number of workers the task occupies.  Every task
    must start after each of its children ends, and the makespan must
    be at least the critical path and at least the total busy time over
    ``n_workers``.
    """
    n = len(sparent)
    if len(tasks) != n:
        return False
    start = np.empty(n)
    end = np.empty(n)
    width = np.empty(n)
    for s, (t0, t1, w) in tasks.items():
        start[s], end[s], width[s] = t0, t1, w
    if np.any(end < start):
        return False
    slack = TIME_SLACK * max(makespan, 1.0)
    parent = np.asarray(sparent)
    child = np.flatnonzero(parent >= 0)
    if np.any(start[parent[child]] < end[child] - slack):
        return False
    # children have lower ids than their parents in a postordered tree,
    # but do not rely on it: walk the tree from the leaves up
    dur = end - start
    path = dur.copy()
    for s in np.argsort(end, kind="stable"):
        p = parent[s]
        if p >= 0:
            path[p] = max(path[p], dur[p] + path[s])
    busy = float((dur * width).sum()) / n_workers
    return makespan + slack >= max(float(path.max(initial=0.0)), busy)
