"""Gauss-Legendre quadrature on segments and rectangles.

Nodes are computed by Newton iteration on the Legendre three-term
recurrence (legendre_values, which the bases and references evaluate
too), converged to residual below 1e-15, so rules are deterministic
across runs and platforms with the same libm.

face_nodes, data_nodes and error_nodes fix the Gauss-point count per
direction of every integral of the scheme and its diagnostics, as a
function of the largest degree involved; no caller picks its own.
"""

from functools import lru_cache

import numpy as np

from .errors import DegenerateSegment, ZeroPoints


def legendre_values(p, xi):
    """Values of L_0..L_p at points xi, shape (p+1, n)."""
    xi = np.asarray(xi, dtype=float)
    V = np.empty((p + 1,) + xi.shape)
    V[0] = 1.0
    if p >= 1:
        V[1] = xi
    for j in range(1, p):
        # ((2j + 1) xi V_j - j V_{j-1}) / (j + 1), in place, V_{j+1} as scratch
        t = np.multiply(2 * j + 1, xi)
        t *= V[j]
        t -= np.multiply(j, V[j - 1], out=V[j + 1])
        np.divide(t, j + 1, out=V[j + 1])
    return V


@lru_cache(maxsize=None)
def _gauss_cached(n):
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    dx = np.inf
    for _ in range(100):      # Newton's method converges in at most 5 steps below n = 400
        V = legendre_values(n, x)
        dp = n * (x * V[n] - V[n - 1]) / (x * x - 1.0)      # P_n' from P_n and P_{n-1}
        if np.max(np.abs(dx)) < 1e-15:
            break
        dx = V[n] / dp
        x = x - dx
    # enforce symmetry exactly; nodes come out in descending order
    x = 0.5 * (x - x[::-1])
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    x = np.ascontiguousarray(x[order])
    w = np.ascontiguousarray(w[order])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def face_nodes(p):
    """Gauss points per direction for products of degree-p fields (slab
    matrices, DG-norm and energy terms): exact for their degree 2p."""
    return p + 2


def data_nodes(p):
    """Gauss points per direction for given data (initial fields, wall data,
    source) against degree-p fields; the data need not be polynomial."""
    return max(p + 2, 12)


def error_nodes(p):
    """Gauss points per direction for degree-p fields against a reference
    (error norms, projections)."""
    return p + 6


def gauss_rule(n):
    """Return (nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2n - 1. Nodes ascend and are
    symmetric about 0; weights sum to 2.
    """
    if n < 1:
        raise ZeroPoints(f"quadrature rule needs at least one node, got {n}")
    return _gauss_cached(int(n))


def map_to_segment(n, a, b):
    """Map the n-point rule to the segment [a, b], or to each segment
    [a[k], b[k]] of the arrays a, b.

    Returns (points, weights), of shape (n,) for scalars and (k, n) for
    arrays, row k the mapped rule of segment k alone; the weights of a
    segment sum to b - a. Raises DegenerateSegment when any b <= a.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    bad = ~(b > a)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise DegenerateSegment(f"segment [{a.flat[k]}, {b.flat[k]}] has non-positive length")
    xi, w = gauss_rule(n)
    mid = 0.5 * (a + b)[..., None]
    half = 0.5 * (b - a)[..., None]
    return mid + half * xi, half * w


def local_tensor_rule(n, hx, ht):
    """n x n tensor Gauss rule on the hx x ht rectangle centred at the origin.

    Returns flattened offsets and weights (dx, dt, W), x-major as in
    tensor_rule; they depend on the rectangle's size alone. (k, 1) columns
    hx, ht give one row of each per entry.
    """
    xi, w = gauss_rule(n)
    dx = np.repeat(0.5 * hx * xi, n, axis=-1)
    dt = np.tile(0.5 * ht * xi, n)
    W = np.repeat(0.5 * hx * w, n, axis=-1) * np.tile(0.5 * ht * w, n)
    return dx, dt, W


def tensor_rule(nx, nt, rect):
    """Tensor Gauss rule on the rectangle (x0, x1) x (t0, t1).

    Returns flattened arrays (X, T, W); W sums to the rectangle area.
    """
    x0, x1, t0, t1 = rect
    px, wx = map_to_segment(nx, x0, x1)
    pt, wt = map_to_segment(nt, t0, t1)
    X = np.repeat(px, nt)
    T = np.tile(pt, nx)
    W = np.repeat(wx, nt) * np.tile(wt, nx)
    return X, T, W
