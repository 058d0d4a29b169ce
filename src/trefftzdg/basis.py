"""Element-local discrete spaces for the two-field system (E, H).

Two families:

* ``trefftz``: transport polynomials. On an element with constant
  materials and wave speed c, the span of Legendre polynomials in the
  scaled characteristic variables (x - x_K) -+ c (t - t_K), paired so
  that every function solves the homogeneous system exactly. Dimension
  2p + 2.
* ``full``: all polynomials of total degree <= p in (x, t), placed
  separately in the E slot and the H slot. Dimension (p + 1)(p + 2).

Basis functions evaluate at offsets from the element centre. eval_local
gives the two fields (v_E, v_H) from the Legendre values alone, each
written once into one C-contiguous (k, n, m) table for k rows of m
offsets and returned as an (n, k, m) view; stacked hands on those
tables themselves, one per field. eval_derivatives gives the four
first derivatives (dx v_E, dt v_E, dx v_H, dt v_H), which only the full
family's volume terms and pde_residual read. A basis is set by the
family, the degree p and the element's signature: width hx, height ht
and materials eps, mu.
element_basis builds element i's basis from the mesh arrays;
signature_groups builds one basis per group of elements that share a
signature, reading the mesh's per-element classes (Mesh.signature).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedDomain, PointOutsideElement

TREFFTZ = "trefftz"
FULL = "full"
FAMILIES = (TREFFTZ, FULL)


def trefftz_dim(p):
    return 2 * p + 2


def full_dim(p):
    return (p + 1) * (p + 2)


def space_dim(family, p):
    if family == TREFFTZ:
        return trefftz_dim(p)
    if family == FULL:
        return full_dim(p)
    raise MismatchedDomain(f"unknown basis family {family!r}")


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


def legendre_table(p, xi):
    """Values and derivatives of L_0..L_p at points xi, shape (p+1, n)."""
    V = legendre_values(p, xi)
    D = np.empty_like(V)
    D[0] = 0.0
    if p >= 1:
        D[1] = 1.0
    for j in range(1, p):
        D[j + 1] = D[j - 1] + (2 * j + 1) * V[j]
    return V, D


def _degree_pairs(p):
    """(j_x, j_t) exponent pairs ordered by total degree, then j_x."""
    return [(jx, d - jx) for d in range(p + 1) for jx in range(d + 1)]


@dataclass(frozen=True)
class BasisSpec:
    """Family plus per-element polynomial degree.

    degree is either a single non-negative int (uniform) or a mapping
    from element index to int.
    """

    family: str
    degree: object = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise MismatchedDomain(
                f"unknown basis family {self.family!r}, expected one of {FAMILIES}"
            )
        if isinstance(self.degree, int):
            if self.degree < 0:
                raise MismatchedDomain(f"degree must be non-negative, got {self.degree}")
        else:
            # converted once: per-element lookups must not copy the mapping
            object.__setattr__(self, "_degrees", dict(self.degree))
            bad = [p for p in self._degrees.values() if p < 0]
            if bad:
                raise MismatchedDomain(f"degrees must be non-negative, got {bad}")

    @property
    def uniform(self):
        return isinstance(self.degree, int)

    def degree_for(self, element_index):
        if isinstance(self.degree, int):
            return self.degree
        try:
            return int(self._degrees[element_index])
        except KeyError:
            raise MismatchedDomain(f"no degree given for element {element_index}") from None

    def degrees(self, ids):
        """Degrees of the elements ids, as an int array."""
        if isinstance(self.degree, int):
            return np.full(len(ids), self.degree)
        return np.array([self.degree_for(i) for i in ids], dtype=int)

    def max_degree(self):
        if isinstance(self.degree, int):
            return self.degree
        return max(self._degrees.values())

    def dim_for(self, element_index):
        return space_dim(self.family, self.degree_for(element_index))


class ElementBasis:
    """Basis of one family and degree on an element of width hx, height ht
    and materials eps, mu: all that eval_local depends on."""

    def __init__(self, family, p, hx, ht, eps, mu):
        if p < 0:
            raise MismatchedDomain(f"degree must be non-negative, got {p}")
        if family not in FAMILIES:
            raise MismatchedDomain(f"unknown basis family {family!r}")
        self.family = family
        self.p = p
        self.n = space_dim(family, p)
        self.hx, self.ht, self.eps, self.mu = hx, ht, eps, mu

    def eval_local(self, dx, dt):
        """E and H of every basis function at offsets from the element centre,
        each of shape (n,) + dx.shape.

        Each field is written once into a C-contiguous (rows, n, points)
        table, rows running over dx's leading axes and points over its last,
        and returned as a view of it in the shape above: the trefftz family
        as one transposed copy of its two Legendre blocks, scaled in place,
        the full family as each product written into its slot. Integrals
        computed from offsets derived purely from (hx, ht) are translation
        invariant, which lets the solver reuse slab matrices bit-for-bit.
        """
        dx, dt = self._offsets(dx, dt)
        shape = dx.shape
        rows, m = math.prod(shape[:-1]), (shape[-1] if shape else 1)
        dx, dt = dx.reshape(rows, m), dt.reshape(rows, m)
        # the Legendre values V of shape (p + 1, 2, rows, m) in the two scaled
        # variables: (x - c t, x + c t), or (x, t)
        xi = np.empty((2, rows, m))
        if self.family == TREFFTZ:
            c, scale, se, sm = self._characteristic()
            ct = c * dt
            np.subtract(dx, ct, out=xi[0])
            np.add(dx, ct, out=xi[1])
            xi /= scale
            V = legendre_values(self.p, xi)
            E, H = np.empty((2, rows, self.n, m))
            q = self.p + 1
            E.reshape(rows, 2, q, m)[...] = V.transpose(2, 1, 0, 3)
            np.multiply(E, sm, out=H)
            np.negative(H[:, q:], out=H[:, q:])     # -sm * V rounds as -(sm * V)
            E *= se
        else:
            np.multiply(2.0, dx, out=xi[0])
            np.multiply(2.0, dt, out=xi[1])
            xi[0] /= self.hx
            xi[1] /= self.ht
            V = legendre_values(self.p, xi)
            E, H = np.zeros((2, rows, self.n, m))
            pairs = _degree_pairs(self.p)
            for i, (jx, jt) in enumerate(pairs):
                np.multiply(V[jx, 0], V[jt, 1], out=E[:, i])
            H[:, len(pairs):] = E[:, :len(pairs)]
        return {"E": E.transpose(1, 0, 2).reshape((self.n,) + shape),
                "H": H.transpose(1, 0, 2).reshape((self.n,) + shape)}

    def stacked(self, dx, dt):
        """E and H at per-row offsets dx, dt of shape (k, m): eval_local's
        (k, n, m) tables themselves, C-contiguous, so a stacked product rounds
        on slice r as on row r's own table (a strided view may not)."""
        f = self.eval_local(dx, dt)
        return {name: f[name].transpose(1, 0, 2) for name in ("E", "H")}

    def eval_derivatives(self, dx, dt):
        """dx v_E, dt v_E, dx v_H and dt v_H ("Ex", "Et", "Hx", "Ht") at offsets
        from the element centre, laid out as eval_local's fields."""
        dx, dt = self._offsets(dx, dt)
        if self.family == TREFFTZ:
            c, scale, se, sm = self._characteristic()
            _, Dm = legendre_table(self.p, (dx - c * dt) / scale)
            _, Dp = legendre_table(self.p, (dx + c * dt) / scale)
            return {"Ex": np.concatenate([se * Dm, se * Dp]) / scale,
                    "Et": np.concatenate([-c * se * Dm, c * se * Dp]) / scale,
                    "Hx": np.concatenate([sm * Dm, -sm * Dp]) / scale,
                    "Ht": np.concatenate([-c * sm * Dm, -c * sm * Dp]) / scale}
        Vx, Dx = legendre_table(self.p, 2.0 * dx / self.hx)
        Vt, Dt = legendre_table(self.p, 2.0 * dt / self.ht)
        pairs = _degree_pairs(self.p)
        Sx = np.empty((len(pairs),) + dx.shape)
        St = np.empty_like(Sx)
        for i, (jx, jt) in enumerate(pairs):
            Sx[i] = (2.0 / self.hx) * Dx[jx] * Vt[jt]
            St[i] = (2.0 / self.ht) * Vx[jx] * Dt[jt]
        Z = np.zeros_like(Sx)
        return {"Ex": np.concatenate([Sx, Z]), "Et": np.concatenate([St, Z]),
                "Hx": np.concatenate([Z, Sx]), "Ht": np.concatenate([Z, St])}

    @staticmethod
    def _offsets(dx, dt):
        dx = np.asarray(dx, dtype=float)
        dt = np.asarray(dt, dtype=float)
        if dx.shape != dt.shape:
            raise MismatchedDomain(f"dx shape {dx.shape} != dt shape {dt.shape}")
        return dx, dt

    def _characteristic(self):
        """Trefftz family: wave speed c, the scale of the characteristic
        variables, and the field weights 1 / sqrt(eps), 1 / sqrt(mu)."""
        c = 1.0 / np.sqrt(self.eps * self.mu)
        return c, 0.5 * (self.hx + c * self.ht), 1.0 / np.sqrt(self.eps), 1.0 / np.sqrt(self.mu)


def element_basis(mesh, spec, i):
    """The basis of element i of the mesh under spec."""
    return ElementBasis(spec.family, spec.degree_for(i), mesh.hx[i], mesh.ht[i],
                        mesh.eps[i], mesh.mu[i])


def signature_groups(mesh, spec, ids):
    """The elements ids grouped by signature (hx, ht, eps, mu, p), one basis per group.

    eval_local depends on the signature alone, so one ElementBasis serves
    every element of a group. Returns (basis, positions) pairs, positions
    indexing ids in ascending order; groups run in order of first appearance.
    The (hx, ht, eps, mu) class comes from mesh.signature, computed once per
    mesh; p joins it only when the degrees differ between elements.
    """
    ids = np.asarray(ids, dtype=int)
    if not len(ids):
        return []
    codes = mesh.signature[ids]
    if not spec.uniform:
        degrees = spec.degrees(ids)
        codes = codes * (degrees.max() + 1) + degrees
    if codes.min() == codes.max():
        groups = [np.arange(len(ids))]
    else:
        order = np.argsort(codes, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(codes[order])) + 1)
        groups.sort(key=lambda group: group[0])
    return [(element_basis(mesh, spec, ids[group[0]]), group) for group in groups]


def embedding_indices(family, p_from, p_to):
    """Positions of the degree-p_from basis inside the degree-p_to basis.

    Valid because both families are graded: each function of the lower
    degree reappears unchanged in the higher-degree basis.
    """
    if p_to < p_from:
        raise MismatchedDomain(f"cannot embed degree {p_from} into degree {p_to}")
    if family == TREFFTZ:
        right = np.arange(p_from + 1)
        left = (p_to + 1) + np.arange(p_from + 1)
        return np.concatenate([right, left])
    pos = {pair: i for i, pair in enumerate(_degree_pairs(p_to))}
    scal = np.array([pos[pair] for pair in _degree_pairs(p_from)], dtype=int)
    m_to = len(pos)
    return np.concatenate([scal, m_to + scal])


def pde_residual(basis, dx, dt):
    """Max Maxwell residual of each basis function at offsets from the element centre.

    Computes, per function, the max over the points of |dx v_E + mu dt v_H|
    and |dx v_H + eps dt v_E|. The points must lie in the closed element.
    """
    dx = np.asarray(dx, dtype=float)
    dt = np.asarray(dt, dtype=float)
    outside = ((np.abs(dx) > 0.5 * basis.hx + 1e-12 * max(basis.hx, 1.0))
               | (np.abs(dt) > 0.5 * basis.ht + 1e-12 * max(basis.ht, 1.0)))
    if outside.any():
        k = np.flatnonzero(outside)[0]
        raise PointOutsideElement(f"offset ({dx.flat[k]}, {dt.flat[k]}) outside the element")
    f = basis.eval_derivatives(dx, dt)
    r1 = np.abs(f["Ex"] + basis.mu * f["Ht"])
    r2 = np.abs(f["Hx"] + basis.eps * f["Et"])
    return np.maximum(r1, r2).reshape(basis.n, -1).max(axis=1)
