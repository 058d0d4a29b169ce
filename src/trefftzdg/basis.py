"""Element-local discrete spaces for the two-field system (E, H).

Two families:

* ``trefftz``: transport polynomials. On an element with constant
  materials and wave speed c, the span of Legendre polynomials in the
  scaled characteristic variables (x - x_K) -+ c (t - t_K), paired so
  that every function solves the homogeneous system exactly. Dimension
  2p + 2.
* ``full``: all polynomials of total degree <= p in (x, t), placed
  separately in the E slot and the H slot. Dimension (p + 1)(p + 2).

Basis functions evaluate to the six fields
(v_E, v_H, dx v_E, dt v_E, dx v_H, dt v_H).
"""

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


def legendre_table(p, xi):
    """Values and derivatives of L_0..L_p at points xi, shape (p+1, n)."""
    xi = np.asarray(xi, dtype=float)
    V = np.empty((p + 1,) + xi.shape)
    D = np.empty_like(V)
    V[0] = 1.0
    D[0] = 0.0
    if p >= 1:
        V[1] = xi
        D[1] = 1.0
    for j in range(1, p):
        V[j + 1] = ((2 * j + 1) * xi * V[j] - j * V[j - 1]) / (j + 1)
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


class BasisFunction:
    """Single basis function; evaluates the six field components."""

    def __init__(self, parent, index):
        self.parent = parent
        self.index = index

    def evaluate(self, x, t):
        """Return (v_E, v_H, dx v_E, dt v_E, dx v_H, dt v_H) at (x, t)."""
        fields = self.parent.eval(np.atleast_1d(x), np.atleast_1d(t))
        i = self.index
        out = tuple(fields[k][i] for k in ("E", "H", "Ex", "Et", "Hx", "Ht"))
        if np.ndim(x) == 0:
            out = tuple(float(v[0]) for v in out)
        return out


class ElementBasis:
    """Evaluated basis of one family on one element."""

    def __init__(self, element, family, p):
        if p < 0:
            raise MismatchedDomain(f"degree must be non-negative, got {p}")
        if family not in FAMILIES:
            raise MismatchedDomain(f"unknown basis family {family!r}")
        self.element = element
        self.family = family
        self.p = p
        self.n = space_dim(family, p)

    def __len__(self):
        return self.n

    @property
    def functions(self):
        return [BasisFunction(self, i) for i in range(self.n)]

    def eval(self, x, t):
        """Evaluate all functions at flat arrays x, t.

        Returns a dict with keys E, H, Ex, Et, Hx, Ht, each an array of
        shape (n_functions, n_points).
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if x.shape != t.shape:
            raise MismatchedDomain(f"x shape {x.shape} != t shape {t.shape}")
        xc, tc = self.element.center
        return self.eval_local(x - xc, t - tc)

    def eval_local(self, dx, dt):
        """Evaluate at offsets from the element centre.

        Integrals computed from offsets derived purely from (hx, ht) are
        translation invariant, which lets the solver reuse slab matrices
        bit-for-bit.
        """
        dx = np.asarray(dx, dtype=float)
        dt = np.asarray(dt, dtype=float)
        if dx.shape != dt.shape:
            raise MismatchedDomain(f"dx shape {dx.shape} != dt shape {dt.shape}")
        if self.family == TREFFTZ:
            return self._eval_trefftz(dx, dt)
        return self._eval_full(dx, dt)

    def _eval_trefftz(self, dx, dt):
        e = self.element
        c = e.wave_speed
        se = 1.0 / np.sqrt(e.eps)
        sm = 1.0 / np.sqrt(e.mu)
        scale = 0.5 * (e.hx + c * e.ht)
        xi_minus = (dx - c * dt) / scale
        xi_plus = (dx + c * dt) / scale
        Vm, Dm = legendre_table(self.p, xi_minus)
        Vp, Dp = legendre_table(self.p, xi_plus)
        E = np.concatenate([se * Vm, se * Vp])
        H = np.concatenate([sm * Vm, -sm * Vp])
        Ex = np.concatenate([se * Dm, se * Dp]) / scale
        Et = np.concatenate([-c * se * Dm, c * se * Dp]) / scale
        Hx = np.concatenate([sm * Dm, -sm * Dp]) / scale
        Ht = np.concatenate([-c * sm * Dm, -c * sm * Dp]) / scale
        return {"E": E, "H": H, "Ex": Ex, "Et": Et, "Hx": Hx, "Ht": Ht}

    def _eval_full(self, dx, dt):
        e = self.element
        xi = 2.0 * dx / e.hx
        tau = 2.0 * dt / e.ht
        Vx, Dx = legendre_table(self.p, xi)
        Vt, Dt = legendre_table(self.p, tau)
        pairs = _degree_pairs(self.p)
        m = len(pairs)
        S = np.empty((m,) + dx.shape)
        Sx = np.empty_like(S)
        St = np.empty_like(S)
        for i, (jx, jt) in enumerate(pairs):
            S[i] = Vx[jx] * Vt[jt]
            Sx[i] = (2.0 / e.hx) * Dx[jx] * Vt[jt]
            St[i] = (2.0 / e.ht) * Vx[jx] * Dt[jt]
        Z = np.zeros_like(S)
        E = np.concatenate([S, Z])
        H = np.concatenate([Z, S])
        Ex = np.concatenate([Sx, Z])
        Et = np.concatenate([St, Z])
        Hx = np.concatenate([Z, Sx])
        Ht = np.concatenate([Z, St])
        return {"E": E, "H": H, "Ex": Ex, "Et": Et, "Hx": Hx, "Ht": Ht}


def trefftz_basis(element, p):
    """Transport-polynomial basis of degree p on the element."""
    return ElementBasis(element, TREFFTZ, p)


def full_basis(element, p):
    """Total-degree-p polynomial basis on the element, one copy per slot."""
    return ElementBasis(element, FULL, p)


def element_basis(spec, element):
    return ElementBasis(element, spec.family, spec.degree_for(element.index))


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


def pde_residual(basis_fn, element, points):
    """Max Maxwell residual of one basis function at sample points.

    Computes max over the points of |dx v_E + mu dt v_H| and
    |dx v_H + eps dt v_E|. Points must lie in the closed element.
    """
    pts = [(float(x), float(t)) for x, t in points]
    for x, t in pts:
        if not element.contains(x, t):
            raise PointOutsideElement(f"({x}, {t}) outside element {element.index}")
    xs = np.array([q[0] for q in pts])
    ts = np.array([q[1] for q in pts])
    _, _, vEx, vEt, vHx, vHt = basis_fn.evaluate(xs, ts)
    r1 = np.abs(vEx + element.mu * vHt)
    r2 = np.abs(vHx + element.eps * vEt)
    return float(max(r1.max(), r2.max()))
