"""Closed-form reference solutions built from characteristic profiles.

With constant materials the system decouples into two transported
scalars u = sqrt(eps) E + sqrt(mu) H (right-moving) and
w = sqrt(eps) E - sqrt(mu) H (left-moving). A reference solution is its
pair of transported profiles u0(x - ct) and w0(x + ct), the initial
profiles extended to the real line according to the boundary condition:

* perfectly conducting walls: E odd and H even about x_l, both
  2(x_r - x_l)-periodic, so every reflection is captured for all time.
  u and w fold their coordinate once and read e0 and h0 at that one
  image (once in all when h0 == e0), bit for bit as separate extensions
  of E and H would be;
* free space: zero extension (meaningful when the data is supported
  inside the interval up to negligible tails);
* impedance (Robin) walls: the incoming characteristic profiles are
  prescribed by the boundary data, so u is extended left of x_l by
  g_l((x_l - z)/c) and w right of x_r by g_r((z - x_r)/c). The initial
  data is read only at points inside the walls (e0 once when h0 == e0),
  the wall data only at points beyond its wall.

All three build u and w from the data pair with one builder, _pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedDomain, NegativeExtent, NonconstantMaterial
from .quadrature import legendre_values, map_to_segment, tensor_rule

PEC = "pec"
DIRICHLET = "dirichlet"
FREE = "free"
ROBIN = "robin"


@dataclass(frozen=True)
class GaussianPulse:
    """amplitude * exp(-(x - center)^2 / width); width is the squared scale."""

    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise NegativeExtent(f"pulse width {self.width} must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        d = np.subtract(x, self.center, out=np.empty(x.shape))
        d *= d
        d /= -self.width
        np.exp(d, out=d)
        d *= self.amplitude
        return d[()]


@dataclass(frozen=True)
class Constant:
    value: float = 0.0

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)


ZERO = Constant(0.0)


class ZeroField:
    """Space-time field that is identically (0, 0).

    Measuring the discrete error against it turns any error norm into
    the norm of the discrete field itself.
    """

    def evaluate(self, x, t):
        shape = np.broadcast(np.asarray(x, dtype=float),
                             np.asarray(t, dtype=float)).shape
        return np.zeros(shape), np.zeros(shape)


def _pec_fold(z, x_l, length):
    """Image m of z in [x_l, x_l + length] under the 2 length-periodic fold
    about x_l, and where it is reflected: y = mod(z - x_l, 2 length),
    m = x_l + y, or (x_l + 2 length) - y where y > length."""
    two_l = 2.0 * length
    z = np.asarray(z, dtype=float)
    y = np.subtract(z, x_l, out=np.empty(z.shape))
    # np.mod's value, several times faster. fmod is exact, and it is the
    # identity where |y| < 2 length (signed zeros included; NaN compares
    # false and stays NaN), so it runs only on points beyond one period,
    # and not at all when the extremes show none (a NaN fails the test).
    # Adding 0.0 where y is not negative turns -0.0 into np.mod's +0.0.
    if y.size and not (y.min() > -two_l and y.max() < two_l):
        np.fmod(y, two_l, out=y, where=np.abs(y) >= two_l)
    y += two_l * (y < 0)
    folded = y > length
    m = np.add(x_l, y, out=np.empty(y.shape))
    np.subtract(x_l + two_l, y, out=m, where=folded)
    return m, folded


def _pieces(z, *parts):
    """f(z) where mask, for each (mask, f) of parts, and 0.0 elsewhere: each f
    reads only its own points, and only when it has some."""
    values = [(at, f(z[at])) for at, f in parts if at.any()]
    out = np.zeros(z.shape, np.result_type(float, *(value for _, value in values)))
    for at, value in values:
        out[at] = value
    return out


def _pair(e0, h0, eps, mu, fold=None):
    """(u0, w0) = z -> sqrt(eps) e +- sqrt(mu) h, e0 and h0 read at z, or at the
    image m of (m, folded) = fold(z) with e negated where folded (this rounds
    nothing). Equal data (the config's standard pulse) is read once per
    point set; what e0 and h0 return is never written."""
    se, sm = math.sqrt(eps), math.sqrt(mu)
    shared = bool(h0 == e0)

    def pair(sign):
        def value(z):
            m, folded = fold(z) if fold else (z, None)
            e = e0(m)
            h = e if shared else h0(m)
            v = np.multiply(se, e)
            if folded is not None:
                v *= 1.0 - 2.0 * folded
            return (v + np.multiply(sign * sm, h))[()]
        return value

    return pair(+1), pair(-1)


class CharacteristicProfile:
    """The field with sqrt(eps) E +- sqrt(mu) H = u0(x - ct), w0(x + ct).

    u0 and w0 must be elementwise functions of the coordinate: the value at
    a point may depend on that point's coordinate alone, never on the other
    points of the array. l2_relative_error relies on it, since it evaluates
    them only on the coordinates that the previous slab did not already
    read, gathered over a block of slabs into one call.
    """

    def __init__(self, eps, mu, u0, w0):
        self.eps = float(eps)
        self.mu = float(mu)
        self.wave_speed = 1.0 / math.sqrt(self.eps * self.mu)
        self.u0 = u0
        self.w0 = w0

    # -- constructors -------------------------------------------------

    @classmethod
    def pec(cls, domain, e0, h0, eps=1.0, mu=1.0):
        """Reference for perfectly conducting walls (E = 0 on both)."""
        x_l, length = domain.x_l, domain.length
        return cls(eps, mu, *_pair(e0, h0, eps, mu, lambda z: _pec_fold(z, x_l, length)))

    @classmethod
    def free_space(cls, domain, e0, h0, eps=1.0, mu=1.0):
        """Zero-extended data propagated without boundaries: the data pair on
        the closed interval [x_l, x_r], 0.0 elsewhere.

        Unless the data vanishes at x_l and x_r, the extension jumps on the
        characteristics x -+ c t = x_l and x -+ c t = x_r through the
        initial corners of the domain. A Gauss point on such a line reads
        one side or the other depending on the last bit of its coordinates,
        so l2_relative_error against this reference can move by far more
        than 1e-12 under rounding-level changes of the mesh. For the same
        reason it is not .robin with zero wall data, whose intervals are
        half open: on test_c12's mesh, whose Gauss points sit exactly on
        x - t = x_l, that moves l2_relative_error from 0x1.269a0a1526210p-12
        to 0x1.26a90a7f7dfcep-12, about 2e-4 relative.
        """
        x_l, x_r = domain.x_l, domain.x_r

        def inside(f):
            def value(z):
                z = np.asarray(z, dtype=float)
                return _pieces(z, ((z >= x_l) & (z <= x_r), f))
            return value

        return cls(eps, mu, *map(inside, _pair(e0, h0, eps, mu)))

    @classmethod
    def robin(cls, domain, e0, h0, g_l=None, g_r=None, eps=1.0, mu=1.0):
        """Impedance walls; incoming characteristics prescribed by g_l, g_r."""
        g_l = g_l if g_l is not None else ZERO
        g_r = g_r if g_r is not None else ZERO
        c = 1.0 / math.sqrt(eps * mu)
        x_l, x_r = domain.x_l, domain.x_r
        u, w = _pair(e0, h0, eps, mu)

        def u0(z):
            z = np.asarray(z, dtype=float)
            entered = z > x_l
            return _pieces(z, (entered & (z <= x_r), u), (~entered, lambda s: g_l((x_l - s) / c)))

        def w0(z):
            z = np.asarray(z, dtype=float)
            entered = z < x_r
            return _pieces(z, (entered & (z >= x_l), w), (~entered, lambda s: g_r((s - x_r) / c)))

        return cls(eps, mu, u0, w0)

    @classmethod
    def for_problem(cls, domain, materials, e0, h0, bc_kind, g_l=None, g_r=None):
        """Dispatch on the boundary condition; materials must be constant."""
        kinds = (PEC, DIRICHLET, ROBIN, FREE)
        if bc_kind not in kinds:
            raise MismatchedDomain(f"no closed-form reference for {bc_kind!r} walls, "
                                   f"expected one of {kinds}")
        if not materials.is_constant:
            raise NonconstantMaterial(
                "closed-form reference needs spatially constant eps and mu"
            )
        eps, mu = materials.eps[0], materials.mu[0]
        if bc_kind == ROBIN:
            return cls.robin(domain, e0, h0, g_l, g_r, eps, mu)
        if bc_kind == FREE:
            return cls.free_space(domain, e0, h0, eps, mu)
        return cls.pec(domain, e0, h0, eps, mu)

    # -- evaluation ----------------------------------------------------

    def characteristics(self, x, t, out=(None, None)):
        """The characteristic coordinates x - ct and x + ct of points x, t
        (broadcastable arrays), written into out's arrays when given.

        c t goes into out[1] first, then x - ct into out[0] and x + ct into
        out[1]: out may alias t (out[1] = t needs no temporary) but not x.
        """
        x = np.asarray(x, dtype=float)
        ct = np.multiply(self.wave_speed, np.asarray(t, dtype=float), out=out[1])
        return np.subtract(x, ct, out=out[0]), np.add(x, ct, out=out[1])

    def fields(self, u, w):
        """The fields (E, H) of the characteristic values u and w."""
        se, sm = math.sqrt(self.eps), math.sqrt(self.mu)
        # divided in place in the sums, never in u and w
        E = u + w
        E /= 2.0 * se
        H = u - w
        H /= 2.0 * sm
        return E, H

    def evaluate(self, x, t):
        """Exact fields (E, H) at points x, t (broadcastable arrays)."""
        z_u, z_w = self.characteristics(x, t)
        return self.fields(self.u0(z_u), self.w0(z_w))


def _projection_residual(f, a, b, p, n):
    """The residual z -> f(z) - (P f)(z) of the L2(a, b) projection onto P_p."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    zq, wq = map_to_segment(n, a, b)
    xi_q = (zq - mid) / half
    V = legendre_values(p, xi_q)
    vals = f(zq)
    j = np.arange(p + 1)
    coeffs = (2 * j + 1) / (2.0 * half) * ((V * wq) @ vals)

    def e(z):
        z = np.asarray(z, dtype=float)
        xi = (z - mid) / half
        Vz = legendre_values(p, xi)
        return f(z) - coeffs @ Vz

    return e


def best_approximation_error(profile, rect, p):
    """L2 norm on rect = (x0, x1, t0, t1) of the field transporting the residuals
    of the degree-p L2-projections of u0 and w0 on the element's domain of dependence."""
    c = profile.wave_speed
    x0, x1, t0, t1 = rect
    n_proj = max(p + 10, 24)
    e_u = _projection_residual(profile.u0, x0 - c * t1, x1 - c * t0, p, n_proj)
    e_w = _projection_residual(profile.w0, x0 + c * t0, x1 + c * t1, p, n_proj)

    n = max(p + 6, 16)
    X, T, W = tensor_rule(n, n, rect)
    e_e, e_h = CharacteristicProfile(profile.eps, profile.mu, e_u, e_w).evaluate(X, T)
    return float(np.sqrt(W @ (e_e**2 + e_h**2)))
