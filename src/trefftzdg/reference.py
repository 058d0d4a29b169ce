"""Closed-form reference solutions built from characteristic profiles.

With constant materials the system decouples into two transported
scalars u = sqrt(eps) E + sqrt(mu) H (right-moving) and
w = sqrt(eps) E - sqrt(mu) H (left-moving). A reference solution is its
pair of transported profiles u0(x - ct) and w0(x + ct), the initial
profiles extended to the real line according to the boundary condition:

* perfectly conducting walls: E odd and H even about x_l, both
  2(x_r - x_l)-periodic, so every reflection is captured for all time.
  u and w fold their coordinate once and read e0 and h0 at that one
  image, bit for bit as separate extensions of E and H would be;
* free space: zero extension (meaningful when the data is supported
  inside the interval up to negligible tails);
* impedance (Robin) walls: the incoming characteristic profiles are
  prescribed by the boundary data, so u is extended left of x_l by
  g_l((x_l - z)/c) and w right of x_r by g_r((z - x_r)/c).
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import legendre_values
from .errors import NegativeExtent, NonconstantMaterial
from .quadrature import map_to_segment, tensor_rule

PEC = "pec"
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

    def trace(self, x, t, side=None):
        return self.evaluate(x, t)


def _pec_fold(z, x_l, length):
    """Image m of z in [x_l, x_l + length] under the 2 length-periodic fold
    about x_l, and where it is reflected: y = mod(z - x_l, 2 length),
    m = x_l + y, or (x_l + 2 length) - y where y > length."""
    two_l = 2.0 * length
    z = np.asarray(z, dtype=float)
    y = np.subtract(z, x_l, out=np.empty(z.shape))
    # np.mod's value, several times faster: fmod is exact, and adding
    # 0.0 where it is not negative turns its -0.0 into np.mod's +0.0
    np.fmod(y, two_l, out=y)
    y += two_l * (y < 0)
    folded = y > length
    return np.where(folded, (x_l + two_l) - y, x_l + y), folded


def _pec_term(f, parity, scale, m, folded):
    """scale * f~ on the image m of _pec_fold, f~ the extension of f with the
    given parity (+1 even, -1 odd), as a new array. It equals
    scale * (where(folded, parity, 1) * f(m)) bit for bit: a sign flip
    rounds nothing."""
    v = np.multiply(scale, f(m))
    if parity < 0:
        v *= 1.0 - 2.0 * folded
    return v


def _zero_extension(f, x_l, x_r):
    def value(z):
        z = np.asarray(z, dtype=float)
        inside = (z >= x_l) & (z <= x_r)
        return np.where(inside, f(np.clip(z, x_l, x_r)), 0.0)

    return value


class CharacteristicProfile:
    """The field with sqrt(eps) E +- sqrt(mu) H = u0(x - ct), w0(x + ct)."""

    def __init__(self, eps, mu, u0, w0):
        self.eps = float(eps)
        self.mu = float(mu)
        self.wave_speed = 1.0 / math.sqrt(self.eps * self.mu)
        self.u0 = u0
        self.w0 = w0

    # -- constructors -------------------------------------------------

    @classmethod
    def _split(cls, e0, h0, eps, mu):
        se, sm = math.sqrt(eps), math.sqrt(mu)

        def u0(x):
            return se * e0(x) + sm * h0(x)

        def w0(x):
            return se * e0(x) - sm * h0(x)

        return u0, w0

    @classmethod
    def pec(cls, domain, e0, h0, eps=1.0, mu=1.0):
        """Reference for perfectly conducting walls (E = 0 on both)."""
        se, sm = math.sqrt(eps), math.sqrt(mu)
        x_l, length = domain.x_l, domain.length

        def pair(f, f_parity, g, g_parity, sign):
            # z -> se f~(z) + sign sm g~(z), f and g read at one shared image
            def value(z):
                m, folded = _pec_fold(z, x_l, length)
                v = _pec_term(f, f_parity, se, m, folded)
                return (v + _pec_term(g, g_parity, sign * sm, m, folded))[()]
            return value

        return cls(eps, mu, pair(e0, -1, h0, +1, +1), pair(e0, -1, h0, +1, -1))

    @classmethod
    def free_space(cls, domain, e0, h0, eps=1.0, mu=1.0):
        """Zero-extended data propagated without boundaries.

        Unless the data vanishes at x_l and x_r, the extension jumps on the
        characteristics x -+ c t = x_l and x -+ c t = x_r through the
        initial corners of the domain. A Gauss point on such a line reads
        one side or the other depending on the last bit of its coordinates,
        so l2_relative_error against this reference can move by far more
        than 1e-12 under rounding-level changes of the mesh.
        """
        u0, w0 = cls._split(e0, h0, eps, mu)
        return cls(eps, mu, _zero_extension(u0, domain.x_l, domain.x_r),
                   _zero_extension(w0, domain.x_l, domain.x_r))

    @classmethod
    def robin(cls, domain, e0, h0, g_l=None, g_r=None, eps=1.0, mu=1.0):
        """Impedance walls; incoming characteristics prescribed by g_l, g_r."""
        g_l = g_l if g_l is not None else ZERO
        g_r = g_r if g_r is not None else ZERO
        c = 1.0 / math.sqrt(eps * mu)
        x_l, x_r = domain.x_l, domain.x_r
        u0, w0 = cls._split(e0, h0, eps, mu)

        def from_left(f, g):
            # f on the domain, zero right of x_r, wall data g entering at x_l
            def value(z):
                z = np.asarray(z, dtype=float)
                data = np.where(z <= x_r, f(np.clip(z, x_l, x_r)), 0.0)
                return np.where(z > x_l, data, g((x_l - z) / c))
            return value

        def from_right(f, g):
            def value(z):
                z = np.asarray(z, dtype=float)
                data = np.where(z >= x_l, f(np.clip(z, x_l, x_r)), 0.0)
                return np.where(z < x_r, data, g((z - x_r) / c))
            return value

        return cls(eps, mu, from_left(u0, g_l), from_right(w0, g_r))

    @classmethod
    def for_problem(cls, domain, materials, e0, h0, bc_kind, g_l=None, g_r=None):
        """Dispatch on the boundary condition; materials must be constant."""
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

    def evaluate(self, x, t):
        """Exact fields (E, H) at points x, t (broadcastable arrays)."""
        x = np.asarray(x, dtype=float)
        ct = self.wave_speed * np.asarray(t, dtype=float)
        u = self.u0(x - ct)
        w = self.w0(x + ct)
        se, sm = math.sqrt(self.eps), math.sqrt(self.mu)
        return (u + w) / (2.0 * se), (u - w) / (2.0 * sm)

    def trace(self, x, t, side=None):
        """Side-aware trace; the reference is continuous so side is ignored."""
        return self.evaluate(x, t)


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
