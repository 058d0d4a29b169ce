"""Closed-form reference solutions built from characteristic profiles.

With constant materials the system decouples into two transported
scalars u = sqrt(eps) E + sqrt(mu) H (right-moving) and
w = sqrt(eps) E - sqrt(mu) H (left-moving). A reference solution is a
pair of initial profiles extended to the real line according to the
boundary condition:

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

from .basis import legendre_table, legendre_values
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

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return self(x) * (-2.0 * (x - self.center) / self.width)


@dataclass(frozen=True)
class Constant:
    value: float = 0.0

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def deriv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


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
    """Transported-profile reference solution on a constant-material domain."""

    def __init__(self, domain, eps, mu, u0, w0, du0=None, dw0=None, kind=FREE):
        self.domain = domain
        self.eps = float(eps)
        self.mu = float(mu)
        self.wave_speed = 1.0 / math.sqrt(self.eps * self.mu)
        self.u0 = u0
        self.w0 = w0
        self.du0 = du0
        self.dw0 = dw0
        self.kind = kind

    # -- constructors -------------------------------------------------

    @classmethod
    def _split(cls, e0, h0, eps, mu):
        se, sm = math.sqrt(eps), math.sqrt(mu)

        def u0(x):
            return se * e0(x) + sm * h0(x)

        def w0(x):
            return se * e0(x) - sm * h0(x)

        de0, dh0 = getattr(e0, "deriv", None), getattr(h0, "deriv", None)
        du0 = dw0 = None
        if de0 is not None and dh0 is not None:
            du0 = lambda x: se * de0(x) + sm * dh0(x)
            dw0 = lambda x: se * de0(x) - sm * dh0(x)
        return u0, w0, du0, dw0

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

        u0, w0 = pair(e0, -1, h0, +1, +1), pair(e0, -1, h0, +1, -1)
        du0 = dw0 = None
        de0, dh0 = getattr(e0, "deriv", None), getattr(h0, "deriv", None)
        if de0 is not None and dh0 is not None:
            du0, dw0 = pair(de0, +1, dh0, -1, +1), pair(de0, +1, dh0, -1, -1)
        return cls(domain, eps, mu, u0, w0, du0, dw0, kind=PEC)

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
        u0_in, w0_in, du0_in, dw0_in = cls._split(e0, h0, eps, mu)
        u0 = _zero_extension(u0_in, domain.x_l, domain.x_r)
        w0 = _zero_extension(w0_in, domain.x_l, domain.x_r)
        du0 = dw0 = None
        if du0_in is not None:
            du0 = _zero_extension(du0_in, domain.x_l, domain.x_r)
            dw0 = _zero_extension(dw0_in, domain.x_l, domain.x_r)
        return cls(domain, eps, mu, u0, w0, du0, dw0, kind=FREE)

    @classmethod
    def robin(cls, domain, e0, h0, g_l=None, g_r=None, eps=1.0, mu=1.0):
        """Impedance walls; incoming characteristics prescribed by g_l, g_r."""
        g_l = g_l if g_l is not None else ZERO
        g_r = g_r if g_r is not None else ZERO
        c = 1.0 / math.sqrt(eps * mu)
        x_l, x_r = domain.x_l, domain.x_r
        u0_in, w0_in, du0_in, dw0_in = cls._split(e0, h0, eps, mu)

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

        u0, w0 = from_left(u0_in, g_l), from_right(w0_in, g_r)
        du0 = dw0 = None
        dg_l, dg_r = getattr(g_l, "deriv", None), getattr(g_r, "deriv", None)
        if du0_in is not None and dg_l is not None and dg_r is not None:
            du0 = from_left(du0_in, lambda s: -dg_l(s) / c)
            dw0 = from_right(dw0_in, lambda s: dg_r(s) / c)
        return cls(domain, eps, mu, u0, w0, du0, dw0, kind=ROBIN)

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

    def derivatives(self, x, t):
        """(dx E, dt E, dx H, dt H); needs derivative profiles or uses FD."""
        c = self.wave_speed
        du = self._du()
        dw = self._dw()
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        a = du(x - c * t)
        b = dw(x + c * t)
        se, sm = math.sqrt(self.eps), math.sqrt(self.mu)
        ex = (a + b) / (2.0 * se)
        et = c * (-a + b) / (2.0 * se)
        hx = (a - b) / (2.0 * sm)
        ht = c * (-a - b) / (2.0 * sm)
        return ex, et, hx, ht

    def _fd(self, f):
        h = 1e-6 * max(self.domain.length, 1.0)

        def df(z):
            return (f(z + h) - f(z - h)) / (2.0 * h)

        return df

    def _du(self):
        return self.du0 if self.du0 is not None else self._fd(self.u0)

    def _dw(self):
        return self.dw0 if self.dw0 is not None else self._fd(self.w0)


def _projection_residual(f, df, a, b, p, n):
    """Residual of the L2(a, b) projection of f onto P_p.

    Returns callables (e, de) for the pointwise error and its
    derivative in the argument of f.
    """
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

    def de(z):
        z = np.asarray(z, dtype=float)
        xi = (z - mid) / half
        Vz, Dz = legendre_table(p, xi)
        return df(z) - (coeffs @ Dz) / half

    return e, de


def best_approximation_error(profile, rect, p, norm="l2"):
    """Error of the characteristic L2-projection onto degree p on the
    element rect = (x0, x1, t0, t1).

    Projects each transported profile onto polynomials of degree p over
    the element's domain of dependence and measures the reconstructed
    field error over the element. norm is "l2" for the plain L2 norm of
    (e_E, e_H) or "h1" for the h_D-weighted norm
    sqrt(sum_v w_v (h_D^{-1} ||v||^2 + h_D (||dx v||^2 + c^{-2}||dt v||^2)))
    applied to (sqrt(eps) e_E, sqrt(mu) e_H).
    """
    c = profile.wave_speed
    x0, x1, t0, t1 = rect
    h_d = (x1 - x0) + c * (t1 - t0)
    n_proj = max(p + 10, 24)
    e_u, de_u = _projection_residual(profile.u0, profile._du(), x0 - c * t1, x1 - c * t0, p, n_proj)
    e_w, de_w = _projection_residual(profile.w0, profile._dw(), x0 + c * t0, x1 + c * t1, p, n_proj)

    n = max(p + 6, 16)
    X, T, W = tensor_rule(n, n, rect)
    se, sm = math.sqrt(profile.eps), math.sqrt(profile.mu)
    eu = e_u(X - c * T)
    ew = e_w(X + c * T)
    e_e = (eu + ew) / (2.0 * se)
    e_h = (eu - ew) / (2.0 * sm)
    if norm == "l2":
        return float(np.sqrt(W @ (e_e**2 + e_h**2)))
    if norm != "h1":
        raise ValueError(f"unknown norm {norm!r}, expected 'l2' or 'h1'")
    deu = de_u(X - c * T)
    dew = de_w(X + c * T)
    ex = (deu + dew) / (2.0 * se)
    et = c * (-deu + dew) / (2.0 * se)
    hx = (deu - dew) / (2.0 * sm)
    ht = c * (-deu - dew) / (2.0 * sm)
    total = 0.0
    for weight, v, vx, vt in (
        (profile.eps, e_e, ex, et),
        (profile.mu, e_h, hx, ht),
    ):
        total += weight * (
            (W @ v**2) / h_d + h_d * ((W @ vx**2) + (W @ vt**2) / c**2)
        )
    return float(np.sqrt(total))
