"""Closed-form references: data recovery, wall conditions, transport, projections."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from trefftzdg.errors import MismatchedDomain, NegativeExtent, NonconstantMaterial
from trefftzdg.mesh import MaterialLayout, SpaceTimeDomain, build_mesh
from trefftzdg.reference import (
    CharacteristicProfile,
    Constant,
    GaussianPulse,
    ZeroField,
    best_approximation_error,
)

DOMAIN = SpaceTimeDomain(0.0, 60.0, 60.0)
GAUSS = GaussianPulse(10.0, 10.0, 1.0)


def test_gaussian_pulse_shape():
    g = GaussianPulse(10.0, 10.0, 2.0)
    x = np.array([8.0, 10.0, 13.0])
    assert np.allclose(g(x), 2.0 * np.exp(-((x - 10.0) ** 2) / 10.0))


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
def test_gaussian_pulse_needs_a_positive_width(width):
    # width 0 gave NaN at the centre, a negative width inf away from it
    with pytest.raises(NegativeExtent, match="width"):
        GaussianPulse(10.0, width)


@pytest.mark.parametrize("kind", ["pec", "free", "robin"])
def test_initial_data_is_recovered_at_time_zero(kind):
    maker = {
        "pec": CharacteristicProfile.pec,
        "free": CharacteristicProfile.free_space,
        "robin": CharacteristicProfile.robin,
    }[kind]
    prof = maker(DOMAIN, GAUSS, GAUSS, eps=2.0, mu=0.5)
    x = np.linspace(0.5, 59.5, 201)
    E, H = prof.evaluate(x, np.zeros_like(x))
    assert np.max(np.abs(E - GAUSS(x))) <= 1e-13
    assert np.max(np.abs(H - GAUSS(x))) <= 1e-13


def test_conducting_walls_pin_the_electric_field():
    # strictly positive times: at t = 0 the wall value is the data's own
    # tail, which the odd extension only cancels once transport kicks in
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS)
    t = np.linspace(0.2, 59.8, 300)    # crosses one reflection at each wall
    E_l, _ = prof.evaluate(np.zeros_like(t), t)
    E_r, _ = prof.evaluate(np.full_like(t, 60.0), t)
    assert np.max(np.abs(E_l)) <= 1e-12
    assert np.max(np.abs(E_r)) <= 1e-12


def test_packet_transport_before_boundary_contact():
    # data E0 = H0 launches a purely right-moving packet; sample ahead of
    # the left wall where the reflected tail is still below rounding
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS)
    for t in (5.0, 20.0):
        x = np.linspace(t, 60.0, 400)
        E, H = prof.evaluate(x, np.full_like(x, t))
        assert np.max(np.abs(E - GAUSS(x - t))) <= 1e-12
        assert np.max(np.abs(H - GAUSS(x - t))) <= 1e-12


def test_reflection_flips_the_electric_field():
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS)
    # packet (speed 1, launched at x=10) returns to x=40 at t=70 negated in E
    E, H = prof.evaluate(np.array([40.0]), np.array([70.0]))
    assert E[0] == pytest.approx(-1.0, abs=1e-12)
    assert H[0] == pytest.approx(1.0, abs=1e-12)


# the wall packet of test_absorbing_profile_honours_boundary_data
G_L = GaussianPulse(4.0, 2.0, 0.7)


@pytest.mark.parametrize("prof", [
    CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS, eps=3.0, mu=0.75),
    CharacteristicProfile.robin(DOMAIN, Constant(0.0), Constant(0.0), g_l=G_L, eps=4.0, mu=0.25),
], ids=["pec", "robin_data"])
def test_profile_satisfies_the_first_order_system(prof):
    # dx E + mu dt H = 0 and dx H + eps dt E = 0, by central differences of
    # evaluate, at points whose characteristic coordinates keep clear of the
    # walls, where the extended profiles may jump
    rng = np.random.default_rng(17)
    x = rng.uniform(1.0, 59.0, size=200)
    t = rng.uniform(0.1, 25.0, size=200)
    ct = prof.wave_speed * t
    z = np.stack([x - ct, x + ct])
    clear = np.all((np.abs(z - DOMAIN.x_l) >= 1e-3) & (np.abs(z - DOMAIN.x_r) >= 1e-3), axis=0)
    x, t = x[clear], t[clear]
    h = 1e-5
    (E_xp, H_xp), (E_xm, H_xm) = prof.evaluate(x + h, t), prof.evaluate(x - h, t)
    (E_tp, H_tp), (E_tm, H_tm) = prof.evaluate(x, t + h), prof.evaluate(x, t - h)
    ex, hx = (E_xp - E_xm) / (2 * h), (H_xp - H_xm) / (2 * h)
    et, ht = (E_tp - E_tm) / (2 * h), (H_tp - H_tm) / (2 * h)
    assert len(x) >= 190 and np.max(np.abs(ex)) >= 0.05
    assert np.max(np.abs(ex + prof.mu * ht)) <= 1e-6
    assert np.max(np.abs(hx + prof.eps * et)) <= 1e-6


def test_absorbing_profile_honours_boundary_data():
    prof = CharacteristicProfile.robin(
        DOMAIN, Constant(0.0), Constant(0.0), g_l=G_L, g_r=None, eps=4.0, mu=0.25
    )
    t = np.linspace(0.5, 12.0, 57)
    E, H = prof.evaluate(np.zeros_like(t), t)
    incoming = 2.0 * E + 0.5 * H    # sqrt(eps) E + sqrt(mu) H
    assert np.max(np.abs(incoming - G_L(t))) <= 1e-12


def test_outgoing_packet_leaves_absorbing_domain():
    prof = CharacteristicProfile.robin(DOMAIN, GAUSS, GAUSS)
    x = np.linspace(0.0, 60.0, 300)
    E, H = prof.evaluate(x, np.full_like(x, 75.0))
    assert np.max(np.abs(E)) <= 1e-14
    assert np.max(np.abs(H)) <= 1e-14


def test_constant_material_required_for_closed_form():
    layered = MaterialLayout((30.0,), (1.0, 2.0), (1.0, 1.0))
    with pytest.raises(NonconstantMaterial):
        CharacteristicProfile.for_problem(DOMAIN, layered, GAUSS, GAUSS, "pec")
    prof = CharacteristicProfile.for_problem(
        DOMAIN, MaterialLayout.constant(), GAUSS, GAUSS, "pec"
    )
    E, H = prof.evaluate(np.array([10.0]), np.array([0.0]))
    assert E[0] == pytest.approx(1.0)


G_R = GaussianPulse(1.0, 3.0, -0.5)


@pytest.mark.parametrize("kind, constructor", [
    ("pec", "pec"), ("dirichlet", "pec"), ("robin", "robin"), ("free", "free_space"),
])
def test_for_problem_builds_its_kinds_reference_bit_for_bit(kind, constructor):
    data = (GAUSS, GaussianPulse(4.0, 3.0, -0.6))
    prof = CharacteristicProfile.for_problem(DOMAIN, MaterialLayout.constant(2.0, 0.5), *data,
                                             kind, g_l=G_L, g_r=G_R)
    walls = {"g_l": G_L, "g_r": G_R} if kind == "robin" else {}
    want = getattr(CharacteristicProfile, constructor)(DOMAIN, *data, eps=2.0, mu=0.5, **walls)
    z = np.append(np.linspace(-80.0, 140.0, 441), [DOMAIN.x_l, DOMAIN.x_r])
    assert np.array_equal(prof.u0(z), want.u0(z)) and np.array_equal(prof.w0(z), want.w0(z))


def test_for_problem_rejects_an_unknown_kind():
    with pytest.raises(MismatchedDomain, match="robn"):
        CharacteristicProfile.for_problem(DOMAIN, MaterialLayout.constant(), GAUSS, GAUSS,
                                          "robn")


def _element(x0, x1, t0, t1):
    """The rectangle (x0, x1, t0, t1) of the last element of a mesh ending in it."""
    domain = SpaceTimeDomain(x0, x1, t1)
    heights = [t0, t1 - t0] if t0 > 0 else [t1]
    mesh = build_mesh(domain, MaterialLayout.constant(), heights,
                      [np.array([x0, x1])] * len(heights))
    return mesh.x0[-1], mesh.x1[-1], mesh.t0[-1], mesh.t1[-1]


def test_polynomial_profiles_are_projected_exactly():
    # cubic characteristic profiles sit inside every space of degree >= 3
    prof = CharacteristicProfile(
        1.0, 1.0, u0=lambda z: z**3 - z, w0=lambda z: 2.0 * z**2 + 1.0,
    )
    el = _element(1.0, 2.0, 0.5, 2.0)
    assert best_approximation_error(prof, el, 3) <= 1e-12
    assert best_approximation_error(prof, el, 5) <= 1e-12


def test_projection_error_decays_with_degree():
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS)
    el = _element(8.0, 10.0, 0.0, 2.0)
    errs = [best_approximation_error(prof, el, p) for p in range(0, 9)]
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
    assert errs[8] < 2e-6 * errs[0]


def test_zero_field_reference():
    z = ZeroField()
    E, H = z.evaluate(np.zeros(4), np.linspace(0, 1, 4))
    assert E.shape == (4,) and not E.any() and not H.any()
    E, H = z.evaluate(1.0, 2.0)
    assert float(E) == 0.0 and float(H) == 0.0


def _gauss_oracle(g):
    """GaussianPulse's value as a plain array expression."""
    def value(x):
        x = np.asarray(x, dtype=float)
        return g.amplitude * np.exp(-((x - g.center) ** 2) / g.width)

    return value


def _fold_oracle(f, parity, x_l, length):
    """The PEC extension with parity about x_l, one image per extended profile."""
    two_l = 2.0 * length

    def value(z):
        y = np.mod(np.asarray(z, dtype=float) - x_l, two_l)
        direct = y <= length
        m = np.where(direct, x_l + y, x_l + two_l - y)
        return np.where(direct, 1.0, parity) * f(m)

    return value


@pytest.mark.parametrize("eps, mu", [(1.0, 1.0), (2.0, 0.5), (3.0, 0.75)])
# "inexact": x_l + 2 length rounds, so the order of the folded image's sum shows
@pytest.mark.parametrize("domain", [
    DOMAIN, SpaceTimeDomain(-3.5, 6.25, 20.0), SpaceTimeDomain(0.3, 7.1, 20.0),
], ids=["unit", "shifted", "inexact"])
def test_pec_profile_is_the_fold_of_the_data_bit_for_bit(domain, eps, mu):
    # distinct data, and the config's standard pulse: two equal but distinct
    # GaussianPulse objects, which the profile reads once per image
    for e0, h0 in ((GaussianPulse(10.0, 10.0, 1.0), GaussianPulse(4.0, 3.0, -0.6)),
                   (GaussianPulse(10.0, 10.0, 1.0), GaussianPulse(10.0, 10.0, 1.0))):
        _check_pec_fold(domain, eps, mu, e0, h0)


def _check_pec_fold(domain, eps, mu, e0, h0):
    prof = CharacteristicProfile.pec(domain, e0, h0, eps=eps, mu=mu)
    se, sm, c = math.sqrt(eps), math.sqrt(mu), prof.wave_speed
    x_l, length = domain.x_l, domain.length
    ef, hf = _gauss_oracle(e0), _gauss_oracle(h0)
    e_ext, h_ext = _fold_oracle(ef, -1.0, x_l, length), _fold_oracle(hf, 1.0, x_l, length)

    rng = np.random.default_rng(5)
    k = np.arange(-3, 4)
    folds = np.concatenate([x_l + 2 * length * k, x_l + length + 2 * length * k])
    inputs = [
        np.concatenate([rng.uniform(-8 * length, 8 * length, 300), folds]),
        rng.uniform(-200.0, 200.0, (7, 11)),
        np.array(x_l + length),
        x_l - 0.3 * length,
        float(folds[0]),
    ]
    for z in inputs:
        for got, want in (
            (prof.u0(z), se * e_ext(z) + sm * h_ext(z)),
            (prof.w0(z), se * e_ext(z) - sm * h_ext(z)),
        ):
            assert np.shape(got) == np.shape(z)
            assert np.array_equal(got, want)
    t = rng.uniform(-30.0, 90.0, (7, 11))
    x = inputs[1]
    u = se * e_ext(x - c * t) + sm * h_ext(x - c * t)
    w = se * e_ext(x + c * t) - sm * h_ext(x + c * t)
    E, H = prof.evaluate(x, t)
    assert np.array_equal(E, (u + w) / (2.0 * se))
    assert np.array_equal(H, (u - w) / (2.0 * sm))
    E, H = prof.evaluate(folds[1], 0.0)
    assert np.ndim(E) == 0 and np.ndim(H) == 0


@dataclass(frozen=True)
class _Recorded:
    """A pulse that keeps each array it returns beside a copy; equal when the
    pulses are."""

    pulse: GaussianPulse
    returned: list = field(compare=False)

    def __call__(self, x):
        value = self.pulse(x)
        self.returned.append((value, value.copy()))
        return value


def test_pec_profile_leaves_the_data_arrays_alone():
    # the in-place sums never write into what the data callables return, and
    # equal data is read once per image: 2 calls per evaluate, not 4
    x, t = np.linspace(-70.0, 130.0, 101), np.full(101, 3.0)
    for h0, calls in ((GaussianPulse(10.0, 10.0, 1.0), 2), (GaussianPulse(5.0, 2.0), 4)):
        returned = []
        prof = CharacteristicProfile.pec(DOMAIN, _Recorded(GAUSS, returned),
                                         _Recorded(h0, returned))
        prof.evaluate(x, t)
        assert len(returned) == calls
        assert all(np.array_equal(a, b) for a, b in returned)


def test_gaussian_pulse_is_the_closed_form_bit_for_bit():
    g = GaussianPulse(-1.5, 0.7, -2.25)
    value = _gauss_oracle(g)
    x = np.random.default_rng(9).uniform(-8.0, 8.0, (5, 13))
    assert np.array_equal(g(x), value(x))
    assert np.array_equal(g(x.T), value(x.T))        # non-contiguous input
    assert np.array_equal(g([1, 2, 3]), value([1, 2, 3]))
    for scalar in (0.5, np.float64(0.5), np.array(0.5), 2):
        assert type(g(scalar)) is np.float64
        assert g(scalar) == value(scalar)


def test_pec_profile_takes_data_that_broadcasts_or_is_complex():
    # the data callables may return a larger (broadcast) shape or complex
    # values; each is still the old fold formula, value for value
    gauss, x_l, length = GaussianPulse(10.0, 10.0), DOMAIN.x_l, DOMAIN.length
    e0 = lambda x: np.atleast_1d(gauss(x))
    h0 = lambda x: (1.0 + 0.5j) * gauss(x)
    prof = CharacteristicProfile.pec(DOMAIN, e0, h0, eps=2.0, mu=0.5)
    e_ext, h_ext = _fold_oracle(e0, -1.0, x_l, length), _fold_oracle(h0, 1.0, x_l, length)
    se, sm = math.sqrt(2.0), math.sqrt(0.5)
    for z in (np.array(-7.5), 3.25, np.array([x_l + length, 130.0])):
        u, w = prof.u0(z), prof.w0(z)
        assert np.shape(u) == np.shape(w) == np.shape(e0(z))
        assert np.array_equal(u, se * e_ext(z) + sm * h_ext(z))
        assert np.array_equal(w, se * e_ext(z) - sm * h_ext(z))


def _robin_oracle(e0, h0, g_l, g_r, domain, eps, mu):
    """CharacteristicProfile.robin's (u0, w0) as one np.where over every
    point: data and wall data read everywhere, then selected."""
    se, sm, c = math.sqrt(eps), math.sqrt(mu), 1.0 / math.sqrt(eps * mu)
    x_l, x_r = domain.x_l, domain.x_r

    def u0(z):
        z = np.asarray(z, dtype=float)
        inner = np.clip(z, x_l, x_r)
        data = np.where(z <= x_r, se * e0(inner) + sm * h0(inner), 0.0)
        return np.where(z > x_l, data, g_l((x_l - z) / c))

    def w0(z):
        z = np.asarray(z, dtype=float)
        inner = np.clip(z, x_l, x_r)
        data = np.where(z >= x_l, se * e0(inner) - sm * h0(inner), 0.0)
        return np.where(z < x_r, data, g_r((z - x_r) / c))

    return u0, w0


@pytest.mark.parametrize("eps, mu", [(1.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("domain", [DOMAIN, SpaceTimeDomain(-3.5, 6.25, 20.0)],
                         ids=["unit", "shifted"])
def test_robin_profile_is_the_wall_formula_bit_for_bit(domain, eps, mu):
    x_l, x_r = domain.x_l, domain.x_r
    walls = (GaussianPulse(2.0, 1.0), GaussianPulse(1.0, 3.0, -0.5))
    edges = np.array([x_l, x_r, 0.0, -0.0, np.inf, -np.inf, np.nan,
                      np.nextafter(x_l, -np.inf), np.nextafter(x_r, np.inf)])
    inputs = [np.concatenate([np.random.default_rng(3).uniform(x_l - 40, x_r + 40, 400), edges]),
              np.array(x_l), x_r, -0.0, np.array(np.nan)]
    for e0, h0 in ((GAUSS, GaussianPulse(10.0, 10.0, 1.0)), (GAUSS, GaussianPulse(4.0, 3.0, -0.6))):
        prof = CharacteristicProfile.robin(domain, e0, h0, *walls, eps=eps, mu=mu)
        for got, want in zip((prof.u0, prof.w0), _robin_oracle(e0, h0, *walls, domain, eps, mu)):
            for z in inputs:
                assert np.shape(got(z)) == np.shape(z)
                assert np.array_equal(got(z), want(z), equal_nan=True)


def test_robin_profile_reads_each_data_only_where_it_serves():
    # initial data at the points inside the walls (once when h0 == e0), the
    # wall data at the points beyond its wall, and nothing written
    x, t = np.linspace(-20.0, 80.0, 101), np.full(101, 10.0)
    z_u, z_w = x - 10.0, x + 10.0
    inside = np.count_nonzero((z_u > 0.0) & (z_u <= 60.0)) + np.count_nonzero(
        (z_w >= 0.0) & (z_w < 60.0))
    for h0, reads in ((GaussianPulse(10.0, 10.0, 1.0), 1), (GaussianPulse(5.0, 2.0), 2)):
        data, left, right = [], [], []
        prof = CharacteristicProfile.robin(
            DOMAIN, _Recorded(GAUSS, data), _Recorded(h0, data),
            _Recorded(GaussianPulse(3.0, 1.0), left), _Recorded(GaussianPulse(1.0, 2.0), right))
        prof.evaluate(x, t)
        assert len(data) == 2 * reads
        assert sum(value.size for value, _ in data) == reads * inside
        assert [value.size for value, _ in left] == [np.count_nonzero(z_u <= 0.0)]
        assert [value.size for value, _ in right] == [np.count_nonzero(z_w >= 60.0)]
        assert all(np.array_equal(a, b) for a, b in data + left + right)
        prof.evaluate(np.array([20.0, 30.0]), np.zeros(2))   # no point beyond a wall
        assert len(left) == len(right) == 1


def test_pec_fold_reaches_far_points_beside_nan_and_inf():
    # the fold skips fmod only when the extremes show no point beyond one
    # period; a NaN or an inf among far points must not hide them
    x_l, length = DOMAIN.x_l, DOMAIN.length
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS)
    e_ext = _fold_oracle(_gauss_oracle(GAUSS), -1.0, x_l, length)
    h_ext = _fold_oracle(_gauss_oracle(GAUSS), 1.0, x_l, length)
    far = np.array([-7.3 * length, 5.4 * length, 0.5 * length])
    for odd in (np.nan, np.inf, -np.inf):
        z = np.append(far, odd)
        with np.errstate(invalid="ignore"):     # the period of inf is NaN
            assert np.array_equal(prof.u0(z), e_ext(z) + h_ext(z), equal_nan=True)
            assert np.array_equal(prof.w0(z), e_ext(z) - h_ext(z), equal_nan=True)


@pytest.mark.parametrize("t_shape", [(7, 9), (1, 9), (7, 1)])
def test_characteristics_write_the_same_bytes_into_out(t_shape):
    # c t goes into out[1] first, so either array of out may be t itself
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS, eps=2.0, mu=0.7)
    x = np.random.default_rng(6).uniform(-10.0, 70.0, (7, 9))
    t = np.random.default_rng(7).uniform(0.0, 60.0, t_shape)
    z_u, z_w = prof.characteristics(x, t)
    for alias in (None, 0, 1):
        out = [np.empty(x.shape), np.empty(x.shape)]
        t_in = t
        if alias is not None:
            out[alias][...] = t
            t_in = out[alias]
        written = prof.characteristics(x, t_in, out=tuple(out))
        assert written[0] is out[0] and written[1] is out[1]
        assert out[0].tobytes() == z_u.tobytes() and out[1].tobytes() == z_w.tobytes()


def test_evaluate_is_the_fields_of_the_profiles_at_the_characteristics():
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GaussianPulse(5.0, 2.0), eps=2.0, mu=0.5)
    x = np.random.default_rng(4).uniform(-10.0, 70.0, (7, 9))
    t = np.random.default_rng(5).uniform(0.0, 60.0, (7, 9))
    c = prof.wave_speed
    z_u, z_w = prof.characteristics(x, t)
    assert z_u.tobytes() == (x - c * t).tobytes() and z_w.tobytes() == (x + c * t).tobytes()
    out = (np.empty(x.shape), np.empty(x.shape))
    written = prof.characteristics(x, t, out=out)
    assert written[0] is out[0] and written[1] is out[1]
    assert out[0].tobytes() == z_u.tobytes() and out[1].tobytes() == z_w.tobytes()
    E, H = prof.evaluate(x, t)
    Ef, Hf = prof.fields(prof.u0(z_u), prof.w0(z_w))
    assert E.tobytes() == Ef.tobytes() and H.tobytes() == Hf.tobytes()
    # scalars stay scalars
    E, H = prof.evaluate(12.5, 3.0)
    assert np.shape(E) == np.shape(H) == ()
