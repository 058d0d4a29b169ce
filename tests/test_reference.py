"""Closed-form references: data recovery, wall conditions, transport, projections."""

import math

import numpy as np
import pytest

from trefftzdg.errors import NegativeExtent, NonconstantMaterial
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
    E, H = z.trace(1.0, 2.0, side="below")
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
    e0, h0 = GaussianPulse(10.0, 10.0, 1.0), GaussianPulse(4.0, 3.0, -0.6)
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


def test_pec_profile_leaves_the_data_arrays_alone():
    # the in-place sums never write into what the data callables return
    returned = []

    def keep(f):
        def value(x):
            returned.append((f(x), f(x).copy()))
            return returned[-1][0]
        return value

    prof = CharacteristicProfile.pec(DOMAIN, keep(GAUSS), keep(GaussianPulse(5.0, 2.0)))
    prof.evaluate(np.linspace(-70.0, 130.0, 101), np.full(101, 3.0))
    assert len(returned) == 4
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
