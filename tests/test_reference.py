"""Closed-form references: data recovery, wall conditions, transport, projections."""

import math

import numpy as np
import pytest

from trefftzdg.errors import NonconstantMaterial
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


def test_gaussian_pulse_shape_and_derivative():
    g = GaussianPulse(10.0, 10.0, 2.0)
    x = np.array([8.0, 10.0, 13.0])
    assert np.allclose(g(x), 2.0 * np.exp(-((x - 10.0) ** 2) / 10.0))
    h = 1e-6
    fd = (g(x + h) - g(x - h)) / (2 * h)
    assert np.max(np.abs(g.deriv(x) - fd)) <= 1e-5


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


def test_profile_satisfies_the_first_order_system():
    prof = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS, eps=3.0, mu=0.75)
    rng = np.random.default_rng(17)
    x = rng.uniform(1.0, 59.0, size=200)
    t = rng.uniform(0.1, 25.0, size=200)
    ex, et, hx, ht = prof.derivatives(x, t)
    assert np.max(np.abs(ex + 0.75 * ht)) <= 1e-6
    assert np.max(np.abs(hx + 3.0 * et)) <= 1e-6
    h = 1e-6
    E1, H1 = prof.evaluate(x + h, t)
    E0, H0 = prof.evaluate(x - h, t)
    assert np.max(np.abs((E1 - E0) / (2 * h) - ex)) <= 1e-5


def test_absorbing_profile_honours_boundary_data():
    g_l = GaussianPulse(4.0, 2.0, 0.7)
    prof = CharacteristicProfile.robin(
        DOMAIN, Constant(0.0), Constant(0.0), g_l=g_l, g_r=None, eps=4.0, mu=0.25
    )
    t = np.linspace(0.5, 12.0, 57)
    E, H = prof.evaluate(np.zeros_like(t), t)
    incoming = 2.0 * E + 0.5 * H    # sqrt(eps) E + sqrt(mu) H
    assert np.max(np.abs(incoming - g_l(t))) <= 1e-12


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
    domain = SpaceTimeDomain(x0, x1, t1)
    heights = [t0, t1 - t0] if t0 > 0 else [t1]
    mesh = build_mesh(domain, MaterialLayout.constant(), heights,
                      [np.array([x0, x1])] * len(heights))
    return mesh.elements[-1]


def test_polynomial_profiles_are_projected_exactly():
    # cubic characteristic profiles sit inside every space of degree >= 3
    prof = CharacteristicProfile(
        SpaceTimeDomain(0.0, 4.0, 2.0), 1.0, 1.0,
        u0=lambda z: z**3 - z, w0=lambda z: 2.0 * z**2 + 1.0,
        du0=lambda z: 3.0 * z**2 - 1.0, dw0=lambda z: 4.0 * z,
    )
    el = _element(1.0, 2.0, 0.5, 2.0)
    for norm in ("l2", "h1"):
        assert best_approximation_error(prof, el, 3, norm=norm) <= 1e-12
        assert best_approximation_error(prof, el, 5, norm=norm) <= 1e-12


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
