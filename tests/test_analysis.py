"""Error norms, energy accounting, rate fits, and field utilities."""

import math

import numpy as np
import pytest

from trefftzdg import (
    CSV_HEADER,
    FULL,
    TREFFTZ,
    BasisSpec,
    BoundaryCondition,
    CharacteristicProfile,
    ErrorReport,
    FluxParams,
    GaussianPulse,
    InitialData,
    MaterialLayout,
    SpaceTimeDomain,
    ZeroField,
    apply_bilinear_global,
    build_mesh,
    dg_error,
    dg_norm,
    discrete_energy,
    embed_solution,
    energy_budget,
    energy_trajectory,
    field_from_coefficients,
    fit_rates,
    global_coefficients,
    global_layout,
    l2_relative_error,
    march,
    project_to_space,
    uniform_mesh,
)
from trefftzdg.errors import (
    AmbiguousTrace,
    DimensionMismatch,
    InsufficientSamples,
    MismatchedDomain,
    NonpositiveError,
    UnsupportedBC,
)

UNIT = MaterialLayout.constant()


def _pulse_march(domain=SpaceTimeDomain(0.0, 2.0, 1.0), n_x=2, n_t=2, p=2,
                 width=0.2):
    pulse = GaussianPulse(0.5 * (domain.x_l + domain.x_r), width)
    mesh = uniform_mesh(domain, UNIT, n_x, n_t)
    sol = march(mesh, BasisSpec(TREFFTZ, p), FluxParams(),
                BoundaryCondition.pec(), InitialData(pulse, pulse))
    return sol, pulse


def test_relative_error_edge_cases():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 1, 1)
    spec = BasisSpec(TREFFTZ, 0)
    zero = field_from_coefficients(mesh, spec, np.zeros(2))
    assert l2_relative_error(zero, ZeroField()) == 0.0
    nonzero = field_from_coefficients(mesh, spec, np.array([1.0, 0.0]))
    assert l2_relative_error(nonzero, ZeroField()) == float("inf")


def test_relative_error_is_scale_invariant():
    sol, pulse = _pulse_march()
    prof = CharacteristicProfile.pec(sol.mesh.domain, pulse, pulse)
    base = l2_relative_error(sol, prof)
    doubled_data = InitialData(GaussianPulse(1.0, 0.2, 2.0), GaussianPulse(1.0, 0.2, 2.0))
    sol2 = march(sol.mesh, sol.spec, sol.flux, sol.bc, doubled_data)
    big = GaussianPulse(1.0, 0.2, 2.0)
    prof2 = CharacteristicProfile.pec(sol.mesh.domain, big, big)
    assert l2_relative_error(sol2, prof2) == pytest.approx(base, rel=1e-12)


def test_energy_accounting_against_closed_form():
    # E(0) = integral of exp(-2 (x-10)^2 / 10) = sqrt(5 pi) for the standard pulse
    domain = SpaceTimeDomain(0.0, 20.0, 10.0)
    pulse = GaussianPulse(10.0, 10.0)
    mesh = uniform_mesh(domain, UNIT, 20, 10)
    data = InitialData(pulse, pulse)
    sol = march(mesh, BasisSpec(TREFFTZ, 2), FluxParams(), BoundaryCondition.pec(), data)
    budget = energy_budget(sol, data)
    assert budget.initial_energy == pytest.approx(math.sqrt(5.0 * math.pi), rel=1e-6)
    for term in budget.as_dict().values():
        assert term >= -1e-12
    assert budget.residual <= 1e-12
    times, energies = energy_trajectory(sol)
    assert times.shape == energies.shape == (10,)
    assert np.all(np.diff(energies) <= 1e-12 * budget.initial_energy)
    assert energies[-1] == pytest.approx(budget.final_energy, rel=1e-12)


def test_interior_energy_needs_a_side():
    sol, _ = _pulse_march()
    with pytest.raises(AmbiguousTrace):
        discrete_energy(sol, 0.5)
    below = discrete_energy(sol, 0.5, side="below")
    above = discrete_energy(sol, 0.5, side="above")
    assert above <= below + 1e-12    # upwind coupling dissipates across interfaces
    assert discrete_energy(sol, 0.0) >= 0.0
    assert discrete_energy(sol, 1.0) >= 0.0


def test_energy_budget_preconditions_and_zero_data():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 2, 2)
    spec = BasisSpec(TREFFTZ, 1)
    sol = march(mesh, spec, FluxParams(), BoundaryCondition.pec(), InitialData.zero())
    budget = energy_budget(sol, InitialData.zero())
    assert budget.initial_energy == 0.0
    assert budget.final_energy <= 1e-26
    assert budget.residual <= 1e-13
    dir_bc = BoundaryCondition.dirichlet(lambda t: t, lambda t: 0.0 * t)
    sol_d = march(mesh, spec, FluxParams(), dir_bc, InitialData.zero())
    with pytest.raises(UnsupportedBC):
        energy_budget(sol_d, InitialData.zero())
    # walls but no flux: the skeleton terms have no penalty weights
    bare = field_from_coefficients(mesh, spec, global_coefficients(sol),
                                   bc=BoundaryCondition.pec())
    with pytest.raises(MismatchedDomain):
        energy_budget(bare, InitialData.zero())


def test_energy_identity_holds_for_a_pulse_on_one_coarse_element():
    # the pulse is far from polynomial on the element; auditing its energy
    # with a finer rule than the march integrated it with left 8.7e-9
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 4.0, 1.0), UNIT, 1, 1)
    data = InitialData(GaussianPulse(1.6, 0.8), GaussianPulse(1.6, 0.8, -0.5))
    sol = march(mesh, BasisSpec(TREFFTZ, 0), FluxParams(alpha=1.0, beta=1.0),
                BoundaryCondition.pec(), data)
    assert energy_budget(sol, data).residual <= 1e-13


def test_rate_fit_recovers_exact_slopes():
    fit = fit_rates([1.0, 0.5, 0.25], [0.4, 0.05, 0.00625], mode="h")
    assert fit.rate == pytest.approx(3.0, abs=1e-12)
    assert fit.residual <= 1e-12
    assert fit.n_used == 3 and fit.excluded == []
    ps = np.arange(0, 6, dtype=float)
    fit = fit_rates(ps, np.exp(-2.0 * ps), mode="p")
    assert fit.rate == pytest.approx(-2.0, abs=1e-12)


def test_rate_fit_drops_preasymptotic_coarse_sample():
    fit = fit_rates([1.0, 0.5, 0.25], [0.7, 0.1, 0.0125], mode="h")
    assert fit.excluded == [(1.0, 0.7)]
    assert fit.n_used == 2
    assert fit.rate == pytest.approx(3.0, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(InsufficientSamples):
        fit_rates([1.0, 0.5], [0.1, 0.01])
    with pytest.raises(NonpositiveError):
        fit_rates([1.0, 0.5, 0.25], [0.1, 0.0, 0.001])
    with pytest.raises(MismatchedDomain):
        fit_rates([1.0, 0.5, 0.25], [0.1, 0.01])
    with pytest.raises(MismatchedDomain):
        fit_rates([1.0, 0.5, 0.25], [0.1, 0.01, 0.001], mode="hp")


def test_error_norm_routes_agree():
    # distance between march and projection measured two ways: skeleton
    # quadrature of the DG norm vs the quadratic form a(e; e)
    sol, pulse = _pulse_march(p=2)
    mesh, spec, flux, bc = sol.mesh, sol.spec, sol.flux, sol.bc
    prof = CharacteristicProfile.pec(mesh.domain, pulse, pulse)
    proj = project_to_space(mesh, spec, prof)
    via_traces = dg_error(sol, proj, quad_order=10)
    e = global_coefficients(proj) - global_coefficients(sol)
    via_form = apply_bilinear_global(mesh, spec, flux, bc, e, e)
    assert via_form == pytest.approx(via_traces**2, rel=1e-8)


def test_norms_survive_embedding():
    sol, pulse = _pulse_march(p=1)
    prof = CharacteristicProfile.pec(sol.mesh.domain, pulse, pulse)
    lifted = embed_solution(sol, 3)
    assert lifted.spec.degree == 3
    assert dg_norm(lifted) == pytest.approx(dg_norm(sol), rel=1e-12)
    # same quadrature resolution: the default order tracks the degree
    assert l2_relative_error(lifted, prof, quad_order=10) == pytest.approx(
        l2_relative_error(sol, prof, quad_order=10), rel=1e-12)
    x, t = np.array([0.3, 1.7]), np.array([0.9, 0.4])
    assert np.allclose(lifted.evaluate(x, t), sol.evaluate(x, t), atol=1e-14)


def test_projection_of_in_space_field_is_exact():
    prof = CharacteristicProfile(
        1.0, 1.0,
        u0=lambda z: np.asarray(z, dtype=float) ** 2,
        w0=lambda z: np.asarray(z, dtype=float),
    )
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 2)
    proj = project_to_space(mesh, BasisSpec(TREFFTZ, 2), prof)
    assert l2_relative_error(proj, prof) <= 1e-12
    assert dg_error(proj, prof, flux=FluxParams()) <= 1e-10
    with pytest.raises(MismatchedDomain):
        dg_norm(proj)    # projections carry no penalty weights


def test_coefficient_vector_round_trip():
    sol, _ = _pulse_march(p=1)
    flat = global_coefficients(sol)
    rebuilt = field_from_coefficients(sol.mesh, sol.spec, flat,
                                      flux=sol.flux, bc=sol.bc)
    x, t = np.array([0.2, 1.1, 1.9]), np.array([0.1, 0.6, 0.95])
    assert np.allclose(rebuilt.evaluate(x, t), sol.evaluate(x, t), atol=0.0)
    with pytest.raises(DimensionMismatch):
        field_from_coefficients(sol.mesh, sol.spec, flat[:-1])


def test_report_rows_match_header():
    report = ErrorReport(experiment="run", h_x=1.0, h_t=0.5, p=3,
                         family="trefftz", alpha=0.5, beta=0.5,
                         eps_q=1e-3, dg=2e-3, energy_final=1.25)
    row = report.row()
    assert len(row) == len(CSV_HEADER)
    assert row[0] == "run"
    assert row[1] == repr(1.0) and row[3] == "3"
    assert row[-1] == ""    # no rate attached
    report.rate = 3.75
    assert report.row()[-1] == repr(3.75)

@pytest.mark.parametrize("family", [TREFFTZ, FULL])
@pytest.mark.parametrize("bc_kind", ["pec", "robin"])
@pytest.mark.parametrize("scaling", [False, True])
def test_skeleton_identities_on_hanging_two_material_mixed_degree_mesh(
        family, bc_kind, scaling):
    # hanging nodes across both slab interfaces, eps and mu jumping at x = 1,
    # degrees 1..3 mixed over the elements
    domain = SpaceTimeDomain(0.0, 2.0, 1.5)
    materials = MaterialLayout((1.0,), (1.0, 2.5), (1.0, 0.6))
    mesh = build_mesh(domain, materials, [0.5, 0.4, 0.6],
                      [np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 2.0]),
                       np.array([0.0, 0.4, 1.0, 1.7, 2.0])])
    spec = BasisSpec(family, {i: 1 + i % 3 for i in range(mesh.n_elements)})
    flux = FluxParams(alpha=0.4, beta=0.7, delta=0.3, per_face_scaling=scaling)
    bc = BoundaryCondition.pec() if bc_kind == "pec" else BoundaryCondition.robin()
    _, n = global_layout(mesh, spec)
    v = np.random.default_rng(11).standard_normal(n)
    norm = dg_norm(field_from_coefficients(mesh, spec, v, flux=flux, bc=bc))
    assert apply_bilinear_global(mesh, spec, flux, bc, v, v) == pytest.approx(
        norm**2, rel=1e-10)

    pulse = GaussianPulse(0.8, 0.1)
    data = InitialData(pulse, pulse)
    sol = march(mesh, spec, flux, bc, data)
    assert energy_budget(sol, data).residual <= 1e-9

    # one-sided traces of a piecewise reference on the whole skeleton
    proj = project_to_space(mesh, spec, CharacteristicProfile.free_space(domain, pulse, pulse))
    e = global_coefficients(proj) - global_coefficients(sol)
    assert apply_bilinear_global(mesh, spec, flux, bc, e, e) == pytest.approx(
        dg_error(sol, proj) ** 2, rel=1e-10)


@pytest.mark.parametrize("heights", [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
def test_energy_endpoint_is_the_final_energy_exactly(heights):
    domain = SpaceTimeDomain(0.0, 2.0, 1.0)
    pulse = GaussianPulse(1.0, 0.2)
    data = InitialData(pulse, pulse)
    mesh = build_mesh(domain, UNIT, heights, np.linspace(0.0, 2.0, 5))
    sol = march(mesh, BasisSpec(TREFFTZ, 3), FluxParams(), BoundaryCondition.pec(), data)
    times, energies = energy_trajectory(sol)
    final = discrete_energy(sol, domain.t_final, side="below")
    assert times[-1] == domain.t_final
    assert energies[-1] == final
    assert energy_budget(sol, data).final_energy == final
    for t, energy in zip(times[:-1], energies[:-1]):
        assert energy == discrete_energy(sol, t, side="below")
