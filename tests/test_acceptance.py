"""Acceptance gate: one test per headline guarantee of the solver.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per guarantee.

The standard pulse exp(-(x - 10)^2 / 10) has a left-wall tail: its
value e^-10 at x = 0 violates the conducting-wall condition E = 0, so
the exact solution jumps by 2e^-10 in E + H along x = t.  Resolving
that jump floors the relative L2 error near 4e-6, and the floor shrinks
only about as h^0.4 (4.47e-6, 3.40e-6, 2.52e-6 at p = 8, h = 1, 0.5,
0.25).  The high-order h- and p-rates hold for smooth solutions only,
so test_c04's trefftz h-sweep and test_c06's degree sweep solve the
wall-compatible pulse exp(-(x - 30)^2 / 10) instead (wall value e^-90).
On it the p = 1..3 rates measure 2.00 / 3.62 / 4.29 and the degree
sweep decays monotonically to 1.1e-11 at p = 10.

test_c05 fails by design and keeps the standard pulse: it asserts that
the full-polynomial p = 1 rate stays at or below 1.5, but the measured
L2 rates are 1.96 (p = 1) and 3.64 (p = 2), and the DG-norm rates, the
norm of the paper's quasi-optimality, trend to p + 1/2 for both degrees
(1.10 and 2.34 over the sweep, on either pulse).  Neither norm shows a
split by degree parity; the abstract in PAPER.md does not say whether
the paper's full-polynomial experiments show one.
"""

import math
import warnings

import numpy as np
import pytest

from trefftzdg import (
    FULL,
    TREFFTZ,
    ZERO,
    BasisSpec,
    BoundaryCondition,
    CharacteristicProfile,
    Constant,
    FluxParams,
    GaussianPulse,
    InitialData,
    MaterialLayout,
    SpaceTimeDomain,
    apply_bilinear_global,
    best_approximation_error,
    build_mesh,
    dg_norm,
    element_basis,
    energy_budget,
    energy_trajectory,
    field_from_coefficients,
    global_layout,
    l2_relative_error,
    march,
    mesh_from_spacing,
    pde_residual,
    spectrum,
    uniform_mesh,
    update_matrix,
)

DOMAIN = SpaceTimeDomain(0.0, 60.0, 60.0)
UNIT = MaterialLayout((), (1.0,), (1.0,))
GAUSS = GaussianPulse(10.0, 10.0, 1.0)
DATA = InitialData(GAUSS, GAUSS)
PROFILE = CharacteristicProfile.pec(DOMAIN, GAUSS, GAUSS)
# wall value e^-90: compatible with E = 0 at x = 0 to double precision
WALL_GAUSS = GaussianPulse(30.0, 10.0, 1.0)
WALL_DATA = InitialData(WALL_GAUSS, WALL_GAUSS)
WALL_PROFILE = CharacteristicProfile.pec(DOMAIN, WALL_GAUSS, WALL_GAUSS)
HALF = FluxParams(alpha=0.5, beta=0.5)
PEC = BoundaryCondition.pec()
HS = (2.0, 1.0, 0.5, 0.25)


def _gauss_error(family, p, h, data=DATA, profile=PROFILE):
    mesh = mesh_from_spacing(DOMAIN, UNIT, h, h)
    sol = march(mesh, BasisSpec(family, p), HALF, PEC, data)
    return l2_relative_error(sol, profile)


def _fitted_rate(hs, errors):
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)


@pytest.fixture(scope="module")
def h_sweep_errors():
    return {(FULL, p, h): _gauss_error(FULL, p, h) for p in (1, 2) for h in HS}


@pytest.fixture(scope="module")
def wall_h_sweep_errors():
    return {(TREFFTZ, p, h): _gauss_error(TREFFTZ, p, h, WALL_DATA, WALL_PROFILE)
            for p in (1, 2, 3) for h in HS}


@pytest.fixture(scope="module")
def p_sweep_errors():
    mesh = mesh_from_spacing(DOMAIN, UNIT, 1.0, 1.0)
    return [
        l2_relative_error(
            march(mesh, BasisSpec(TREFFTZ, p), HALF, PEC, WALL_DATA),
            WALL_PROFILE)
        for p in range(11)
    ]


@pytest.fixture(scope="module")
def update_maps():
    mesh = mesh_from_spacing(DOMAIN, UNIT, 1.0, 1.0)
    maps = {(TREFFTZ, p): update_matrix(mesh, BasisSpec(TREFFTZ, p), HALF, PEC)
            for p in range(6)}
    maps[FULL, 5] = update_matrix(mesh, BasisSpec(FULL, 5), HALF, PEC)
    return maps


def test_c01_quadratic_form_equals_squared_dg_norm():
    # a(v; v) = |||v|||^2 on random meshes, both families, p <= 4
    rng = np.random.default_rng(101)
    nodes = np.linspace(0.0, 1.0, 9)[1:-1]
    checked = 0
    for m in range(10):
        x_l = float(rng.uniform(-1.5, 0.0))
        x_r = float(rng.uniform(0.5, 2.0))
        t_final = float(rng.uniform(0.5, 2.0))
        domain = SpaceTimeDomain(x_l, x_r, t_final)
        mat = MaterialLayout((), (float(rng.uniform(0.5, 3.0)),),
                             (float(rng.uniform(0.5, 3.0)),))
        n_slabs = int(rng.integers(1, 4))
        weights = rng.uniform(0.5, 1.5, n_slabs)
        heights = list(weights / weights.sum() * t_final)
        partitions = []
        for _ in range(n_slabs):
            k = int(rng.integers(0, 4))
            inner = np.sort(rng.choice(nodes, size=k, replace=False))
            partitions.append(x_l + (x_r - x_l) * np.concatenate([[0.0], inner, [1.0]]))
        mesh = build_mesh(domain, mat, heights, partitions)
        bc = PEC if m % 2 == 0 else BoundaryCondition.robin()
        for family in (TREFFTZ, FULL):
            spec = BasisSpec(family, int(rng.integers(0, 5)))
            flux = FluxParams(alpha=float(rng.uniform(0.2, 1.5)),
                              beta=float(rng.uniform(0.2, 1.5)),
                              delta=float(rng.uniform(0.1, 0.9)))
            _, n = global_layout(mesh, spec)
            for _ in range(3):
                v = rng.standard_normal(n)
                quad = apply_bilinear_global(mesh, spec, flux, bc, v, v)
                norm2 = dg_norm(
                    field_from_coefficients(mesh, spec, v, flux=flux, bc=bc),
                    flux=flux) ** 2
                assert abs(quad - norm2) <= 1e-10 * norm2
                checked += 1
    assert checked >= 50


def test_c02_transport_basis_functions_solve_the_pde():
    # both first-order residuals vanish at random interior points, p <= 6
    rng = np.random.default_rng(202)
    for _ in range(3):
        x_l = float(rng.uniform(-2.0, 0.0))
        hx, ht = rng.uniform(0.3, 3.0, 2)
        eps, mu = rng.uniform(0.3, 3.0, 2)
        mesh = uniform_mesh(SpaceTimeDomain(x_l, x_l + hx, ht),
                            MaterialLayout((), (float(eps),), (float(mu),)), 1, 1)
        x0, x1, t0, t1 = mesh.x0[0], mesh.x1[0], mesh.t0[0], mesh.t1[0]
        xs = rng.uniform(x0, x1, 25)
        ts = rng.uniform(t0, t1, 25)
        dx, dt = xs - 0.5 * (x0 + x1), ts - 0.5 * (t0 + t1)
        for p in range(7):
            basis = element_basis(mesh, BasisSpec(TREFFTZ, p), 0)
            f = basis.eval_derivatives(dx, dt)
            res = pde_residual(basis, dx, dt)
            for k in range(basis.n):
                ex, et, hx_, ht_ = (f[name][k] for name in ("Ex", "Et", "Hx", "Ht"))
                scale = max(np.abs(ex).max(), mesh.mu[0] * np.abs(ht_).max(),
                            np.abs(hx_).max(), mesh.eps[0] * np.abs(et).max())
                assert res[k] <= 1e-12 * max(scale, 1.0)


def test_c03_in_space_data_is_reproduced_exactly():
    # E0 = 0, H0 = 1 lies in the p = 0 transport space on every element
    mesh = uniform_mesh(DOMAIN, UNIT, 10, 10)
    data = InitialData(ZERO, Constant(1.0))
    sol = march(mesh, BasisSpec(TREFFTZ, 0), HALF, PEC, data)
    profile = CharacteristicProfile.pec(DOMAIN, ZERO, Constant(1.0))
    assert l2_relative_error(sol, profile) <= 1e-11


def test_c04_wave_aligned_h_rates_meet_the_degree(wall_h_sweep_errors):
    rates = {p: _fitted_rate(HS, [wall_h_sweep_errors[TREFFTZ, p, h] for h in HS])
             for p in (1, 2, 3)}
    low = {p: round(r, 3) for p, r in rates.items() if r < p + 0.9}
    assert not low, f"rates below degree+0.9: {low} (all: {rates})"


def test_c05_full_family_rates_split_by_degree_parity(h_sweep_errors):
    rate2 = _fitted_rate(HS, [h_sweep_errors[FULL, 2, h] for h in HS])
    assert rate2 >= 2.8, f"p=2: fitted rate {rate2:.3f} < 2.8"
    rate1 = _fitted_rate(HS, [h_sweep_errors[FULL, 1, h] for h in HS])
    # Fails by design: the L2 rate on this sweep measures ~1.96, above the
    # 1.5 ceiling, and the DG-norm rates (1.10 at p=1, 2.34 at p=2, both
    # trending to p + 1/2) show no odd-degree loss either.
    assert rate1 <= 1.5, f"p=1: fitted rate {rate1:.3f} > 1.5"


def test_c06_errors_decay_exponentially_in_degree(p_sweep_errors):
    logs = np.log(p_sweep_errors)
    ps = np.arange(len(logs))
    slope, intercept = np.polyfit(ps, logs, 1)
    span = logs.max() - logs.min()
    misfit = float(np.sqrt(np.mean((logs - (slope * ps + intercept)) ** 2)))
    problems = []
    if not all(b < a for a, b in zip(logs, logs[1:])):
        problems.append("log error not strictly decreasing")
    if not slope < 0:
        problems.append(f"fit slope {slope:.3f} not negative")
    if not misfit < 0.1 * span:
        problems.append(f"semilog misfit {misfit:.3f} vs span {span:.3f}")
    if not p_sweep_errors[10] <= 1e-6:
        problems.append(f"eps_q(p=10) = {p_sweep_errors[10]:.3e} > 1e-6")
    assert not problems, "; ".join(problems)


def test_c07_update_spectrum_stays_in_the_unit_disc(update_maps):
    for p in range(6):
        rho = spectrum(update_maps[TREFFTZ, p]).spectral_radius
        assert rho <= 1.0 + 1e-10, f"p={p}: spectral radius {rho!r}"


def test_c08_wave_aligned_update_is_better_conditioned(update_maps):
    cond_t = spectrum(update_maps[TREFFTZ, 5]).cond
    cond_f = spectrum(update_maps[FULL, 5]).cond
    assert cond_t < cond_f, f"cond {cond_t:.3e} !< {cond_f:.3e}"


def test_c09_marching_dissipates_and_balances_energy():
    mesh = mesh_from_spacing(DOMAIN, UNIT, 1.0, 1.0)
    sol = march(mesh, BasisSpec(TREFFTZ, 3), HALF, PEC, DATA)
    budget = energy_budget(sol, DATA)
    e0 = budget.initial_energy
    # the monotone chain runs over the interface traces from below; the
    # t = 0+ trace sits lower still (initial projection mismatch) and the
    # in-slab energy is not pointwise monotone
    _, energies = energy_trajectory(sol)
    assert energies[0] <= e0 + 1e-12 * e0
    assert all(b <= a + 1e-12 * e0 for a, b in zip(energies, energies[1:]))
    assert budget.residual <= 1e-9


@pytest.fixture(scope="module")
def flux_grid_errors():
    mesh = mesh_from_spacing(DOMAIN, UNIT, 1.0, 1.0)
    spec = BasisSpec(TREFFTZ, 2)
    grid = np.round(np.linspace(0.0, 1.0, 11), 10)
    errs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero penalties warn by design
        for a in grid:
            for b in grid:
                flux = FluxParams(alpha=float(a), beta=float(b))
                sol = march(mesh, spec, flux, PEC, DATA)
                errs[float(a), float(b)] = l2_relative_error(sol, PROFILE)
    return errs


def test_c10_accuracy_is_robust_across_the_penalty_grid(flux_grid_errors):
    vals = np.array(list(flux_grid_errors.values()))
    ratio = vals.max() / vals.min()
    assert ratio <= 4.0, f"max/min error ratio {ratio:.3f}"
    assert flux_grid_errors[0.5, 0.0] <= flux_grid_errors[0.5, 0.5]


def _first_slab_projection_error(h, p):
    mesh = mesh_from_spacing(DOMAIN, UNIT, h, h)
    rects = np.column_stack([mesh.x0, mesh.x1, mesh.t0, mesh.t1])[mesh.elem_grid[0]]
    total = sum(best_approximation_error(PROFILE, rect, p) ** 2 for rect in rects)
    return math.sqrt(total)


def test_c11_characteristic_projection_rates():
    for p in (1, 2, 3):
        errs = [_first_slab_projection_error(h, p) for h in HS]
        rate = _fitted_rate(HS, errs)
        assert rate >= p + 0.9, f"p={p}: projection rate {rate:.3f}"
    # degree range stops at p = 5: beyond it the aggregate hits the error
    # floor set by the datum's left-wall tail (see the module docstring)
    perrs = [_first_slab_projection_error(1.0, p) for p in range(6)]
    assert all(b < a for a, b in zip(perrs, perrs[1:]))
    assert perrs[5] <= 1e-4 * perrs[0]


def test_c12_absorbing_boundary_lets_the_packet_leave():
    # purely right-moving pulse: E0 = H0 so the left-moving part is zero
    domain = SpaceTimeDomain(0.0, 60.0, 80.0)
    mesh = mesh_from_spacing(domain, UNIT, 1.0, 1.0)
    spec = BasisSpec(TREFFTZ, 3)
    sol = march(mesh, spec, HALF, BoundaryCondition.robin(), DATA)
    e0 = energy_budget(sol, DATA).initial_energy
    times, energies = energy_trajectory(sol)
    late = [e for t, e in zip(times, energies) if t > 60.0 + 1e-9]
    assert late and max(late) <= 1e-4 * e0
    free = CharacteristicProfile.free_space(domain, GAUSS, GAUSS)
    eps_robin = l2_relative_error(sol, free)
    pec_sol = march(mesh_from_spacing(DOMAIN, UNIT, 1.0, 1.0), spec, HALF,
                    PEC, DATA)
    eps_pec = l2_relative_error(pec_sol, PROFILE)
    assert eps_robin <= 2.0 * eps_pec, f"{eps_robin:.3e} !<= 2x {eps_pec:.3e}"