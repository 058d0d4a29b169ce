"""The paper's structural identities as property tests on random meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from trefftzdg import (
    FAMILIES,
    FULL,
    BasisSpec,
    BoundaryCondition,
    FluxParams,
    GaussianPulse,
    InitialData,
    SpaceTimeDomain,
    apply_bilinear_global,
    assemble_global,
    assemble_slab,
    build_mesh,
    dg_norm,
    energy_budget,
    field_from_coefficients,
    global_layout,
    load_plan,
    march,
)

from conftest import random_meshes


@st.composite
def _problems(draw, homogeneous=False):
    """A random mesh with a random family, uniform or per-element degrees,
    penalties, and PEC or Robin walls, with incoming data unless homogeneous."""
    domain, materials, heights, parts = draw(random_meshes())
    mesh = build_mesh(domain, materials, heights, parts)
    family = draw(st.sampled_from(FAMILIES))
    degrees = st.integers(0, 3)
    if draw(st.booleans()):
        spec = BasisSpec(family, draw(degrees))
    else:
        spec = BasisSpec(family, dict(enumerate(
            draw(st.lists(degrees, min_size=mesh.n_elements, max_size=mesh.n_elements)))))
    flux = FluxParams(alpha=draw(st.floats(0.2, 1.5)), beta=draw(st.floats(0.2, 1.5)),
                      delta=draw(st.floats(0.1, 0.9)), per_face_scaling=draw(st.booleans()))
    t_final = domain.t_final
    bc = draw(st.sampled_from([
        BoundaryCondition.pec(),
        BoundaryCondition.robin() if homogeneous else BoundaryCondition.robin(
            g_l=lambda t: np.exp(-((t - 0.3 * t_final) / t_final) ** 2),
            g_r=lambda t: 0.5 * np.sin(t / t_final)),
    ]))
    return mesh, spec, flux, bc, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(_problems())
def test_march_is_the_global_solve_and_the_form_is_the_squared_norm(problem):
    mesh, spec, flux, bc, seed = problem
    domain = mesh.domain
    pulse = GaussianPulse(domain.x_l + 0.4 * domain.length, 0.2 * domain.length)
    data = InitialData(pulse, pulse)

    # slab march = forward substitution on the stacked global system
    sol = march(mesh, spec, flux, bc, data)
    system = assemble_global(mesh, spec, flux, bc, initial_data=data)
    want = np.linalg.solve(system.matrix, system.load)
    assert np.max(np.abs(sol.flat - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    # a(v; v) = |||v|||^2 for any coefficient vector v
    _, n = global_layout(mesh, spec)
    v = np.random.default_rng(seed).standard_normal(n)
    norm = dg_norm(field_from_coefficients(mesh, spec, v, flux=flux, bc=bc))
    assert apply_bilinear_global(mesh, spec, flux, bc, v, v) == pytest.approx(norm**2, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(_problems(homogeneous=True), st.booleans())
def test_the_discrete_energy_identity_holds(problem, pulse):
    # final energy = data energy - projection mismatch - jump and wall
    # losses, every loss a sum of squares. The identity is algebraic, and
    # the audit integrates the data with the march's own rule, so the
    # residual is rounding alone for polynomial and pulse data alike
    mesh, spec, flux, bc, _ = problem
    domain = mesh.domain

    def scaled(x):
        return (np.asarray(x, dtype=float) - domain.x_l) / domain.length

    if pulse:
        centre, width = domain.x_l + 0.4 * domain.length, 0.05 * domain.length**2
        data = InitialData(GaussianPulse(centre, width), GaussianPulse(centre, width, -0.5))
    else:
        data = InitialData(lambda x: 1.0 + scaled(x) - 2.0 * scaled(x) ** 3,
                           lambda x: 0.5 - scaled(x) ** 2)
    budget = energy_budget(march(mesh, spec, flux, bc, data), data)
    assert budget.residual <= 1e-12
    assert min(budget.initial_mismatch, budget.time_jump_loss,
               budget.space_jump_loss, budget.lateral_loss) >= 0.0


@settings(max_examples=60, deadline=None)
@given(random_meshes(), st.integers(2, 5), st.sampled_from(FAMILIES), st.integers(0, 3),
       st.sampled_from([BoundaryCondition.pec(), BoundaryCondition.robin()]))
def test_identical_slabs_give_bit_identical_matrices(case, n_slabs, family, p, bc):
    # one partition and height repeated: the march factors A_0 for every slab
    # and multiplies by R_1 on every interface, so A_j and R_j must equal them
    # bit for bit, whatever the height's rounding in the slab times
    domain, materials, heights, parts = case
    mesh = build_mesh(SpaceTimeDomain(domain.x_l, domain.x_r, sum([heights[0]] * n_slabs)),
                      materials, [heights[0]] * n_slabs, parts[0])
    assert mesh.identical_slabs
    spec, flux = BasisSpec(family, p), FluxParams()
    systems = [assemble_slab(mesh, j, spec, flux, bc) for j in range(n_slabs)]
    for system in systems[1:]:
        assert np.array_equal(system.A, systems[0].A)
        assert np.array_equal(system.R, systems[1].R)


@pytest.mark.parametrize("family, wall", [(family, wall) for family in FAMILIES
                                          for wall in ("pec", "robin", "dirichlet")]
                         + [(FULL, "robin+source")])
@settings(max_examples=15, deadline=None)
@given(random_meshes(), st.integers(1, 5), st.integers(0, 3))
def test_march_is_forward_substitution_on_each_slab_system(family, wall, case, n_slabs, p):
    # on identical slabs the march factors slab 1's A once, multiplies by its
    # R and computes every load from slab 1's load plan; every slab must still
    # get exactly the coefficients of its own operator's LU and R and its own
    # plan's b
    domain, materials, heights, parts = case
    heights = [heights[0]] * n_slabs
    mesh = build_mesh(SpaceTimeDomain(domain.x_l, domain.x_r, sum(heights)), materials,
                      heights, [parts[0]] * n_slabs)
    assert mesh.identical_slabs
    t_final = mesh.domain.t_final
    bc = BoundaryCondition.pec()
    if wall.startswith("robin"):
        bc = BoundaryCondition.robin(g_l=lambda t: np.exp(-((t - 0.3 * t_final) / t_final) ** 2),
                                     g_r=lambda t: 0.5 * np.sin(t / t_final))
    elif wall == "dirichlet":
        bc = BoundaryCondition.dirichlet(lambda t: np.cos(t / t_final),
                                         lambda t: 0.2 * t / t_final)
    source = None
    if wall.endswith("source"):
        source = lambda x, t: np.cos(x / domain.length) * np.exp(-t / t_final)
    spec, flux = BasisSpec(family, p), FluxParams()
    pulse = GaussianPulse(domain.x_l + 0.4 * domain.length, 0.2 * domain.length)
    data = InitialData(pulse, pulse)

    sol = march(mesh, spec, flux, bc, data, source=source)
    x = None
    for j in range(mesh.n_slabs):
        system = assemble_slab(mesh, j, spec, flux, bc)
        b = load_plan(mesh, j, spec, flux, bc, initial_data=data, source=source)(j)
        lu = linalg.lu_factor(system.A)
        x = linalg.lu_solve(lu, b if j == 0 else system.R @ x + b)
        assert np.array_equal(sol.coefficients[j], x)
