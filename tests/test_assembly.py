"""Slab/global assembly: frozen oracles, exact reproduction, guard rails."""

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
    FaceKind,
    FluxParams,
    InitialData,
    MaterialLayout,
    SpaceTimeDomain,
    apply_bilinear_global,
    assemble_global,
    assemble_slab,
    build_mesh,
    dg_norm,
    field_from_coefficients,
    global_layout,
    l2_relative_error,
    load_plan,
    march,
    solver,
    uniform_mesh,
)
from trefftzdg.errors import DimensionMismatch, MismatchedDomain, TrefftzWithSource

UNIT = MaterialLayout.constant()


def _unit_square_mesh(n_x=1, n_t=1):
    return uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, n_x, n_t)


def test_single_element_constant_field_oracle():
    # hand-checked 2x2 system for the lowest-order pair on the unit square:
    # both transport constants see mass 2 on the top edge plus 1 from the
    # conducting walls, and the walls couple them with weight 1
    mesh = _unit_square_mesh()
    spec, flux, bc = BasisSpec(TREFFTZ, 0), FluxParams(), BoundaryCondition.pec()
    system = assemble_slab(mesh, 0, spec, flux, bc)
    b = load_plan(mesh, 0, spec, flux, bc, initial_data=InitialData(
        lambda x: np.zeros_like(x), lambda x: np.ones_like(x)))(0)
    assert np.allclose(system.A, [[3.0, 1.0], [1.0, 3.0]], atol=1e-13)
    assert np.allclose(b, [1.0, -1.0], atol=1e-13)
    c = np.linalg.solve(system.A, b)
    assert np.allclose(c, [0.5, -0.5], atol=1e-13)
    assert system.R.shape == (2, 0)
    assert system.n_prev == 0


def test_first_slab_requires_initial_data():
    mesh = _unit_square_mesh()
    load = load_plan(mesh, 0, BasisSpec(TREFFTZ, 0), FluxParams(), BoundaryCondition.pec())
    with pytest.raises(MismatchedDomain):
        load(0)


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
@pytest.mark.parametrize("bc_kind", ["pec", "robin"])
def test_quadratic_form_equals_squared_dg_norm(family, bc_kind):
    # a(v; v) reproduces the squared mesh-dependent norm of v exactly
    mesh = build_mesh(SpaceTimeDomain(0.0, 2.0, 1.5), UNIT, [0.5, 1.0],
                      [np.array([0.0, 0.7, 2.0]), np.array([0.0, 1.0, 1.6, 2.0])])
    spec = BasisSpec(family, 2)
    flux = FluxParams(alpha=0.4, beta=0.7, delta=0.3)
    bc = BoundaryCondition.pec() if bc_kind == "pec" else BoundaryCondition.robin()
    _, n = global_layout(mesh, spec)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(n)
        quad = apply_bilinear_global(mesh, spec, flux, bc, v, v)
        norm = dg_norm(field_from_coefficients(mesh, spec, v, flux=flux, bc=bc),
                       flux=flux)
        assert quad == pytest.approx(norm**2, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("scaling", [False, True])
def test_slab_operator_and_load_plan_are_translation_invariant(scaling):
    # what the march relies on: on identical slabs A_j = A_0 and R_j = R_1 bit
    # for bit, and slab 1's load plan gives every slab's own b_j, slab 0's
    # initial-data term included
    layered = MaterialLayout((1.0,), (1.0, 2.5), (1.0, 0.6))
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 2.0), layered, 4, 4)
    flux = FluxParams(alpha=0.3, beta=0.6, per_face_scaling=scaling)
    bc = BoundaryCondition.robin(g_l=lambda t: np.exp(-(t - 1.0) ** 2),
                                 g_r=lambda t: 0.2 * np.sin(3.0 * t))
    data = InitialData(lambda x: np.sin(np.pi * x), lambda x: np.cos(x))
    for family, source in ((TREFFTZ, None), (FULL, lambda x, t: x * np.exp(-t))):
        spec = BasisSpec(family, 2)
        systems = [assemble_slab(mesh, j, spec, flux, bc) for j in range(mesh.n_slabs)]
        shared = load_plan(mesh, 1, spec, flux, bc, initial_data=data, source=source)
        loads = [load_plan(mesh, j, spec, flux, bc, initial_data=data, source=source)(j)
                 for j in range(mesh.n_slabs)]
        for j, system in enumerate(systems):
            assert np.array_equal(system.A, systems[0].A)
            if j >= 1:
                assert np.array_equal(system.R, systems[1].R)
            assert np.array_equal(shared(j), loads[j])
        assert not np.array_equal(loads[2], loads[3])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_trefftz_slab_matrix_couples_u_from_the_left_and_w_from_the_right(p):
    # alpha = beta = 1/2 with unit materials is the upwind flux: inside the
    # slab the right-moving u and the left-moving w decouple, and each
    # element sees only u of its left and w of its right neighbour
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 5.0, 2.0), UNIT, 5, 2)
    m, q = 2 * p + 2, p + 1
    A = assemble_slab(mesh, 1, BasisSpec(TREFFTZ, p), FluxParams(alpha=0.5, beta=0.5),
                      BoundaryCondition.pec()).A

    def block(row, col):
        return A[row * m:(row + 1) * m, col * m:(col + 1) * m]

    for k in range(1, 4):
        diag, left, right = block(k, k), block(k, k - 1), block(k, k + 1)
        assert not diag[:q, q:].any() and not diag[q:, :q].any()
        assert not left[q:, :].any() and not left[:, q:].any() and left[:q, :q].any()
        assert not right[:q, :].any() and not right[:, :q].any() and right[q:, q:].any()
        assert not block(k, k + 2).any() and not block(k + 1, k - 1).any()


def _linear_profile():
    # u(x - t) = x - t and w(x + t) = 2(x + t) + 1 give the linear fields
    # E = (3x + t + 1) / 2 and H = (-x - 3t - 1) / 2
    return CharacteristicProfile(
        1.0, 1.0,
        u0=lambda z: np.asarray(z, dtype=float),
        w0=lambda z: 2.0 * np.asarray(z, dtype=float) + 1.0,
    )


def _linear_data():
    return InitialData(lambda x: (3.0 * x + 1.0) / 2.0,
                       lambda x: (-x - 1.0) / 2.0)


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_linear_solution_reproduced_with_dirichlet_walls(family):
    prof = _linear_profile()
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 2)
    bc = BoundaryCondition.dirichlet(
        e_l=lambda t: (t + 1.0) / 2.0, e_r=lambda t: (t + 7.0) / 2.0
    )
    sol = march(mesh, BasisSpec(family, 1), FluxParams(), bc, _linear_data())
    assert l2_relative_error(sol, prof) <= 1e-11


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_linear_solution_reproduced_with_impedance_walls(family):
    prof = _linear_profile()
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 2)
    bc = BoundaryCondition.robin(
        g_l=lambda t: -np.asarray(t, dtype=float),           # u(0, t)
        g_r=lambda t: 2.0 * np.asarray(t, dtype=float) + 5.0  # w(2, t)
    )
    sol = march(mesh, BasisSpec(family, 1), FluxParams(delta=0.35), bc, _linear_data())
    assert l2_relative_error(sol, prof) <= 1e-11


def test_higher_degree_keeps_linear_solution_exact():
    prof = _linear_profile()
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 3, 2)
    bc = BoundaryCondition.dirichlet(
        e_l=lambda t: (t + 1.0) / 2.0, e_r=lambda t: (t + 7.0) / 2.0
    )
    for family, p in ((TREFFTZ, 3), (FULL, 2)):
        sol = march(mesh, BasisSpec(family, p), FluxParams(), bc, _linear_data())
        assert l2_relative_error(sol, prof) <= 1e-10


def test_source_rejected_for_transport_spaces(monkeypatch):
    mesh = _unit_square_mesh()
    with pytest.raises(TrefftzWithSource):
        load_plan(mesh, 0, BasisSpec(TREFFTZ, 1), FluxParams(),
                  BoundaryCondition.pec(), initial_data=InitialData.zero(),
                  source=lambda x, t: np.ones_like(x))
    with pytest.raises(TrefftzWithSource):
        assemble_global(mesh, BasisSpec(TREFFTZ, 1), FluxParams(),
                        BoundaryCondition.pec(), initial_data=InitialData.zero(),
                        source=lambda x, t: np.ones_like(x))
    # the march rejects it before it assembles any slab
    assembled = []

    def counting(mesh, slab, *args, **kwargs):
        assembled.append(slab)
        return assemble_slab(mesh, slab, *args, **kwargs)

    monkeypatch.setattr(solver, "assemble_slab", counting)
    with pytest.raises(TrefftzWithSource):
        march(mesh, BasisSpec(TREFFTZ, 1), FluxParams(), BoundaryCondition.pec(),
              InitialData.zero(), source=lambda x, t: np.ones_like(x))
    assert assembled == []


class _ManufacturedSource:
    """E = t x (1 - x), H = -t^2 (1 - 2x) / 2 solves the system with
    J = t^2 + x (1 - x), zero data, and conducting walls."""

    def evaluate(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return t * x * (1.0 - x), -0.5 * t**2 * (1.0 - 2.0 * x)

    def trace(self, x, t, side=None):
        return self.evaluate(x, t)


def test_volume_source_reproduces_manufactured_solution():
    # cubic exact fields: the degree-3 full space must capture them exactly,
    # pinning the source term to the electric test slot
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 2, 2)
    sol = march(mesh, BasisSpec(FULL, 3), FluxParams(), BoundaryCondition.pec(),
                InitialData.zero(), source=lambda x, t: t**2 + x * (1.0 - x))
    assert l2_relative_error(sol, _ManufacturedSource()) <= 1e-11
    assert dg_norm(sol) > 0.0


def test_quadratic_form_checks_vector_lengths():
    mesh = _unit_square_mesh()
    spec = BasisSpec(TREFFTZ, 1)
    with pytest.raises(DimensionMismatch):
        apply_bilinear_global(mesh, spec, FluxParams(), BoundaryCondition.pec(),
                              np.zeros(3), np.zeros(3))


def test_flux_parameter_validation():
    with pytest.raises(MismatchedDomain):
        FluxParams(alpha=-0.1)
    with pytest.raises(MismatchedDomain):
        FluxParams(delta=0.0)
    with pytest.raises(MismatchedDomain):
        FluxParams(delta=1.0)
    with pytest.warns(UserWarning):
        FluxParams(alpha=0.0, beta=0.5)


def test_robin_weights_are_the_impedance_pair():
    # (1 - delta) / z on E and delta z on H, with z = sqrt(mu / eps)
    flux = FluxParams(delta=0.25)
    weight_e, weight_h = flux.robin_weights(np.array([1.0, 4.0]), np.array([1.0, 1.0]))
    assert weight_e.tolist() == [0.75, 1.5]
    assert weight_h.tolist() == [0.25, 0.125]


def test_face_scaled_penalties_track_local_size_and_materials():
    layered = MaterialLayout((1.0,), (4.0, 1.0), (1.0, 2.0))
    mesh = build_mesh(SpaceTimeDomain(0.0, 2.0, 0.5), layered, [0.5],
                      [np.array([0.0, 0.5, 1.0, 2.0])])
    flux = FluxParams(alpha=0.5, beta=0.5, per_face_scaling=True)
    assert mesh.hx_max == 1.0
    ver = mesh.face_tables[FaceKind.VER_INTERNAL]
    by_pos = dict(zip(ver.pos.tolist(), ver.elements[:, None]))
    # interface at x=0.5 inside the eps=4 region: h_f = 0.5, eps_f = 4
    assert flux.penalties(mesh, by_pos[0.5])[0][0] == pytest.approx(0.5 * (1.0 / 0.5) * 4.0)
    # material interface at x=1: h_f = min(0.5, 1) and worst-case material
    alpha, beta = flux.penalties(mesh, by_pos[1.0])
    assert alpha[0] == pytest.approx(0.5 * (1.0 / 0.5) * 4.0)
    assert beta[0] == pytest.approx(0.5 * (1.0 / 0.5) * 2.0)
    # boundary face on the wide right element
    right = mesh.face_tables[FaceKind.RIGHT].elements[:1]
    assert flux.penalties(mesh, right)[0][0] == pytest.approx(0.5 * (1.0 / 1.0) * 1.0)
    # scaling off: plain constants everywhere
    plain = FluxParams(alpha=0.5, beta=0.5)
    assert plain.penalties(mesh, by_pos[1.0])[0][0] == 0.5


def test_boundary_condition_kinds():
    assert BoundaryCondition.pec().homogeneous
    assert BoundaryCondition.robin().homogeneous
    assert not BoundaryCondition.dirichlet(lambda t: t, lambda t: t).homogeneous
    with pytest.raises(MismatchedDomain):
        BoundaryCondition("absorbing")


def test_boundary_condition_holds_one_data_pair():
    f, g = (lambda t: t), (lambda t: 2.0 * t)
    bc = BoundaryCondition.robin(g_l=f)
    assert bc.left is f and bc.right == ZERO and not bc.homogeneous
    bc = BoundaryCondition.dirichlet(e_l=f, e_r=g)
    assert bc.left is f and bc.right is g
    # conducting walls carry no data: any given is an error, not ignored
    for left, right in ((f, ZERO), (ZERO, g)):
        with pytest.raises(MismatchedDomain):
            BoundaryCondition("pec", left, right)
    assert BoundaryCondition("pec", ZERO, Constant(0.0)).homogeneous
