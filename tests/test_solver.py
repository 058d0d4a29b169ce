"""Marching, update operator, spectra, and discrete-field evaluation."""

import tracemalloc

import numpy as np
import pytest

from trefftzdg import (
    FULL,
    TREFFTZ,
    BasisSpec,
    BoundaryCondition,
    CharacteristicProfile,
    ElementBasis,
    FluxParams,
    GaussianPulse,
    InitialData,
    MaterialLayout,
    SpaceTimeDomain,
    assemble_global,
    assemble_slab,
    build_mesh,
    element_basis,
    global_coefficients,
    global_layout,
    l2_relative_error,
    march,
    spectrum,
    uniform_mesh,
    update_matrix,
)
from trefftzdg import solver
from trefftzdg.errors import (
    InhomogeneousSlabs, MismatchedDomain, SingularSlabMatrix, UnsupportedBC,
)

from conftest import locate

UNIT = MaterialLayout.constant()


def test_constant_field_is_marched_exactly():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 3.0, 2.0), UNIT, 3, 4)
    data = InitialData(lambda x: np.zeros_like(x), lambda x: np.ones_like(x))
    sol = march(mesh, BasisSpec(TREFFTZ, 0), FluxParams(), BoundaryCondition.pec(), data)
    x = np.linspace(0.1, 2.9, 7)
    for t in (0.3, 1.0, 1.9):
        E, H = sol.evaluate(x, np.full_like(x, t))
        assert np.max(np.abs(E)) <= 1e-13
        assert np.max(np.abs(H - 1.0)) <= 1e-13


def test_zero_data_gives_zero_field():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 2)
    for family in (TREFFTZ, FULL):
        sol = march(mesh, BasisSpec(family, 2), FluxParams(),
                    BoundaryCondition.pec(), InitialData.zero())
        assert max(float(np.abs(c).max()) for c in sol.coefficients) <= 1e-14


def test_marching_is_deterministic():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 4.0, 2.0), UNIT, 4, 2)
    data = InitialData(GaussianPulse(2.0, 0.5), GaussianPulse(2.0, 0.5))
    args = (mesh, BasisSpec(TREFFTZ, 3), FluxParams(), BoundaryCondition.pec(), data)
    a = march(*args)
    b = march(*args)
    for ca, cb in zip(a.coefficients, b.coefficients):
        assert np.array_equal(ca, cb)


def _hanging_two_material_mesh():
    # hanging nodes across both slab interfaces, eps and mu jumping at x = 1
    materials = MaterialLayout((1.0,), (1.0, 2.5), (1.0, 0.6))
    return build_mesh(SpaceTimeDomain(0.0, 2.0, 1.5), materials, [0.5, 0.4, 0.6],
                      [np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 2.0]),
                       np.array([0.0, 0.4, 1.0, 1.7, 2.0])])


@pytest.mark.parametrize("family, case", [
    pytest.param(TREFFTZ, "dirichlet", id="trefftz"),
    pytest.param(FULL, "dirichlet", id="full"),
    pytest.param(TREFFTZ, "hanging", id="hanging-robin-trefftz"),
    pytest.param(FULL, "hanging", id="hanging-robin-full"),
    pytest.param(FULL, "source", id="full-source-robin"),
])
def test_slab_march_matches_monolithic_solve(family, case):
    # the slab forward sweep must reproduce the one-shot dense space-time solve
    source = None
    if case == "hanging":
        # mixed degrees 1..3 and wall data: march refactors and reloads every slab
        mesh = _hanging_two_material_mesh()
        spec = BasisSpec(family, {i: 1 + i % 3 for i in range(mesh.n_elements)})
        bc = BoundaryCondition.robin(g_l=GaussianPulse(0.5, 0.05),
                                     g_r=lambda t: 0.2 * np.sin(3.0 * t))
    elif case == "source":
        # identical slabs: from slab 2 on the march computes only the load,
        # which carries both the wall data and the volume source
        mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 2.5), UNIT, 2, 5)
        spec = BasisSpec(family, 2)
        bc = BoundaryCondition.robin(g_l=GaussianPulse(0.5, 0.05),
                                     g_r=lambda t: 0.2 * np.sin(3.0 * t))
        source = lambda x, t: np.cos(3.0 * x) * np.exp(-t)
    else:
        mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.5), UNIT, 2, 3)
        spec = BasisSpec(family, 2)
        bc = BoundaryCondition.dirichlet(e_l=lambda t: np.sin(t), e_r=lambda t: 0.0 * t)
    flux = FluxParams(alpha=0.3, beta=0.6)
    data = InitialData(GaussianPulse(1.0, 0.2), GaussianPulse(1.0, 0.2, -1.0))
    sol = march(mesh, spec, flux, bc, data, source=source)
    system = assemble_global(mesh, spec, flux, bc, initial_data=data, source=source)
    direct = np.linalg.solve(system.matrix, system.load)
    stacked = global_coefficients(sol)
    scale = np.abs(direct).max()
    assert np.abs(stacked - direct).max() <= 1e-9 * scale
    # without initial data, the first slab sees zero fields
    bare = assemble_global(mesh, spec, flux, bc, source=source)
    zero = assemble_global(mesh, spec, flux, bc, initial_data=InitialData.zero(), source=source)
    assert np.array_equal(bare.matrix, system.matrix) and np.array_equal(bare.load, zero.load)


@pytest.mark.parametrize("bc", [
    pytest.param(BoundaryCondition.pec(), id="pec"),
    pytest.param(BoundaryCondition.robin(g_l=GaussianPulse(0.5, 0.05),
                                         g_r=lambda t: 0.2 * np.sin(3.0 * t)), id="robin-data"),
])
def test_march_assembles_the_slab_operator_once_on_identical_slabs(monkeypatch, bc):
    assembled = []

    def counting(mesh, slab, *args, **kwargs):
        assembled.append(slab)
        return assemble_slab(mesh, slab, *args, **kwargs)

    monkeypatch.setattr(solver, "assemble_slab", counting)
    flux = FluxParams()
    data = InitialData(GaussianPulse(1.0, 0.2), GaussianPulse(1.0, 0.2))
    for n_t in (3, 6):
        mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 0.5 * n_t), UNIT, 2, n_t)
        assembled.clear()
        march(mesh, BasisSpec(TREFFTZ, 2), flux, bc, data)
        assert assembled == [1]
        # per-element degrees: every slab assembles and factors its own system
        assembled.clear()
        march(mesh, BasisSpec(TREFFTZ, {i: 1 + i % 2 for i in range(mesh.n_elements)}),
              flux, bc, data)
        assert assembled == list(range(n_t))
    mesh = _hanging_two_material_mesh()
    assembled.clear()
    march(mesh, BasisSpec(TREFFTZ, 2), flux, bc, data)
    assert assembled == list(range(mesh.n_slabs))


@pytest.mark.parametrize("per_element", [False, True], ids=["reused", "per-slab"])
def test_march_factors_in_place_and_frees_each_slab(per_element):
    # slabs of n dofs. Each slab's LU overwrites its A, R stays its interface
    # blocks, and slab j - 1's LU is freed before slab j assembles, so one
    # n x n array, the in-place LU, lives at once, on identical slabs (slab
    # 1's A, factored once, serves every slab) as with per-element degrees.
    # The march peaks near 1.09 of them; a dense R or any other n x n
    # temporary, even a boolean one (1/8), shows above 1.15.
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 60.0, 2.0), UNIT, 120, 4)
    spec = BasisSpec(TREFFTZ, {i: 3 for i in range(mesh.n_elements)} if per_element else 3)
    n = 120 * spec.dim_for(0)
    data = InitialData(GaussianPulse(10.0, 4.0), GaussianPulse(10.0, 4.0))
    tracemalloc.start()
    try:
        sol = march(mesh, spec, FluxParams(), BoundaryCondition.pec(), data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.coefficients[0].size == n
    assert peak <= 1.15 * 8 * n * n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(3, 0), (0, 3)], ids=["lower", "upper"])
def test_factor_rejects_a_non_finite_lu_entry(monkeypatch, bad, entry):
    # off the diagonal, so the pivot ratio alone would pass
    A = np.eye(4) + 0.1
    lu_factor = solver.linalg.lu_factor
    assert solver._factor(np.asfortranarray(A))[0].shape == (4, 4)

    def poisoned(a, **kwargs):
        lu, piv = lu_factor(a, **kwargs)
        lu[entry] = bad
        return lu, piv

    monkeypatch.setattr(solver.linalg, "lu_factor", poisoned)
    with pytest.raises(SingularSlabMatrix):
        solver._factor(np.asfortranarray(A))


def test_update_operator_advances_the_march():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 3.0, 2.0), UNIT, 3, 2)
    spec = BasisSpec(TREFFTZ, 2)
    U = update_matrix(mesh, spec, FluxParams(), BoundaryCondition.pec())
    n = 3 * (2 * 2 + 2)
    assert U.shape == (n, n)
    data = InitialData(GaussianPulse(1.5, 0.3), GaussianPulse(1.5, 0.3))
    sol = march(mesh, spec, FluxParams(), BoundaryCondition.pec(), data)
    f0, f1 = sol.coefficients
    scale = max(np.abs(f1).max(), 1.0)
    assert np.abs(U @ f0 - f1).max() <= 1e-12 * scale


def test_update_operator_preconditions():
    spec = BasisSpec(TREFFTZ, 1)
    one_slab = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 2, 1)
    with pytest.raises(InhomogeneousSlabs):
        update_matrix(one_slab, spec, FluxParams(), BoundaryCondition.pec())
    uneven = build_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, [0.4, 0.6],
                        [np.array([0.0, 0.5, 1.0])] * 2)
    with pytest.raises(InhomogeneousSlabs):
        update_matrix(uneven, spec, FluxParams(), BoundaryCondition.pec())
    two_slab = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 2, 2)
    with pytest.raises(UnsupportedBC):
        update_matrix(two_slab, spec, FluxParams(),
                      BoundaryCondition.dirichlet(lambda t: t, lambda t: t))


def test_spectrum_of_known_matrices():
    s = spectrum(np.eye(3))
    assert np.allclose(s.eigenvalues, [1.0, 1.0, 1.0])
    assert s.spectral_radius == pytest.approx(1.0)
    assert s.cond == pytest.approx(1.0)
    # rotation: conjugate pair on the unit circle, ordered by angle
    s = spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert s.spectral_radius == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(sorted(s.eigenvalues.imag), [-1.0, 1.0])
    assert s.eigenvalues[0].imag == pytest.approx(-1.0)
    # scaling: radius and cond follow the largest/smallest singular values
    s = spectrum(np.diag([2.0, 0.5]))
    assert s.spectral_radius == pytest.approx(2.0)
    assert s.cond == pytest.approx(4.0)


def test_traces_are_one_sided_on_the_skeleton():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 2)
    data = InitialData(GaussianPulse(1.0, 0.2), GaussianPulse(1.0, 0.2))
    sol = march(mesh, BasisSpec(TREFFTZ, 1), FluxParams(), BoundaryCondition.pec(), data)
    x = np.array([0.3, 1.4])
    below = sol.trace(x, np.full_like(x, 0.5), side="below")
    above = sol.trace(x, np.full_like(x, 0.5), side="above")
    jump = np.abs(below[0] - above[0]) + np.abs(below[1] - above[1])
    assert jump.max() > 1e-8    # coarse discrete field is discontinuous in time
    t = np.array([0.25, 0.75])
    left = sol.trace(np.full_like(t, 1.0), t, side="left")
    right = sol.trace(np.full_like(t, 1.0), t, side="right")
    jump = np.abs(left[0] - right[0]) + np.abs(left[1] - right[1])
    assert jump.max() > 1e-8
    # off the skeleton both limits agree with plain evaluation
    assert sol.trace(0.7, 0.3, side="below") == sol.evaluate(0.7, 0.3)


def test_trace_rejects_an_unknown_side():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 2)
    data = InitialData(GaussianPulse(1.0, 0.2), GaussianPulse(1.0, 0.2))
    sol = march(mesh, BasisSpec(TREFFTZ, 1), FluxParams(), BoundaryCondition.pec(), data)
    with pytest.raises(MismatchedDomain, match=r"\('below', 'above', 'left', 'right'\).*'belo'"):
        sol.trace(np.array([0.3, 1.4]), np.full(2, 0.5), side="belo")
    with pytest.raises(MismatchedDomain, match="'lft'"):
        sol.evaluate(1.0, 0.25, x_side="lft")


def test_scalar_and_array_evaluation_agree():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 1)
    data = InitialData(GaussianPulse(1.0, 0.3), GaussianPulse(1.0, 0.3))
    sol = march(mesh, BasisSpec(TREFFTZ, 2), FluxParams(), BoundaryCondition.pec(), data)
    E, H = sol.evaluate(0.6, 0.4)
    assert isinstance(E, float) and isinstance(H, float)
    Ev, Hv = sol.evaluate(np.array([0.6]), np.array([0.4]))
    assert Ev[0] == E and Hv[0] == H
    grid = sol.evaluate(np.linspace(0.1, 1.9, 4)[:, None],
                        np.linspace(0.1, 0.9, 3)[None, :])
    assert grid[0].shape == (4, 3)
    for shape in ((0,), (0, 3)):
        E, H = sol.evaluate(np.zeros(shape), np.zeros(shape))
        assert E.shape == H.shape == shape


def test_error_decreases_with_degree():
    # wall tails of the wide pulse cap the attainable accuracy, so only the
    # low-degree range is probed; deep decay is covered by the p-sweep study
    domain = SpaceTimeDomain(0.0, 2.0, 1.0)
    pulse = GaussianPulse(1.0, 0.4)
    prof = CharacteristicProfile.pec(domain, pulse, pulse)
    mesh = uniform_mesh(domain, UNIT, 4, 2)
    errs = []
    for p in range(4):
        sol = march(mesh, BasisSpec(TREFFTZ, p), FluxParams(),
                    BoundaryCondition.pec(), InitialData(pulse, pulse))
        errs.append(l2_relative_error(sol, prof))
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
    assert errs[-1] < 0.1 * errs[0]


def test_variable_degree_march_runs():
    # per-element degrees disable slab reuse; the sweep must still work
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, 2, 2)
    degrees = {0: 1, 1: 2, 2: 2, 3: 1}
    spec = BasisSpec(TREFFTZ, degrees)
    data = InitialData(GaussianPulse(1.0, 0.3), GaussianPulse(1.0, 0.3))
    sol = march(mesh, spec, FluxParams(), BoundaryCondition.pec(), data)
    assert sol.coefficients[0].size == spec.dim_for(0) + spec.dim_for(1)
    E, H = sol.evaluate(1.2, 0.8)
    assert np.isfinite(E) and np.isfinite(H)

def test_evaluate_matches_per_point_location_on_hanging_mesh():
    domain = SpaceTimeDomain(0.0, 2.0, 1.5)
    parts = [np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 2.0]),
             np.array([0.0, 0.4, 1.0, 1.7, 2.0])]
    mesh = build_mesh(domain, UNIT, [0.5, 0.4, 0.6], parts)
    pulse = GaussianPulse(0.8, 0.1)
    sol = march(mesh, BasisSpec(TREFFTZ, 2), FluxParams(), BoundaryCondition.pec(),
                InitialData(pulse, pulse))
    xs = np.unique(np.concatenate(parts + [np.array([0.3, 1.5])]))
    X, T = (a.ravel() for a in np.meshgrid(xs, np.concatenate([mesh.slab_times, [0.7]])))
    for t_side in (None, "below", "above"):
        for x_side in (None, "left", "right"):
            E, H = sol.evaluate(X, T, t_side=t_side, x_side=x_side)
            for k in range(X.size):
                i = locate(mesh, X[k], T[k], t_side=t_side, x_side=x_side)
                f = element_basis(mesh, sol.spec, i).eval_local(
                    X[k:k + 1] - 0.5 * (mesh.x0[i] + mesh.x1[i]),
                    T[k:k + 1] - 0.5 * (mesh.t0[i] + mesh.t1[i]))
                c = sol.element_coefficients(i)
                assert E[k] == pytest.approx(float(c @ f["E"][:, 0]), rel=1e-14, abs=1e-15)
                assert H[k] == pytest.approx(float(c @ f["H"][:, 0]), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
@pytest.mark.parametrize("points", [1, 2, 3, 4, 5, 8])
def test_traces_are_each_elements_own_contraction_bit_for_bit(monkeypatch, points, family):
    # however the rows are stacked, each is the product c @ F of its element
    # alone, with F a contiguous table: the bits the DG norm and evaluate sum
    domain = SpaceTimeDomain(0.0, 2.0, 1.5)
    parts = [np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 2.0]),
             np.array([0.0, 0.4, 1.0, 1.7, 2.0])]
    mesh = build_mesh(domain, MaterialLayout((1.0,), (1.0, 2.5), (1.0, 0.6)), [0.5, 0.4, 0.6],
                      parts)
    spec = BasisSpec(family, {i: 1 + i % 3 for i in range(mesh.n_elements)})
    _, n = global_layout(mesh, spec)
    sol = solver.SolutionField(mesh, spec, None, None, np.random.default_rng(4).standard_normal(n))
    rng = np.random.default_rng(points)
    ids = rng.integers(0, mesh.n_elements, 40)
    dx, dt = rng.uniform(-0.3, 0.3, (2, 40, points))
    E, H = sol.traces(ids, dx, dt)
    for r, i in enumerate(ids):
        f = element_basis(mesh, spec, i).eval_local(dx[r], dt[r])
        c = sol.element_coefficients(i)
        assert E[r].tobytes() == (c @ f["E"]).tobytes()
        assert H[r].tobytes() == (c @ f["H"]).tobytes()
    # stacked hands on eval_local's own tables, each row's (n, m) contiguous
    tables, eval_local = [], ElementBasis.eval_local

    def recorded(basis, dx, dt):
        tables.append(eval_local(basis, dx, dt))
        return tables[-1]

    monkeypatch.setattr(ElementBasis, "eval_local", recorded)
    basis = element_basis(mesh, spec, 0)
    f = basis.stacked(dx, dt)
    [g] = tables
    for name in ("E", "H"):
        assert f[name].shape == (40, basis.n, points) and f[name].flags.c_contiguous
        assert g[name].shape == (basis.n, 40, points)
        assert np.shares_memory(f[name], g[name])
        assert f[name].transpose(1, 0, 2).tobytes() == np.ascontiguousarray(g[name]).tobytes()


def test_solve_is_lu_solve_bit_for_bit():
    # the march's getrs call gives lu_solve's bytes, for one load and for R
    rng = np.random.default_rng(7)
    A = rng.standard_normal((9, 9)) + 9.0 * np.eye(9)
    factor = solver._factor(np.asfortranarray(A))
    reference = solver.linalg.lu_factor(A)
    for b in (rng.standard_normal(9), rng.standard_normal((9, 5))):
        x = solver._solve(factor, b)
        assert x.tobytes() == solver.linalg.lu_solve(reference, b).tobytes()


@pytest.mark.parametrize("family, degree, n_x, per_element", [
    pytest.param(TREFFTZ, 3, 240, False, id="trefftz-3"),
    pytest.param(FULL, 2, 60, False, id="full-2"),
    pytest.param(TREFFTZ, 3, 240, True, id="per-element-3"),
])
def test_coupling_product_is_the_dense_product_bit_for_bit(family, degree, n_x, per_element):
    # on identical partitions each row of R holds one interface block, so the
    # block product is the dense row's gemv without its exact zero products:
    # the same bytes for the benchmark's spaces and slab widths
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 60.0, 0.5), UNIT, n_x, 2)
    spec = BasisSpec(family, {i: degree for i in range(mesh.n_elements)}
                     if per_element else degree)
    R = assemble_slab(mesh, 1, spec, FluxParams(), BoundaryCondition.pec()).R
    dense = np.asarray(R)
    n = n_x * spec.dim_for(0)
    assert R.shape == dense.shape == (n, n)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(n)
        assert (R @ x).tobytes() == (dense @ x).tobytes()


def _coarsening_mesh():
    # each upper element lies on two lower ones of its own signature, so one
    # part of R targets its rows twice
    return build_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, [0.5, 0.5],
                      [np.array([0.0, 0.5, 1.0, 1.5, 2.0]), np.array([0.0, 1.0, 2.0])])


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
@pytest.mark.parametrize("mixed", [False, True], ids=["p2", "mixed"])
@pytest.mark.parametrize("build", [_hanging_two_material_mesh, _coarsening_mesh],
                         ids=["two-material", "coarsening"])
def test_coupling_product_on_hanging_nodes_is_the_dense_product_to_rounding(
        build, family, mixed):
    # a row of R on a hanging interface holds one block per element below
    # it; the parts add those blocks' products in their own order
    mesh = build()
    spec = BasisSpec(family, {i: 1 + i % 3 for i in range(mesh.n_elements)} if mixed else 2)
    rng = np.random.default_rng(6)
    for slab in range(1, mesh.n_slabs):
        R = assemble_slab(mesh, slab, spec, FluxParams(), BoundaryCondition.pec()).R
        dense = np.asarray(R)
        assert dense.shape == R.shape
        for _ in range(3):
            x = rng.standard_normal(R.shape[1])
            y = dense @ x
            assert np.abs(R @ x - y).max() <= 1e-15 * np.abs(y).max()


def _three_below_mesh():
    # an upper element over three lower ones of three widths: its rows of R
    # add three parts' products, so the order of the additions shows
    return build_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, [0.5, 0.5],
                      [np.array([0.0, 0.3, 0.5, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])])


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
@pytest.mark.parametrize("build", [_hanging_two_material_mesh, _coarsening_mesh,
                                   _three_below_mesh],
                         ids=["two-material", "coarsening", "three-below"])
def test_coupling_product_adds_its_parts_as_np_add_at_bit_for_bit(build, family):
    # one bincount over all parts' rows, in part order, makes the additions
    # of a per-part np.add.at, from +0.0 and in the same order
    mesh = build()
    spec = BasisSpec(family, {i: 1 + i % 3 for i in range(mesh.n_elements)})
    rng = np.random.default_rng(8)
    for slab in range(1, mesh.n_slabs):
        R = assemble_slab(mesh, slab, spec, FluxParams(), BoundaryCondition.pec()).R
        assert len(R.parts) > 1
        for _ in range(3):
            x = rng.standard_normal(R.shape[1])
            y = np.zeros(R.shape[0])
            for rows, cols, blocks in R.parts:
                _, nr, nc = blocks.shape
                np.add.at(y, rows[:, None] + np.arange(nr),
                          np.matmul(blocks, x[cols[:, None] + np.arange(nc)][:, :, None])[:, :, 0])
            assert (R @ x).tobytes() == y.tobytes()
