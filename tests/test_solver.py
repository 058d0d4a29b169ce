"""Marching, update operator, spectra, and discrete-field evaluation."""

import mmap
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefftzdg import (
    FAMILIES,
    FULL,
    TREFFTZ,
    BasisSpec,
    BoundaryCondition,
    CharacteristicProfile,
    Constant,
    ElementBasis,
    FaceKind,
    FluxParams,
    GaussianPulse,
    InitialData,
    MaterialLayout,
    SpaceTimeDomain,
    assemble_global,
    assemble_slab,
    build_mesh,
    dg_error,
    element_basis,
    energy_budget,
    global_coefficients,
    global_layout,
    l2_relative_error,
    march,
    spectrum,
    uniform_mesh,
    update_matrix,
)
from trefftzdg import assembly, solver
from trefftzdg.errors import (
    DimensionMismatch, InhomogeneousSlabs, MismatchedDomain, NonFiniteSolution,
    SingularSlabMatrix, UnsupportedBC,
)

from conftest import locate, perturbed_partitions, random_meshes

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


def _alternating_mesh(n_x, heights, n_t):
    """n_t slabs of n_x cells on [0, 0.5 n_x], their heights cycling through heights."""
    heights = [heights[j % len(heights)] for j in range(n_t)]
    return build_mesh(SpaceTimeDomain(0.0, 0.5 * n_x, sum(heights)), UNIT, heights,
                      np.linspace(0.0, 0.5 * n_x, n_x + 1))


@pytest.mark.parametrize("bc", [
    pytest.param(BoundaryCondition.pec(), id="pec"),
    pytest.param(BoundaryCondition.robin(g_l=GaussianPulse(0.5, 0.05),
                                         g_r=lambda t: 0.2 * np.sin(3.0 * t)), id="robin-data"),
])
def test_march_assembles_the_slab_operator_once_on_identical_slabs(monkeypatch, bc):
    # one assemble_slab per slab class, at its first slab, and one
    # assemble_coupling per pair of neighbouring classes whose first slab
    # starts no class
    assembled, coupled = [], []

    def counting(calls, build):
        return lambda mesh, slab, *args, **kwargs: (
            calls.append(slab) or build(mesh, slab, *args, **kwargs))

    monkeypatch.setattr(solver, "assemble_slab", counting(assembled, assemble_slab))
    monkeypatch.setattr(solver, "assemble_coupling",
                        counting(coupled, solver.assemble_coupling))
    data = InitialData(GaussianPulse(1.0, 0.2), GaussianPulse(1.0, 0.2))

    def builds(mesh, spec):
        assembled.clear()
        coupled.clear()
        march(mesh, spec, FluxParams(), bc, data)
        return assembled, coupled

    for n_t in (3, 6):
        mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 0.5 * n_t), UNIT, 2, n_t)
        # identical slabs, and per-element degrees whose row repeats: one class
        assert builds(mesh, BasisSpec(TREFFTZ, 2)) == ([0], [1])
        spec = BasisSpec(TREFFTZ, {i: 1 + i % 2 for i in range(mesh.n_elements)})
        assert builds(mesh, spec) == ([0], [1])
    # heights a, a, b, a, a, b: classes 0, 0, 1, 0, 0, 1, and one R per pair
    mesh = _alternating_mesh(4, [0.4, 0.4, 0.6], 6)
    assert builds(mesh, BasisSpec(TREFFTZ, 2)) == ([0, 2], [1, 3])
    # degree rows a, a, b, a, a, b on identical slabs, b the larger: A_j reads
    # slab j alone, so a row after b is of a's class
    mesh = _alternating_mesh(4, [0.5], 6)
    spec = BasisSpec(TREFFTZ, {i: 2 + i % 2 + 2 * (i // 4 % 3 == 2) for i in range(24)})
    assert builds(mesh, spec) == ([0, 2], [1, 3])
    # heights a, b, c, a, b, c: at most two classes' LUs are kept, so c's
    # assembly drops b (recurring after a), which slab 4 assembles again
    mesh = _alternating_mesh(4, [0.3, 0.4, 0.5], 6)
    assert builds(mesh, BasisSpec(TREFFTZ, 2)) == ([0, 1, 2, 4], [3])
    assert builds(_hanging_two_material_mesh(), BasisSpec(TREFFTZ, 2)) == ([0, 1, 2], [])


@pytest.mark.parametrize("heights, live", [
    pytest.param([0.5], 1, id="reused"),
    pytest.param([0.3, 0.35, 0.4, 0.45, 0.5, 0.55], 1, id="per-slab"),
    pytest.param([0.4, 0.6], 2, id="alternating"),
    pytest.param([0.4, 0.5, 0.6], 2, id="interleaved"),
])
def test_march_factors_in_place_and_frees_each_slab(heights, live):
    # six slabs of n dofs, their heights cycling through heights. Each
    # class's LU overwrites its A, R stays its interface blocks, and the
    # march keeps at most two classes' LUs, dropping a class before the next
    # assembles unless it recurs first, so `live` n x n arrays are held at
    # once: one on identical slabs (slab 0's A, factored once, serves every
    # slab) and on slabs that are each their own class, two on two or three
    # layouts that take turns. The march peaks near 1.09 of them; a dense R
    # or any other n x n temporary, even a boolean one (1/8), shows above
    # 0.15 more.
    mesh = _alternating_mesh(120, heights, 6)
    spec = BasisSpec(TREFFTZ, 3)
    n = 120 * spec.dim_for(0)
    data = InitialData(GaussianPulse(10.0, 4.0), GaussianPulse(10.0, 4.0))
    tracemalloc.start()
    try:
        sol = march(mesh, spec, FluxParams(), BoundaryCondition.pec(), data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.coefficients[0].size == n
    assert peak <= (live + 0.15) * 8 * n * n


def test_shared_slab_matrix_has_its_own_mapping_counted_by_tracemalloc(monkeypatch):
    # from _MAPPED_BYTES on, _mapped_zeros is numpy's zeros in a mapping of
    # its own, which tracemalloc counts (so the memory test above still sees
    # a shared LU) until the last view of it is freed, and which is then
    # unmapped; below, it is np.zeros
    small = assembly._mapped_zeros((2, 2**20 // 8), "F")
    assert small.base is None and small.flags.f_contiguous and not small.any()
    monkeypatch.setattr(assembly, "_MAPPED_BYTES", 8 * 300 * 200)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        A = assembly._mapped_zeros((300, 200), "F")
        held = tracemalloc.get_traced_memory()[0] - start
        assert A.flags.f_contiguous and A.dtype == np.float64 and not A.any()
        view, mapping = A[:, 1:], weakref.ref(A.base)
        del A
        assert mapping() is not None
        del view
        freed = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert mapping() is None
    assert 8 * 300 * 200 <= held < 8 * 300 * 200 + 4096 and freed < 4096

    # assemble_slab allocates every slab matrix with it, so the march holds
    # one per class: one on identical slabs, two where the degree rows of the
    # two slabs differ
    monkeypatch.setattr(assembly, "_MAPPED_BYTES", 0)
    bases = []
    slab_lu = solver._SlabLU
    monkeypatch.setattr(solver, "_SlabLU", lambda A, what: bases.append(A.base) or slab_lu(A, what))
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 3.0, 2.0), UNIT, 3, 2)
    data = InitialData(GaussianPulse(1.5, 0.3), GaussianPulse(1.5, 0.3))
    for spec in (BasisSpec(TREFFTZ, 2), BasisSpec(TREFFTZ, {i: 2 + i % 2 for i in range(6)})):
        march(mesh, spec, FluxParams(), BoundaryCondition.pec(), data)
    assert len(bases) == 3 and all(isinstance(base, mmap.mmap) for base in bases)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(3, 0), (0, 3)], ids=["lower", "upper"])
def test_factor_rejects_a_non_finite_lu_entry(monkeypatch, bad, entry):
    # off the diagonal, so the pivot ratio alone would pass
    A = np.eye(4) + 0.1
    lu_factor = solver.linalg.lu_factor
    assert solver._SlabLU(np.asfortranarray(A)).lu.shape == (4, 4)

    def poisoned(a, **kwargs):
        lu, piv = lu_factor(a, **kwargs)
        lu[entry] = bad
        return lu, piv

    monkeypatch.setattr(solver.linalg, "lu_factor", poisoned)
    with pytest.raises(SingularSlabMatrix):
        solver._SlabLU(np.asfortranarray(A))


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
    # identical slabs of different degree rows: A_1^{-1} R_1 would be 32 x 24
    rows = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 4, 2)
    with pytest.raises(InhomogeneousSlabs):
        update_matrix(rows, BasisSpec(TREFFTZ, {i: 2 + i // 4 for i in range(8)}), FluxParams(),
                      BoundaryCondition.pec())
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
    # a vector load (the sweep) and a matrix load (getrs, as for R) give lu_solve's bytes
    rng = np.random.default_rng(7)
    A = rng.standard_normal((9, 9)) + 9.0 * np.eye(9)
    slab_lu = solver._SlabLU(np.asfortranarray(A))
    reference = solver.linalg.lu_factor(A)
    for b in (rng.standard_normal(9), rng.standard_normal((9, 5))):
        x = slab_lu(b)
        assert x.tobytes() == solver.linalg.lu_solve(reference, b).tobytes()


def _windowed_solve_cases():
    """(label, matrix) pairs the windowed solve must solve with getrs's bytes:
    slab matrices at h = 0.25 (full p = 2's LU pivots on 42 of its 480 rows;
    trefftz p = 2 on 43 cells gives n % 64 = n % 4 = 2), every slab of a
    hanging two-material mesh with mixed degrees, and random dense and
    banded matrices with heavy pivoting, around the 64 block and with odd n."""
    bc = BoundaryCondition.pec()
    for family, p, n_x in ((TREFFTZ, 3, 40), (FULL, 2, 40), (TREFFTZ, 2, 43)):
        mesh = uniform_mesh(SpaceTimeDomain(0.0, 0.25 * n_x, 0.5), UNIT, n_x, 2)
        yield f"{family} p={p}", assemble_slab(mesh, 1, BasisSpec(family, p), FluxParams(), bc).A
    mesh = _hanging_two_material_mesh()
    spec = BasisSpec(FULL, {i: 1 + i % 3 for i in range(mesh.n_elements)})
    for j in range(mesh.n_slabs):
        yield f"hanging slab {j}", assemble_slab(mesh, j, spec, FluxParams(), bc).A
    rng = np.random.default_rng(11)
    for n in (1, 63, 64, 65, 257, 301):
        A = rng.standard_normal((n, n))
        yield f"dense n={n}", A
        i, j = np.indices(A.shape)
        yield f"banded n={n}", np.where(abs(i - j) <= 9, A, 0.0) * np.where(i == j, 1e-3, 1.0)


def _windowed_solve_mismatches():
    """Labels of the cases where the windowed solve's bytes differ from lu_solve's."""
    rng = np.random.default_rng(12)
    bad = []
    for label, A in _windowed_solve_cases():
        slab_lu = solver._SlabLU(np.array(A, order="F"))  # A stays: the LU overwrites a copy
        reference = solver.linalg.lu_factor(A)
        for b in (rng.standard_normal(len(A)), rng.uniform(1.0, 2.0, len(A))):
            if slab_lu(b).tobytes() != solver.linalg.lu_solve(reference, b).tobytes():
                bad.append(label)
    return bad


@pytest.mark.parametrize("threads", ["1", "2"])
def test_windowed_solve_is_lu_solve_bit_for_bit(threads):
    # the windowed solve repeats OpenBLAS's getrs: its 64-column dtrsv blocks
    # and its gemvs' scalar row tails. A BLAS that blocks otherwise fails here
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    run = subprocess.run(
        [sys.executable, "-c", "import test_solver; print(test_solver._windowed_solve_mismatches())"],
        cwd=here, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", f"windowed solve differs from getrs on {run.stdout}"


def test_windowed_solve_rejects_a_load_of_another_shape():
    # a bare b[perm] would drop the entries of a longer b, so the call checks
    # the shape once, in front of both the sweep and getrs; only a vector
    # load reaches the sweep, a (70, 1) load is one right-hand side for
    # getrs, and a (70, 70, 2) one, which lu_solve would batch, is refused
    A = np.random.default_rng(13).standard_normal((70, 70)) + 70.0 * np.eye(70)
    slab_lu = solver._SlabLU(np.asfortranarray(A))
    for shape in ((71,), (69,), (), (71, 1), (69, 2), (70, 70, 2)):
        with pytest.raises(DimensionMismatch):
            slab_lu(np.ones(shape))
    reference = solver.linalg.lu_factor(A)
    for shape in ((70,), (70, 1)):
        b = np.ones(shape)
        assert slab_lu(b).tobytes() == solver.linalg.lu_solve(reference, b).tobytes()


def test_windowed_solve_splits_a_long_gemv_on_the_row_tail_grid(monkeypatch):
    # OpenBLAS threads a gemv of 64 columns from about 7,200 rows and splits
    # its rows without regard to the scalar tail; the chunks of _ROWS rows,
    # here 8, keep every tail where getrs's gemv has it
    monkeypatch.setattr(solver, "_ROWS", 8)
    rng = np.random.default_rng(16)
    for n in (257, 301):
        A = rng.standard_normal((n, n))
        slab_lu = solver._SlabLU(np.array(A, order="F"))
        assert max(rows for (routine, _), rows in zip(slab_lu.calls, slab_lu.ints[3:])
                   if routine is solver._dgemv) == 8
        b = rng.standard_normal(n)
        reference = solver.linalg.lu_factor(A)
        assert slab_lu(b).tobytes() == solver.linalg.lu_solve(reference, b).tobytes()


def test_a_vector_load_is_solved_as_lu_solve_on_b_plus_zero():
    # a gemv on a zero block can turn a -0.0 into +0.0 (here on some of the
    # last rows, where n % 4 == 1 puts getrs's scalar gemv tail); the windowed
    # sweep skips that gemv, so it starts from b + 0.0, which has no -0.0.
    # Its bytes are then getrs's on b + 0.0, its values getrs's on b
    n = 257
    A = np.random.default_rng(0).standard_normal((n, n))
    i, j = np.indices(A.shape)
    A = np.where(abs(i - j) <= 9, A, 0.0)
    slab_lu, reference = solver._SlabLU(np.array(A, order="F")), solver.linalg.lu_factor(A)
    k = np.arange(n)
    for b in (np.full(n, -0.0), np.where(k % 2 == 0, -0.0, 0.0),
              np.where(k % 2 == 0, -k - 1.0, -0.0)):
        x = slab_lu(b)
        assert x.tobytes() == solver.linalg.lu_solve(reference, b + 0.0).tobytes()
        assert np.array_equal(x, solver.linalg.lu_solve(reference, b))


@pytest.mark.parametrize("hanging", [False, True], ids=["uniform", "hanging"])
@pytest.mark.parametrize("case", ["pec", "robin", "dirichlet", "source", "negative-zero"])
def test_every_slab_of_a_march_takes_the_windowed_sweep(monkeypatch, case, hanging):
    # every entry of a march load is a sum that starts from +0.0 (np.zeros,
    # matmul, and np.bincount for R c), and +0.0 + -0.0 is +0.0, so no load
    # holds a -0.0: not with wall data of both signs, a source, or initial
    # data of -0.0. The sweep's + 0.0 then changes nothing, and every slab
    # gets getrs's bytes on its own load
    mesh = (_hanging_two_material_mesh() if hanging
            else uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.5), UNIT, 4, 3))
    spec, bc, source = BasisSpec(TREFFTZ, 2), BoundaryCondition.pec(), None
    data = InitialData(GaussianPulse(1.0, 0.2), GaussianPulse(1.0, 0.2, -1.0))
    if case == "robin":
        spec = BasisSpec(FULL, 2)
        bc = BoundaryCondition.robin(g_l=lambda t: np.sin(3.0 * t),
                                     g_r=GaussianPulse(0.5, 0.05, -1.0))
    elif case == "dirichlet":
        bc = BoundaryCondition.dirichlet(e_l=lambda t: np.sin(t), e_r=lambda t: -0.5 * t)
    elif case == "source":
        spec, source = BasisSpec(FULL, 3), lambda x, t: np.cos(3.0 * x) * np.exp(-t)
    elif case == "negative-zero":
        data = InitialData(Constant(-0.0), Constant(-0.0))

    solve, loads = solver._SlabLU.__call__, []

    def recorded(slab_lu, b):
        x = solve(slab_lu, b)
        assert not np.signbit(b[b == 0]).any(), "a march load holds a -0.0"
        assert x.tobytes() == solver.linalg.lu_solve((slab_lu.lu, slab_lu.piv), b).tobytes()
        loads.append(b)
        return x

    monkeypatch.setattr(solver._SlabLU, "__call__", recorded)
    sol = march(mesh, spec, FluxParams(alpha=0.3, beta=0.6), bc, data, source=source)
    assert len(loads) == mesh.n_slabs and np.isfinite(sol.flat).all()


@pytest.mark.parametrize("where, slab", [("data", 0), ("wall", 2)])
def test_march_names_the_first_slab_whose_coefficients_are_not_finite(where, slab):
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 10.0, 2.0), UNIT, 10, 4)
    pulse = GaussianPulse(3.0, 1.0)
    data, bc = InitialData(pulse, pulse), BoundaryCondition.pec()
    if where == "data":
        data = InitialData(lambda x: np.where(x > 5.0, np.nan, pulse(x)), pulse)
    else:
        bc = BoundaryCondition.robin(g_l=lambda t: np.where(t > 1.0, np.nan, 0.0))
    with pytest.raises(NonFiniteSolution, match=f"slab {slab} "):
        march(mesh, BasisSpec(TREFFTZ, 2), FluxParams(), bc, data)


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
    # each upper element lies on two lower ones, so one part of R targets
    # its rows twice
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


@settings(max_examples=40, deadline=None)
@given(random_meshes(), st.sampled_from(FAMILIES), st.integers(0, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_coupling_product_sums_each_row_in_face_order(case, family, p, mixed, seed):
    # under one degree, R @ x adds each row's block products in the mesh
    # order of the interface pieces, each product as __matmul__ takes it,
    # from +0.0; with mixed degrees it is the dense product to rounding
    mesh = build_mesh(*case)
    spec = BasisSpec(family, {i: i % (p + 1) for i in range(mesh.n_elements)} if mixed else p)
    starts, _ = global_layout(mesh, spec)
    hor = mesh.face_tables[FaceKind.HOR_INTERNAL]
    rng = np.random.default_rng(seed)
    for slab in range(1, mesh.n_slabs):
        R = assembly.assemble_coupling(mesh, slab, spec)
        x = rng.standard_normal(R.shape[1])
        if mixed:
            dense = np.asarray(R)
            assert np.all(np.abs(R @ x - dense @ x) <= 1e-14 * (np.abs(dense) @ np.abs(x)))
            continue
        blocks = {(r, c): b for rows, cols, part in R.parts for r, c, b in zip(rows, cols, part)}
        first, first_prev = starts[mesh.slab_starts[slab]], starts[mesh.slab_starts[slab - 1]]
        want = np.zeros(R.shape[0])
        for below, above in hor.elements[mesh.hor_starts[slab - 1]:mesh.hor_starts[slab]]:
            r, c = starts[above] - first, starts[below] - first_prev
            nr, nc = blocks[r, c].shape
            want[r:r + nr] += np.matmul(blocks[r, c][None], x[c:c + nc][None, :, None]).ravel()
        assert (R @ x).tobytes() == want.tobytes()


@pytest.mark.parametrize("family, p", [(TREFFTZ, 3), (FULL, 2)])
def test_many_element_rows_cost_the_eval_local_calls_of_the_uniform_twin(monkeypatch, family, p):
    # the basis is evaluated once per degree, however many distinct (hx, ht,
    # eps, mu) rows the elements have: each step makes as many eval_local
    # calls on the perturbed partitions as on their uniform twin
    calls, eval_local = [], ElementBasis.eval_local

    def counted(basis, dx, dt):
        calls.append(None)
        return eval_local(basis, dx, dt)

    monkeypatch.setattr(ElementBasis, "eval_local", counted)
    spec, flux, bc = BasisSpec(family, p), FluxParams(), BoundaryCondition.pec()
    pulse = GaussianPulse(3.0, 0.5)
    data = InitialData(pulse, pulse)
    x, t = np.meshgrid(np.linspace(0.0, 6.0, 41), np.linspace(0.0, 1.0, 41))
    counts, rows = [], []
    for amplitude in (0.01, 0.0):
        mesh = build_mesh(*perturbed_partitions(amplitude=amplitude))
        rows.append(len(np.unique(np.column_stack([mesh.hx, mesh.ht]), axis=0)))
        sol = march(mesh, spec, flux, bc, data)
        reference = CharacteristicProfile.pec(mesh.domain, pulse, pulse)
        steps = {"assemble_slab": lambda: assemble_slab(mesh, 2, spec, flux, bc),
                 "dg_error": lambda: dg_error(sol, reference),
                 "energy_budget": lambda: energy_budget(sol, data),
                 "l2_relative_error": lambda: l2_relative_error(sol, reference),
                 "evaluate": lambda: sol.evaluate(x, t)}
        counts.append({})
        for name, step in steps.items():
            calls.clear()
            step()
            counts[-1][name] = len(calls)
    assert rows[0] > 20 and rows[1] == 1
    assert counts[0] == counts[1]
