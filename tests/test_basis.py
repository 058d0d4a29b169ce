"""Local bases: dimensions, exact PDE residuals, orthogonality, embeddings."""

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefftzdg.analysis import _row_tables
from trefftzdg.assembly import global_layout

from trefftzdg.basis import (
    FAMILIES,
    FULL,
    TREFFTZ,
    BasisSpec,
    ElementBasis,
    degree_groups,
    element_basis,
    embedding_indices,
    full_dim,
    legendre_table,
    pde_residual,
    space_dim,
    trefftz_dim,
)
from trefftzdg.errors import MismatchedDomain, PointOutsideElement
from trefftzdg.mesh import MaterialLayout, SpaceTimeDomain, build_mesh, uniform_mesh
from trefftzdg.quadrature import local_tensor_rule, tensor_rule

from conftest import random_meshes


def _single_element(hx=1.0, ht=1.0, eps=1.0, mu=1.0, x0=0.0, t0=0.0):
    """A mesh of one element, element 0."""
    domain = SpaceTimeDomain(x0, x0 + hx, ht)
    mats = MaterialLayout.constant(eps, mu)
    return build_mesh(domain, mats, [ht], [np.array([x0, x0 + hx])])


def _offsets(mesh, x, t):
    """Offsets of the points (x, t) from the centre of element 0."""
    xc, tc = 0.5 * (mesh.x0[0] + mesh.x1[0]), 0.5 * (mesh.t0[0] + mesh.t1[0])
    return np.asarray(x, dtype=float) - xc, np.asarray(t, dtype=float) - tc


def _random_element(rng):
    hx = float(rng.uniform(0.1, 3.0))
    ht = float(rng.uniform(0.1, 3.0))
    x0 = float(rng.uniform(-5.0, 5.0))
    eps = float(rng.uniform(0.2, 5.0))
    mu = float(rng.uniform(0.2, 5.0))
    return _single_element(hx, ht, eps, mu, x0=x0)


def test_dimensions():
    assert [trefftz_dim(p) for p in range(5)] == [2, 4, 6, 8, 10]
    assert [full_dim(p) for p in range(5)] == [2, 6, 12, 20, 30]
    assert space_dim(TREFFTZ, 3) == 8
    assert space_dim(FULL, 3) == 20
    mesh = _single_element()
    assert element_basis(mesh, BasisSpec(TREFFTZ, 4), 0).n == 10
    assert element_basis(mesh, BasisSpec(FULL, 4), 0).n == 30


def test_legendre_table_values_and_derivatives():
    xi = np.array([-1.0, 0.0, 1.0, 0.3])
    V, D = legendre_table(3, xi)
    assert np.allclose(V[0], 1.0)
    assert np.allclose(V[1], xi)
    assert np.allclose(V[2], 0.5 * (3 * xi**2 - 1))
    assert np.allclose(V[3], 0.5 * (5 * xi**3 - 3 * xi))
    assert np.allclose(D[1], 1.0)
    assert np.allclose(D[2], 3 * xi)
    assert np.allclose(D[3], 0.5 * (15 * xi**2 - 3))


@pytest.mark.parametrize("p", range(0, 7))
def test_transport_basis_solves_the_system_pointwise(p):
    rng = np.random.default_rng(300 + p)
    for _ in range(20):
        mesh = _random_element(rng)
        basis = element_basis(mesh, BasisSpec(TREFFTZ, p), 0)
        xs = rng.uniform(mesh.x0[0], mesh.x1[0], size=25)
        ts = rng.uniform(mesh.t0[0], mesh.t1[0], size=25)
        fields = basis.eval_derivatives(*_offsets(mesh, xs, ts))
        scale = max(
            np.max(np.abs(fields[k])) for k in ("Ex", "Et", "Hx", "Ht")
        ) or 1.0
        r1 = np.max(np.abs(fields["Ex"] + mesh.mu[0] * fields["Ht"]))
        r2 = np.max(np.abs(fields["Hx"] + mesh.eps[0] * fields["Et"]))
        assert max(r1, r2) <= 1e-12 * scale


def test_full_basis_mass_matrix_is_diagonal_with_known_entries():
    mesh = _single_element(hx=1.5, ht=0.75, eps=2.0, mu=0.5, x0=-0.3)
    p = 3
    basis = element_basis(mesh, BasisSpec(FULL, p), 0)
    X, T, W = tensor_rule(p + 2, p + 2, (mesh.x0[0], mesh.x1[0], mesh.t0[0], mesh.t1[0]))
    f = basis.eval_local(*_offsets(mesh, X, T))
    gram = (f["E"] * W) @ f["E"].T + (f["H"] * W) @ f["H"].T
    pairs = [(jx, d - jx) for d in range(p + 1) for jx in range(d + 1)]
    expected = np.zeros(len(pairs))
    for k, (jx, jt) in enumerate(pairs):
        expected[k] = mesh.hx[0] * mesh.ht[0] / ((2 * jx + 1) * (2 * jt + 1))
    expected = np.concatenate([expected, expected])    # E slots then H slots
    assert np.allclose(gram, np.diag(expected), atol=1e-13)


def test_full_basis_linear_function_residual():
    # E = L1(2 dx / hx), H = 0 has residual |dx E| = 2 / hx, constant
    mesh = _single_element(hx=2.5, ht=1.0)
    basis = element_basis(mesh, BasisSpec(FULL, 1), 0)
    fn = 2                           # degree pairs: (0,0), (0,1), (1,0)
    x0, x1, t0, hx, ht = mesh.x0[0], mesh.x1[0], mesh.t0[0], mesh.hx[0], mesh.ht[0]
    dx, dt = _offsets(mesh, [x0 + 0.3 * hx, x0 + 0.9 * hx], [t0 + 0.6 * ht, t0])
    vals = basis.eval_local(dx[:1], dt[:1])
    assert vals["H"][fn, 0] == 0.0   # H slot empty
    assert pde_residual(basis, dx, dt)[fn] == pytest.approx(2.0 / hx, rel=1e-14)
    with pytest.raises(PointOutsideElement):
        pde_residual(basis, *_offsets(mesh, [x1 + 1.0], [t0]))


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_derivative_components_match_finite_differences(family):
    rng = np.random.default_rng(11)
    mesh = _random_element(rng)
    basis = element_basis(mesh, BasisSpec(family, 3), 0)
    x0, x1, t0, t1 = mesh.x0[0], mesh.x1[0], mesh.t0[0], mesh.t1[0]
    xs = rng.uniform(x0 + 0.1 * mesh.hx[0], x1 - 0.1 * mesh.hx[0], size=9)
    ts = rng.uniform(t0 + 0.1 * mesh.ht[0], t1 - 0.1 * mesh.ht[0], size=9)
    f = basis.eval_derivatives(*_offsets(mesh, xs, ts))
    hx = 1e-6 * mesh.hx[0]
    ht = 1e-6 * mesh.ht[0]
    fx1 = basis.eval_local(*_offsets(mesh, xs + hx, ts))
    fx0 = basis.eval_local(*_offsets(mesh, xs - hx, ts))
    ft1 = basis.eval_local(*_offsets(mesh, xs, ts + ht))
    ft0 = basis.eval_local(*_offsets(mesh, xs, ts - ht))
    scale = max(np.max(np.abs(f["Ex"])), np.max(np.abs(f["Ht"])), 1.0)
    assert np.max(np.abs((fx1["E"] - fx0["E"]) / (2 * hx) - f["Ex"])) <= 1e-6 * scale
    assert np.max(np.abs((ft1["E"] - ft0["E"]) / (2 * ht) - f["Et"])) <= 1e-6 * scale
    assert np.max(np.abs((fx1["H"] - fx0["H"]) / (2 * hx) - f["Hx"])) <= 1e-6 * scale
    assert np.max(np.abs((ft1["H"] - ft0["H"]) / (2 * ht) - f["Ht"])) <= 1e-6 * scale


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_lower_degree_space_is_embedded(family):
    rng = np.random.default_rng(5)
    mesh = _random_element(rng)
    small = element_basis(mesh, BasisSpec(family, 2), 0)
    big = element_basis(mesh, BasisSpec(family, 5), 0)
    idx = embedding_indices(family, 2, 5)
    assert len(idx) == small.n
    xs = rng.uniform(mesh.x0[0], mesh.x1[0], size=7)
    ts = rng.uniform(mesh.t0[0], mesh.t1[0], size=7)
    dx, dt = _offsets(mesh, xs, ts)
    fs = {**small.eval_local(dx, dt), **small.eval_derivatives(dx, dt)}
    fb = {**big.eval_local(dx, dt), **big.eval_derivatives(dx, dt)}
    for key in ("E", "H", "Ex", "Et", "Hx", "Ht"):
        assert np.allclose(fb[key][idx], fs[key], atol=1e-14)


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_basis_is_linearly_independent(family):
    rng = np.random.default_rng(77)
    mesh = _random_element(rng)
    basis = element_basis(mesh, BasisSpec(family, 3), 0)
    X, T, W = tensor_rule(8, 8, (mesh.x0[0], mesh.x1[0], mesh.t0[0], mesh.t1[0]))
    f = basis.eval_local(*_offsets(mesh, X, T))
    gram = (f["E"] * W) @ f["E"].T + (f["H"] * W) @ f["H"].T
    assert np.linalg.eigvalsh(gram).min() > 1e-12


def test_spec_validation_and_per_element_degrees():
    with pytest.raises(MismatchedDomain):
        BasisSpec("fourier", 2)
    with pytest.raises(MismatchedDomain):
        BasisSpec(TREFFTZ, -1)
    # a degree is a non-negative integer: no float, bool or other value
    for bad in (2.0, {0: 1.5}, True, {0: False}, "2", None, {0: -1}):
        with pytest.raises(MismatchedDomain):
            BasisSpec(TREFFTZ, bad)
    # numpy integers are stored as int
    uniform = BasisSpec(TREFFTZ, np.int64(2))
    assert uniform.uniform and type(uniform.degree) is int and uniform.max_degree() == 2
    mixed = BasisSpec(TREFFTZ, {0: np.int32(1), 1: np.int64(3)})
    assert [type(p) for p in (mixed.degree_for(0), mixed.max_degree())] == [int, int]
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0),
                        MaterialLayout.constant(), 2, 1)
    spec = BasisSpec(TREFFTZ, {0: 1, 1: 3})
    assert not spec.uniform
    assert spec.dim_for(0) == 4
    assert spec.dim_for(1) == 8
    assert spec.max_degree() == 3
    assert element_basis(mesh, spec, 1).n == 8


@settings(max_examples=60, deadline=None)
@given(random_meshes(), st.sampled_from(FAMILIES), st.integers(0, 5), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_a_per_row_basis_is_every_element_basis(case, family, p, mixed, seed):
    # eval_local is elementwise in (hx, ht, eps, mu), so one basis over a
    # degree's elements, its data (rows, 1) columns, must give each row the
    # tables and residuals of that element's own basis, bit for bit
    mesh = build_mesh(*case)
    ids = np.arange(mesh.n_elements)
    spec = BasisSpec(family, {i: i % (p + 1) for i in ids} if mixed else p)
    groups = degree_groups(spec, ids)
    assert sorted(np.concatenate(groups).tolist()) == ids.tolist()
    if len(groups) > 1:
        with pytest.raises(MismatchedDomain):
            element_basis(mesh, spec, ids)
    rng = np.random.default_rng(seed)
    for g in groups:
        basis = element_basis(mesh, spec, ids[g])
        u = rng.uniform(-0.5, 0.5, (2, len(g), 6))
        dx, dt = u[0] * mesh.hx[g][:, None], u[1] * mesh.ht[g][:, None]
        got = {**basis.eval_local(dx, dt), **basis.eval_derivatives(dx, dt)}
        stacked = basis.stacked(dx, dt)
        residual = pde_residual(basis, dx, dt)
        for r, i in enumerate(ids[g]):
            own = element_basis(mesh, spec, i)
            want = {**own.eval_local(dx[r], dt[r]), **own.eval_derivatives(dx[r], dt[r])}
            assert set(got) == set(want)
            for name in want:
                assert got[name][:, r].tobytes() == want[name].tobytes(), name
            own_stacked = own.stacked(dx[r:r + 1], dt[r:r + 1])
            for name in ("E", "H"):
                assert stacked[name][r].tobytes() == own_stacked[name][0].tobytes()
            assert residual[:, r].tobytes() == pde_residual(own, dx[r], dt[r]).tobytes()


def _six_fields(family, p, hx, ht, eps, mu, dx, dt):
    """(E, H, Ex, Et, Hx, Ht) by the formulas that computed all six in one
    evaluation, from Legendre values and derivatives together."""
    if family == TREFFTZ:
        c = 1.0 / np.sqrt(eps * mu)
        se = 1.0 / np.sqrt(eps)
        sm = 1.0 / np.sqrt(mu)
        scale = 0.5 * (hx + c * ht)
        Vm, Dm = legendre_table(p, (dx - c * dt) / scale)
        Vp, Dp = legendre_table(p, (dx + c * dt) / scale)
        return {"E": np.concatenate([se * Vm, se * Vp]),
                "H": np.concatenate([sm * Vm, -sm * Vp]),
                "Ex": np.concatenate([se * Dm, se * Dp]) / scale,
                "Et": np.concatenate([-c * se * Dm, c * se * Dp]) / scale,
                "Hx": np.concatenate([sm * Dm, -sm * Dp]) / scale,
                "Ht": np.concatenate([-c * sm * Dm, -c * sm * Dp]) / scale}
    Vx, Dx = legendre_table(p, 2.0 * dx / hx)
    Vt, Dt = legendre_table(p, 2.0 * dt / ht)
    pairs = [(jx, d - jx) for d in range(p + 1) for jx in range(d + 1)]
    S = np.empty((len(pairs),) + dx.shape)
    Sx = np.empty_like(S)
    St = np.empty_like(S)
    for i, (jx, jt) in enumerate(pairs):
        S[i] = Vx[jx] * Vt[jt]
        Sx[i] = (2.0 / hx) * Dx[jx] * Vt[jt]
        St[i] = (2.0 / ht) * Vx[jx] * Dt[jt]
    Z = np.zeros_like(S)
    return {"E": np.concatenate([S, Z]), "H": np.concatenate([Z, S]),
            "Ex": np.concatenate([Sx, Z]), "Et": np.concatenate([St, Z]),
            "Hx": np.concatenate([Z, Sx]), "Ht": np.concatenate([Z, St])}


_positive = st.floats(0.05, 20.0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 5), _positive, _positive, _positive,
       _positive, st.integers(0, 2**32 - 1))
def test_fields_and_derivatives_equal_the_six_field_formulas(family, p, hx, ht, eps, mu, seed):
    # eval_local reads the Legendre values alone and eval_derivatives the
    # derivatives; each must give what the one six-field evaluation gave, bit for bit
    rng = np.random.default_rng(seed)
    dx = rng.uniform(-0.5 * hx, 0.5 * hx, (3, 5))
    dt = rng.uniform(-0.5 * ht, 0.5 * ht, (3, 5))
    basis = ElementBasis(family, p, hx, ht, eps, mu)
    want = _six_fields(family, p, hx, ht, eps, mu, dx, dt)
    got = basis.eval_local(dx, dt)
    assert set(got) == {"E", "H"}
    got.update(basis.eval_derivatives(dx, dt))
    assert set(got) == set(want)
    for key in want:
        assert got[key].shape == want[key].shape == (basis.n, 3, 5)
        assert np.array_equal(got[key], want[key]), key


class _CountingDegrees(Mapping):
    """Degree mapping that counts how often it is read."""

    def __init__(self, degrees):
        self.degrees = degrees
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.degrees[key]

    def __iter__(self):
        self.reads += 1
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)


def test_per_element_degrees_are_converted_once():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 4.0, 2.0), MaterialLayout.constant(), 4, 2)
    degrees = _CountingDegrees({i: 1 + i % 3 for i in range(mesh.n_elements)})
    spec = BasisSpec(FULL, degrees)
    reads = degrees.reads
    assert [spec.degree_for(i) for i in range(mesh.n_elements)] == [1, 2, 3, 1, 2, 3, 1, 2]
    assert spec.max_degree() == 3
    starts, total = global_layout(mesh, spec)
    assert total == sum(spec.dim_for(i) for i in range(mesh.n_elements))
    assert degrees.reads == reads


def test_missing_element_degree_names_the_element():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), MaterialLayout.constant(), 2, 2)
    spec = BasisSpec(TREFFTZ, {0: 1, 1: 2, 3: 1})
    with pytest.raises(MismatchedDomain, match="element 2"):
        spec.degree_for(2)
    with pytest.raises(MismatchedDomain, match="element 2"):
        global_layout(mesh, spec)


def _lexsort_groups(mesh, spec, ids):
    """Positions of ids grouped by one lexsort of the five float keys (hx, ht,
    eps, mu, p), in order of first appearance: the reference for the per-mesh
    classes."""
    keys = np.column_stack([mesh.hx[ids], mesh.ht[ids], mesh.eps[ids], mesh.mu[ids],
                            spec.degrees(ids)])
    order = np.lexsort(keys.T)
    breaks = np.flatnonzero(np.any(np.diff(keys[order], axis=0) != 0, axis=1))
    return sorted(np.split(order, breaks + 1), key=lambda group: group[0])


@settings(max_examples=60, deadline=None)
@given(random_meshes(), st.sampled_from(FAMILIES), st.integers(0, 3), st.booleans(), st.data())
def test_distinct_rows_are_the_five_key_lexsort_classes(case, family, p, mixed, data):
    # the rows (_row_tables' lexsort of the varying columns, with the degrees
    # when they differ) split the elements as the float keys do, and each row's
    # table is its first element's own
    mesh = build_mesh(*case)
    n = mesh.n_elements
    degrees = data.draw(st.lists(st.integers(0, p), min_size=n, max_size=n))
    spec = BasisSpec(family, dict(enumerate(degrees)) if mixed else p)
    tables = _row_tables(mesh, spec, 4)
    assert [t.ids.tolist() for t in tables] == [
        group.tolist() for group in _lexsort_groups(mesh, spec, np.arange(n))]
    for table in tables:
        i = table.ids[0]
        rule = local_tensor_rule(4, mesh.hx[i], mesh.ht[i])
        assert [a.tobytes() for a in (table.dx, table.dt, table.W)] == [a.tobytes() for a in rule]
        want = element_basis(mesh, spec, i).eval_local(*rule[:2])
        assert all(table.fields[k].tobytes() == want[k].tobytes() for k in want)
