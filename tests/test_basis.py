"""Local bases: dimensions, exact PDE residuals, orthogonality, embeddings."""

from collections.abc import Mapping

import numpy as np
import pytest

from trefftzdg.assembly import global_layout

from trefftzdg.basis import (
    FULL,
    TREFFTZ,
    BasisSpec,
    element_basis,
    embedding_indices,
    full_basis,
    full_dim,
    legendre_table,
    pde_residual,
    space_dim,
    trefftz_basis,
    trefftz_dim,
)
from trefftzdg.errors import MismatchedDomain, PointOutsideElement
from trefftzdg.mesh import MaterialLayout, SpaceTimeDomain, build_mesh, uniform_mesh


def _single_element(hx=1.0, ht=1.0, eps=1.0, mu=1.0, x0=0.0, t0=0.0):
    domain = SpaceTimeDomain(x0, x0 + hx, ht)
    mats = MaterialLayout.constant(eps, mu)
    mesh = build_mesh(domain, mats, [ht], [np.array([x0, x0 + hx])])
    return mesh.elements[0]


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
    e = _single_element()
    assert len(trefftz_basis(e, 4)) == 10
    assert len(full_basis(e, 4)) == 30


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
        e = _random_element(rng)
        basis = trefftz_basis(e, p)
        xs = rng.uniform(e.x0, e.x1, size=25)
        ts = rng.uniform(e.t0, e.t1, size=25)
        fields = basis.eval(xs, ts)
        scale = max(
            np.max(np.abs(fields[k])) for k in ("Ex", "Et", "Hx", "Ht")
        ) or 1.0
        r1 = np.max(np.abs(fields["Ex"] + e.mu * fields["Ht"]))
        r2 = np.max(np.abs(fields["Hx"] + e.eps * fields["Et"]))
        assert max(r1, r2) <= 1e-12 * scale


def test_full_basis_mass_matrix_is_diagonal_with_known_entries():
    e = _single_element(hx=1.5, ht=0.75, eps=2.0, mu=0.5, x0=-0.3)
    p = 3
    basis = full_basis(e, p)
    from trefftzdg.quadrature import tensor_rule

    X, T, W = tensor_rule(p + 2, p + 2, (e.x0, e.x1, e.t0, e.t1))
    f = basis.eval(X, T)
    gram = (f["E"] * W) @ f["E"].T + (f["H"] * W) @ f["H"].T
    pairs = [(jx, d - jx) for d in range(p + 1) for jx in range(d + 1)]
    expected = np.zeros(len(pairs))
    for k, (jx, jt) in enumerate(pairs):
        expected[k] = e.hx * e.ht / ((2 * jx + 1) * (2 * jt + 1))
    expected = np.concatenate([expected, expected])    # E slots then H slots
    assert np.allclose(gram, np.diag(expected), atol=1e-13)


def test_full_basis_linear_function_residual():
    # E = L1(2 dx / hx), H = 0 has residual |dx E| = 2 / hx, constant
    e = _single_element(hx=2.5, ht=1.0)
    basis = full_basis(e, 1)
    fn = basis.functions[2]          # degree pairs: (0,0), (0,1), (1,0)
    pts = [(e.x0 + 0.3 * e.hx, e.t0 + 0.6 * e.ht), (e.x0 + 0.9 * e.hx, e.t0)]
    vals = fn.evaluate(pts[0][0], pts[0][1])
    assert vals[1] == 0.0            # H slot empty
    assert pde_residual(fn, e, pts) == pytest.approx(2.0 / e.hx, rel=1e-14)
    with pytest.raises(PointOutsideElement):
        pde_residual(fn, e, [(e.x1 + 1.0, e.t0)])


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_derivative_components_match_finite_differences(family):
    rng = np.random.default_rng(11)
    e = _random_element(rng)
    basis = element_basis(BasisSpec(family, 3), e)
    xs = rng.uniform(e.x0 + 0.1 * e.hx, e.x1 - 0.1 * e.hx, size=9)
    ts = rng.uniform(e.t0 + 0.1 * e.ht, e.t1 - 0.1 * e.ht, size=9)
    f = basis.eval(xs, ts)
    hx = 1e-6 * e.hx
    ht = 1e-6 * e.ht
    fx1 = basis.eval(xs + hx, ts)
    fx0 = basis.eval(xs - hx, ts)
    ft1 = basis.eval(xs, ts + ht)
    ft0 = basis.eval(xs, ts - ht)
    scale = max(np.max(np.abs(f["Ex"])), np.max(np.abs(f["Ht"])), 1.0)
    assert np.max(np.abs((fx1["E"] - fx0["E"]) / (2 * hx) - f["Ex"])) <= 1e-6 * scale
    assert np.max(np.abs((ft1["E"] - ft0["E"]) / (2 * ht) - f["Et"])) <= 1e-6 * scale
    assert np.max(np.abs((fx1["H"] - fx0["H"]) / (2 * hx) - f["Hx"])) <= 1e-6 * scale
    assert np.max(np.abs((ft1["H"] - ft0["H"]) / (2 * ht) - f["Ht"])) <= 1e-6 * scale


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_lower_degree_space_is_embedded(family):
    rng = np.random.default_rng(5)
    e = _random_element(rng)
    small = element_basis(BasisSpec(family, 2), e)
    big = element_basis(BasisSpec(family, 5), e)
    idx = embedding_indices(family, 2, 5)
    assert len(idx) == small.n
    xs = rng.uniform(e.x0, e.x1, size=7)
    ts = rng.uniform(e.t0, e.t1, size=7)
    fs = small.eval(xs, ts)
    fb = big.eval(xs, ts)
    for key in ("E", "H", "Ex", "Et", "Hx", "Ht"):
        assert np.allclose(fb[key][idx], fs[key], atol=1e-14)


@pytest.mark.parametrize("family", [TREFFTZ, FULL])
def test_basis_is_linearly_independent(family):
    rng = np.random.default_rng(77)
    e = _random_element(rng)
    basis = element_basis(BasisSpec(family, 3), e)
    from trefftzdg.quadrature import tensor_rule

    X, T, W = tensor_rule(8, 8, (e.x0, e.x1, e.t0, e.t1))
    f = basis.eval(X, T)
    gram = (f["E"] * W) @ f["E"].T + (f["H"] * W) @ f["H"].T
    assert np.linalg.eigvalsh(gram).min() > 1e-12


def test_spec_validation_and_per_element_degrees():
    with pytest.raises(MismatchedDomain):
        BasisSpec("fourier", 2)
    with pytest.raises(MismatchedDomain):
        BasisSpec(TREFFTZ, -1)
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.0),
                        MaterialLayout.constant(), 2, 1)
    spec = BasisSpec(TREFFTZ, {0: 1, 1: 3})
    assert not spec.uniform
    assert spec.dim_for(0) == 4
    assert spec.dim_for(1) == 8
    assert spec.max_degree() == 3
    assert element_basis(spec, mesh.elements[1]).n == 8


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
