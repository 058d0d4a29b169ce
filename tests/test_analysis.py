"""Error norms, energy accounting, rate fits, and field utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefftzdg import (
    CSV_HEADER,
    FAMILIES,
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
from trefftzdg import analysis
from trefftzdg.errors import (
    AmbiguousTrace,
    DimensionMismatch,
    InsufficientSamples,
    MismatchedDomain,
    NonpositiveError,
    UnsupportedBC,
)
from trefftzdg.quadrature import error_nodes, local_tensor_rule
from trefftzdg.reference import Constant
from trefftzdg.solver import SolutionField

from conftest import random_meshes

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


class _ReadOnlyReference:
    """The profile's fields, returned as read-only arrays."""

    def __init__(self, profile):
        self.profile = profile

    def evaluate(self, x, t):
        fields = self.profile.evaluate(x, t)
        for f in fields:
            f.flags.writeable = False
        return fields


@st.composite
def _profiled_fields(draw):
    """A random field on a random mesh (hanging nodes, materials, mixed
    degrees) whose slabs have one height, c ht = ratio hx for the smallest
    element of the first slab, and a pec, free-space or Robin profile."""
    domain, materials, _, parts = draw(random_meshes())
    if draw(st.booleans()):
        parts = [parts[0]] * len(parts)    # no hanging nodes: rows line up
    eps, mu = materials.eps[0], materials.mu[0]
    c = 1.0 / math.sqrt(eps * mu)
    # s = round(ratio) = 0, 1, 2 and a ratio that is no integer
    ratio = draw(st.sampled_from([0.3, 1.0, 2.0, 1.37]))
    heights = [ratio * np.diff(parts[0]).min() / c] * len(parts)
    mesh = build_mesh(SpaceTimeDomain(domain.x_l, domain.x_r, sum(heights)), materials,
                      heights, parts)
    family = draw(st.sampled_from(FAMILIES))
    degrees = st.integers(0, 3)
    if draw(st.booleans()):
        spec = BasisSpec(family, draw(degrees))
    else:
        spec = BasisSpec(family, dict(enumerate(
            draw(st.lists(degrees, min_size=mesh.n_elements, max_size=mesh.n_elements)))))
    _, total = global_layout(mesh, spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sol = field_from_coefficients(mesh, spec, rng.standard_normal(total))
    e0 = GaussianPulse(domain.x_l + 0.4 * domain.length, 0.05 * domain.length**2)
    h0 = draw(st.sampled_from([e0, GaussianPulse(e0.center, e0.width, -0.5)]))
    t_final = mesh.domain.t_final
    profile = {
        "pec": lambda: CharacteristicProfile.pec(domain, e0, h0, eps, mu),
        "free": lambda: CharacteristicProfile.free_space(domain, e0, h0, eps, mu),
        "robin": lambda: CharacteristicProfile.robin(
            domain, e0, h0, g_l=lambda t: np.exp(-((t - 0.3 * t_final) / t_final) ** 2),
            g_r=lambda t: 0.5 * np.sin(t / t_final), eps=eps, mu=mu),
    }[draw(st.sampled_from(["pec", "free", "robin"]))]()
    return sol, profile


@settings(max_examples=60, deadline=None)
@given(_profiled_fields())
def test_relative_error_reads_a_profile_along_characteristics_bit_for_bit(case):
    # l2 copies u0 and w0 from the previous slab wherever the characteristic
    # coordinates repeat bit for bit, and evaluates only the rest; the
    # evaluate-only wrapper reads every point. l2 squares in arrays it owns:
    # a write into the wrapper's Er or Hr would raise
    sol, profile = case
    assert (l2_relative_error(sol, profile).hex()
            == l2_relative_error(sol, _ReadOnlyReference(profile)).hex())


@pytest.mark.parametrize("cap", [1, 7, analysis._BLOCK_POINTS])
@settings(max_examples=60, deadline=None)
@given(case=_profiled_fields())
def test_relative_error_is_the_same_for_any_block_of_slabs(cap, case):
    # u0 and w0 are called once per block of slabs, whatever its size; each
    # signature's last coordinates and values carry across the blocks
    sol, profile = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_BLOCK_POINTS", cap)
        assert (l2_relative_error(sol, profile).hex()
                == l2_relative_error(sol, _ReadOnlyReference(profile)).hex())


@pytest.mark.parametrize("cap", [1, 100, 1000])
def test_relative_error_calls_a_profile_on_at_most_a_block(monkeypatch, cap):
    # c ht < hx / 2, so s = 0 and every point is fresh: a call reads its
    # block, at most the cap plus one slab's points
    sol, pulse = _pulse_march(SpaceTimeDomain(0.0, 4.0, 1.0), n_x=8, n_t=8, p=2)
    profile = CharacteristicProfile.pec(sol.mesh.domain, pulse, pulse)
    u0, w0 = _CountedProfile(profile.u0), _CountedProfile(profile.w0)
    monkeypatch.setattr(analysis, "_BLOCK_POINTS", cap)
    assert (l2_relative_error(sol, CharacteristicProfile(1.0, 1.0, u0, w0)).hex()
            == l2_relative_error(sol, _ReadOnlyReference(profile)).hex())
    points = len(sol.mesh.elem_grid[0]) * error_nodes(2) ** 2
    for f in (u0, w0):
        sizes = [z.size for z in f.seen]
        assert sum(sizes) == sol.mesh.n_slabs * points
        assert max(sizes) < cap + points
        assert len(sizes) == -(-sol.mesh.n_slabs // -(-cap // points))


class _CountedProfile:
    """An elementwise profile that records the coordinates it is asked for
    and returns them as read-only arrays."""

    def __init__(self, f):
        self.f, self.seen = f, []

    def __call__(self, z):
        self.seen.append(np.array(z, copy=True))
        v = np.array(self.f(z), dtype=float)
        v.flags.writeable = False
        return v


def _read_along(f, z, previous, shift):
    """One piece of l2's characteristic path on its own: the fresh positions of
    z against previous = (z', f(z')) shifted by shift rows, f on them alone,
    then the piece's values."""
    at = analysis._fresh(z, previous and previous[0], shift)
    fresh = z.reshape(-1) if at is None else z.reshape(-1)[at]
    values = analysis._profile_values(f, fresh)
    return at, analysis._transported(values, at, previous and previous[1], shift, z.shape)


@pytest.mark.parametrize("shift", [1, 2, -1, -2])
def test_transport_copies_only_bit_equal_coordinates(shift):
    rows, s = 6, abs(shift)
    x = np.nextafter(1.5, 2.0)
    # each pair (previous coordinate, coordinate) differs in its bits;
    # several compare equal, or unequal, as floats all the same
    pairs = [(0.0, -0.0), (-0.0, 0.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, -np.inf),
             (-np.inf, np.inf), (x, np.nextafter(x, 2.0)), (x, np.nextafter(x, 1.0)),
             (np.nan, -np.nan)]
    z_prev = np.linspace(-3.0, 3.0, rows * len(pairs)).reshape(rows, len(pairs))
    z = np.empty_like(z_prev)
    new, old = (slice(s, None), slice(None, -s)) if shift > 0 else (slice(None, -s), slice(s, None))
    z[new] = z_prev[old]
    edge = np.ones(z.shape, dtype=bool)
    edge[new] = False
    z[edge] = 7.0 + np.arange(edge.sum())
    differ = np.zeros(z.shape, dtype=bool)
    row = s + 1 if shift > 0 else 1
    for col, (before, after) in enumerate(pairs):
        z_prev[row - shift, col], z[row, col] = before, after
        differ[row, col] = True
    # an identical NaN is reused like any other coordinate
    z_prev[row + 1 - shift, 0] = z[row + 1, 0] = np.nan
    # previous values are markers, so a reused point shows which one it took
    marker = -1.0 - np.arange(z.size, dtype=float).reshape(z.shape)
    marker.flags.writeable = False
    f = _CountedProfile(lambda v: 1.0 / np.where(np.isnan(v), 2.0, v))
    with np.errstate(divide="ignore"):
        at, out = _read_along(f, z, (z_prev, marker), shift)
        want_fresh = 1.0 / np.where(np.isnan(z), 2.0, z)
    fresh = edge | differ
    assert at.tolist() == np.flatnonzero(fresh).tolist()
    assert len(f.seen) == 1
    assert f.seen[0].view(np.int64).tolist() == z[fresh].view(np.int64).tolist()
    want = np.empty(z.shape)
    want[new] = marker[old]
    want[fresh] = want_fresh[fresh]
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("f", [Constant(2.5), lambda z: 0.0,
                               lambda z: np.broadcast_to(np.float64(3.0), np.shape(z))])
def test_transport_fills_every_point_from_a_scalar_or_broadcast_profile(f):
    z = np.linspace(0.0, 1.0, 12).reshape(4, 3)
    at, first = _read_along(f, z, None, 1)
    want = np.broadcast_to(f(z), z.shape)
    assert at is None and np.array_equal(first, want)
    # the next slab: rows 1..3 repeat rows 0..2, one coordinate flips its sign
    z_next = np.vstack([[5.0, 6.0, 7.0], z[:-1]])
    z_next[2, 1] = -z_next[2, 1]
    at, nxt = _read_along(f, z_next, (z, first), 1)
    assert at.tolist() == [0, 1, 2, 7]
    assert np.array_equal(nxt, want)


@pytest.mark.parametrize("shift, shape", [(0, (4, 3)), (4, (4, 3)), (-5, (4, 3)),
                                          (1, (3, 3)), (1, (4, 2))])
def test_transport_evaluates_everything_when_rows_cannot_meet(shift, shape):
    # s = 0, a shift of all rows or more, or a previous piece of another shape
    z = np.linspace(0.0, 1.0, 12).reshape(4, 3)
    z_prev = np.zeros(shape)
    f = _CountedProfile(np.cos)
    at, out = _read_along(f, z, (z_prev, np.zeros(shape)), shift)
    assert at is None
    assert len(f.seen) == 1 and f.seen[0].tobytes() == z.tobytes()
    assert out.tobytes() == np.cos(z).tobytes()


def test_relative_error_refuses_a_complex_profile():
    # the float sums cannot take complex reference values, on either path
    sol, pulse = _pulse_march(n_x=4, n_t=3)
    profile = CharacteristicProfile(1.0, 1.0, lambda z: (1.0 + 0.5j) * pulse(z), pulse)
    for reference in (profile, _ReadOnlyReference(profile)):
        with pytest.raises(TypeError):
            l2_relative_error(sol, reference)
    with pytest.raises(TypeError):
        _read_along(lambda z: 1j * z, np.ones((3, 2)), (np.ones((3, 2)), np.ones((3, 2))), 1)


def _fresh_coordinates(mesh, profile, n, shift):
    """Per slab of a uniform mesh, the coordinates x - ct and x + ct that the
    slab below does not hold at the same bits shifted by +shift and -shift
    rows: every point of the first slab, then the edge rows and the points
    whose bits moved."""
    dx, dt, _ = local_tensor_rule(n, mesh.hx[0], mesh.ht[0])
    c = profile.wave_speed
    fresh, previous = ([], []), None
    for j in range(mesh.n_slabs):
        ids = np.flatnonzero(mesh.slab == j)
        X = mesh.xc[ids][:, None] + dx[None, :]
        T = mesh.tc[ids][:, None] + dt[None, :]
        z = (X - c * T, X + c * T)
        for side, sign in enumerate((1, -1)):
            keep = np.ones(X.shape, dtype=bool)
            if previous is not None:
                rows = len(ids)
                for i in range(rows):
                    if 0 <= i - sign * shift < rows:
                        keep[i] = (z[side][i].view(np.int64)
                                   != previous[side][i - sign * shift].view(np.int64))
            fresh[side].append(z[side][keep])
        previous = z
    return fresh


def test_relative_error_reads_only_the_new_edge_of_a_uniform_mesh():
    # c ht = hx: each slab after the first reads u0 at its one new left row
    # and w0 at its one new right row, plus the coordinates whose bits moved
    # (up to 37% of a slab's points on this mesh). The profiles see exactly
    # those coordinates, slab after slab, however the calls group them.
    sol, pulse = _pulse_march(SpaceTimeDomain(0.0, 4.0, 4.0), n_x=8, n_t=8, p=2)
    profile = CharacteristicProfile.pec(sol.mesh.domain, pulse, pulse)
    u0, w0 = _CountedProfile(profile.u0), _CountedProfile(profile.w0)
    counted = CharacteristicProfile(1.0, 1.0, u0, w0)
    assert (l2_relative_error(sol, counted).hex()
            == l2_relative_error(sol, _ReadOnlyReference(profile)).hex())
    points = len(sol.mesh.elem_grid[0]) * error_nodes(2) ** 2
    edge = points // 8
    for f, fresh in zip((u0, w0), _fresh_coordinates(sol.mesh, profile, error_nodes(2), 1)):
        assert np.concatenate(f.seen).tobytes() == np.concatenate(fresh).tobytes()
        sizes = [z.size for z in fresh]
        assert len(sizes) == 8 and sizes[0] == points
        assert all(edge <= size <= points // 2 for size in sizes[1:])
        assert sum(sizes[1:]) < 7 * points // 3


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
    via_traces = dg_error(sol, proj)
    e = global_coefficients(proj) - global_coefficients(sol)
    via_form = apply_bilinear_global(mesh, spec, flux, bc, e, e)
    assert via_form == pytest.approx(via_traces**2, rel=1e-8)


def test_norms_survive_embedding():
    sol, _ = _pulse_march(p=1)
    lifted = embed_solution(sol, 3)
    assert lifted.spec.degree == 3
    assert dg_norm(lifted) == pytest.approx(dg_norm(sol), rel=1e-12)
    # the default rule tracks the degree, but both rules integrate the error
    # against a quadratic profile exactly
    z = lambda s: np.asarray(s, dtype=float)
    prof = CharacteristicProfile(1.0, 1.0, u0=lambda s: z(s) ** 2, w0=lambda s: 0.5 * z(s))
    assert l2_relative_error(lifted, prof) == pytest.approx(
        l2_relative_error(sol, prof), rel=1e-12)
    x, t = np.array([0.3, 1.7]), np.array([0.9, 0.4])
    assert np.allclose(lifted.evaluate(x, t), sol.evaluate(x, t), atol=1e-14)
    per_element = BasisSpec(TREFFTZ, {i: 1 for i in range(sol.mesh.n_elements)})
    with pytest.raises(MismatchedDomain, match="uniform degrees"):
        embed_solution(field_from_coefficients(sol.mesh, per_element, sol.flat), 3)


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


class _Counted:
    """A closed-form reference that records each evaluate call."""

    def __init__(self, reference):
        self.reference, self.calls = reference, []

    def evaluate(self, x, t):
        self.calls.append(None)
        return self.reference.evaluate(x, t)


def test_dg_error_reads_a_closed_form_reference_once_per_face_kind():
    # a closed-form reference is continuous, so one evaluation serves both
    # sides of the faces of a kind; a piecewise one is traced from each side
    sol, pulse = _pulse_march(n_x=3, n_t=3)
    prof = CharacteristicProfile.pec(sol.mesh.domain, pulse, pulse)
    counted = _Counted(prof)
    assert dg_error(sol, counted).hex() == dg_error(sol, prof).hex()
    assert counted.calls == [None] * 6
    proj = project_to_space(sol.mesh, sol.spec, prof)
    sides = []

    def trace(x, t, side=None):
        sides.append(side)
        return SolutionField.trace(proj, x, t, side=side)

    proj.trace = trace
    dg_error(sol, proj)
    assert sides == ["below", "above", "above", "below", "left", "right", "right", "left"]
