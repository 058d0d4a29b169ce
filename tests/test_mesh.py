"""Mesh construction: element/face combinatorics, unions, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefftzdg.basis import BasisSpec
from trefftzdg.errors import (
    EmptyPartition,
    MismatchedDomain,
    NegativeExtent,
    NonconformingMaterial,
    TooManyCells,
)
from trefftzdg.mesh import (
    FaceKind,
    MaterialLayout,
    SpaceTimeDomain,
    build_mesh,
    mesh_from_spacing,
    uniform_mesh,
    union_interface,
)
from trefftzdg.solver import _slab_classes

from conftest import locate, random_meshes

UNIT = MaterialLayout.constant(1.0, 1.0)
#: one uniform degree: the march's slab classes are then the height-and-partition classes
SPEC = BasisSpec("trefftz", 1)


def test_domain_validation():
    d = SpaceTimeDomain(0.0, 60.0, 60.0)
    assert d.length == 60.0
    with pytest.raises(NegativeExtent):
        SpaceTimeDomain(1.0, 1.0, 5.0)
    with pytest.raises(NegativeExtent):
        SpaceTimeDomain(0.0, 1.0, 0.0)
    # an infinite bound passed the ordering checks: t_final = inf let
    # build_mesh accept heights summing to 2 (inf > inf is False), x_r = inf
    # gave an infinite partition tolerance
    for bounds in ((0.0, 2.0, np.inf), (0.0, np.inf, 1.0), (-np.inf, 0.0, 1.0)):
        with pytest.raises(NegativeExtent, match="must be finite"):
            SpaceTimeDomain(*bounds)


def test_material_lookup():
    m = MaterialLayout(breakpoints=(2.0, 5.0), eps=(1.0, 4.0, 1.0), mu=(1.0, 1.0, 9.0))
    assert not m.is_constant
    assert m.eps_at(1.0) == 1.0
    assert m.eps_at(3.0) == 4.0
    assert m.mu_at(7.0) == 9.0


def test_uniform_mesh_counts_sixty_by_sixty():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 60.0, 60.0), UNIT, 60, 60)
    assert mesh.n_elements == 3600
    assert mesh.n_slabs == 60
    assert mesh.hor_starts[-1] == 59 * 60
    assert mesh.ver_starts[-1] == 60 * 59
    assert len(mesh.face_tables[FaceKind.BOTTOM].pos) == 60
    assert len(mesh.face_tables[FaceKind.TOP].pos) == 60
    assert len(mesh.face_tables[FaceKind.LEFT].pos) == 60
    assert len(mesh.face_tables[FaceKind.RIGHT].pos) == 60
    assert max(_slab_classes(mesh, SPEC)) == 0
    assert mesh.hx_max == 1.0


def test_single_element_mesh_has_four_boundary_faces():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 1, 1)
    assert mesh.n_elements == 1
    kinds = sorted(kind.name for kind, table in mesh.face_tables.items() for _ in table.pos)
    assert kinds == ["BOTTOM", "LEFT", "RIGHT", "TOP"]


def test_element_areas_tile_the_domain():
    domain = SpaceTimeDomain(-1.0, 3.0, 2.0)
    parts = [
        np.array([-1.0, 0.0, 1.5, 3.0]),
        np.array([-1.0, 1.0, 3.0]),
        np.array([-1.0, -0.5, 0.5, 2.0, 3.0]),
    ]
    mesh = build_mesh(domain, UNIT, [0.5, 0.75, 0.75], parts)
    area = sum(hx * ht for hx, ht in zip(mesh.hx, mesh.ht))
    assert area == pytest.approx(domain.length * domain.t_final, abs=1e-12)


def test_hanging_interface_pieces_cover_the_interface():
    domain = SpaceTimeDomain(0.0, 2.0, 1.0)
    parts = [np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 2.0])]
    mesh = build_mesh(domain, UNIT, [0.5, 0.5], parts)
    hor = mesh.face_tables[FaceKind.HOR_INTERNAL]
    pieces = range(mesh.hor_starts[0], mesh.hor_starts[1])
    assert sorted((hor.lo[r], hor.hi[r]) for r in pieces) == [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0)]
    for r in pieces:
        below, above = hor.elements[r]
        assert mesh.t1[below] == mesh.t0[above] == hor.pos[r]
        assert mesh.x0[below] <= hor.lo[r] and hor.hi[r] <= mesh.x1[below]
        assert mesh.x0[above] <= hor.lo[r] and hor.hi[r] <= mesh.x1[above]


def test_vertical_faces_join_horizontal_neighbours():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 3.0, 2.0), UNIT, 3, 2)
    ver = mesh.face_tables[FaceKind.VER_INTERNAL]
    for j in range(mesh.n_slabs):
        for r in range(mesh.ver_starts[j], mesh.ver_starts[j + 1]):
            left, right = ver.elements[r]
            assert mesh.x1[left] == mesh.x0[right] == ver.pos[r]
            assert mesh.slab[left] == mesh.slab[right] == j
            # slab-local positions k and k + 1
            assert left - mesh.slab_starts[j] + 1 == right - mesh.slab_starts[j]


def test_union_interface_merges_partitions():
    u = union_interface(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]))
    assert u.tolist() == [0.0, 1.0, 2.0]
    u = union_interface(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5 + 1e-13, 1.0]))
    assert len(u) == 3
    with pytest.raises(MismatchedDomain):
        union_interface(np.array([0.0, 1.0]), np.array([0.1, 1.0]))


def test_material_jump_must_sit_on_every_partition():
    domain = SpaceTimeDomain(0.0, 2.0, 1.0)
    layered = MaterialLayout(breakpoints=(1.0,), eps=(1.0, 4.0), mu=(1.0, 1.0))
    mesh = build_mesh(domain, layered, [1.0],
                      [np.array([0.0, 1.0, 2.0])])
    assert mesh.eps[0] == 1.0
    assert mesh.eps[1] == 4.0
    with pytest.raises(NonconformingMaterial):
        build_mesh(domain, layered, [1.0], [np.array([0.0, 0.7, 2.0])])


def test_invalid_meshes_raise():
    domain = SpaceTimeDomain(0.0, 1.0, 1.0)
    with pytest.raises(EmptyPartition):
        build_mesh(domain, UNIT, [1.0], [])
    with pytest.raises(MismatchedDomain):
        build_mesh(domain, UNIT, [1.0], [np.array([0.0, 0.5, 0.9])])
    with pytest.raises(NegativeExtent):
        build_mesh(domain, UNIT, [0.5, -0.1, 0.6], [np.array([0.0, 1.0])] * 3)
    with pytest.raises(MismatchedDomain):
        build_mesh(domain, UNIT, [0.4, 0.4], [np.array([0.0, 1.0])] * 2)
    # a NaN fails every range check
    with pytest.raises(EmptyPartition):
        build_mesh(domain, UNIT, [1.0], [np.array([0.0, np.nan, 1.0])])
    with pytest.raises(NegativeExtent):
        build_mesh(domain, UNIT, [0.5, np.nan, 0.5], [np.array([0.0, 1.0])] * 3)
    for eps, mu in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)):
        with pytest.raises(NegativeExtent):
            MaterialLayout((), (eps,), (mu,))
    for breakpoint in (np.nan, np.inf, -np.inf):
        with pytest.raises(MismatchedDomain, match="finite"):
            MaterialLayout((breakpoint,), (1.0, 2.0), (1.0, 1.0))


@pytest.mark.parametrize("bad, error", [
    pytest.param(np.array([0.0, 1.0, 0.7, 2.0]), EmptyPartition, id="unordered"),
    pytest.param(np.array([0.0, 1.0, 1.9]), MismatchedDomain, id="short"),
    pytest.param(np.array([0.0, 0.7, 2.0]), NonconformingMaterial, id="misses-material"),
])
def test_a_bad_partition_in_a_per_slab_list_names_its_first_slab(bad, error):
    # a partition object shared by several slabs is validated once, as the
    # partition of the first slab that uses it
    domain = SpaceTimeDomain(0.0, 2.0, 2.0)
    layered = MaterialLayout((1.0,), (1.0, 4.0), (1.0, 1.0))
    good = np.array([0.0, 1.0, 2.0])
    with pytest.raises(error, match="slab 2"):
        build_mesh(domain, layered, [0.4] * 5, [good, good, bad, good, bad])


def test_shared_partition_objects_build_the_mesh_of_their_copies():
    # a partition merged once per distinct neighbouring pair gives the arrays
    # that merging every interface gives
    domain = SpaceTimeDomain(0.0, 2.0, 2.0)
    a, b = np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 1.6, 2.0])
    order = [a, a, b, a, b, b]
    shared = build_mesh(domain, UNIT, [2.0 / 6] * 6, order)
    copies = build_mesh(domain, UNIT, [2.0 / 6] * 6, [p.copy() for p in order])
    for name in ("x0", "x1", "t0", "t1", "slab_starts", "hor_starts", "ver_starts"):
        assert getattr(shared, name).tobytes() == getattr(copies, name).tobytes(), name
    for kind in FaceKind:
        for got, want in zip(shared.face_tables[kind], copies.face_tables[kind]):
            assert got.tobytes() == want.tobytes(), kind


def test_point_location_and_tie_breaking():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 2.0), UNIT, 2, 2)
    cases = [(0.5, 0.5, {}, 0), (1.5, 1.5, {}, 3),
             # interior cross point: upper slab in t, left neighbour in x
             (1.0, 1.0, {}, 2), (1.0, 1.0, {"t_side": "below"}, 0),
             (1.0, 1.0, {"x_side": "right"}, 3),
             (1.0, 1.0, {"t_side": "below", "x_side": "right"}, 1)]
    for x, t, sides, want in cases:
        assert locate(mesh, x, t, **sides) == want
        assert mesh.elements_at(x, t, **sides) == want
    assert mesh.slab_of_time(1.0, side="below") == 0
    assert mesh.slab_of_time(1.0, side="above") == 1
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    assert mesh.slab_of_time(ts).tolist() == [0, 0, 1, 1, 1]
    assert mesh.slab_of_time(ts, side="below").tolist() == [0, 0, 0, 1, 1]
    assert mesh.slab_of_time(ts, side="above").tolist() == [0, 0, 1, 1, 1]


def test_slab_of_time_rejects_an_unknown_side():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 2.0), UNIT, 2, 2)
    with pytest.raises(MismatchedDomain, match=r"\('below', 'above'\).*'abov'"):
        mesh.slab_of_time(1.0, side="abov")


def test_elements_at_rejects_an_unknown_side():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 2.0), UNIT, 2, 2)
    with pytest.raises(MismatchedDomain, match=r"\('left', 'right'\).*'lft'"):
        mesh.elements_at(1.0, 0.5, x_side="lft")
    with pytest.raises(MismatchedDomain, match=r"\('below', 'above'\).*'belo'"):
        mesh.elements_at(1.0, 1.0, t_side="belo")


def test_point_location_rejects_a_nan_coordinate():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 2.0), UNIT, 2, 2)
    with pytest.raises(MismatchedDomain, match="time nan outside"):
        mesh.slab_of_time(np.array([0.5, np.nan]))
    with pytest.raises(MismatchedDomain, match="x = nan outside"):
        mesh.elements_at(np.nan, 0.5)
    with pytest.raises(MismatchedDomain, match="time nan outside"):
        mesh.elements_at(0.5, np.nan)


def test_spacing_constructor_rounds_to_integer_counts():
    mesh = mesh_from_spacing(SpaceTimeDomain(0.0, 60.0, 60.0), UNIT, 0.3, 2.0)
    assert len(mesh.elem_grid[0]) == 200
    assert mesh.n_slabs == 30
    widths = {round(hx, 12) for hx in mesh.hx.tolist()}
    assert widths == {0.3}


@pytest.mark.parametrize("h_x, h_t", [(5e-324, 1.0), (1.0, 5e-324), (60 / 2**25, 1.0)])
def test_spacing_too_fine_for_the_arrays_raises_by_name(h_x, h_t):
    # 60 / 5e-324 is inf, which round() refused with an OverflowError
    with pytest.raises(TooManyCells):
        mesh_from_spacing(SpaceTimeDomain(0.0, 60.0, 60.0), UNIT, h_x, h_t)


@pytest.mark.parametrize("h_x, h_t", [(0.0, 1.0), (1.0, -1.0)])
def test_spacings_must_be_positive(h_x, h_t):
    with pytest.raises(NegativeExtent, match="must be positive"):
        mesh_from_spacing(SpaceTimeDomain(0.0, 60.0, 60.0), UNIT, h_x, h_t)


def test_vectorized_point_location_matches_element_at():
    # hanging nodes across both slab interfaces; points on every breakpoint,
    # every slab interface and the domain corners, and just off them by
    # less than the tie tolerance
    domain = SpaceTimeDomain(0.0, 2.0, 1.5)
    parts = [np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 2.0]),
             np.array([0.0, 0.4, 1.0, 1.7, 2.0])]
    mesh = build_mesh(domain, UNIT, [0.5, 0.4, 0.6], parts)
    xs = np.unique(np.concatenate(parts + [np.array([0.2, 1.5])]))
    ts = np.concatenate([mesh.slab_times, [0.25, 1.2]])
    xs = np.concatenate([xs, xs[1:-1] + 1e-14, xs[1:-1] - 1e-14])
    ts = np.concatenate([ts, ts[1:-1] + 1e-14, ts[1:-1] - 1e-14])
    X, T = (a.ravel() for a in np.meshgrid(xs, ts))
    for t_side in (None, "below", "above"):
        for x_side in (None, "left", "right"):
            got = mesh.elements_at(X, T, t_side=t_side, x_side=x_side)
            want = [locate(mesh, x, t, t_side=t_side, x_side=x_side) for x, t in zip(X, T)]
            assert got.tolist() == want
    with pytest.raises(MismatchedDomain):
        mesh.elements_at(np.array([0.5, 2.1]), np.array([0.5, 0.5]))
    with pytest.raises(MismatchedDomain):
        mesh.elements_at(np.array([0.5, 0.5]), np.array([0.5, -0.1]))


def test_slab_classes_follow_heights_and_partitions_by_value():
    # numbered in order of first appearance; a partition starting at -0.0
    # is the one starting at 0.0
    zero, minus = np.array([0.0, 1.0, 2.0]), np.array([-0.0, 1.0, 2.0])
    other = np.array([0.0, 0.5, 2.0])
    mesh = build_mesh(SpaceTimeDomain(0.0, 2.0, 2.0), UNIT, [0.5, 0.5, 0.5, 0.25, 0.25],
                      [zero, minus, other, zero, minus])
    assert _slab_classes(mesh, SPEC) == [0, 0, 1, 2, 2]
    mesh = build_mesh(SpaceTimeDomain(0.0, 2.0, 1.0), UNIT, [0.5, 0.5], [zero, minus])
    assert _slab_classes(mesh, SPEC) == [0, 0]


def test_mesh_arrays_are_read_only():
    domain = SpaceTimeDomain(0.0, 2.0, 1.5)
    parts = [np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 2.0]),
             np.array([0.0, 0.4, 1.0, 1.7, 2.0])]
    mesh = build_mesh(domain, UNIT, [0.5, 0.4, 0.6], parts)
    arrays = [mesh.x0, mesh.x1, mesh.t0, mesh.t1, mesh.eps, mesh.mu, mesh.slab,
              mesh.hx, mesh.ht, mesh.xc, mesh.tc, mesh.slab_starts, mesh.hor_starts,
              mesh.ver_starts, mesh.slab_heights, mesh.slab_times,
              *(a for table in mesh.face_tables.values() for a in table)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0
    # the caller's partitions are copied, not frozen
    assert all(p.flags.writeable for p in parts)


@settings(max_examples=50, deadline=None)
@given(random_meshes())
def test_random_meshes_are_consistent(case):
    domain, materials, heights, parts = case
    mesh = build_mesh(domain, materials, heights, parts)
    tables = mesh.face_tables
    # slab-local position of every element
    local = np.arange(mesh.n_elements) - mesh.slab_starts[mesh.slab]
    # elements tile the domain, slab by slab and left to right
    assert np.sum(mesh.hx * mesh.ht) == pytest.approx(domain.length * domain.t_final, rel=1e-12)
    for j, ids in enumerate(mesh.elem_grid):
        assert np.array_equal(np.append(mesh.x0[ids], mesh.x1[ids][-1]), parts[j])
        assert np.all(mesh.slab[ids] == j) and np.array_equal(local[ids], np.arange(len(ids)))
    assert np.array_equal(mesh.xc, 0.5 * (mesh.x0 + mesh.x1))
    assert np.array_equal(mesh.tc, 0.5 * (mesh.t0 + mesh.t1))
    assert np.array_equal(mesh.eps, materials.eps_at(mesh.xc))
    # the interface pieces of each slab interface cover it, inside both neighbours
    hor = tables[FaceKind.HOR_INTERNAL]
    for j in range(mesh.n_slabs - 1):
        rows = slice(mesh.hor_starts[j], mesh.hor_starts[j + 1])
        lo, hi, pos = hor.lo[rows], hor.hi[rows], hor.pos[rows]
        below, above = hor.elements[rows].T
        assert lo[0] == domain.x_l and hi[-1] == domain.x_r
        assert np.array_equal(lo[1:], hi[:-1]) and np.all(lo < hi)
        assert np.all(pos == mesh.slab_times[j + 1])
        # one piece per (below, above) pair: assembly places each piece's block alone
        assert len(np.unique(hor.elements[rows], axis=0)) == len(lo)
        assert np.all(mesh.slab[below] == j) and np.all(mesh.slab[above] == j + 1)
        assert np.all(mesh.t1[below] == pos) and np.all(mesh.t0[above] == pos)
        for e in (below, above):
            assert np.all(mesh.x0[e] <= lo) and np.all(hi <= mesh.x1[e])
    # every internal vertical face joins slab-local positions k and k + 1 of one slab
    ver = tables[FaceKind.VER_INTERNAL]
    left, right = ver.elements.T
    assert np.array_equal(mesh.slab[left], mesh.slab[right])
    assert np.array_equal(local[left] + 1, local[right])
    assert np.array_equal(ver.pos, mesh.x1[left]) and np.array_equal(ver.pos, mesh.x0[right])
    # face counts per kind
    interfaces = [len(np.union1d(a, b)) - 1 for a, b in zip(parts, parts[1:])]
    counts = {FaceKind.BOTTOM: len(parts[0]) - 1, FaceKind.TOP: len(parts[-1]) - 1,
              FaceKind.HOR_INTERNAL: sum(interfaces),
              FaceKind.VER_INTERNAL: sum(len(p) - 2 for p in parts),
              FaceKind.LEFT: mesh.n_slabs, FaceKind.RIGHT: mesh.n_slabs}
    assert {kind: len(table.pos) for kind, table in tables.items()} == counts
    assert np.array_equal(np.diff(mesh.hor_starts), interfaces)
    assert np.array_equal(np.diff(mesh.ver_starts), [len(p) - 2 for p in parts])
    # widths are x1 - x0 and heights the slab heights as given, not t1 - t0
    assert np.array_equal(mesh.hx, mesh.x1 - mesh.x0)
    assert np.array_equal(mesh.ht, np.asarray(heights)[mesh.slab])
    # point location at the element centres finds every element
    assert np.array_equal(mesh.elements_at(mesh.xc, mesh.tc), np.arange(mesh.n_elements))
    classes = _slab_classes(mesh, SPEC)
    assert (max(classes) == 0) == (len(set(heights)) == 1
                                   and all(np.array_equal(p, parts[0]) for p in parts))
    # slab classes: equal exactly where height and partition are, numbered
    # in order of first appearance
    layouts = [(h, tuple(p)) for h, p in zip(heights, parts)]
    assert classes == [list(dict.fromkeys(layouts)).index(l) for l in layouts]


def _mask_loop(mesh, x, t, t_side=None, x_side=None):
    """Mesh.elements_at as one full-length slab mask per slab: the reference
    for the single sort by slab."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    tol_x = 1e-12 * max(mesh.domain.length, 1.0)
    j = mesh.slab_of_time(t, side=t_side)
    out = np.empty(x.shape, dtype=int)
    for slab in np.unique(j):
        here = j == slab
        p = mesh.x0[mesh.slab_starts[slab]:mesh.slab_starts[slab + 1]]
        xs = x[here]
        k = np.clip(np.searchsorted(p, xs, side="right") - 1, 0, len(p) - 1)
        if x_side in ("left", None):
            k = k - ((k > 0) & (np.abs(xs - p[k]) <= tol_x))
        out[here] = mesh.slab_starts[slab] + k
    return out


@settings(max_examples=50, deadline=None)
@given(random_meshes(), st.randoms(use_true_random=False))
def test_elements_at_is_the_per_slab_mask_loop(case, rnd):
    # every vertical edge of every slab at every slab interface, slab centre
    # and the end times, shuffled so that the slabs interleave
    mesh = build_mesh(*case)
    xs = np.unique(np.concatenate([mesh.x0, mesh.x1]))
    ts = np.concatenate([mesh.slab_times, 0.5 * (mesh.slab_times[1:] + mesh.slab_times[:-1])])
    X, T = (a.ravel() for a in np.meshgrid(xs, ts))
    order = list(range(len(X)))
    rnd.shuffle(order)
    X, T = X[order], T[order]
    cols = len(xs)
    for t_side in (None, "below", "above"):
        for x_side in (None, "left", "right"):
            sides = {"t_side": t_side, "x_side": x_side}
            got = mesh.elements_at(X.reshape(-1, cols), T.reshape(-1, cols), **sides)
            assert got.shape == (len(ts), cols)
            assert np.array_equal(got, _mask_loop(mesh, X, T, **sides).reshape(-1, cols))
            for x, t in zip(X[:5], T[:5]):
                one = mesh.elements_at(x, t, **sides)
                assert np.shape(one) == () and one == _mask_loop(mesh, x, t, **sides)
