"""Mesh construction: element/face combinatorics, unions, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefftzdg.errors import (
    EmptyPartition,
    MismatchedDomain,
    NegativeExtent,
    NonconformingMaterial,
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

UNIT = MaterialLayout.constant(1.0, 1.0)


def test_domain_validation():
    d = SpaceTimeDomain(0.0, 60.0, 60.0)
    assert d.length == 60.0
    with pytest.raises(NegativeExtent):
        SpaceTimeDomain(1.0, 1.0, 5.0)
    with pytest.raises(NegativeExtent):
        SpaceTimeDomain(0.0, 1.0, 0.0)


def test_material_lookup():
    m = MaterialLayout(breakpoints=(2.0, 5.0), eps=(1.0, 4.0, 1.0), mu=(1.0, 1.0, 9.0))
    assert not m.is_constant
    assert m.eps_at(1.0) == 1.0
    assert m.eps_at(3.0) == 4.0
    assert m.mu_at(7.0) == 9.0
    assert m.wave_speed_at(3.0) == 0.5
    assert m.wave_speed_at(7.0) == pytest.approx(1.0 / 3.0)
    assert MaterialLayout.constant(2.0, 8.0).wave_speed_at(0.0) == 0.25


def test_uniform_mesh_counts_sixty_by_sixty():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 60.0, 60.0), UNIT, 60, 60)
    assert mesh.n_elements == 3600
    assert mesh.n_slabs == 60
    assert sum(len(g) for g in mesh.hor_pieces) == 59 * 60
    assert sum(len(g) for g in mesh.ver_faces) == 60 * 59
    assert len(mesh.face_tables[FaceKind.BOTTOM].pos) == 60
    assert len(mesh.face_tables[FaceKind.TOP].pos) == 60
    assert len(mesh.left_faces) == 60
    assert len(mesh.right_faces) == 60
    assert mesh.identical_slabs
    assert mesh.hx_max == 1.0


def test_single_element_mesh_has_four_boundary_faces():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 1.0, 1.0), UNIT, 1, 1)
    assert mesh.n_elements == 1
    kinds = sorted(f.kind.name for f in mesh.faces)
    assert kinds == ["BOTTOM", "LEFT", "RIGHT", "TOP"]


def test_element_areas_tile_the_domain():
    domain = SpaceTimeDomain(-1.0, 3.0, 2.0)
    parts = [
        np.array([-1.0, 0.0, 1.5, 3.0]),
        np.array([-1.0, 1.0, 3.0]),
        np.array([-1.0, -0.5, 0.5, 2.0, 3.0]),
    ]
    mesh = build_mesh(domain, UNIT, [0.5, 0.75, 0.75], parts)
    area = sum(e.hx * e.ht for e in mesh.elements)
    assert area == pytest.approx(domain.length * domain.t_final, abs=1e-12)


def test_hanging_interface_pieces_cover_the_interface():
    domain = SpaceTimeDomain(0.0, 2.0, 1.0)
    parts = [np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 2.0])]
    mesh = build_mesh(domain, UNIT, [0.5, 0.5], parts)
    pieces = [mesh.faces[i] for i in mesh.hor_pieces[0]]
    assert sorted((f.lo, f.hi) for f in pieces) == [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0)]
    for f in pieces:
        below, above = mesh.elements[f.below], mesh.elements[f.above]
        assert below.t1 == above.t0 == f.pos
        assert below.x0 <= f.lo and f.hi <= below.x1
        assert above.x0 <= f.lo and f.hi <= above.x1


def test_vertical_faces_join_horizontal_neighbours():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 3.0, 2.0), UNIT, 3, 2)
    for group in mesh.ver_faces:
        for fi in group:
            f = mesh.faces[fi]
            assert f.kind is FaceKind.VER_INTERNAL
            left, right = mesh.elements[f.left], mesh.elements[f.right]
            assert left.x1 == right.x0 == f.pos
            assert left.slab == right.slab
            assert left.col + 1 == right.col


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
    assert mesh.elements[0].eps == 1.0
    assert mesh.elements[1].eps == 4.0
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


def test_point_location_and_tie_breaking():
    mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 2.0), UNIT, 2, 2)
    assert mesh.element_at(0.5, 0.5).index == 0
    assert mesh.element_at(1.5, 1.5).index == 3
    # interior cross point: upper slab in t, left neighbour in x
    assert mesh.element_at(1.0, 1.0).index == 2
    assert mesh.element_at(1.0, 1.0, t_side="below").index == 0
    assert mesh.element_at(1.0, 1.0, x_side="right").index == 3
    assert mesh.element_at(1.0, 1.0, t_side="below", x_side="right").index == 1
    assert mesh.slab_of_time(1.0, side="below") == 0
    assert mesh.slab_of_time(1.0, side="above") == 1


def test_spacing_constructor_rounds_to_integer_counts():
    mesh = mesh_from_spacing(SpaceTimeDomain(0.0, 60.0, 60.0), UNIT, 0.3, 2.0)
    assert len(mesh.elem_grid[0]) == 200
    assert mesh.n_slabs == 30
    widths = {round(e.hx, 12) for e in mesh.elements}
    assert widths == {0.3}


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
            want = [mesh.element_at(x, t, t_side=t_side, x_side=x_side).index
                    for x, t in zip(X, T)]
            assert got.tolist() == want
    with pytest.raises(MismatchedDomain):
        mesh.elements_at(np.array([0.5, 2.1]), np.array([0.5, 0.5]))
    with pytest.raises(MismatchedDomain):
        mesh.elements_at(np.array([0.5, 0.5]), np.array([0.5, -0.1]))


def test_mesh_arrays_are_read_only():
    domain = SpaceTimeDomain(0.0, 2.0, 1.5)
    parts = [np.array([0.0, 0.6, 1.0, 2.0]), np.array([0.0, 1.0, 1.3, 2.0]),
             np.array([0.0, 0.4, 1.0, 1.7, 2.0])]
    mesh = build_mesh(domain, UNIT, [0.5, 0.4, 0.6], parts)
    arrays = [mesh.x0, mesh.x1, mesh.t0, mesh.t1, mesh.eps, mesh.mu, mesh.slab, mesh.col,
              mesh.hx, mesh.ht, mesh.slab_starts, mesh.hor_starts, mesh.ver_starts,
              mesh.slab_heights, mesh.slab_times, *mesh.partitions,
              *(a for table in mesh.face_tables.values() for a in table)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0
    # the caller's partitions are copied, not frozen
    assert all(p.flags.writeable for p in parts)


@st.composite
def _random_meshes(draw):
    """Per-slab partitions drawn from a scaled integer grid (hanging nodes
    across slab interfaces), material breakpoints on every partition and
    random slab heights."""
    n = draw(st.integers(2, 9))
    grid = draw(st.floats(-5.0, 5.0)) + draw(st.floats(0.1, 10.0)) * np.arange(n + 1)
    breaks = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    n_slabs = draw(st.integers(1, 4))
    heights = draw(st.lists(st.floats(0.1, 2.0), min_size=n_slabs, max_size=n_slabs))
    parts = [grid[sorted({0, n, *breaks, *draw(st.sets(st.integers(1, n - 1)))})]
             for _ in range(n_slabs)]
    values = st.lists(st.floats(0.5, 4.0), min_size=len(breaks) + 1, max_size=len(breaks) + 1)
    materials = MaterialLayout(tuple(grid[breaks]), draw(values), draw(values))
    return SpaceTimeDomain(grid[0], grid[-1], sum(heights)), materials, heights, parts


@settings(max_examples=50, deadline=None)
@given(_random_meshes())
def test_random_meshes_are_consistent(case):
    domain, materials, heights, parts = case
    mesh = build_mesh(domain, materials, heights, parts)
    tables = mesh.face_tables
    # elements tile the domain, slab by slab and left to right
    assert np.sum(mesh.hx * mesh.ht) == pytest.approx(domain.length * domain.t_final, rel=1e-12)
    for j, ids in enumerate(mesh.elem_grid):
        assert np.array_equal(np.append(mesh.x0[ids], mesh.x1[ids][-1]), parts[j])
        assert np.all(mesh.slab[ids] == j) and np.array_equal(mesh.col[ids], np.arange(len(ids)))
    assert np.array_equal(mesh.eps, materials.eps_at(0.5 * (mesh.x0 + mesh.x1)))
    # the interface pieces of each slab interface cover it, inside both neighbours
    hor = tables[FaceKind.HOR_INTERNAL]
    for j in range(mesh.n_slabs - 1):
        rows = slice(mesh.hor_starts[j], mesh.hor_starts[j + 1])
        lo, hi, pos = hor.lo[rows], hor.hi[rows], hor.pos[rows]
        below, above = hor.elements[rows].T
        assert lo[0] == domain.x_l and hi[-1] == domain.x_r
        assert np.array_equal(lo[1:], hi[:-1]) and np.all(lo < hi)
        assert np.all(pos == mesh.slab_times[j + 1])
        assert np.all(mesh.slab[below] == j) and np.all(mesh.slab[above] == j + 1)
        assert np.all(mesh.t1[below] == pos) and np.all(mesh.t0[above] == pos)
        for e in (below, above):
            assert np.all(mesh.x0[e] <= lo) and np.all(hi <= mesh.x1[e])
    # every internal vertical face joins col and col + 1 of one slab
    ver = tables[FaceKind.VER_INTERNAL]
    left, right = ver.elements.T
    assert np.array_equal(mesh.slab[left], mesh.slab[right])
    assert np.array_equal(mesh.col[left] + 1, mesh.col[right])
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
    # the views equal their array rows; face ids run kind by kind in FaceKind order
    for i, e in enumerate(mesh.elements):
        assert (e.index, e.slab, e.col, e.x0, e.x1, e.t0, e.t1, e.eps, e.mu) == (
            i, mesh.slab[i], mesh.col[i], mesh.x0[i], mesh.x1[i], mesh.t0[i], mesh.t1[i],
            mesh.eps[i], mesh.mu[i])
    rows = [(kind, r) for kind in FaceKind for r in range(len(tables[kind].pos))]
    assert len(mesh.faces) == len(rows)
    for f, (kind, r) in zip(mesh.faces, rows):
        a, b = tables[kind].elements[r]
        horizontal = kind in (FaceKind.BOTTOM, FaceKind.TOP, FaceKind.HOR_INTERNAL)
        sides = (f.below, f.above) if horizontal else (f.left, f.right)
        unused = (f.left, f.right) if horizontal else (f.below, f.above)
        assert (f.kind, f.pos, f.lo, f.hi) == (kind, *(tables[kind][c][r] for c in range(3)))
        assert sides == (a, b) and unused == (-1, -1)
        assert f.element == (max(a, b) if min(a, b) < 0 else -1)
    # point location at the element centres finds every element
    centres = 0.5 * (mesh.x0 + mesh.x1), 0.5 * (mesh.t0 + mesh.t1)
    assert np.array_equal(mesh.elements_at(*centres), np.arange(mesh.n_elements))
    assert mesh.identical_slabs == (len(set(heights)) == 1
                                    and all(np.array_equal(p, parts[0]) for p in parts))
