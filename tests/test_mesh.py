"""Mesh construction: element/face combinatorics, unions, and validation."""

import numpy as np
import pytest

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
    assert len(mesh.bottom_faces) == 60
    assert len(mesh.top_faces) == 60
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
