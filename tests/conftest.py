"""Hypothesis strategies and reference oracles shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from trefftzdg.errors import MismatchedDomain
from trefftzdg.mesh import MaterialLayout, SpaceTimeDomain


@st.composite
def random_meshes(draw):
    """Per-slab partitions drawn from a scaled integer grid (hanging nodes
    across slab interfaces), material breakpoints on every partition and
    random slab heights: build_mesh's (domain, materials, heights, parts)."""
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


def locate(mesh, x, t, t_side=None, x_side=None):
    """Index of the element containing the point (x, t), one point at a time:
    the reference that Mesh.elements_at is checked against.

    On a slab interface the point belongs to the upper slab; on a vertical
    edge, to the left element. t_side ('below'/'above') and x_side
    ('left'/'right') pick the neighbour instead.
    """
    tol = 1e-12 * max(mesh.domain.length, 1.0)
    if x < mesh.domain.x_l - tol or x > mesh.domain.x_r + tol:
        raise MismatchedDomain(f"x = {x} outside [{mesh.domain.x_l}, {mesh.domain.x_r}]")
    times = mesh.slab_times
    tol_t = 1e-12 * max(mesh.domain.t_final, 1.0)
    if t < times[0] - tol_t or t > times[-1] + tol_t:
        raise MismatchedDomain(f"time {t} outside [0, {times[-1]}]")
    j = int(np.searchsorted(times, t, side="right")) - 1
    j = min(max(j, 0), mesh.n_slabs - 1)
    # on an interface, searchsorted lands in the upper slab
    if t_side == "below" and j > 0 and abs(t - times[j]) <= tol_t:
        j -= 1
    elif t_side == "above" and j < mesh.n_slabs - 1 and abs(t - times[j + 1]) <= tol_t:
        j += 1
    ids = mesh.elem_grid[j]
    p = np.append(mesh.x0[ids], mesh.x1[ids][-1])  # the slab's partition
    k = int(np.searchsorted(p, x, side="right")) - 1
    k = min(max(k, 0), len(p) - 2)
    if x_side in ("left", None) and k > 0 and abs(x - p[k]) <= tol:
        k -= 1  # tie toward the smaller element index
    return int(mesh.slab_starts[j] + k)


def perturbed_partitions(n_slabs=4, cells=24, h=0.25, amplitude=0.01):
    """build_mesh's (domain, materials, heights, parts) for n_slabs slabs of
    height h over cells cells of width h, node i of slab j's partition moved
    by amplitude * sin(j + i) inside the domain: every slab its own
    partition and nearly every element its own width. amplitude = 0 gives
    the uniform twin."""
    nodes = h * np.arange(cells + 1)
    parts = []
    for j in range(n_slabs):
        part = nodes.copy()
        part[1:-1] += amplitude * np.sin(j + np.arange(1, cells))
        parts.append(part)
    return (SpaceTimeDomain(0.0, nodes[-1], n_slabs * h), MaterialLayout.constant(),
            [h] * n_slabs, parts)
