"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

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
