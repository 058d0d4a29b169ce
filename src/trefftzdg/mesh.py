"""Tensor-product space-time meshes on a 1D spatial interval.

The mesh is a stack of time slabs; each slab carries its own spatial
partition, so hanging nodes may occur across slab interfaces (handled
by splitting the interface into pieces of the union partition) but
never inside a slab. Material interfaces must coincide with partition
breakpoints in every slab, which keeps the coefficients constant on
each element.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EmptyPartition,
    MismatchedDomain,
    NegativeExtent,
    NonconformingMaterial,
)

#: relative tolerance for matching breakpoints against partitions
BREAKPOINT_RTOL = 1e-9


@dataclass(frozen=True)
class SpaceTimeDomain:
    """Space-time cylinder (x_l, x_r) x (0, t_final)."""

    x_l: float
    x_r: float
    t_final: float

    def __post_init__(self):
        if not self.x_r > self.x_l:
            raise NegativeExtent(
                f"spatial interval [{self.x_l}, {self.x_r}] has non-positive length"
            )
        if not self.t_final > 0:
            raise NegativeExtent(f"final time {self.t_final} must be positive")

    @property
    def length(self):
        return self.x_r - self.x_l


@dataclass(frozen=True)
class MaterialLayout:
    """Piecewise-constant permittivity and permeability.

    breakpoints are the interior material interfaces (sorted, strictly
    inside the domain once attached to one); eps and mu hold one value
    per interval, so len(eps) == len(mu) == len(breakpoints) + 1.
    """

    breakpoints: tuple
    eps: tuple
    mu: tuple

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.eps) != len(self.breakpoints) + 1 or len(self.mu) != len(self.eps):
            raise MismatchedDomain(
                f"{len(self.breakpoints)} breakpoints require "
                f"{len(self.breakpoints) + 1} material values, got "
                f"eps: {len(self.eps)}, mu: {len(self.mu)}"
            )
        if any(e <= 0 for e in self.eps) or any(m <= 0 for m in self.mu):
            raise NegativeExtent("eps and mu must be positive")
        if any(b1 <= b0 for b0, b1 in zip(self.breakpoints, self.breakpoints[1:])):
            raise MismatchedDomain("material breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, eps=1.0, mu=1.0):
        return cls((), (eps,), (mu,))

    @property
    def is_constant(self):
        return len(self.eps) == 1

    def _interval(self, x):
        return np.searchsorted(np.asarray(self.breakpoints), x, side="right")

    def eps_at(self, x):
        return np.asarray(self.eps)[self._interval(x)]

    def mu_at(self, x):
        return np.asarray(self.mu)[self._interval(x)]

    def wave_speed_at(self, x):
        return 1.0 / np.sqrt(self.eps_at(x) * self.mu_at(x))


@dataclass(frozen=True)
class Element:
    """Axis-aligned space-time cell with constant materials."""

    index: int
    slab: int
    col: int
    x0: float
    x1: float
    t0: float
    t1: float
    eps: float
    mu: float

    @property
    def hx(self):
        return self.x1 - self.x0

    @property
    def ht(self):
        return self.t1 - self.t0

    @property
    def wave_speed(self):
        return 1.0 / np.sqrt(self.eps * self.mu)

    @property
    def center(self):
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.t0 + self.t1)

    def contains(self, x, t, tol=1e-12):
        sx = tol * max(self.hx, 1.0)
        st = tol * max(self.ht, 1.0)
        return (self.x0 - sx <= x <= self.x1 + sx) and (self.t0 - st <= t <= self.t1 + st)


class FaceKind(enum.Enum):
    BOTTOM = "bottom"          # initial-time boundary t = 0
    TOP = "top"                # final-time boundary t = T
    HOR_INTERNAL = "hor"       # slab interface piece, normal in time
    VER_INTERNAL = "ver"       # element interface inside a slab, normal in space
    LEFT = "left"              # lateral boundary x = x_l
    RIGHT = "right"            # lateral boundary x = x_r


@dataclass(frozen=True)
class Face:
    """Skeleton segment.

    Horizontal faces (BOTTOM/TOP/HOR_INTERNAL) run along x at fixed
    time `pos` over (lo, hi); vertical faces (VER_INTERNAL/LEFT/RIGHT)
    run along t at fixed position `pos`. For HOR_INTERNAL, below/above
    are the adjacent element indices; for VER_INTERNAL, left/right.
    Boundary faces carry the single adjacent element in `element`.
    """

    kind: FaceKind
    pos: float
    lo: float
    hi: float
    element: int = -1
    below: int = -1
    above: int = -1
    left: int = -1
    right: int = -1

    @property
    def length(self):
        return self.hi - self.lo


def union_interface(partition_a, partition_b, tol=None):
    """Merge two partitions of the same interval into interface pieces.

    Returns the sorted union breakpoints as an array; consecutive pairs
    are the pieces each bounded by exactly one element on either side.
    Raises MismatchedDomain when the endpoint pairs disagree.
    """
    a = np.asarray(partition_a, dtype=float)
    b = np.asarray(partition_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise EmptyPartition("partitions need at least two breakpoints")
    span = max(a[-1] - a[0], b[-1] - b[0])
    if tol is None:
        tol = BREAKPOINT_RTOL * span
    if abs(a[0] - b[0]) > tol or abs(a[-1] - b[-1]) > tol:
        raise MismatchedDomain(
            f"partitions cover [{a[0]}, {a[-1]}] vs [{b[0]}, {b[-1]}]"
        )
    merged = np.sort(np.concatenate([a, b]))
    keep = np.concatenate([[True], np.diff(merged) > tol])
    return merged[keep]


def _validate_partition(partition, domain, materials, slab_index):
    p = np.asarray(partition, dtype=float)
    if p.size < 2:
        raise EmptyPartition(f"slab {slab_index}: partition needs at least two breakpoints")
    if np.any(np.diff(p) <= 0):
        raise EmptyPartition(f"slab {slab_index}: partition must be strictly increasing")
    tol = BREAKPOINT_RTOL * domain.length
    if abs(p[0] - domain.x_l) > tol or abs(p[-1] - domain.x_r) > tol:
        raise MismatchedDomain(
            f"slab {slab_index}: partition covers [{p[0]}, {p[-1]}], "
            f"domain is [{domain.x_l}, {domain.x_r}]"
        )
    for b in materials.breakpoints:
        if not (domain.x_l < b < domain.x_r):
            raise NonconformingMaterial(
                f"material breakpoint {b} outside the open spatial interval"
            )
        if np.min(np.abs(p - b)) > tol:
            raise NonconformingMaterial(
                f"slab {slab_index}: material breakpoint {b} is not a partition breakpoint"
            )
    return p


@dataclass
class Mesh:
    domain: SpaceTimeDomain
    materials: MaterialLayout
    slab_heights: np.ndarray
    slab_times: np.ndarray          # length n_slabs + 1, slab_times[0] == 0
    partitions: list                # one breakpoint array per slab
    elements: list = field(default_factory=list)
    faces: list = field(default_factory=list)
    elem_grid: list = field(default_factory=list)   # elem_grid[slab][col] -> element index
    # face indices grouped for assembly: per-slab and per-interface views
    bottom_faces: list = field(default_factory=list)
    top_faces: list = field(default_factory=list)
    hor_pieces: list = field(default_factory=list)  # hor_pieces[j]: slab j / j+1 interface
    ver_faces: list = field(default_factory=list)   # ver_faces[j]: internal faces of slab j
    left_faces: list = field(default_factory=list)
    right_faces: list = field(default_factory=list)

    @property
    def n_slabs(self):
        return len(self.partitions)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def identical_slabs(self):
        """True when every slab shares height and spatial partition exactly."""
        h0 = self.slab_heights[0]
        if any(h != h0 for h in self.slab_heights):
            return False
        p0 = self.partitions[0]
        return all(np.array_equal(p, p0) for p in self.partitions[1:])

    @cached_property
    def hx_max(self):
        """Largest element width; computed once, the mesh is final after build_mesh."""
        return max(e.hx for e in self.elements)

    def slab_of_time(self, t, side=None):
        """Index of the slab containing time t; `side` breaks interface ties."""
        times = self.slab_times
        tol = 1e-12 * max(self.domain.t_final, 1.0)
        if t < times[0] - tol or t > times[-1] + tol:
            raise MismatchedDomain(f"time {t} outside [0, {times[-1]}]")
        j = int(np.searchsorted(times, t, side="right")) - 1
        j = min(max(j, 0), self.n_slabs - 1)
        # on an interface, searchsorted lands in the upper slab
        if side == "below" and j > 0 and abs(t - times[j]) <= tol:
            return j - 1
        if side == "above" and j < self.n_slabs - 1 and abs(t - times[j + 1]) <= tol:
            return j + 1
        return j

    def element_at(self, x, t, t_side=None, x_side=None):
        """Element containing (x, t).

        On a slab interface the point belongs to the upper slab; on a
        vertical edge, to the left element.  t_side ('below'/'above') and
        x_side ('left'/'right') pick the neighbour instead.
        """
        tol = 1e-12 * max(self.domain.length, 1.0)
        if x < self.domain.x_l - tol or x > self.domain.x_r + tol:
            raise MismatchedDomain(f"x = {x} outside [{self.domain.x_l}, {self.domain.x_r}]")
        j = self.slab_of_time(t, side=t_side)
        p = self.partitions[j]
        k = int(np.searchsorted(p, x, side="right")) - 1
        k = min(max(k, 0), len(p) - 2)
        if x_side == "left" and k > 0 and abs(x - p[k]) <= tol:
            k -= 1
        elif x_side is None and k > 0 and abs(x - p[k]) <= tol:
            k -= 1  # tie toward the smaller element index
        return self.elements[self.elem_grid[j][k]]

    def elements_at(self, x, t, t_side=None, x_side=None):
        """Indices of the elements containing the points (x, t).

        The array form of element_at, with the same tie rules and
        tolerances: searchsorted on the slab times, then on each slab's
        partition.
        """
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        tol_x = 1e-12 * max(self.domain.length, 1.0)
        outside = (x < self.domain.x_l - tol_x) | (x > self.domain.x_r + tol_x)
        if outside.any():
            raise MismatchedDomain(
                f"x = {x[outside][0]} outside [{self.domain.x_l}, {self.domain.x_r}]")
        times = self.slab_times
        tol_t = 1e-12 * max(self.domain.t_final, 1.0)
        outside = (t < times[0] - tol_t) | (t > times[-1] + tol_t)
        if outside.any():
            raise MismatchedDomain(f"time {t[outside][0]} outside [0, {times[-1]}]")
        j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, self.n_slabs - 1)
        if t_side == "below":
            j = j - ((j > 0) & (np.abs(t - times[j]) <= tol_t))
        elif t_side == "above":
            j = j + ((j < self.n_slabs - 1) & (np.abs(t - times[j + 1]) <= tol_t))
        out = np.empty(x.shape, dtype=int)
        for slab in np.unique(j):
            here = j == slab
            p = self.partitions[slab]
            xs = x[here]
            k = np.clip(np.searchsorted(p, xs, side="right") - 1, 0, len(p) - 2)
            if x_side in ("left", None):
                k = k - ((k > 0) & (np.abs(xs - p[k]) <= tol_x))
            out[here] = np.asarray(self.elem_grid[slab])[k]
        return out


def build_mesh(domain, materials, slab_heights, x_partitions):
    """Build a space-time mesh from slab heights and per-slab partitions.

    x_partitions is either a single breakpoint array (shared by all
    slabs) or one array per slab, each running from x_l to x_r and
    containing every material breakpoint.
    """
    heights = [float(h) for h in np.atleast_1d(np.asarray(slab_heights, dtype=float))]
    if len(heights) == 0:
        raise EmptyPartition("need at least one slab")
    if any(h <= 0 for h in heights):
        raise NegativeExtent(f"slab heights must be positive, got {heights}")
    total = sum(heights)
    if abs(total - domain.t_final) > BREAKPOINT_RTOL * domain.t_final:
        raise MismatchedDomain(
            f"slab heights sum to {total}, domain extends to {domain.t_final}"
        )
    n_slabs = len(heights)

    if len(x_partitions) == 0:
        raise EmptyPartition("empty partition list")
    first = np.asarray(x_partitions[0], dtype=float)
    if first.ndim == 0:  # a single flat array was passed
        parts = [np.asarray(x_partitions, dtype=float)] * n_slabs
    else:
        parts = [np.asarray(p, dtype=float) for p in x_partitions]
        if len(parts) != n_slabs:
            raise MismatchedDomain(
                f"{len(parts)} partitions for {n_slabs} slabs"
            )
    parts = [
        _validate_partition(p, domain, materials, j) for j, p in enumerate(parts)
    ]

    times = np.empty(n_slabs + 1)
    times[0] = 0.0
    for j, h in enumerate(heights):
        times[j + 1] = times[j] + h

    mesh = Mesh(
        domain=domain,
        materials=materials,
        slab_heights=np.asarray(heights),
        slab_times=times,
        partitions=parts,
    )

    for j, p in enumerate(parts):
        row = []
        mids = 0.5 * (p[:-1] + p[1:])
        eps = materials.eps_at(mids)
        mu = materials.mu_at(mids)
        for k in range(len(p) - 1):
            idx = len(mesh.elements)
            mesh.elements.append(
                Element(
                    index=idx, slab=j, col=k,
                    x0=p[k], x1=p[k + 1],
                    t0=times[j], t1=times[j] + heights[j],
                    eps=float(eps[k]), mu=float(mu[k]),
                )
            )
            row.append(idx)
        mesh.elem_grid.append(row)

    faces = mesh.faces

    def _add(face, group):
        group.append(len(faces))
        faces.append(face)

    for k, idx in enumerate(mesh.elem_grid[0]):
        e = mesh.elements[idx]
        _add(Face(FaceKind.BOTTOM, pos=0.0, lo=e.x0, hi=e.x1, element=idx, above=idx),
             mesh.bottom_faces)
    for j in range(n_slabs - 1):
        interface = union_interface(parts[j], parts[j + 1])
        t_int = times[j + 1]
        group = []
        for a, b in zip(interface[:-1], interface[1:]):
            mid = 0.5 * (a + b)
            kb = int(np.searchsorted(parts[j], mid)) - 1
            ka = int(np.searchsorted(parts[j + 1], mid)) - 1
            below = mesh.elem_grid[j][kb]
            above = mesh.elem_grid[j + 1][ka]
            _add(Face(FaceKind.HOR_INTERNAL, pos=t_int, lo=a, hi=b, below=below, above=above),
                 group)
        mesh.hor_pieces.append(group)
    for k, idx in enumerate(mesh.elem_grid[-1]):
        e = mesh.elements[idx]
        _add(Face(FaceKind.TOP, pos=times[-1], lo=e.x0, hi=e.x1, element=idx, below=idx),
             mesh.top_faces)
    for j, p in enumerate(parts):
        t0, t1 = times[j], times[j + 1]
        group = []
        for k in range(len(p) - 2):
            _add(Face(FaceKind.VER_INTERNAL, pos=p[k + 1], lo=t0, hi=t1,
                      left=mesh.elem_grid[j][k], right=mesh.elem_grid[j][k + 1]),
                 group)
        mesh.ver_faces.append(group)
        _add(Face(FaceKind.LEFT, pos=p[0], lo=t0, hi=t1,
                  element=mesh.elem_grid[j][0], right=mesh.elem_grid[j][0]),
             mesh.left_faces)
        _add(Face(FaceKind.RIGHT, pos=p[-1], lo=t0, hi=t1,
                  element=mesh.elem_grid[j][-1], left=mesh.elem_grid[j][-1]),
             mesh.right_faces)
    return mesh


def uniform_mesh(domain, materials, n_x, n_t):
    """Uniform n_x-by-n_t mesh; material breakpoints must land on the grid."""
    if n_x < 1 or n_t < 1:
        raise EmptyPartition(f"need at least one cell per direction, got {n_x} x {n_t}")
    partition = np.linspace(domain.x_l, domain.x_r, n_x + 1)
    height = domain.t_final / n_t
    return build_mesh(domain, materials, [height] * n_t, partition)


def mesh_from_spacing(domain, materials, h_x, h_t):
    """Uniform mesh from target spacings; counts are rounded to integers."""
    if h_x <= 0 or h_t <= 0:
        raise NegativeExtent(f"spacings must be positive, got h_x={h_x}, h_t={h_t}")
    n_x = max(1, round(domain.length / h_x))
    n_t = max(1, round(domain.t_final / h_t))
    return uniform_mesh(domain, materials, n_x, n_t)
