"""Tensor-product space-time meshes on a 1D spatial interval.

The mesh is a stack of time slabs; each slab carries its own spatial
partition, so hanging nodes may occur across slab interfaces (handled
by splitting the interface into pieces of the union partition) but
never inside a slab. Material interfaces must coincide with partition
breakpoints in every slab, which keeps the coefficients constant on
each element.

A Mesh is a set of read-only numpy arrays. Elements are numbered slab by
slab, left to right: x0, x1, t0, t1, eps, mu and slab hold one entry per
element (hx = x1 - x0, ht is the slab's height, and xc, tc the centre),
and slab j owns the index range slab_starts[j]:slab_starts[j + 1]
(elem_grid[j]), so its partition is x0 of that range followed by the last
x1. signature numbers each element's (hx, ht, eps, mu) class, computed
once when the mesh is built. Faces live in one FaceTable per FaceKind, in
mesh order: pos, lo, hi and the two adjacent element ids. hor_starts and
ver_starts are the per-interface and per-slab offsets into the
HOR_INTERNAL and VER_INTERNAL tables; the lateral tables hold one row per
slab, and FACE_SIDES says which side of each face its elements lie on. An
element's row index is its only handle: its basis (basis.element_basis)
is built from the row's hx, ht, eps and mu.
"""

import enum
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    EmptyPartition,
    MismatchedDomain,
    NegativeExtent,
    NonconformingMaterial,
    TooManyCells,
)

#: relative tolerance for matching breakpoints against partitions
BREAKPOINT_RTOL = 1e-9
#: cells per direction: numpy can size every mesh array below it
MAX_CELLS = 2**24


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


class FaceKind(enum.Enum):
    BOTTOM = "bottom"          # initial-time boundary t = 0
    TOP = "top"                # final-time boundary t = T
    HOR_INTERNAL = "hor"       # slab interface piece, normal in time
    VER_INTERNAL = "ver"       # element interface inside a slab, normal in space
    LEFT = "left"              # lateral boundary x = x_l
    RIGHT = "right"            # lateral boundary x = x_r


def union_interface(partition_a, partition_b):
    """Merge two partitions of the same interval into interface pieces.

    Returns the sorted union breakpoints as an array; consecutive pairs
    are the pieces each bounded by exactly one element on either side.
    Raises MismatchedDomain when the endpoint pairs disagree.
    """
    a = np.asarray(partition_a, dtype=float)
    b = np.asarray(partition_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise EmptyPartition("partitions need at least two breakpoints")
    tol = BREAKPOINT_RTOL * max(a[-1] - a[0], b[-1] - b[0])
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
            raise NonconformingMaterial(f"material breakpoint {b} outside the open domain")
        if np.min(np.abs(p - b)) > tol:
            raise NonconformingMaterial(
                f"material breakpoint {b} misses the partition of slab {slab_index}"
            )
    return p


def cell_count(extent, h):
    """mesh_from_spacing's number of cells of spacing about h across extent:
    round(extent / h), at least one."""
    if not h > 0:
        raise NegativeExtent(f"spacing {h} must be positive")
    if not extent / h <= MAX_CELLS:
        raise TooManyCells(f"spacing {h} gives more than {MAX_CELLS} cells across {extent}")
    return max(1, round(extent / h))


def spacing_partition(domain, materials, h_x):
    """mesh_from_spacing's partition of every slab, checked against the
    domain and the material breakpoints."""
    partition = np.linspace(domain.x_l, domain.x_r, cell_count(domain.length, h_x) + 1)
    return _validate_partition(partition, domain, materials, 0)


#: The faces of one kind in mesh order, as read-only arrays. Row r is the
#: segment (lo[r], hi[r]) at pos[r]: along x at time pos for the horizontal
#: kinds (BOTTOM, TOP, HOR_INTERNAL), along t at position pos for the
#: vertical ones. elements[r] holds the adjacent element below (horizontal
#: kinds) or left (vertical kinds) of the face, then the one above or
#: right, with -1 outside the boundary.
FaceTable = namedtuple("FaceTable", "pos lo hi elements")

#: Face kinds in the order the DG norm sums them: whether their faces run
#: along x, and per adjacent element its column in the FaceTable's elements,
#: the sign of the face's offset from the element's centre (the outward
#: normal; -1 at x_l on a wall) and the side a reference is traced from.
FACE_SIDES = {
    FaceKind.HOR_INTERNAL: (True, ((0, +1, "below"), (1, -1, "above"))),
    FaceKind.BOTTOM: (True, ((1, -1, "above"),)),
    FaceKind.TOP: (True, ((0, +1, "below"),)),
    FaceKind.VER_INTERNAL: (False, ((0, +1, "left"), (1, -1, "right"))),
    FaceKind.LEFT: (False, ((1, -1, "right"),)),
    FaceKind.RIGHT: (False, ((0, +1, "left"),)),
}

T_SIDES, X_SIDES = ("below", "above"), ("left", "right")


def check_side(side, allowed):
    """Raise MismatchedDomain unless side is None or one of allowed."""
    if side is not None and side not in allowed:
        raise MismatchedDomain(f"side must be one of {allowed} or None, got {side!r}")


def _pair(a, b):
    """(n, 2) element ids from two columns, either of which may be the scalar -1."""
    return np.column_stack(np.broadcast_arrays(a, b))


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Mesh:
    """Space-time mesh as read-only arrays (see the module docstring)."""

    domain: SpaceTimeDomain
    slab_heights: np.ndarray
    slab_times: np.ndarray          # length n_slabs + 1, slab_times[0] == 0
    slab_starts: np.ndarray         # slab j owns elements slab_starts[j]:slab_starts[j + 1]
    x0: np.ndarray
    x1: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    eps: np.ndarray
    mu: np.ndarray
    slab: np.ndarray
    face_tables: dict               # FaceKind -> FaceTable
    hor_starts: np.ndarray          # first HOR_INTERNAL row of each interface, then the count
    ver_starts: np.ndarray          # first VER_INTERNAL row of each slab, then the count
    signature: np.ndarray = field(init=False)   # class of each element's (hx, ht, eps, mu)

    def __post_init__(self):
        # the cached properties below rely on the mesh staying as built
        for a in [*vars(self).values(), *chain.from_iterable(self.face_tables.values())]:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        # classes equal exactly where all four columns are: one lexsort and a
        # diff of each sorted column, here, before a solve allocates its
        # matrices. A uniform mesh skips the sort: its temporaries alone moved
        # march_robin_data's peak RSS by about 3 MB (heap layout, not use).
        columns = (self.hx, self.ht, self.eps, self.mu)
        if all(column.min() == column.max() for column in columns):
            signature = np.zeros(self.n_elements, dtype=int)
        else:
            order = np.lexsort(columns)
            fresh = np.zeros(len(order) - 1, dtype=bool)
            for column in columns:
                fresh |= np.diff(column[order]) != 0
            signature = np.empty(len(order), dtype=int)
            signature[order] = np.concatenate([[0], np.cumsum(fresh)])
        object.__setattr__(self, "signature", _read_only(signature))

    @property
    def n_slabs(self):
        return len(self.slab_heights)

    @property
    def n_elements(self):
        return len(self.x0)

    @cached_property
    def hx(self):
        return _read_only(self.x1 - self.x0)

    @cached_property
    def xc(self):
        """Element centres in x."""
        return _read_only(0.5 * (self.x0 + self.x1))

    @cached_property
    def tc(self):
        """Element centres in t."""
        return _read_only(0.5 * (self.t0 + self.t1))

    @cached_property
    def ht(self):
        """Element heights: each slab's height as given, so identical slabs
        share it bit for bit, where t1 - t0 rounds differently per slab."""
        return _read_only(self.slab_heights[self.slab])

    @cached_property
    def identical_slabs(self):
        """True when every slab shares height and spatial partition exactly."""
        counts = np.diff(self.slab_starts)
        if np.any(counts != counts[0]) or np.any(self.slab_heights != self.slab_heights[0]):
            return False
        rows = np.column_stack([self.x0, self.x1]).reshape(self.n_slabs, -1)
        return bool(np.all(rows == rows[0]))

    @cached_property
    def hx_max(self):
        """Largest element width."""
        return float(self.hx.max())

    @cached_property
    def elem_grid(self):
        """Element index range of each slab."""
        bounds = self.slab_starts.tolist()
        return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def slab_of_time(self, t, side=None):
        """Index of the slab containing each time t (an array or a scalar).

        On a slab interface the time belongs to the upper slab; side
        ('below'/'above') picks the neighbour instead.
        """
        check_side(side, T_SIDES)
        t = np.asarray(t, dtype=float)
        times = self.slab_times
        tol = 1e-12 * max(self.domain.t_final, 1.0)
        outside = (t < times[0] - tol) | (t > times[-1] + tol)
        if outside.any():
            raise MismatchedDomain(f"time {t[outside][0]} outside [0, {times[-1]}]")
        j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, self.n_slabs - 1)
        if side == "below":
            j = j - ((j > 0) & (np.abs(t - times[j]) <= tol))
        elif side == "above":
            j = j + ((j < self.n_slabs - 1) & (np.abs(t - times[j + 1]) <= tol))
        return j

    def elements_at(self, x, t, t_side=None, x_side=None):
        """Indices of the elements containing the points (x, t).

        Slabs come from slab_of_time(t, t_side). On a vertical edge a point
        belongs to the left element; x_side='right' picks the right one.
        """
        check_side(x_side, X_SIDES)
        x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
        tol_x = 1e-12 * max(self.domain.length, 1.0)
        outside = (x < self.domain.x_l - tol_x) | (x > self.domain.x_r + tol_x)
        if outside.any():
            raise MismatchedDomain(
                f"x = {x[outside][0]} outside [{self.domain.x_l}, {self.domain.x_r}]")
        j = self.slab_of_time(t, side=t_side).ravel()
        # one sort by slab: each slab's points are then one contiguous run
        order = np.argsort(j, kind="stable")
        j, xs = j[order], x.ravel()[order]
        runs = np.flatnonzero(np.diff(j, prepend=-1, append=-1))
        found = np.empty(len(j), dtype=int)
        for a, b in zip(runs[:-1], runs[1:]):
            p = self.x0[self.slab_starts[j[a]]:self.slab_starts[j[a] + 1]]
            k = np.clip(np.searchsorted(p, xs[a:b], side="right") - 1, 0, len(p) - 1)
            if x_side in ("left", None):
                k = k - ((k > 0) & (np.abs(xs[a:b] - p[k]) <= tol_x))
            found[a:b] = self.slab_starts[j[a]] + k
        out = np.empty(len(j), dtype=int)
        out[order] = found
        return out.reshape(x.shape)


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
        given = [x_partitions] * n_slabs
    else:
        given = list(x_partitions)
        if len(given) != n_slabs:
            raise MismatchedDomain(
                f"{len(given)} partitions for {n_slabs} slabs"
            )
    # each distinct partition object is converted and validated once, as the
    # partition of the first slab that uses it
    valid = {}
    for j, p in enumerate(given):
        if id(p) not in valid:
            valid[id(p)] = _validate_partition(np.array(p, dtype=float), domain, materials, j)
    parts = [valid[id(p)] for p in given]

    times = np.empty(n_slabs + 1)
    times[0] = 0.0
    for j, h in enumerate(heights):
        times[j + 1] = times[j] + h

    # elements, slab by slab and left to right
    starts = np.cumsum([0] + [len(p) - 1 for p in parts])
    slab = np.repeat(np.arange(n_slabs), np.diff(starts))
    x0 = np.concatenate([p[:-1] for p in parts])
    x1 = np.concatenate([p[1:] for p in parts])
    t0 = times[slab]
    t1 = t0 + np.asarray(heights)[slab]
    mids = 0.5 * (x0 + x1)
    # slab interfaces, each split at the union of its two partitions: merged
    # once per distinct pair of neighbouring partitions
    pieces, merged = [], {}
    for j in range(n_slabs - 1):
        key = id(parts[j]), id(parts[j + 1])
        if key not in merged:
            interface = union_interface(parts[j], parts[j + 1])
            lo, hi = interface[:-1], interface[1:]
            mid = 0.5 * (lo + hi)
            merged[key] = (lo, hi, np.searchsorted(parts[j], mid) - 1,
                           np.searchsorted(parts[j + 1], mid) - 1)
        lo, hi, below, above = merged[key]
        pieces.append((np.full(len(lo), times[j + 1]), lo, hi,
                       _pair(starts[j] + below, starts[j + 1] + above)))
    left, right = starts[:-1], starts[1:] - 1  # each slab's wall elements
    inner = np.delete(np.arange(starts[-1]), right)  # elements with a right neighbour
    bottom = np.arange(starts[1])
    top = np.arange(starts[-2], starts[-1])
    tables = {
        FaceKind.BOTTOM: (np.zeros(len(bottom)), x0[bottom], x1[bottom], _pair(-1, bottom)),
        FaceKind.TOP: (np.full(len(top), times[-1]), x0[top], x1[top], _pair(top, -1)),
        FaceKind.HOR_INTERNAL: [np.concatenate(c) for c in zip(*pieces)] if pieces else
        [np.zeros(0)] * 3 + [np.zeros((0, 2), dtype=int)],
        FaceKind.VER_INTERNAL: (x1[inner], t0[inner], t1[inner], _pair(inner, inner + 1)),
        FaceKind.LEFT: (x0[left], times[:-1], times[1:], _pair(-1, left)),
        FaceKind.RIGHT: (x1[right], times[:-1], times[1:], _pair(right, -1)),
    }
    return Mesh(
        domain=domain,
        slab_heights=np.asarray(heights),
        slab_times=times,
        slab_starts=starts,
        x0=x0,
        x1=x1,
        t0=t0,
        t1=t1,
        eps=materials.eps_at(mids),
        mu=materials.mu_at(mids),
        slab=slab,
        face_tables={kind: FaceTable(*columns) for kind, columns in tables.items()},
        hor_starts=np.cumsum([0] + [len(p[0]) for p in pieces]),
        ver_starts=starts - np.arange(n_slabs + 1),
    )


def uniform_mesh(domain, materials, n_x, n_t):
    """Uniform n_x-by-n_t mesh; material breakpoints must land on the grid."""
    if n_x < 1 or n_t < 1:
        raise EmptyPartition(f"need at least one cell per direction, got {n_x} x {n_t}")
    partition = np.linspace(domain.x_l, domain.x_r, n_x + 1)
    height = domain.t_final / n_t
    return build_mesh(domain, materials, [height] * n_t, partition)


def mesh_from_spacing(domain, materials, h_x, h_t):
    """Uniform mesh from target spacings; counts are rounded to integers."""
    partition = spacing_partition(domain, materials, h_x)
    n_t = cell_count(domain.t_final, h_t)
    return build_mesh(domain, materials, [domain.t_final / n_t] * n_t, partition)
