"""Variational assembly of the space-time DG system.

The discrete form couples the two fields through mesh-skeleton
integrals only (plus first-order volume terms for the full polynomial
family): upwind traces on horizontal faces, centred averages with
jump penalties alpha (on [E]) and beta (on [H]) on vertical faces, and
weakly imposed boundary terms. With the transport-polynomial family
the volume terms vanish identically and are skipped.

The space-time system is block lower bidiagonal in the time slabs: the
matrix A_j couples unknowns within slab j, the coupling matrix R_j
carries the upwind trace of slab j - 1 to the right-hand side, so time
stepping is A_j f_j = R_j f_{j-1} + b_j. The operator A_j, R_j depends
only on the mesh, the basis, the flux and the kind of wall, and
assemble_slab is its one assembly (R_j through assemble_coupling, which
the march also calls alone); the data (initial fields, wall data,
source) enter only through b_j, and load_plan is its one assembly. A_j
and b_j read slab j alone, their rules set by its own largest degree;
only R_j reads two slabs. A plan evaluates its wall and source tables
once and serves every slab laid out as its own. A is dense; R_j is kept as its interface blocks
(Coupling), whose product R_j f_{j-1} the march takes block by block,
and is materialised only through np.asarray(R_j). assemble_global stacks
the slab operators and loads, and the slab march is forward substitution
on that stacked system.

Both read the mesh's face tables with the Gauss points of
quadrature.map_to_segment, the walls through mesh.FACE_SIDES as the DG
norm does, and evaluate the basis at offsets from mesh.xc, mesh.tc.
Each term evaluates the basis once per degree (per degree pair across
a face) through one per-row basis (element_basis of an id array), at
each element's own offsets: the Gauss points of its edges, its sides or
its volume, the last two one row for all where the basis has no per-row
column (_basis_rows). Each row's table has the bytes of that element's
own, so stacked matrix products give each block as that element alone would,
and index arrays place them in the order a face-by-face loop adds them:
A, R and b do not depend on the batching.
"""

import ctypes
import math
import mmap
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .basis import FULL, TREFFTZ, degree_groups, element_basis, space_dim
from .errors import DimensionMismatch, MismatchedDomain, TrefftzWithSource
from .mesh import FACE_SIDES, FaceKind
from .quadrature import data_nodes, face_nodes, local_tensor_rule, map_to_segment
from .reference import DIRICHLET, PEC, ROBIN, Constant, ZERO

BC_KINDS = (PEC, DIRICHLET, ROBIN)


def _is_zero(f):
    return isinstance(f, Constant) and f.value == 0.0


@dataclass(frozen=True)
class FluxParams:
    """Numerical-flux parameters.

    alpha penalizes [E] and enters the lateral boundary terms; beta
    penalizes [H]; delta balances the two impedance-boundary terms.
    Zero alpha or beta is accepted (the penalty-free variant appears in
    flux sweeps) but lies outside the stability theory, so constructing
    such parameters emits a warning.
    """

    alpha: float = 0.5
    beta: float = 0.5
    delta: float = 0.5
    per_face_scaling: bool = False

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):
            raise MismatchedDomain(
                f"flux penalties must be non-negative, got alpha={self.alpha}, beta={self.beta}"
            )
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise MismatchedDomain(
                f"flux penalties must be finite, got alpha={self.alpha}, beta={self.beta}")
        if self.alpha == 0 or self.beta == 0:
            warnings.warn(
                "alpha = 0 or beta = 0 is outside the coercivity analysis",
                stacklevel=2,
            )
        if not 0 < self.delta < 1:
            raise MismatchedDomain(f"delta must lie in (0, 1), got {self.delta}")

    def penalties(self, mesh, elements):
        """alpha and beta on vertical faces, given as (left, right) element id pairs.

        elements is an (n, 2) array, -1 on the outside of a wall face (a
        FaceTable's elements). With per_face_scaling both are scaled by
        hx_max / h_f, h_f the smaller adjacent width, and by the larger
        adjacent eps (alpha) or mu (beta).
        """
        ids = np.asarray(elements)
        if not self.per_face_scaling:
            return np.full(len(ids), self.alpha), np.full(len(ids), self.beta)
        ids = np.where(ids < 0, ids[:, ::-1], ids)
        scale = mesh.hx_max / mesh.hx[ids].min(axis=1)
        return (self.alpha * scale * mesh.eps[ids].max(axis=1),
                self.beta * scale * mesh.mu[ids].max(axis=1))

    def robin_weights(self, eps, mu):
        """The Robin wall's weights on E and on H, (1 - delta) / z and delta z,
        with z = sqrt(mu / eps) the impedance."""
        z = np.sqrt(mu / eps)
        return (1.0 - self.delta) / z, self.delta * z


@dataclass(frozen=True)
class BoundaryCondition:
    """Lateral boundary condition: its kind and the data left(t) at x_l and
    right(t) at x_r, callables of t.

    kind "pec": perfectly conducting walls, E = 0 on both sides; it takes
    no data.
    kind "dirichlet": E prescribed, E = left(t) and E = right(t).
    kind "robin": impedance condition, left(t) and right(t) prescribe
    sqrt(eps) E +- sqrt(mu) H (the incoming characteristic).
    """

    kind: str
    left: object = ZERO
    right: object = ZERO

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise MismatchedDomain(f"unknown bc kind {self.kind!r}, expected {BC_KINDS}")
        if self.kind == PEC and not self.homogeneous:
            raise MismatchedDomain("pec walls take no boundary data")

    @classmethod
    def pec(cls):
        return cls(PEC)

    @classmethod
    def dirichlet(cls, e_l, e_r):
        return cls(DIRICHLET, e_l, e_r)

    @classmethod
    def robin(cls, g_l=None, g_r=None):
        return cls(ROBIN, g_l if g_l is not None else ZERO, g_r if g_r is not None else ZERO)

    @property
    def homogeneous(self):
        return _is_zero(self.left) and _is_zero(self.right)


@dataclass(frozen=True)
class InitialData:
    """Initial fields as vectorized callables of x."""

    e0: object
    h0: object

    @classmethod
    def zero(cls):
        return cls(ZERO, ZERO)


class Coupling:
    """The coupling R_j of a slab to its predecessor, kept as its interface blocks.

    Slab j sees slab j - 1 only through the upwind traces on their common
    interface, so R_j is one block per interface piece: the energy-pairing
    mass of the element above against the element below. parts holds one
    (rows, cols, blocks) triple per pair of degrees (below, above), pieces
    in mesh order, rows and cols the first dofs of those elements in their
    slabs. R @ x multiplies block by block with one stacked matmul per part,
    and one np.bincount adds the products into their rows in part order,
    from +0.0: in face order under one degree. On identical partitions each
    row has one block, so its product is the dense row's gemv without its
    exact zero products. With OpenBLAS that repeats the dense R @ x bit for
    bit on the benchmark's spaces (trefftz p = 3, full p = 2 up to n = 720);
    elsewhere (other block widths, wider slabs, hanging interfaces) the two
    differ by rounding only. np.asarray(R) places the blocks into an
    (n, n_prev) array, for update_matrix and assemble_global.
    """

    def __init__(self, shape, parts):
        self.shape = shape
        self.parts = parts
        # the placement, built once: each part's gather from x, every part's target rows
        self.gathers = [cols[:, None] + np.arange(blocks.shape[2]) for _, cols, blocks in parts]
        targets = [(rows[:, None] + np.arange(blocks.shape[1])).ravel()
                   for rows, _, blocks in parts]
        self.targets = np.concatenate(targets) if targets else None

    def __matmul__(self, x):
        if not self.parts:
            return np.zeros(self.shape[0])
        products = [np.matmul(blocks, x[gather][:, :, None]).ravel()
                    for (_, _, blocks), gather in zip(self.parts, self.gathers)]
        return np.bincount(self.targets, np.concatenate(products), minlength=self.shape[0])

    def __array__(self, dtype=None, copy=None):
        R = np.zeros(self.shape, dtype=dtype)
        for part in self.parts:
            _add_blocks(R, *part)
        return R


@dataclass
class SlabSystem:
    """Operator of one slab of the block-triangular space-time system.

    A is dense; R is a Coupling, dense only through np.asarray(R).
    """

    A: np.ndarray
    R: Coupling            # (n, 0) for the first slab
    n_dofs: int
    n_prev: int


def global_layout(mesh, spec):
    """First dof of every element in the slab-major global vector, and the total.

    Element indices run slab by slab, so this one array also gives every
    slab's block and the slab-local offsets within it.
    """
    dims = space_dim(spec.family, spec.degrees(range(mesh.n_elements)))
    ends = np.cumsum(dims)
    return ends - dims, int(ends[-1])


def _edge_stack(mesh, spec, ids, xq, sign):
    """The per-row basis of the elements ids, which share a degree, and their
    E and H at the points xq (one row per element) of their upper (sign +1)
    or lower (sign -1) edges, as ElementBasis.stacked's (k, n, m) stacks."""
    basis = element_basis(mesh, spec, ids)
    dx = xq - mesh.xc[ids][:, None]
    return basis, basis.stacked(dx, np.full(dx.shape, sign * 0.5 * basis.ht))


def _add_blocks(M, rows, cols, blocks):
    """M[rows[k]:rows[k] + nr, cols[k]:cols[k] + nc] += blocks[k], or blocks[0]
    for one block shared by every k; the targets must be distinct."""
    _, nr, nc = blocks.shape
    M[rows[:, None, None] + np.arange(nr)[:, None], cols[:, None, None] + np.arange(nc)] += blocks


def _pair_mass(f_row, f_col, w, eps, mu):
    """Energy-pairing mass blocks int (eps E_col E_row + mu H_col H_row) of stacked fields."""
    E_c, H_c = f_col["E"].transpose(0, 2, 1), f_col["H"].transpose(0, 2, 1)
    return (f_row["E"] * (eps * w)[:, None]) @ E_c + (f_row["H"] * (mu * w)[:, None]) @ H_c


def _vertical_block(f_row, f_col, w, sgn_row, sgn_col, alpha, beta):
    """Centred-flux plus penalty coupling across vertical faces of stacked
    fields, one block per entry of the (k, 1, 1) penalty arrays alpha and beta:
    the centred term is one product for fields of one row, broadcast over the
    faces, and the penalty terms one per face."""
    E_r, H_r, w = f_row["E"], f_row["H"], w[:, None]
    E_c, H_c = f_col["E"].transpose(0, 2, 1), f_col["H"].transpose(0, 2, 1)
    blk = 0.5 * sgn_row * ((H_r * w) @ E_c + (E_r * w) @ H_c)
    blk = blk + alpha * sgn_row * sgn_col * (E_r * w) @ E_c
    return blk + beta * sgn_row * sgn_col * (H_r * w) @ H_c


def _lateral_block(fields, w, side, bc, alpha, flux, eps, mu):
    """Boundary bilinear block; side is -1 at x_l, +1 at x_r."""
    E, H = fields["E"], fields["H"]
    if bc.kind in (PEC, DIRICHLET):
        return side * (E * w) @ H.T + alpha * (E * w) @ E.T
    weight_e, weight_h = flux.robin_weights(eps, mu)
    blk = side * (1.0 - flux.delta) * (H * w) @ E.T
    blk += weight_h * (H * w) @ H.T
    blk += side * flux.delta * (E * w) @ H.T
    blk += weight_e * (E * w) @ E.T
    return blk


def _lateral_load(fields, side, bc, alpha, delta, eps, mu):
    """The wall's data callable g and the table T of its load T @ (w * g(t));
    None where the wall carries no data."""
    E, H = fields["E"], fields["H"]
    data = bc.left if side < 0 else bc.right
    if _is_zero(data):
        return None
    if bc.kind == DIRICHLET:
        return data, -side * H + alpha * E
    return data, -side * delta / np.sqrt(eps) * H + (1.0 - delta) / np.sqrt(mu) * E


def _basis_rows(basis, *arrays):
    """The arrays, of one row or one per element, broadcast to (k, m): k rows
    where a column of the per-row basis varies on the mesh, else one row
    shared by its elements (element_basis passes such columns as scalars)."""
    k = np.broadcast(basis.hx, basis.ht, basis.eps, basis.mu).size
    return np.broadcast_arrays(*arrays, np.empty((k, 1)))[:-1]


def _side_stack(mesh, spec, ids, side, n):
    """The per-row basis of the elements ids, which share a degree, their E
    and H at the n Gauss points of their left (side -1) or right (side +1)
    sides as ElementBasis.stacked's (k, n, m) stacks, and the points'
    offsets dt from the centre time and weights, (k, m) each, one row each
    where the basis has no per-row column (_basis_rows)."""
    basis = element_basis(mesh, spec, ids)
    dt, wq = map_to_segment(n, -0.5 * np.ravel(basis.ht), 0.5 * np.ravel(basis.ht))
    dx, dt = _basis_rows(basis, side * 0.5 * basis.hx, dt)
    return basis, basis.stacked(dx, dt), dt, wq


def _walls(mesh, slab, spec, flux, n):
    """Per lateral wall of the slab, left then right: its side (-1, +1), the
    wall element's position in the slab and its basis, the basis fields at
    the wall's n Gauss points, their offsets dt from the element's centre
    time and weights, and alpha on the wall."""
    for kind in (FaceKind.LEFT, FaceKind.RIGHT):
        [(column, side, _)] = FACE_SIDES[kind][1]
        walls = mesh.face_tables[kind].elements[slab:slab + 1]
        basis, f, dt, wq = _side_stack(mesh, spec, walls[:, column], side, n)
        alpha = flux.penalties(mesh, walls)[0][0]
        yield (side, walls[0, column] - mesh.slab_starts[slab], basis,
               {name: v[0] for name, v in f.items()}, dt[0], wq[0], alpha)


def _volume_block(mesh, spec, ids, n_quad):
    """- int_K (E_j dx H_i + mu H_j dt H_i + H_j dx E_i + eps E_j dt E_i),
    one block per element ids, which share a degree, or one block for all of
    them where their basis has no per-row column (_basis_rows)."""
    basis = element_basis(mesh, spec, ids)
    dx, dt, W = _basis_rows(basis, *local_tensor_rule(n_quad, basis.hx, basis.ht))
    f = basis.stacked(dx, dt)
    E, H = f["E"].transpose(0, 2, 1), f["H"].transpose(0, 2, 1)
    d = {name: v.transpose(1, 0, 2) * W[:, None]
         for name, v in basis.eval_derivatives(dx, dt).items()}
    blk = d["Hx"] @ E
    blk += np.reshape(basis.mu, (-1, 1, 1)) * d["Ht"] @ H
    blk += d["Ex"] @ H
    blk += np.reshape(basis.eps, (-1, 1, 1)) * d["Et"] @ E
    return -blk


def _slab_frame(mesh, slab, spec):
    """Element ids, largest degree and slab-local first dofs of one slab.

    offsets[i - ids.start] is the first dof of element i counted from the
    slab's first element, and offsets[-1] the slab's size.
    """
    ids = mesh.elem_grid[slab]
    degrees = spec.degrees(ids)
    return ids, int(degrees.max()), np.cumsum(np.append(0, space_dim(spec.family, degrees)))


def load_plan(mesh, slab, spec, flux, bc, initial_data=None, source=None):
    """Load of slab `slab`, as a function j -> b_j that serves every slab j
    laid out as it is (same height, partition and degrees: every slab of
    its class in the march, solver._slab_classes). Its data rule is set by
    the slab's own largest degree.

    b_j integrates the wall data, the volume source and, for j = 0, the
    initial data on slab 0's lower edges; load(0) raises MismatchedDomain
    without initial data. A volume source is only admissible with the full
    polynomial family, so the plan raises TrefftzWithSource for the
    transport family; source(x, t) is the current density J on the right
    of dH/dx + eps dE/dt = J and loads the electric test slot.

    The wall traces, weights, source tables and slab offsets are evaluated
    here once (the walls only when they carry data); a call evaluates only
    the wall data and the source at slab j's own points, so every plan of a
    slab laid out as slab j gives the same b_j bit for bit.
    """
    if source is not None and spec.family == TREFFTZ:
        raise TrefftzWithSource(
            "transport-polynomial spaces solve the homogeneous system; "
            "a volume source requires the full family"
        )
    ids, p_max, offsets = _slab_frame(mesh, slab, spec)
    n_data = data_nodes(p_max)
    walls = []
    if not bc.homogeneous:
        for side, k, basis, f, dt, wq, alpha in _walls(mesh, slab, spec, flux, n_data):
            term = _lateral_load(f, side, bc, alpha, flux.delta, basis.eps, basis.mu)
            if term is not None:
                walls.append((slice(offsets[k], offsets[k] + basis.n), dt, wq, *term))
    # volume source: each element's own offsets, the source at its own points
    volume = []
    if source is not None:
        for g in degree_groups(spec, ids):
            el = ids.start + g
            basis = element_basis(mesh, spec, el)
            dx, dt, W = local_tensor_rule(n_data, mesh.hx[el][:, None], mesh.ht[el][:, None])
            volume.append((g, offsets[g][:, None] + np.arange(basis.n), dx, dt, W,
                           basis.stacked(dx, dt)["E"]))

    def load(j):
        b = np.zeros(int(offsets[-1]))
        t_mid = mesh.tc[mesh.slab_starts[j]]
        for rows, dt, wq, data, table in walls:
            b[rows] += table @ (wq * np.asarray(data(t_mid + dt), dtype=float))
        for g, rows, dx, dt, W, E in volume:
            el = mesh.slab_starts[j] + g
            X = mesh.xc[el][:, None] + dx
            T = mesh.tc[el][:, None] + dt
            J = np.broadcast_to(np.asarray(source(X, T), dtype=float), X.shape)
            b[rows] += np.matmul(E, (W * J)[:, :, None])[:, :, 0]
        if j == 0:
            # initial data enters slab 0 through its lower edges
            if initial_data is None:
                raise MismatchedDomain("slab 0 requires initial data")
            ids0 = mesh.elem_grid[0]
            xq, wq = map_to_segment(n_data, mesh.x0[ids0], mesh.x1[ids0])
            e0 = np.broadcast_to(np.asarray(initial_data.e0(xq), dtype=float), xq.shape)
            h0 = np.broadcast_to(np.asarray(initial_data.h0(xq), dtype=float), xq.shape)
            for g in degree_groups(spec, ids0):
                basis, f = _edge_stack(mesh, spec, ids0.start + g, xq[g], -1)
                b[offsets[g][:, None] + np.arange(basis.n)] += (
                    np.matmul(f["E"], (wq[g] * basis.eps * e0[g])[:, :, None])
                    + np.matmul(f["H"], (wq[g] * basis.mu * h0[g])[:, :, None]))[:, :, 0]
        return b

    return load


def assemble_coupling(mesh, slab, spec):
    """The coupling R of one time slab to the one before it: one block per
    interface piece against the previous slab's basis traces (Coupling),
    (n, 0) for slab 0. The face rule is set by the largest degree of both
    slabs. The previous coefficients multiply R at solve time."""
    ids, p_max, offsets = _slab_frame(mesh, slab, spec)
    if slab == 0:
        return Coupling((int(offsets[-1]), 0), [])
    prev_ids, p_prev, prev_offsets = _slab_frame(mesh, slab - 1, spec)
    n_face = face_nodes(max(p_max, p_prev))
    hor = mesh.face_tables[FaceKind.HOR_INTERNAL]
    pieces = slice(mesh.hor_starts[slab - 1], mesh.hor_starts[slab])
    below, above = hor.elements[pieces].T
    xq, wq = map_to_segment(n_face, hor.lo[pieces], hor.hi[pieces])
    coupling = []
    for g in degree_groups(spec, hor.elements[pieces]):
        basis, f_up = _edge_stack(mesh, spec, above[g], xq[g], -1)
        _, f_lo = _edge_stack(mesh, spec, below[g], xq[g], +1)
        coupling.append((offsets[above[g] - ids.start], prev_offsets[below[g] - prev_ids.start],
                         _pair_mass(f_up, f_lo, wq[g], basis.eps, basis.mu)))
    return Coupling((int(offsets[-1]), int(prev_offsets[-1])), coupling)


#: numpy's tracemalloc domain, under which _mapped_zeros reports its mappings
_NUMPY_TRACE_DOMAIN = 389047
_track = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)(
    ("PyTraceMalloc_Track", ctypes.pythonapi))
_untrack = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_uint, ctypes.c_size_t)(
    ("PyTraceMalloc_Untrack", ctypes.pythonapi))
#: smallest array _mapped_zeros maps, in bytes; smaller ones come from the heap
_MAPPED_BYTES = 2**23


def _mapped_zeros(shape, order):
    """np.zeros(shape, order=order) of float64 which, from _MAPPED_BYTES on,
    has its own anonymous memory mapping, unmapped as soon as the array and
    its views are freed, and counted by tracemalloc as numpy's own
    allocations are; where the system can (Linux's MAP_POPULATE), the one
    call that maps it faults its pages in. assemble_slab allocates A with it.

    From the malloc heap, an n x n A left a hole that the work between
    marches split, so a later march grew the heap by one more n x n block
    or did not, depending on what had run before (march_pec's peak RSS read
    144 MB in place of 117 MB in some processes of its benchmark loop). A
    mapping faults its pages in on every march (1.08 times the march_pec
    march) and shares no heap space with later work (audit_default's peak
    RSS, n = 480, rose by 2 MB with it); hence the heap below _MAPPED_BYTES.
    """
    size = 8 * math.prod(shape)
    if size < _MAPPED_BYTES:
        return np.zeros(shape, order=order)
    if hasattr(mmap, "MAP_POPULATE"):
        mapping = mmap.mmap(-1, size, mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE)
    else:
        mapping = mmap.mmap(-1, size)
    array = np.ndarray(shape, order=order, buffer=mapping)
    _track(_NUMPY_TRACE_DOMAIN, array.ctypes.data, size)
    weakref.finalize(mapping, _untrack, _NUMPY_TRACE_DOMAIN, array.ctypes.data)
    return array


def assemble_slab(mesh, slab, spec, flux, bc):
    """Assemble the operator A, R of one time slab, R by assemble_coupling.

    The operator depends only on the mesh, the basis, the flux and the
    kind of wall; the data enter through load_plan's b. A pairs slab j's
    own functions only, so it reads slab j alone, its face rule set by
    the slab's own largest degree. A is allocated by _mapped_zeros in
    Fortran order, so the march can factor it in place.
    """
    ids, p_max, offsets = _slab_frame(mesh, slab, spec)
    n_face = face_nodes(p_max)
    n = int(offsets[-1])
    A = _mapped_zeros((n, n), "F")

    # upper-edge energy pairing: the upwind term when the next slab tests
    # against this one, the final-time term on the last slab
    xq, wq = map_to_segment(n_face, mesh.x0[ids], mesh.x1[ids])
    for g in degree_groups(spec, ids):
        basis, f = _edge_stack(mesh, spec, ids.start + g, xq[g], +1)
        _add_blocks(A, offsets[g], offsets[g], _pair_mass(f, f, wq[g], basis.eps, basis.mu))
    R = assemble_coupling(mesh, slab, spec)

    # vertical internal faces: centred flux with jump penalties
    pairs = mesh.face_tables[FaceKind.VER_INTERNAL].elements[
        mesh.ver_starts[slab]:mesh.ver_starts[slab + 1]]
    alpha, beta = flux.penalties(mesh, pairs)
    groups = []
    for g in degree_groups(spec, pairs):
        # per sign: the side's traces and its column in pairs; the weights
        (_, f_l, _, wq), (_, f_r, _, _) = (_side_stack(mesh, spec, pairs[g, column], sign, n_face)
                                           for sign, column in ((+1, 0), (-1, 1)))
        groups.append((g, {+1: (f_l, 0), -1: (f_r, 1)}, wq))
    # a face-by-face loop adds face i - 1's right-right block to element i's
    # diagonal block before face i's left-left block
    for sgn_r, sgn_c in ((-1, -1), (+1, +1), (+1, -1), (-1, +1)):
        for g, sides, wq in groups:
            (f_row, row), (f_col, col) = sides[sgn_r], sides[sgn_c]
            blocks = _vertical_block(f_row, f_col, wq, sgn_r, sgn_c,
                                     alpha[g, None, None], beta[g, None, None])
            _add_blocks(A, offsets[pairs[g, row] - ids.start],
                        offsets[pairs[g, col] - ids.start], blocks)

    # lateral boundary terms
    for side, k, basis, f, _, wq, alpha_f in _walls(mesh, slab, spec, flux, n_face):
        sl = slice(offsets[k], offsets[k] + basis.n)
        A[sl, sl] += _lateral_block(f, wq, side, bc, alpha_f, flux, basis.eps, basis.mu)

    # first-order volume terms, full polynomial family only
    if spec.family == FULL:
        for g in degree_groups(spec, ids):
            _add_blocks(A, offsets[g], offsets[g], _volume_block(mesh, spec, ids.start + g, n_face))

    return SlabSystem(A=A, R=R, n_dofs=n, n_prev=R.shape[1])


@dataclass
class GlobalSystem:
    """Monolithic space-time system, for verification at small scale."""

    matrix: np.ndarray
    load: np.ndarray
    n_dofs: int


def assemble_global(mesh, spec, flux, bc, initial_data=None, source=None):
    """Stack the slab systems into the full space-time matrix and load.

    The global system is block lower bidiagonal in the slabs: A_j on the
    diagonal, -R_j below it, and the load concatenates the b_j, so the
    slab march is forward substitution on it. Without initial data the
    first slab sees zero fields. Dense; intended for verifying the slab
    decomposition and the coercivity identity on small meshes, not for
    production solves.
    """
    if initial_data is None:
        initial_data = InitialData.zero()
    _, n = global_layout(mesh, spec)
    G = np.zeros((n, n))
    load = np.zeros(n)
    prev = lo = 0
    for j in range(mesh.n_slabs):
        system = assemble_slab(mesh, j, spec, flux, bc)
        hi = lo + system.n_dofs
        G[lo:hi, lo:hi] = system.A
        G[lo:hi, prev:lo] = -np.asarray(system.R)
        load[lo:hi] = load_plan(mesh, j, spec, flux, bc, initial_data, source)(j)
        prev, lo = lo, hi
    return GlobalSystem(matrix=G, load=load, n_dofs=n)


def apply_bilinear_global(mesh, spec, flux, bc, coeffs_u, coeffs_v):
    """Evaluate the space-time bilinear form a(u; v) for coefficient fields.

    Sums v_j . (A_j u_j - R_j u_{j-1}) slab by slab, so it holds one slab
    operator at a time and no global matrix.
    """
    coeffs_u = np.asarray(coeffs_u, dtype=float)
    coeffs_v = np.asarray(coeffs_v, dtype=float)
    starts, n = global_layout(mesh, spec)
    if coeffs_u.shape != (n,) or coeffs_v.shape != (n,):
        raise DimensionMismatch(
            f"coefficient vectors must have length {n}, got "
            f"{coeffs_u.shape} and {coeffs_v.shape}"
        )
    cuts = starts[mesh.slab_starts[1:-1]]
    total, u_prev = 0.0, np.zeros(0)
    for j, (u, v) in enumerate(zip(np.split(coeffs_u, cuts), np.split(coeffs_v, cuts))):
        system = assemble_slab(mesh, j, spec, flux, bc)
        total += v @ (system.A @ u - system.R @ u_prev)
        u_prev = u
    return float(total)
