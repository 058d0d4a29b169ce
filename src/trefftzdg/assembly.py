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
A basis depends only on its element's signature (hx, ht, eps, mu, p),
so each term evaluates it once per signature: on the stacked Gauss
points of the elements' own edges (upper edges, interface pieces,
initial data, source), or once for the whole group where the offsets
from the centre depend on the signature alone (vertical sides, walls,
volume). Stacked matrix products give the blocks, and index arrays place
them in the order a face-by-face loop adds them, so A, R and b do not
depend on the batching.
"""

import ctypes
import math
import mmap
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .basis import FULL, TREFFTZ, element_basis, signature_groups, space_dim
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
    (rows, cols, blocks) triple per signature pair, rows and cols the first
    dofs of those elements in their slabs. R @ x multiplies block by block
    with one stacked matmul per part, and one np.bincount adds the products
    into their rows in part order, from +0.0. On identical partitions each
    row has one block, so its product is the dense row's gemv without its
    exact zero products. With OpenBLAS that repeats the dense R @ x bit for bit
    on the benchmark's spaces (trefftz p = 3, full p = 2 up to n = 720);
    where the dense kernel groups a row's sum differently (other block
    widths, wider slabs) the two differ by rounding only. On hanging
    interfaces a row sums one block per element below it, in part order.
    np.asarray(R) places the blocks into an (n, n_prev) array, for the
    readers that need R dense (update_matrix, assemble_global).
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


def _edge_stack(mesh, basis, ids, xq, sign):
    """E and H of the elements ids, which share basis, at the points xq (one row
    per element) of their upper (sign +1) or lower (sign -1) edges, as
    ElementBasis.stacked's (k, n, m) stacks."""
    dx = xq - mesh.xc[ids][:, None]
    return basis.stacked(dx, np.full(dx.shape, sign * 0.5 * basis.ht))


def _add_blocks(M, rows, cols, blocks):
    """M[rows[k]:rows[k] + nr, cols[k]:cols[k] + nc] += blocks[k]; the targets must be distinct."""
    _, nr, nc = blocks.shape
    M[rows[:, None, None] + np.arange(nr)[:, None], cols[:, None, None] + np.arange(nc)] += blocks


def _pair_mass(f_row, f_col, w, eps, mu):
    """Energy-pairing mass blocks int (eps E_col E_row + mu H_col H_row) of stacked fields."""
    E_c, H_c = f_col["E"].transpose(0, 2, 1), f_col["H"].transpose(0, 2, 1)
    return (f_row["E"] * (eps * w)) @ E_c + (f_row["H"] * (mu * w)) @ H_c


def _vertical_block(f_row, f_col, w, sgn_row, sgn_col, alpha, beta):
    """Centred-flux plus penalty coupling across vertical faces, one block per
    entry of the (k, 1, 1) penalty arrays alpha and beta."""
    E_r, H_r = f_row["E"], f_row["H"]
    E_c, H_c = f_col["E"], f_col["H"]
    blk = 0.5 * sgn_row * ((H_r * w) @ E_c.T + (E_r * w) @ H_c.T)
    blk = blk + alpha * sgn_row * sgn_col * (E_r * w) @ E_c.T
    blk += beta * sgn_row * sgn_col * (H_r * w) @ H_c.T
    return blk


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


def _walls(mesh, slab, spec, flux, n):
    """Per lateral wall of the slab, left then right: its side (-1, +1), the
    wall element's position in the slab and its basis, the basis fields at
    the wall's n Gauss points, their offsets dt from the element's centre
    time and weights, and alpha on the wall."""
    for kind in (FaceKind.LEFT, FaceKind.RIGHT):
        [(column, side, _)] = FACE_SIDES[kind][1]
        walls = mesh.face_tables[kind].elements
        i = int(walls[slab, column])
        basis = element_basis(mesh, spec, i)
        dt, wq = map_to_segment(n, -0.5 * basis.ht, 0.5 * basis.ht)
        fields = basis.eval_local(np.full_like(dt, side * 0.5 * basis.hx), dt)
        alpha = flux.penalties(mesh, walls[slab:slab + 1])[0][0]
        yield side, i - mesh.slab_starts[slab], basis, fields, dt, wq, alpha


def _volume_block(basis, n_quad):
    """- int_K (E_j dx H_i + mu H_j dt H_i + H_j dx E_i + eps E_j dt E_i)."""
    dx, dt, W = local_tensor_rule(n_quad, basis.hx, basis.ht)
    f = basis.eval_local(dx, dt)
    d = basis.eval_derivatives(dx, dt)
    blk = (d["Hx"] * W) @ f["E"].T
    blk += basis.mu * (d["Ht"] * W) @ f["H"].T
    blk += (d["Ex"] * W) @ f["H"].T
    blk += basis.eps * (d["Et"] * W) @ f["E"].T
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
    # volume source: offsets shared by a signature, the source at each
    # element's own points
    volume = []
    if source is not None:
        for basis, g in signature_groups(mesh, spec, ids):
            dx, dt, W = local_tensor_rule(n_data, basis.hx, basis.ht)
            volume.append((g, offsets[g][:, None] + np.arange(basis.n), dx, dt, W,
                           basis.eval_local(dx, dt)["E"]))

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
            for basis, g in signature_groups(mesh, spec, ids0):
                f = _edge_stack(mesh, basis, ids0.start + g, xq[g], -1)
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
    for basis_b, gb in signature_groups(mesh, spec, below):
        f_lo = _edge_stack(mesh, basis_b, below[gb], xq[gb], +1)
        for basis_a, ga in signature_groups(mesh, spec, above[gb]):
            g = gb[ga]
            f_up = _edge_stack(mesh, basis_a, above[g], xq[g], -1)
            blocks = _pair_mass(f_up, {k: v[ga] for k, v in f_lo.items()},
                                wq[g][:, None], basis_a.eps, basis_a.mu)
            coupling.append((offsets[above[g] - ids.start],
                             prev_offsets[below[g] - prev_ids.start], blocks))
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
    for basis, g in signature_groups(mesh, spec, ids):
        f = _edge_stack(mesh, basis, ids.start + g, xq[g], +1)
        _add_blocks(A, offsets[g], offsets[g],
                    _pair_mass(f, f, wq[g][:, None], basis.eps, basis.mu))
    R = assemble_coupling(mesh, slab, spec)

    # vertical internal faces: centred flux with jump penalties; the side
    # traces depend on the signature alone
    pairs = mesh.face_tables[FaceKind.VER_INTERNAL].elements[
        mesh.ver_starts[slab]:mesh.ver_starts[slab + 1]]
    alpha, beta = flux.penalties(mesh, pairs)
    groups = []
    for basis_l, gl in signature_groups(mesh, spec, pairs[:, 0]):
        dt, wq = map_to_segment(n_face, -0.5 * basis_l.ht, 0.5 * basis_l.ht)
        f_l = basis_l.eval_local(np.full_like(dt, 0.5 * basis_l.hx), dt)
        for basis_r, gr in signature_groups(mesh, spec, pairs[gl, 1]):
            f_r = basis_r.eval_local(np.full_like(dt, -0.5 * basis_r.hx), dt)
            # per sign: the side's traces and its column in pairs
            groups.append((gl[gr], {+1: (f_l, 0), -1: (f_r, 1)}, wq))
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
        for basis, g in signature_groups(mesh, spec, ids):
            _add_blocks(A, offsets[g], offsets[g],
                        np.broadcast_to(_volume_block(basis, n_face), (len(g), basis.n, basis.n)))

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
