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
stepping is A_j f_j = R_j f_{j-1} + b_j. assemble_slab is the one
assembly of the form; assemble_global stacks its slab systems, and the
slab march is forward substitution on that stacked system. slab_load
assembles b_j alone, for assemble_slab and for slabs whose A, R are known.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import FULL, TREFFTZ, element_basis, space_dim
from .errors import (
    DimensionMismatch,
    MismatchedDomain,
    QuadratureOrderTooLow,
    TrefftzWithSource,
)
from .mesh import FaceKind
from .quadrature import gauss_rule, map_to_segment
from .reference import Constant, ZERO

PEC = "pec"
DIRICHLET = "dirichlet"
ROBIN = "robin"
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
        if self.alpha < 0 or self.beta < 0:
            raise MismatchedDomain(
                f"flux penalties must be non-negative, got alpha={self.alpha}, beta={self.beta}"
            )
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

    def alpha_on(self, mesh, face):
        """alpha on one vertical face view; see penalties."""
        return self.penalties(mesh, [(face.left, face.right)])[0][0]

    def beta_on(self, mesh, face):
        return self.penalties(mesh, [(face.left, face.right)])[1][0]


@dataclass(frozen=True)
class BoundaryCondition:
    """Lateral boundary condition.

    kind "pec": perfectly conducting walls, E = 0 on both sides.
    kind "dirichlet": E prescribed by callables e_l(t), e_r(t).
    kind "robin": impedance condition with data g_l(t), g_r(t) on
    sqrt(eps) E +- sqrt(mu) H.
    """

    kind: str
    e_l: object = ZERO
    e_r: object = ZERO
    g_l: object = ZERO
    g_r: object = ZERO

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise MismatchedDomain(f"unknown bc kind {self.kind!r}, expected {BC_KINDS}")

    @classmethod
    def pec(cls):
        return cls(PEC)

    @classmethod
    def dirichlet(cls, e_l, e_r):
        return cls(DIRICHLET, e_l=e_l, e_r=e_r)

    @classmethod
    def robin(cls, g_l=None, g_r=None):
        return cls(ROBIN, g_l=g_l if g_l is not None else ZERO,
                   g_r=g_r if g_r is not None else ZERO)

    @property
    def homogeneous(self):
        if self.kind == PEC:
            return True
        if self.kind == DIRICHLET:
            return _is_zero(self.e_l) and _is_zero(self.e_r)
        return _is_zero(self.g_l) and _is_zero(self.g_r)


@dataclass(frozen=True)
class InitialData:
    """Initial fields as vectorized callables of x."""

    e0: object
    h0: object

    @classmethod
    def zero(cls):
        return cls(ZERO, ZERO)


@dataclass
class SlabSystem:
    """One slab of the block-triangular space-time system."""

    slab: int
    A: np.ndarray
    R: np.ndarray          # empty (n, 0) for the first slab
    b: np.ndarray
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


def _edge_fields(basis, x_pts, dt_signed_half):
    """Basis fields on a horizontal edge at vertical offset +-ht/2."""
    e = basis.element
    xc = 0.5 * (e.x0 + e.x1)
    dx = x_pts - xc
    dt = np.full_like(dx, dt_signed_half)
    return basis.eval_local(dx, dt)


def _side_fields(basis, dt_pts, side):
    """Basis fields on a vertical edge (side -1 left, +1 right of element)."""
    e = basis.element
    dx = np.full_like(dt_pts, side * 0.5 * e.hx)
    return basis.eval_local(dx, dt_pts)


def _pair_mass(fields_row, fields_col, w, eps, mu):
    """Energy-pairing mass block: int (eps E_col E_row + mu H_col H_row)."""
    return (fields_row["E"] * (eps * w)) @ fields_col["E"].T + (
        fields_row["H"] * (mu * w)
    ) @ fields_col["H"].T


def _vertical_block(f_row, f_col, w, sgn_row, sgn_col, alpha, beta):
    """Centred-flux plus penalty coupling across a vertical face."""
    E_r, H_r = f_row["E"], f_row["H"]
    E_c, H_c = f_col["E"], f_col["H"]
    blk = 0.5 * sgn_row * ((H_r * w) @ E_c.T + (E_r * w) @ H_c.T)
    blk += alpha * sgn_row * sgn_col * (E_r * w) @ E_c.T
    blk += beta * sgn_row * sgn_col * (H_r * w) @ H_c.T
    return blk


def _lateral_block(fields, w, side, bc, alpha, delta, eps, mu):
    """Boundary bilinear block; side is -1 at x_l, +1 at x_r."""
    E, H = fields["E"], fields["H"]
    if bc.kind in (PEC, DIRICHLET):
        return side * (E * w) @ H.T + alpha * (E * w) @ E.T
    zi = np.sqrt(mu / eps)
    blk = side * (1.0 - delta) * (H * w) @ E.T
    blk += delta * zi * (H * w) @ H.T
    blk += side * delta * (E * w) @ H.T
    blk += (1.0 - delta) / zi * (E * w) @ E.T
    return blk


def _lateral_load(fields, w, t_abs, side, bc, alpha, delta, eps, mu):
    E, H = fields["E"], fields["H"]
    if bc.kind == PEC:
        return None
    if bc.kind == DIRICHLET:
        data = bc.e_l if side < 0 else bc.e_r
        if _is_zero(data):
            return None
        g = np.asarray(data(t_abs), dtype=float)
        return (-side * H + alpha * E) @ (w * g)
    data = bc.g_l if side < 0 else bc.g_r
    if _is_zero(data):
        return None
    g = np.asarray(data(t_abs), dtype=float)
    comb = -side * delta / np.sqrt(eps) * H + (1.0 - delta) / np.sqrt(mu) * E
    return comb @ (w * g)


def _quad_orders(spec, p_max, face_quad, data_quad):
    if face_quad is None:
        n_face = p_max + 2
    else:
        n_face = int(face_quad)
        if n_face < p_max + 1:
            raise QuadratureOrderTooLow(
                f"{n_face} nodes cannot integrate degree-{2 * p_max} face products; "
                f"need at least {p_max + 1}"
            )
    n_data = int(data_quad) if data_quad is not None else max(p_max + 2, 12)
    return n_face, n_data


def _volume_block(basis, n_quad):
    """- int_K (E_j dx H_i + mu H_j dt H_i + H_j dx E_i + eps E_j dt E_i)."""
    e = basis.element
    xi, wx = gauss_rule(n_quad)
    dx = np.repeat(0.5 * e.hx * xi, n_quad)
    dt = np.tile(0.5 * e.ht * xi, n_quad)
    W = np.repeat(0.5 * e.hx * wx, n_quad) * np.tile(0.5 * e.ht * wx, n_quad)
    f = basis.eval_local(dx, dt)
    blk = (f["Hx"] * W) @ f["E"].T
    blk += e.mu * (f["Ht"] * W) @ f["H"].T
    blk += (f["Ex"] * W) @ f["H"].T
    blk += e.eps * (f["Et"] * W) @ f["E"].T
    return -blk


def _slab_frame(mesh, slab, spec, face_quad, data_quad):
    """Element ids, quadrature orders and slab-local first dofs of a slab and its predecessor.

    offsets and prev_offsets map element ids to first dofs counted from
    the slab's or the predecessor's first element; the id after each
    slab's last element maps to that slab's end.
    """
    ids = mesh.elem_grid[slab]
    prev_ids = mesh.elem_grid[slab - 1] if slab > 0 else range(ids.start, ids.start)
    both = range(prev_ids.start, ids.stop)
    degrees = spec.degrees(both)
    quad = _quad_orders(spec, int(degrees.max()), face_quad, data_quad)
    starts = np.cumsum(np.append(0, space_dim(spec.family, degrees)))
    keys = range(both.start, both.stop + 1)
    offsets = dict(zip(keys, (starts - starts[len(prev_ids)]).tolist()))
    prev_offsets = dict(zip(keys, starts.tolist())) if prev_ids else None
    return ids, prev_ids, quad, offsets, prev_offsets


def slab_load(mesh, slab, spec, flux, bc, initial_data=None,
              source=None, face_quad=None, data_quad=None):
    """Load vector b of one time slab: wall data, volume source, initial data.

    This is the only part of the slab system that changes from slab to
    slab on identical slabs, so the march assembles A and R once and
    calls this for every further slab. With homogeneous walls and no
    source it returns zeros for slab > 0 without touching the elements.
    A volume source is only admissible with the full polynomial family;
    source(x, t) is the current density J on the right of
    dH/dx + eps dE/dt = J and loads the electric test slot. Slab 0
    integrates the initial data and requires it.
    """
    if source is not None and spec.family == TREFFTZ:
        raise TrefftzWithSource(
            "transport-polynomial spaces solve the homogeneous system; "
            "a volume source requires the full family"
        )
    if slab == 0 and initial_data is None:
        raise MismatchedDomain("slab 0 requires initial data")
    if slab > 0 and bc.homogeneous and source is None:
        return np.zeros(sum(map(spec.dim_for, mesh.elem_grid[slab])))
    ids, _, (_, n_data), offsets, _ = _slab_frame(mesh, slab, spec, face_quad, data_quad)
    b = np.zeros(int(offsets[ids[-1] + 1]))
    xi_d, w_d = gauss_rule(n_data)

    # lateral boundary data
    for fi, side in ((mesh.left_faces[slab], -1), (mesh.right_faces[slab], +1)):
        face = mesh.faces[fi]
        e = mesh.elements[face.element]
        B = element_basis(spec, e)
        dt = 0.5 * e.ht * xi_d
        f = _side_fields(B, dt, side)
        t_abs = 0.5 * (face.lo + face.hi) + dt
        load = _lateral_load(f, 0.5 * e.ht * w_d, t_abs, side, bc, flux.alpha_on(mesh, face),
                             flux.delta, e.eps, e.mu)
        if load is not None:
            b[offsets[face.element]:offsets[face.element] + B.n] += load

    # volume source, full polynomial family only
    if source is not None:
        for i in ids:
            e = mesh.elements[i]
            B = element_basis(spec, e)
            dx = np.repeat(0.5 * e.hx * xi_d, n_data)
            dt = np.tile(0.5 * e.ht * xi_d, n_data)
            W = np.repeat(0.5 * e.hx * w_d, n_data) * np.tile(0.5 * e.ht * w_d, n_data)
            xc, tc = e.center
            J = np.asarray(source(xc + dx, tc + dt), dtype=float)
            b[offsets[i]:offsets[i] + B.n] += B.eval_local(dx, dt)["E"] @ (W * J)

    # initial data enters the first slab through the lower edge
    if slab == 0:
        for i in ids:
            e = mesh.elements[i]
            B = element_basis(spec, e)
            xq, wq = map_to_segment(n_data, e.x0, e.x1)
            f = _edge_fields(B, xq, -0.5 * e.ht)
            e0 = np.asarray(initial_data.e0(xq), dtype=float)
            h0 = np.asarray(initial_data.h0(xq), dtype=float)
            b[offsets[i]:offsets[i] + B.n] += f["E"] @ (wq * e.eps * e0) + f["H"] @ (wq * e.mu * h0)

    return b


def assemble_slab(mesh, slab, spec, flux, bc, initial_data=None,
                  source=None, face_quad=None, data_quad=None):
    """Assemble A, R, b for one time slab.

    For slab > 0 the coupling matrix R is built against the previous
    slab's basis traces on the interface; the previous coefficients
    multiply R at solve time. The load b is slab_load's, so slab 0
    requires initial_data and a source requires the full family.
    """
    b = slab_load(mesh, slab, spec, flux, bc, initial_data=initial_data, source=source,
                  face_quad=face_quad, data_quad=data_quad)
    ids, prev_ids, (n_face, _), offsets, prev_offsets = _slab_frame(
        mesh, slab, spec, face_quad, data_quad)
    n_prev = int(prev_offsets[ids[0]]) if prev_ids else 0
    bases = {i: element_basis(spec, mesh.elements[i]) for i in ids}
    prev_bases = {i: element_basis(spec, mesh.elements[i]) for i in prev_ids}

    A = np.zeros((b.size, b.size))
    R = np.zeros((b.size, n_prev))
    xi_f, w_f = gauss_rule(n_face)

    # upper-edge energy pairing: the upwind term when the next slab tests
    # against this one, the final-time term on the last slab
    for i in ids:
        B = bases[i]
        e = B.element
        xq, wq = map_to_segment(n_face, e.x0, e.x1)
        f = _edge_fields(B, xq, +0.5 * e.ht)
        sl = slice(offsets[i], offsets[i] + B.n)
        A[sl, sl] += _pair_mass(f, f, wq, e.eps, e.mu)

    # coupling to the previous slab across interface pieces
    for fi in (mesh.hor_pieces[slab - 1] if slab > 0 else []):
        face = mesh.faces[fi]
        eb = prev_bases[face.below].element
        ea = bases[face.above].element
        xq, wq = map_to_segment(n_face, face.lo, face.hi)
        f_lo = _edge_fields(prev_bases[face.below], xq, +0.5 * eb.ht)
        f_up = _edge_fields(bases[face.above], xq, -0.5 * ea.ht)
        rows = slice(offsets[face.above], offsets[face.above] + bases[face.above].n)
        cols = slice(prev_offsets[face.below],
                     prev_offsets[face.below] + prev_bases[face.below].n)
        R[rows, cols] += _pair_mass(f_up, f_lo, wq, ea.eps, ea.mu)

    # vertical internal faces: centred flux with jump penalties
    pairs = mesh.face_tables[FaceKind.VER_INTERNAL].elements
    for fi, a_f, b_f in zip(mesh.ver_faces[slab], *flux.penalties(
            mesh, pairs[mesh.ver_starts[slab]:mesh.ver_starts[slab + 1]])):
        face = mesh.faces[fi]
        el = bases[face.left].element
        dt = 0.5 * el.ht * xi_f
        wq = 0.5 * el.ht * w_f
        f_l = _side_fields(bases[face.left], dt, +1)
        f_r = _side_fields(bases[face.right], dt, -1)
        for sgn_r, f_row, row_id in ((+1, f_l, face.left), (-1, f_r, face.right)):
            rows = slice(offsets[row_id], offsets[row_id] + bases[row_id].n)
            for sgn_c, f_col, col_id in ((+1, f_l, face.left), (-1, f_r, face.right)):
                cols = slice(offsets[col_id], offsets[col_id] + bases[col_id].n)
                A[rows, cols] += _vertical_block(f_row, f_col, wq, sgn_r, sgn_c, a_f, b_f)

    # lateral boundary terms
    for fi, side in ((mesh.left_faces[slab], -1), (mesh.right_faces[slab], +1)):
        face = mesh.faces[fi]
        B = bases[face.element]
        e = B.element
        a_f = flux.alpha_on(mesh, face)
        dt = 0.5 * e.ht * xi_f
        wq = 0.5 * e.ht * w_f
        f = _side_fields(B, dt, side)
        sl = slice(offsets[face.element], offsets[face.element] + B.n)
        A[sl, sl] += _lateral_block(f, wq, side, bc, a_f, flux.delta, e.eps, e.mu)

    # first-order volume terms, full polynomial family only
    if spec.family == FULL:
        for i in ids:
            sl = slice(offsets[i], offsets[i] + bases[i].n)
            A[sl, sl] += _volume_block(bases[i], n_face)

    return SlabSystem(slab=slab, A=A, R=R, b=b, n_dofs=b.size, n_prev=n_prev)


@dataclass
class GlobalSystem:
    """Monolithic space-time system, for verification at small scale."""

    matrix: np.ndarray
    load: np.ndarray
    n_dofs: int


def assemble_global(mesh, spec, flux, bc, initial_data=None,
                    source=None, face_quad=None, data_quad=None):
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
        system = assemble_slab(mesh, j, spec, flux, bc, initial_data=initial_data,
                               source=source, face_quad=face_quad, data_quad=data_quad)
        hi = lo + system.n_dofs
        G[lo:hi, lo:hi] = system.A
        G[lo:hi, prev:lo] = -system.R
        load[lo:hi] = system.b
        prev, lo = lo, hi
    return GlobalSystem(matrix=G, load=load, n_dofs=n)


def apply_bilinear_global(mesh, spec, flux, bc, coeffs_u, coeffs_v,
                          face_quad=None):
    """Evaluate the space-time bilinear form a(u; v) for coefficient fields.

    Assembles the dense global matrix internally, so keep the mesh small.
    """
    coeffs_u = np.asarray(coeffs_u, dtype=float)
    coeffs_v = np.asarray(coeffs_v, dtype=float)
    _, n = global_layout(mesh, spec)
    if coeffs_u.shape != (n,) or coeffs_v.shape != (n,):
        raise DimensionMismatch(
            f"coefficient vectors must have length {n}, got "
            f"{coeffs_u.shape} and {coeffs_v.shape}"
        )
    system = assemble_global(mesh, spec, flux, bc, face_quad=face_quad)
    return float(coeffs_v @ system.matrix @ coeffs_u)


def dump_matrix(matrix, path):
    """Write non-zero entries as `row col value` triplets."""
    matrix = np.asarray(matrix)
    rows, cols = np.nonzero(matrix)
    with open(path, "w") as fh:
        fh.write(f"# {matrix.shape[0]} {matrix.shape[1]}\n")
        for r, c in zip(rows, cols):
            fh.write(f"{r} {c} {float(matrix[r, c])!r}\n")
