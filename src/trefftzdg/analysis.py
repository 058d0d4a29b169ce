"""Error norms, energy accounting, and convergence-rate fits.

l2_relative_error sums one basis table per signature, slab by slab. A
CharacteristicProfile reference is read along its characteristics: with
c ht = s hx, a slab's coordinates x -+ ct are the previous slab's shifted
by +-s rows, so u0 and w0 are copied from the previous slab wherever a
coordinate repeats bit for bit and evaluated only on the rest (the new
edge row, binade crossings, meshes whose rows do not line up). The rest
of a block of slabs is gathered into one u0 and one w0 call, so the
profile is evaluated once per block, not twice per slab. The error is
bit for bit the one of evaluating every point. Any other reference
(ZeroField, an object with evaluate alone) is evaluated point by point.

The mesh-dependent DG norm collects the dissipative skeleton terms:
half-weighted time jumps and initial/final traces, penalty-weighted
space jumps, and the lateral boundary traces in the weights induced by
the boundary condition. The discrete energy identity decomposes the
final energy into the data energy minus quadratic losses; its audit is
a strong consistency check of solver, assembly, and quadrature at
once.

dg_error, dg_norm, energy_budget and the discrete energies share one
batched trace evaluator: per face kind and side, one basis evaluation
per element signature on all the points. A closed-form reference (one
with evaluate alone) is continuous, so it is evaluated once per face
kind and serves both sides; a discrete one (a SolutionField, with
trace) is traced from each side. It
reads the faces through mesh.FACE_SIDES and quadrature.map_to_segment,
as assembly does, so a(v; v) and |||v|||^2 sum the same faces.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .assembly import global_layout
from .basis import BasisSpec, embedding_indices, signature_groups
from .errors import (
    AmbiguousTrace,
    InsufficientSamples,
    MismatchedDomain,
    NonpositiveError,
    UnsupportedBC,
)
from .mesh import FACE_SIDES, FaceKind
from .quadrature import data_nodes, error_nodes, face_nodes, local_tensor_rule, map_to_segment
from .reference import ROBIN, CharacteristicProfile, ZeroField
from .solver import SolutionField


def _max_degree(sol):
    return int(sol.spec.degrees(range(sol.mesh.n_elements)).max())


# The most fresh points of one profile that l2_relative_error gathers from a
# block of slabs into one u0 (w0) call. It bounds what a block holds: a
# call reads at most this many points plus one slab's.
_BLOCK_POINTS = 16384


def _rows(shift):
    """Row slices (new, old): row i of new meets row i - shift of old."""
    if shift > 0:
        return slice(shift, None), slice(None, -shift)
    return slice(None, shift), slice(-shift, None)


def _fresh(z, previous, shift):
    """Flat positions of z whose value previous, shifted by shift rows, lacks.

    Row i of z meets row i - shift of previous (shift > 0 moves down the
    rows). A position is fresh where its 64-bit pattern differs from the
    one it meets (so +0.0 and -0.0 differ, and a NaN meets only its own
    bits), and in the edge rows, which meet none. None stands for every
    position: there is no previous piece, shift is 0 or the shapes differ.
    """
    if previous is None or previous.shape != z.shape or not 0 < abs(shift) < len(z):
        return None
    new, old = _rows(shift)
    fresh = np.ones(z.shape, dtype=bool)
    np.not_equal(z[new].view(np.int64), previous[old].view(np.int64), out=fresh[new])
    return np.flatnonzero(fresh)


def _profile_values(f, z):
    """f at the 1-D coordinates z, one float per point.

    f must be elementwise; what it returns is only read. A scalar fills
    every point, and a complex value raises TypeError, as the sums of the
    evaluate path do.
    """
    values = np.asarray(f(z)).astype(float, casting="same_kind", copy=False)
    return np.broadcast_to(values, z.shape)


def _transported(values, at, previous, shift, shape):
    """A piece's values: previous shifted by shift rows (as in _fresh), then
    the fresh values at the flat positions at, or values alone if at is None."""
    if at is None:
        return values.reshape(shape)
    out = np.empty(shape)
    new, old = _rows(shift)
    out[new] = previous[old]
    out.reshape(-1)[at] = values
    return out


class _Table(NamedTuple):
    """What the elements of one signature share in l2_relative_error."""

    basis: object
    fields: dict
    dx: np.ndarray
    dt: np.ndarray
    W: np.ndarray
    shift: int


def _along_characteristics(profile, mesh, pieces, tables):
    """The reference fields (Er, Hr) of each piece, in order.

    Pass 1 computes a piece's coordinates z_u = x - ct and z_w = x + ct as
    evaluate does and keeps only the fresh ones (_fresh) against the last
    piece of its signature, z_u shifted by +s rows and z_w by -s. Once a
    block of pieces holds _BLOCK_POINTS fresh points of either profile, or
    the pieces run out, u0 and w0 are each called once on the block's
    fresh coordinates. Pass 2 rebuilds each piece's values from its
    signature's last ones and the fresh ones (_transported). The last
    coordinates and values of each signature carry across blocks.
    """
    last_x = [(None, None)] * len(tables)
    last_z = [(None, None)] * len(tables)
    last_v = [(None, None)] * len(tables)
    block, sizes = [], (0, 0)
    for i, (ids, k) in enumerate(pieces):
        shift = tables[k].shift
        # X repeats the last piece's wherever the element centres do bit for bit
        xc = mesh.xc[ids]
        key, X = xc.tobytes(), last_x[k][1]
        if key != last_x[k][0]:
            X = xc[:, None] + tables[k].dx[None, :]
        last_x[k] = key, X
        T = mesh.tc[ids][:, None] + tables[k].dt[None, :]
        z = profile.characteristics(X, T, out=(np.empty(X.shape), T))
        at = (_fresh(z[0], last_z[k][0], shift), _fresh(z[1], last_z[k][1], -shift))
        last_z[k] = z
        fresh = [zi.reshape(-1) if a is None else zi.reshape(-1)[a] for zi, a in zip(z, at)]
        block.append((ids, k, at, fresh))
        sizes = tuple(size + len(f) for size, f in zip(sizes, fresh))
        if max(sizes) < _BLOCK_POINTS and i + 1 < len(pieces):
            continue
        # one u0 and one w0 call for the block, then its pieces in order
        values = [_profile_values(f, np.concatenate([piece[3][j] for piece in block]))
                  for j, f in enumerate((profile.u0, profile.w0))]
        start = [0, 0]
        for ids, k, at, fresh in block:
            shift, shape = tables[k].shift, (len(ids), len(tables[k].dx))
            v = []
            for j, sign in enumerate((1, -1)):
                stop = start[j] + len(fresh[j])
                v.append(_transported(values[j][start[j]:stop], at[j], last_v[k][j],
                                      sign * shift, shape))
                start[j] = stop
            last_v[k] = v
            yield profile.fields(*v)
        block, sizes = [], (0, 0)


def l2_relative_error(sol, reference):
    """Relative space-time L2 error of (E, H) against a reference field.

    sqrt of the integral of the squared field mismatch over the whole
    cylinder divided by the squared reference norm. A CharacteristicProfile
    is read along its characteristics, with s = round(c ht / hx) per
    signature (_along_characteristics): u0 and w0 are evaluated once per
    block of slabs, on the coordinates that the previous slab did not
    already read. Any other reference is evaluated point by point. Both
    give the same bits.
    """
    mesh, spec = sol.mesh, sol.spec
    n = error_nodes(_max_degree(sol))
    profiled = isinstance(reference, CharacteristicProfile)
    # one basis table per signature, summed slab by slab in order of first
    # appearance: the order the sums are fixed in
    tables, pieces = [], []
    for basis, ids in signature_groups(mesh, spec, range(mesh.n_elements)):
        dx, dt, W = local_tensor_rule(n, basis.hx, basis.ht)
        shift = round(reference.wave_speed * basis.ht / basis.hx) if profiled else 0
        cuts = np.flatnonzero(np.diff(mesh.slab[ids])) + 1
        pieces += [(slab_ids, len(tables)) for slab_ids in np.split(ids, cuts)]
        tables.append(_Table(basis, basis.eval_local(dx, dt), dx, dt, W, shift))
    pieces.sort(key=lambda piece: piece[0][0])
    if profiled:
        references = _along_characteristics(reference, mesh, pieces, tables)
    else:
        references = (reference.evaluate(mesh.xc[ids][:, None] + tables[k].dx[None, :],
                                         mesh.tc[ids][:, None] + tables[k].dt[None, :])
                      for ids, k in pieces)
    num = 0.0
    den = 0.0
    for (ids, k), (Er, Hr) in zip(pieces, references):
        basis, fields, W = tables[k].basis, tables[k].fields, tables[k].W
        C = sol.flat[sol.starts[ids][:, None] + np.arange(basis.n)]
        E = C @ fields["E"]
        H = C @ fields["H"]
        # W (dE^2 + dH^2), then W (Er^2 + Hr^2), in E and H, which this loop
        # owns; Er and Hr are only read. E - Er squares to (Er - E)^2's bits.
        E -= Er
        E *= E
        H -= Hr
        H *= H
        E += H
        E *= W
        num += float(np.sum(E))
        np.square(Er, out=E)
        np.square(Hr, out=H)
        E += H
        E *= W
        den += float(np.sum(E))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return math.sqrt(num / den)


def _running_sum(terms):
    """Sum in order, term by term, as a loop accumulating a float does."""
    return float(np.add.accumulate(terms)[-1]) if len(terms) else 0.0


@dataclass
class _Faces:
    """Gauss points X, T and weights W of skeleton pieces, their E and H
    weights and factor, and per side the traces (E, H, reference side)."""

    X: np.ndarray
    T: np.ndarray
    W: np.ndarray
    weight_e: np.ndarray
    weight_h: np.ndarray
    factor: float
    sides: list

    def terms(self, a, b):
        """Per piece, factor * W @ (weight_e a^2 + weight_h b^2), one BLAS dot each."""
        v = self.weight_e[:, None] * a**2 + self.weight_h[:, None] * b**2
        return self.factor * np.matmul(self.W[:, None, :], v[:, :, None])[:, 0, 0]


class _Skeleton:
    """Batched traces of one discrete field on element edges.

    The traces come from SolutionField.traces: pieces whose elements share
    the signature (hx, ht, eps, mu, p) share one eval_local call on their
    stacked points, and a stacked matrix product contracts each piece's
    traces. Each piece sees the operations it would see alone, so sums
    repeat a face-by-face loop bit for bit.
    """

    def __init__(self, sol, flux=None):
        self.sol, self.flux = sol, flux

    def faces(self, horizontal, pos, lo, hi, sides, n, weights, factor):
        """Segments (lo, hi) at pos with n Gauss points each; sides lists
        (element ids, their edge's offset from the centres, reference side)."""
        mesh = self.sol.mesh
        along, W = map_to_segment(n, lo, hi)
        fixed = np.broadcast_to(pos[:, None], along.shape)
        traced = []
        for ids, across, side in sides:
            local = along - (mesh.xc if horizontal else mesh.tc)[ids][:, None]
            normal = np.broadcast_to(across[:, None], along.shape)
            dx, dt = (local, normal) if horizontal else (normal, local)
            traced.append((*self.sol.traces(ids, dx, dt), side))
        X, T = (along, fixed) if horizontal else (fixed, along)
        return _Faces(X, T, W, *weights, factor, traced)

    def kind(self, kind, n):
        """The faces of one kind with n Gauss points each."""
        mesh, flux = self.sol.mesh, self.flux
        horizontal, sides = FACE_SIDES[kind]
        table = mesh.face_tables[kind]
        stacked = []
        for column, sign, side in sides:
            ids = table.elements[:, column]
            stacked.append((ids, sign * 0.5 * (mesh.ht if horizontal else mesh.hx)[ids], side))
        eps, mu = mesh.eps[ids], mesh.mu[ids]
        wall = kind in (FaceKind.LEFT, FaceKind.RIGHT)
        if horizontal:
            weights = eps, mu
        elif wall and self.sol.bc is not None and self.sol.bc.kind == ROBIN:
            weights = flux.robin_weights(eps, mu)
        else:
            alpha, beta = flux.penalties(mesh, table.elements)
            weights = alpha, (np.zeros(len(table.pos)) if wall else beta)
        return self.faces(horizontal, table.pos, table.lo, table.hi, stacked, n,
                          weights, 0.5 if horizontal else 1.0)

    def squared_jumps(self, kinds, n, reference):
        """Squared DG norm of reference - field on the kinds' faces, summed in mesh order."""
        terms = []
        # a closed-form reference is continuous: one evaluation serves both
        # sides of a face; a discrete one (it has trace) is traced from each side
        traced = hasattr(reference, "trace")
        for kind in kinds:
            faces = self.kind(kind, n)
            je = jh = 0.0
            if not traced:
                Re, Rh = reference.evaluate(faces.X, faces.T)
            for sign, (E, H, side) in zip((1.0, -1.0), faces.sides):
                if traced:
                    Re, Rh = reference.trace(faces.X, faces.T, side=side)
                je = je + sign * (Re - E)
                jh = jh + sign * (Rh - H)
            terms.append(faces.terms(je, jh))
        return _running_sum(np.concatenate(terms))

    def energies(self, slabs, times, n):
        """Energy 0.5 * int (eps E^2 + mu H^2) dx of each slab at its time."""
        mesh = self.sol.mesh
        ids = np.concatenate([mesh.elem_grid[j] for j in slabs])
        which = np.repeat(np.arange(len(slabs)), [len(mesh.elem_grid[j]) for j in slabs])
        t = np.asarray(times, dtype=float)[which]
        line = self.faces(True, t, mesh.x0[ids], mesh.x1[ids], [(ids, t - mesh.tc[ids], "below")],
                          n, (mesh.eps[ids], mesh.mu[ids]), 0.5)
        E, H, _ = line.sides[0]
        return np.bincount(which, weights=line.terms(E, H), minlength=len(slabs))


def _flux_of(sol, flux=None):
    """The penalty weights of the skeleton terms: flux, else the field's own."""
    flux = flux if flux is not None else sol.flux
    if flux is None:
        raise MismatchedDomain(
            "the skeleton terms need penalty weights; this field carries none, "
            "pass flux=FluxParams(...) or build the field with a flux"
        )
    return flux


def dg_error(sol, reference, flux=None):
    """Mesh-dependent DG norm of the error field against a reference.

    The reference may be a closed-form profile or another piecewise
    field (its one-sided traces are used on the skeleton). The lateral
    weights follow the solution's boundary condition: penalty alpha on
    E for conducting/Dirichlet walls, the impedance-weighted pair for
    Robin walls.
    """
    n = error_nodes(_max_degree(sol))
    return math.sqrt(_Skeleton(sol, _flux_of(sol, flux)).squared_jumps(FACE_SIDES, n, reference))


def discrete_energy(sol, t, side=None):
    """Field energy 0.5 * int (eps E^2 + mu H^2) dx at time t.

    At an interior slab interface the trace side must be given
    ('below' or 'above'); the end times default to the only available
    side.
    """
    mesh = sol.mesh
    tol = 1e-12 * max(mesh.domain.t_final, 1.0)
    if side is None and np.any(np.abs(mesh.slab_times[1:-1] - t) <= tol):
        raise AmbiguousTrace(
            f"t = {t} lies on a slab interface; pass side='below' or side='above'"
        )
    slab = mesh.slab_of_time(t, side=side)
    return float(_Skeleton(sol).energies([slab], [t], face_nodes(_max_degree(sol)))[0])


def energy_trajectory(sol):
    """Energies at every slab interface and the final time, traced from below."""
    times = sol.mesh.slab_times[1:]
    energies = _Skeleton(sol).energies(range(sol.mesh.n_slabs), times,
                                       face_nodes(_max_degree(sol)))
    return times.copy(), energies


@dataclass
class EnergyBudget:
    """Terms of the discrete energy identity; all loss terms are >= 0."""

    initial_energy: float
    initial_mismatch: float
    time_jump_loss: float
    space_jump_loss: float
    lateral_loss: float
    final_energy: float
    residual: float

    def as_dict(self):
        return asdict(self)


def energy_budget(sol, initial_data):
    """Audit the discrete energy identity for a homogeneous-data run.

    final = data energy - projection mismatch - time-jump loss
    - space-jump loss - lateral loss, with every loss a sum of squares.
    initial_energy is the data energy under the rule the march integrates
    the data with (data_nodes of slab 0's largest degree), so residual,
    the identity defect relative to it, holds rounding error only and no
    quadrature error of the data.
    """
    bc = sol.bc
    if bc is None or not bc.homogeneous:
        raise UnsupportedBC(
            "the energy identity is audited for homogeneous boundary data only"
        )
    n = face_nodes(_max_degree(sol))
    p_first = int(sol.spec.degrees(sol.mesh.elem_grid[0]).max())
    skeleton = _Skeleton(sol, _flux_of(sol))

    bottom = skeleton.kind(FaceKind.BOTTOM, data_nodes(p_first))
    E, H, _ = bottom.sides[0]
    e0 = np.asarray(initial_data.e0(bottom.X), dtype=float)
    h0 = np.asarray(initial_data.h0(bottom.X), dtype=float)
    initial_energy = _running_sum(bottom.terms(e0, h0))
    initial_mismatch = _running_sum(bottom.terms(E - e0, H - h0))
    time_jump = skeleton.squared_jumps([FaceKind.HOR_INTERNAL], n, ZeroField())
    space_jump = skeleton.squared_jumps([FaceKind.VER_INTERNAL], n, ZeroField())
    lateral = skeleton.squared_jumps([FaceKind.LEFT, FaceKind.RIGHT], n, ZeroField())

    final = discrete_energy(sol, sol.mesh.slab_times[-1], side="below")
    predicted = initial_energy - initial_mismatch - time_jump - space_jump - lateral
    scale = initial_energy if initial_energy > 0 else 1.0
    return EnergyBudget(
        initial_energy=initial_energy,
        initial_mismatch=initial_mismatch,
        time_jump_loss=time_jump,
        space_jump_loss=space_jump,
        lateral_loss=lateral,
        final_energy=final,
        residual=abs(final - predicted) / scale,
    )


@dataclass
class RateFit:
    """Least-squares convergence rate with a linearity diagnostic.

    residual is the RMS deviation from the fit line divided by the
    data range, both in log space; excluded lists samples dropped by
    the pre-asymptotic guard (error > 0.5 at the coarsest resolution).
    """

    rate: float
    residual: float
    n_used: int
    excluded: list = field(default_factory=list)


def fit_rates(xs, errors, mode="h"):
    """Fit a convergence rate.

    mode 'h': slope of log(error) against log(h) (positive = converging).
    mode 'p': slope of log(error) against p (negative = converging).
    """
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if xs.shape != errors.shape:
        raise MismatchedDomain(f"{xs.shape} sample points vs {errors.shape} errors")
    if xs.size < 3:
        raise InsufficientSamples(f"rate fit needs at least 3 samples, got {xs.size}")
    if np.any(errors <= 0):
        raise NonpositiveError("rate fit requires strictly positive errors")
    if mode not in ("h", "p"):
        raise MismatchedDomain(f"unknown fit mode {mode!r}")

    excluded = []
    coarse = int(np.argmax(xs)) if mode == "h" else int(np.argmin(xs))
    keep = np.ones(xs.size, dtype=bool)
    if errors[coarse] > 0.5:
        keep[coarse] = False
        excluded.append((float(xs[coarse]), float(errors[coarse])))
    X = np.log(xs[keep]) if mode == "h" else xs[keep]
    Y = np.log(errors[keep])
    slope, intercept = np.polyfit(X, Y, 1)
    fit = slope * X + intercept
    rng = Y.max() - Y.min()
    rms = float(np.sqrt(np.mean((Y - fit) ** 2)))
    residual = rms / rng if rng > 0 else 0.0
    return RateFit(rate=float(slope), residual=float(residual),
                   n_used=int(keep.sum()), excluded=excluded)


def project_to_space(mesh, spec, reference):
    """Elementwise L2 projection of a reference field onto a discrete space.

    Returns a SolutionField with no attached flux or boundary
    condition; useful as a side-aware discrete stand-in for the exact
    solution.
    """
    n = error_nodes(int(spec.degrees(range(mesh.n_elements)).max()))
    starts, total = global_layout(mesh, spec)
    flat = np.zeros(total)
    for basis, ids in signature_groups(mesh, spec, range(mesh.n_elements)):
        dx, dt, W = local_tensor_rule(n, basis.hx, basis.ht)
        f = basis.eval_local(dx, dt)
        gram = (f["E"] * W) @ f["E"].T + (f["H"] * W) @ f["H"].T
        for i in ids:
            Er, Hr = reference.evaluate(mesh.xc[i] + dx, mesh.tc[i] + dt)
            rhs = f["E"] @ (W * Er) + f["H"] @ (W * Hr)
            flat[starts[i]:starts[i] + basis.n] = linalg.solve(gram, rhs, assume_a="pos")
    return field_from_coefficients(mesh, spec, flat)


def embed_solution(sol, degree):
    """Re-express a uniform-degree solution in the same family at higher degree."""
    spec = sol.spec
    if not isinstance(spec.degree, int):
        raise MismatchedDomain("embedding implemented for uniform degrees")
    big = BasisSpec(spec.family, degree)
    idx = embedding_indices(spec.family, spec.degree, degree)
    starts, total = global_layout(sol.mesh, big)
    flat = np.zeros(total)
    flat[starts[:, None] + idx] = sol.flat[sol.starts[:, None] + np.arange(spec.dim_for(0))]
    return field_from_coefficients(sol.mesh, big, flat, sol.flux, sol.bc)


def dg_norm(sol, flux=None):
    """Mesh-dependent norm of a discrete field (its distance from zero)."""
    return dg_error(sol, ZeroField(), flux=flux)


def field_from_coefficients(mesh, spec, coefficients, flux=None, bc=None):
    """Wrap a flat global coefficient vector (slab-major) as a field.

    Raises DimensionMismatch unless its length is the dimension of the space.
    """
    return SolutionField(mesh, spec, flux, bc, np.asarray(coefficients, dtype=float).ravel())


def global_coefficients(sol):
    """A copy of the coefficients in the global (slab-major) dof ordering."""
    return sol.flat.copy()


CSV_HEADER = [
    "experiment", "h_x", "h_t", "p", "family",
    "alpha", "beta", "eps_q", "dg_error", "energy_final", "rate",
]


@dataclass
class ErrorReport:
    """One experiment row of the results table."""

    experiment: str
    h_x: float
    h_t: float
    p: int
    family: str
    alpha: float
    beta: float
    eps_q: float = float("nan")
    dg: float = float("nan")
    energy_final: float = float("nan")
    rate: float = None

    def row(self):
        def fmt(v):
            if v is None:
                return ""
            return repr(float(v))

        return [
            self.experiment, repr(float(self.h_x)), repr(float(self.h_t)),
            str(int(self.p)), self.family, repr(float(self.alpha)),
            repr(float(self.beta)), fmt(self.eps_q), fmt(self.dg),
            fmt(self.energy_final), fmt(self.rate),
        ]
