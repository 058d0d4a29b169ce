"""Error norms, energy accounting, and convergence-rate fits.

The mesh-dependent DG norm collects the dissipative skeleton terms:
half-weighted time jumps and initial/final traces, penalty-weighted
space jumps, and the lateral boundary traces in the weights induced by
the boundary condition. The discrete energy identity decomposes the
final energy into the data energy minus quadratic losses; its audit is
a strong consistency check of solver, assembly, and quadrature at
once.

dg_error, dg_norm, energy_budget and the discrete energies share one
batched trace evaluator: per face kind and side, one basis evaluation
per element signature and one reference trace on all the points.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .assembly import ROBIN, global_layout
from .basis import BasisSpec, element_basis, embedding_indices
from .errors import (
    AmbiguousTrace,
    InsufficientSamples,
    MismatchedDomain,
    NonpositiveError,
    UnsupportedBC,
)
from .mesh import FaceKind
from .quadrature import gauss_rule
from .reference import ZeroField
from .solver import SolutionField


def _max_degree(sol):
    return int(sol.spec.degrees(range(sol.mesh.n_elements)).max())


def _signature_groups(mesh, spec):
    """Element ids grouped by slab and local signature (hx, ht, eps, mu, p).

    Each group is ascending and the groups run in order of first
    appearance, as a slab-by-slab dict of signatures would list them.
    """
    keys = np.column_stack([mesh.slab, mesh.hx, mesh.ht, mesh.eps, mesh.mu,
                            spec.degrees(range(mesh.n_elements))])
    order = np.lexsort(keys[:, ::-1].T)
    breaks = np.flatnonzero(np.any(np.diff(keys[order], axis=0) != 0, axis=1))
    return sorted(np.split(order, breaks + 1), key=lambda ids: ids[0])


def _local_tensor(e, n):
    xi, w = gauss_rule(n)
    dx = np.repeat(0.5 * e.hx * xi, n)
    dt = np.tile(0.5 * e.ht * xi, n)
    W = np.repeat(0.5 * e.hx * w, n) * np.tile(0.5 * e.ht * w, n)
    return dx, dt, W


def l2_relative_error(sol, reference, quad_order=None):
    """Relative space-time L2 error of (E, H) against a reference field.

    sqrt of the integral of the squared field mismatch over the whole
    cylinder divided by the squared reference norm.
    """
    mesh, spec = sol.mesh, sol.spec
    n = quad_order if quad_order is not None else _max_degree(sol) + 6
    num = 0.0
    den = 0.0
    for ids in _signature_groups(mesh, spec):
        e0 = mesh.elements[ids[0]]
        basis = element_basis(spec, e0)
        dx, dt, W = _local_tensor(e0, n)
        fields = basis.eval_local(dx, dt)
        C = sol.flat[sol.starts[ids][:, None] + np.arange(basis.n)]
        E = C @ fields["E"]
        H = C @ fields["H"]
        X = 0.5 * (mesh.x0[ids] + mesh.x1[ids])[:, None] + dx[None, :]
        T = 0.5 * (mesh.t0[ids] + mesh.t1[ids])[:, None] + dt[None, :]
        Er, Hr = reference.evaluate(X, T)
        num += float(np.sum(W * ((Er - E) ** 2 + (Hr - H) ** 2)))
        den += float(np.sum(W * (Er**2 + Hr**2)))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return math.sqrt(num / den)


# Face kinds in the order the DG norm sums them: whether they run along x,
# and per adjacent element its column in the FaceTable's elements, the sign
# of the edge's offset from the element centre and the side a reference is
# traced from.
_KINDS = {
    FaceKind.HOR_INTERNAL: (True, ((0, +1, "below"), (1, -1, "above"))),
    FaceKind.BOTTOM: (True, ((1, -1, "above"),)),
    FaceKind.TOP: (True, ((0, +1, "below"),)),
    FaceKind.VER_INTERNAL: (False, ((0, +1, "left"), (1, -1, "right"))),
    FaceKind.LEFT: (False, ((1, -1, "right"),)),
    FaceKind.RIGHT: (False, ((0, +1, "left"),)),
}

#: functions x points per eval_local call: bounds its six-field tables at 0.75 MB
_CHUNK = 1 << 14


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

    Pieces whose elements share the signature (hx, ht, eps, mu, p) share
    one eval_local call on their stacked points; a stacked matrix product
    contracts each piece's traces. Each piece sees the operations it would
    see alone, so sums repeat a face-by-face loop bit for bit.
    """

    def __init__(self, sol, flux=None):
        self.sol, self.flux = sol, flux
        mesh = sol.mesh
        # columns: xc, tc, hx, ht, eps, mu, p
        self.geo = np.column_stack([0.5 * (mesh.x0 + mesh.x1), 0.5 * (mesh.t0 + mesh.t1),
                                    mesh.hx, mesh.ht, mesh.eps, mesh.mu,
                                    sol.spec.degrees(range(mesh.n_elements))])

    def traces(self, ids, dx, dt):
        """(E, H) at offsets dx, dt from the centres of the elements ids."""
        order = np.lexsort(self.geo[ids, 2:].T)
        breaks = np.flatnonzero(np.any(np.diff(self.geo[ids[order], 2:], axis=0) != 0, axis=1))
        E, H = np.empty(dx.shape), np.empty(dx.shape)
        for group in np.split(order, breaks + 1):
            basis = self.sol.basis_for(ids[group[0]])
            size = max(1, _CHUNK // (basis.n * dx.shape[1]))
            for rows in (group[i:i + size] for i in range(0, len(group), size)):
                f = basis.eval_local(dx[rows].ravel(), dt[rows].ravel())
                C = self.sol.flat[self.sol.starts[ids[rows]][:, None] + np.arange(basis.n)]
                C = C[:, None, :]
                # one gemv per piece: the BLAS call of c @ F for a single piece
                for out, name in ((E, "E"), (H, "H")):
                    F = f[name].reshape(basis.n, len(rows), -1).transpose(1, 0, 2)
                    out[rows] = np.matmul(C, np.ascontiguousarray(F))[:, 0, :]
        return E, H

    def faces(self, horizontal, pos, mid, half, sides, n, weights, factor):
        """Pieces mid +- half at pos with n Gauss points each; sides lists
        (element ids, their edge's offset from the centres, reference side)."""
        xi, w = gauss_rule(n)
        along = mid[:, None] + half[:, None] * xi
        fixed = np.broadcast_to(pos[:, None], along.shape)
        traced = []
        for ids, across, side in sides:
            local = along - self.geo[ids, 0 if horizontal else 1][:, None]
            normal = np.broadcast_to(across[:, None], along.shape)
            dx, dt = (local, normal) if horizontal else (normal, local)
            traced.append((*self.traces(ids, dx, dt), side))
        X, T = (along, fixed) if horizontal else (fixed, along)
        return _Faces(X, T, half[:, None] * w, *weights, factor, traced)

    def kind(self, kind, n):
        """The faces of one kind with n Gauss points each, or None if there are none."""
        mesh, flux = self.sol.mesh, self.flux
        horizontal, sides = _KINDS[kind]
        table = mesh.face_tables[kind]
        if not len(table.pos):
            return None
        stacked = []
        for column, sign, side in sides:
            ids = table.elements[:, column]
            stacked.append((ids, sign * 0.5 * self.geo[ids, 3 if horizontal else 2], side))
        eps, mu = self.geo[ids, 4], self.geo[ids, 5]
        wall = kind in (FaceKind.LEFT, FaceKind.RIGHT)
        if horizontal:
            weights = eps, mu
        elif wall and self.sol.bc is not None and self.sol.bc.kind == ROBIN:
            zi = np.sqrt(mu / eps)
            weights = (1.0 - flux.delta) / zi, flux.delta * zi
        else:
            alpha, beta = flux.penalties(mesh, table.elements)
            weights = alpha, (np.zeros(len(table.pos)) if wall else beta)
        lo, hi = table.lo, table.hi
        return self.faces(horizontal, table.pos, 0.5 * (lo + hi), 0.5 * (hi - lo), stacked, n,
                          weights, 0.5 if horizontal else 1.0)

    def squared_jumps(self, kinds, n, reference):
        """Squared DG norm of reference - field on the kinds' faces, summed in mesh order."""
        terms = [np.zeros(0)]
        for kind in kinds:
            faces = self.kind(kind, n)
            if faces is None:
                continue
            je = jh = 0.0
            for sign, (E, H, side) in zip((1.0, -1.0), faces.sides):
                Re, Rh = (reference.trace(faces.X, faces.T, side=side)
                          if hasattr(reference, "trace") else reference.evaluate(faces.X, faces.T))
                je = je + sign * (Re - E)
                jh = jh + sign * (Rh - H)
            terms.append(faces.terms(je, jh))
        return _running_sum(np.concatenate(terms))

    def energies(self, slabs, times, n):
        """Energy 0.5 * int (eps E^2 + mu H^2) dx of each slab at its time."""
        grid = self.sol.mesh.elem_grid
        ids = np.concatenate([grid[j] for j in slabs])
        which = np.repeat(np.arange(len(slabs)), [len(grid[j]) for j in slabs])
        t = np.asarray(times, dtype=float)[which]
        g = self.geo[ids]
        line = self.faces(True, t, g[:, 0], 0.5 * g[:, 2], [(ids, t - g[:, 1], "below")], n,
                          (g[:, 4], g[:, 5]), 0.5)
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


def dg_error(sol, reference, flux=None, quad_order=None):
    """Mesh-dependent DG norm of the error field against a reference.

    The reference may be a closed-form profile or another piecewise
    field (its one-sided traces are used on the skeleton). The lateral
    weights follow the solution's boundary condition: penalty alpha on
    E for conducting/Dirichlet walls, the impedance-weighted pair for
    Robin walls.
    """
    n = quad_order if quad_order is not None else _max_degree(sol) + 6
    return math.sqrt(_Skeleton(sol, _flux_of(sol, flux)).squared_jumps(_KINDS, n, reference))


def discrete_energy(sol, t, side=None):
    """Field energy 0.5 * int (eps E^2 + mu H^2) dx at time t.

    At an interior slab interface the trace side must be given
    ('below' or 'above'); the end times default to the only available
    side.
    """
    mesh = sol.mesh
    times = mesh.slab_times
    tol = 1e-12 * max(mesh.domain.t_final, 1.0)
    interior = np.any(np.abs(times[1:-1] - t) <= tol)
    if interior and side is None:
        raise AmbiguousTrace(
            f"t = {t} lies on a slab interface; pass side='below' or side='above'"
        )
    if abs(t - times[0]) <= tol:
        slab = 0
    elif abs(t - times[-1]) <= tol:
        slab = mesh.n_slabs - 1
    else:
        slab = mesh.slab_of_time(t, side=side)
    return float(_Skeleton(sol).energies([slab], [t], _max_degree(sol) + 2)[0])


def energy_trajectory(sol):
    """Energies at every slab interface and the final time, traced from below."""
    times = sol.mesh.slab_times[1:]
    energies = _Skeleton(sol).energies(range(sol.mesh.n_slabs), times, _max_degree(sol) + 2)
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
        return {
            "initial_energy": self.initial_energy,
            "initial_mismatch": self.initial_mismatch,
            "time_jump_loss": self.time_jump_loss,
            "space_jump_loss": self.space_jump_loss,
            "lateral_loss": self.lateral_loss,
            "final_energy": self.final_energy,
            "residual": self.residual,
        }


def energy_budget(sol, initial_data, quad_order=None):
    """Audit the discrete energy identity for a homogeneous-data run.

    final = data energy - projection mismatch - time-jump loss
    - space-jump loss - lateral loss, with every loss a sum of squares.
    residual is the identity defect relative to the data energy.
    """
    bc = sol.bc
    if bc is None or not bc.homogeneous:
        raise UnsupportedBC(
            "the energy identity is audited for homogeneous boundary data only"
        )
    p_max = _max_degree(sol)
    n = quad_order if quad_order is not None else p_max + 2
    skeleton = _Skeleton(sol, _flux_of(sol))

    bottom = skeleton.kind(FaceKind.BOTTOM, max(p_max + 6, 16))
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


def project_to_space(mesh, spec, reference, quad_order=None):
    """Elementwise L2 projection of a reference field onto a discrete space.

    Returns a SolutionField with no attached flux or boundary
    condition; useful as a side-aware discrete stand-in for the exact
    solution.
    """
    p_max = int(spec.degrees(range(mesh.n_elements)).max())
    n = quad_order if quad_order is not None else p_max + 6
    starts, total = global_layout(mesh, spec)
    flat = np.zeros(total)
    for i, e in enumerate(mesh.elements):
        basis = element_basis(spec, e)
        dx, dt, W = _local_tensor(e, n)
        f = basis.eval_local(dx, dt)
        xc, tc = e.center
        Er, Hr = reference.evaluate(xc + dx, tc + dt)
        gram = (f["E"] * W) @ f["E"].T + (f["H"] * W) @ f["H"].T
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


def dg_norm(sol, flux=None, quad_order=None):
    """Mesh-dependent norm of a discrete field (its distance from zero)."""
    return dg_error(sol, ZeroField(), flux=flux, quad_order=quad_order)


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
