"""Slab-by-slab marching, discrete fields, and update-operator spectra.

The space-time system is block lower bidiagonal in time, with slab
matrices A_j on the diagonal and couplings -R_j below it (see
assembly.assemble_global), so the march is forward substitution on it:
one dense LU factorization per distinct slab matrix, computed in place
of A, and a forward sweep whose every solve is one call of the LAPACK
getrs that _factor takes along with the factors (the routine
scipy.linalg.lu_solve calls, without its per-call argument handling).
The slab operator (A_j, R_j, assemble_slab) does not depend on the data;
the data enter only through the load b_j (load_plan). When all slabs
share height and partition the operators are bit-identical by
construction: the assembly works in element-local offsets, and every
element's ht is its slab's height as given (Mesh.ht), not a difference
of slab times that rounds differently from slab to slab. So one slab's
A, factored in place, and its R serve every slab, one load plan gives
every b_j, and the march holds one n x n array, the LU: R stays its
interface blocks (assembly.Coupling), and R_j c_{j-1} is their product.

SolutionField.traces evaluates a field at offsets from element centres
with one basis table per element signature (basis.signature_groups,
which reads the classes the mesh computed once, Mesh.signature), in the
(rows, functions, points) layout that ElementBasis.eval_local writes and
each row's gemv reads; point evaluation (after one sort of the points by
slab in Mesh.elements_at) and the skeleton terms of analysis both go
through it.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .assembly import assemble_slab, global_layout, load_plan
from .basis import signature_groups
from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InhomogeneousSlabs,
    SingularSlabMatrix,
    UnsupportedBC,
)
from .mesh import T_SIDES, X_SIDES, check_side


def _factor(A, what="slab matrix"):
    """LU factors of A, computed in place, and the LAPACK getrs that solves
    with them: a Fortran-ordered A (as assemble_slab allocates it) is
    overwritten, so the caller must own A."""
    lu, piv = linalg.lu_factor(A, overwrite_a=True, check_finite=False)
    diag = np.abs(np.diag(lu))
    finite = np.isfinite(lu.min()) and np.isfinite(lu.max())  # a NaN or inf shows in one
    if not finite or diag.min() <= 10 * np.finfo(float).eps * diag.max():
        raise SingularSlabMatrix(
            f"{what} is numerically singular (pivot ratio "
            f"{diag.min():.3e} / {diag.max():.3e})"
        )
    return lu, piv, linalg.get_lapack_funcs(("getrs",), (lu,))[0]


def _solve(factor, b):
    """x with A x = b from _factor's output: the getrs call lu_solve makes."""
    lu, piv, getrs = factor
    x, info = getrs(lu, piv, b)
    if info != 0:
        raise DimensionMismatch(f"getrs rejected its argument {-info}")
    return x


#: functions x points per eval_local call: bounds its E and H tables at 0.25 MB each
_CHUNK = 1 << 15


class SolutionField:
    """Piecewise-polynomial space-time solution.

    Holds the slab-major coefficient vector `flat`, with `starts[i]` the
    first dof of element i in it (global_layout), and `coefficients`,
    one view of `flat` per slab. Point evaluation resolves skeleton ties
    toward the element with the smaller index; trace() takes an explicit
    side for querying a particular limit.
    """

    def __init__(self, mesh, spec, flux, bc, flat):
        self.starts, n = global_layout(mesh, spec)
        if flat.shape != (n,):
            raise DimensionMismatch(
                f"coefficient vector has {flat.size} entries, the space has {n}"
            )
        self.mesh = mesh
        self.spec = spec
        self.flux = flux
        self.bc = bc
        self.flat = flat
        self.coefficients = np.split(flat, self.starts[mesh.slab_starts[1:-1]])

    def element_coefficients(self, element_index):
        start = self.starts[element_index]
        return self.flat[start:start + self.spec.dim_for(element_index)]

    def traces(self, ids, dx, dt):
        """(E, H) at offsets dx, dt from the centres of the elements ids, one row per id.

        One ElementBasis.stacked call per element signature on the stacked
        rows, in chunks of about _CHUNK values per field, then one gemv per
        row: the BLAS call of c @ F for that element alone, since each row's
        table in the stack is contiguous.
        """
        E, H = np.empty(dx.shape), np.empty(dx.shape)
        for basis, group in signature_groups(self.mesh, self.spec, ids):
            size = max(1, _CHUNK // (basis.n * dx.shape[1]))
            for rows in (group[i:i + size] for i in range(0, len(group), size)):
                f = basis.stacked(dx[rows], dt[rows])
                C = self.flat[self.starts[ids[rows]][:, None] + np.arange(basis.n)][:, None, :]
                for out, name in ((E, "E"), (H, "H")):
                    out[rows] = np.matmul(C, f[name])[:, 0, :]
        return E, H

    def evaluate(self, x, t, t_side=None, x_side=None):
        """Fields (E, H) at points; sides select limits on skeleton lines."""
        x_arr, t_arr = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        )
        xf = np.atleast_1d(x_arr).ravel()
        tf = np.atleast_1d(t_arr).ravel()
        mesh = self.mesh
        ids = mesh.elements_at(xf, tf, t_side=t_side, x_side=x_side)
        dx = xf - mesh.xc[ids]
        dt = tf - mesh.tc[ids]
        E, H = self.traces(ids, dx[:, None], dt[:, None])
        if x_arr.ndim == 0:
            return float(E[0, 0]), float(H[0, 0])
        return E.reshape(x_arr.shape), H.reshape(x_arr.shape)

    def trace(self, x, t, side=None):
        """One-sided values; side in {'below', 'above', 'left', 'right'} or None."""
        check_side(side, T_SIDES + X_SIDES)
        t_side = side if side in T_SIDES else None
        x_side = side if side in X_SIDES else None
        return self.evaluate(x, t, t_side=t_side, x_side=x_side)


def march(mesh, spec, flux, bc, initial_data, source=None):
    """Solve the space-time system slab by slab.

    Returns a SolutionField. Slab j solves A_j c_j = R_j c_{j-1} + b_j,
    with the operator from assemble_slab and the load from a load_plan.
    On identical slabs with a uniform degree the operator is the same bit
    for bit on every slab (A_0 = A_j, R_1 = R_j), so slab 1's operator and
    load plan (slab 0's on a one-slab mesh) are built once: its A, factored
    in place, and its R serve every slab. R is kept as its interface
    blocks, so one n x n array, the LU, is held. Otherwise each slab
    assembles and factors its own operator and builds its own plan, after
    slab j - 1's LU and R are freed.
    """
    sol = SolutionField(mesh, spec, flux, bc, np.empty(global_layout(mesh, spec)[1]))
    coeffs = sol.coefficients
    shared = mesh.identical_slabs and spec.uniform
    for j in range(mesh.n_slabs):
        if j == 0 or not shared:
            k = min(1, mesh.n_slabs - 1) if shared else j
            system = factor = None              # free slab j - 1's LU and R first
            load = load_plan(mesh, k, spec, flux, bc, initial_data, source)
            system = assemble_slab(mesh, k, spec, flux, bc)
            factor = _factor(system.A, f"slab {k} matrix")
        b = system.R @ coeffs[j - 1] + load(j) if j else load(0)
        coeffs[j][:] = _solve(factor, b)
    return sol


def update_matrix(mesh, spec, flux, bc):
    """Dense one-slab update operator U = A^{-1} R.

    Requires at least two identical slabs and a boundary condition
    whose structure does not depend on time-varying data.
    """
    if mesh.n_slabs < 2:
        raise InhomogeneousSlabs("update operator needs at least two slabs")
    if not mesh.identical_slabs:
        raise InhomogeneousSlabs(
            "update operator requires identical slab heights and partitions"
        )
    if not bc.homogeneous:
        raise UnsupportedBC(
            "update operator is defined for data-free boundary conditions"
        )
    system = assemble_slab(mesh, 1, spec, flux, bc)
    return _solve(_factor(system.A), np.asarray(system.R))


@dataclass
class Spectrum:
    """Eigenvalues (sorted by descending modulus) and conditioning of U."""

    eigenvalues: np.ndarray
    spectral_radius: float
    cond: float


def spectrum(update):
    """Eigenvalues, spectral radius, and sigma_max/sigma_min of a matrix."""
    update = np.asarray(update, dtype=float)
    try:
        eigs = linalg.eigvals(update, check_finite=False)
        svals = linalg.svdvals(update, check_finite=False)
    except linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    order = np.lexsort((np.angle(eigs), -np.abs(eigs)))
    eigs = eigs[order]
    smin = svals.min()
    cond = float(svals.max() / smin) if smin > 0 else float("inf")
    return Spectrum(
        eigenvalues=eigs,
        spectral_radius=float(np.abs(eigs[0])) if eigs.size else 0.0,
        cond=cond,
    )
