"""Slab-by-slab marching, discrete fields, and update-operator spectra.

The space-time system is block lower bidiagonal in time, with slab
matrices A_j on the diagonal and couplings -R_j below it (see
assembly.assemble_global), so the march is forward substitution on it:
one dense LU factorization per distinct slab matrix and a forward sweep.
When all slabs share height and partition the matrices are bit-identical
by construction (the assembly works in element-local offsets), so the
march assembles A and R once, a single factorization serves every slab,
and only the load b_j (wall data, source) is computed per slab.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .assembly import assemble_slab, global_layout, slab_load
from .basis import element_basis
from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InhomogeneousSlabs,
    SingularSlabMatrix,
    UnsupportedBC,
)


def _factor(A, what="slab matrix"):
    lu, piv = linalg.lu_factor(A, check_finite=False)
    diag = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or diag.min() <= 10 * np.finfo(float).eps * diag.max():
        raise SingularSlabMatrix(
            f"{what} is numerically singular (pivot ratio "
            f"{diag.min():.3e} / {diag.max():.3e})"
        )
    return lu, piv


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
        self._bases = {}

    def basis_for(self, element_index):
        basis = self._bases.get(element_index)
        if basis is None:
            basis = element_basis(self.spec, self.mesh.elements[element_index])
            self._bases[element_index] = basis
        return basis

    def element_coefficients(self, element_index):
        start = self.starts[element_index]
        return self.flat[start:start + self.spec.dim_for(element_index)]

    def _eval_on_element(self, element_index, x, t):
        basis = self.basis_for(element_index)
        fields = basis.eval(x, t)
        c = self.element_coefficients(element_index)
        return c @ fields["E"], c @ fields["H"]

    def evaluate(self, x, t, t_side=None, x_side=None):
        """Fields (E, H) at points; sides select limits on skeleton lines."""
        x_arr, t_arr = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        )
        scalar = x_arr.ndim == 0
        xf = np.atleast_1d(x_arr).ravel()
        tf = np.atleast_1d(t_arr).ravel()
        ids = self.mesh.elements_at(xf, tf, t_side=t_side, x_side=x_side)
        order = np.argsort(ids, kind="stable")
        found, first = np.unique(ids[order], return_index=True)
        E = np.empty_like(xf)
        H = np.empty_like(xf)
        for idx, ks in zip(found, np.split(order, first[1:])):
            E[ks], H[ks] = self._eval_on_element(int(idx), xf[ks], tf[ks])
        if scalar:
            return float(E[0]), float(H[0])
        return E.reshape(x_arr.shape), H.reshape(x_arr.shape)

    def trace(self, x, t, side=None):
        """One-sided values; side in {'below', 'above', 'left', 'right'}."""
        t_side = side if side in ("below", "above") else None
        x_side = side if side in ("left", "right") else None
        return self.evaluate(x, t, t_side=t_side, x_side=x_side)

    def to_csv(self, path):
        """Dump coefficients as (slab, element, basis index, value) rows."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slab", "element", "basis", "value"])
            for j, row_ids in enumerate(self.mesh.elem_grid):
                for idx in row_ids:
                    c = self.element_coefficients(idx)
                    for k, v in enumerate(c):
                        writer.writerow([j, idx, k, repr(float(v))])


def march(mesh, spec, flux, bc, initial_data, source=None,
          face_quad=None, data_quad=None):
    """Solve the space-time system slab by slab.

    Returns a SolutionField. On identical slabs with a uniform degree the
    slab operator is assembled and factored once (A_0 = A_j, R_1 = R_j)
    and every further slab computes only its load with slab_load;
    otherwise each slab assembles and factors its own system.
    """
    sol = SolutionField(mesh, spec, flux, bc, np.empty(global_layout(mesh, spec)[1]))
    coeffs = sol.coefficients
    quad = dict(face_quad=face_quad, data_quad=data_quad)
    system = assemble_slab(mesh, 0, spec, flux, bc, initial_data=initial_data,
                           source=source, **quad)
    factor = _factor(system.A, "slab 0 matrix")
    coeffs[0][:] = linalg.lu_solve(factor, system.b, check_finite=False)
    reuse = mesh.identical_slabs and spec.uniform
    for j in range(1, mesh.n_slabs):
        if reuse and j > 1:
            b = slab_load(mesh, j, spec, flux, bc, source=source, **quad)
        else:
            system = assemble_slab(mesh, j, spec, flux, bc, source=source, **quad)
            b = system.b
            if not reuse:
                factor = _factor(system.A, f"slab {j} matrix")
        rhs = system.R @ coeffs[j - 1] + b
        coeffs[j][:] = linalg.lu_solve(factor, rhs, check_finite=False)
    return sol


def update_matrix(mesh, spec, flux, bc, face_quad=None):
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
    system = assemble_slab(mesh, 1, spec, flux, bc, face_quad=face_quad)
    factor = _factor(system.A)
    return linalg.lu_solve(factor, system.R, check_finite=False)


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
