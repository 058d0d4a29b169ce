"""Slab-by-slab marching, discrete fields, and update-operator spectra.

The space-time system is block lower bidiagonal in time, with slab
matrices A_j on the diagonal and couplings -R_j below it (see
assembly.assemble_global), so the march is forward substitution on it:
one dense LU factorization per distinct slab matrix, computed in place
of A, and a forward sweep of one-vector solves with it (_SlabLU holds
both). A vector load's solve gives the bytes of the LAPACK getrs that
scipy.linalg.lu_solve calls on b + 0.0, but reads only the LU's nonzero
windows: A couples an element only to its neighbours, so A and its LU
are banded, and getrs's dense sweep over all n^2 entries was most of the
march. The identity rests on three facts about OpenBLAS's getrs with
one right-hand side: it is laswp, then a dtrsv with L and one with U;
each dtrsv works in 64-column blocks (_BLOCK), an axpy chain inside a
block and one gemv after it on every row below (for U, above); and that
gemv does each row's arithmetic independently of its row count, except
on its last m % 4 rows. The + 0.0 only turns a -0.0 into +0.0, and no
march load holds a -0.0. A matrix load (update_matrix) goes to getrs
itself.
The slab operator (A_j, R_j, assemble_slab) does not depend on the data;
the data enter only through the load b_j (load_plan). A_j and the load
plan read slab j alone, so they depend only on its class (_slab_classes:
height, partition and degrees); R_j, the one term that reads two slabs,
depends on the classes of slabs j - 1 and j. Both hold bit for bit: the
assembly works in element-local offsets, and every element's ht is its
slab's height as given (Mesh.ht). So the march builds one load plan and
one LU, in place of A, per class and one R per pair of neighbouring
classes, each at its first slab. It keeps at most two classes' LUs at
once, rebuilding a class it dropped when the class recurs, and frees each
R after its last slab. R stays its interface blocks (assembly.Coupling),
and R_j c_{j-1} is their product, so at most two n x n arrays are held.

SolutionField.traces evaluates a field at offsets from element centres,
one per-row basis (basis.element_basis) per degree, each row's gemv on
its own table; point evaluation (after one sort of the points by slab in
Mesh.elements_at) and the skeleton terms of analysis go through it.
"""

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import cython_blas

from .assembly import assemble_coupling, assemble_slab, global_layout, load_plan
from .basis import degree_groups, element_basis
from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InhomogeneousSlabs,
    NonFiniteSolution,
    SingularSlabMatrix,
    UnsupportedBC,
)
from .mesh import T_SIDES, X_SIDES, check_side


#: OpenBLAS's dtrsv block (DTB_ENTRIES): getrs's triangular solves take this many columns at a time
_BLOCK = 64
#: rows of the diagonal windows handed to one dtrsv call, on _BLOCK's grid (on the benchmark's
#: slabs 128 solved faster than 64 and than 256)
_WINDOW = 2 * _BLOCK
#: most rows per gemv call: OpenBLAS threads a gemv of _BLOCK columns from about 7,200 rows
_ROWS = 4096


def _blas(name):
    """scipy's BLAS routine `name`, through its cython_blas pointer, as a ctypes
    function taking every argument by address: the capsule's signature, such
    as b"void (char *, int *, ...)", must list pointers only."""
    capsule = cython_blas.__pyx_capi__[name]
    api = ctypes.pythonapi
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))(
        capsule)
    n_args = signature.count(b"*")
    if not signature.startswith(b"void (") or signature.count(b",") != n_args - 1:
        raise ImportError(f"cython_blas {name} has the signature {signature!r}")
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(pointer(capsule, signature))


_dtrsv = _blas("dtrsv")
_dgemv = _blas("dgemv")
_FLAGS = ctypes.create_string_buffer(b"LUNU")  # uplo L or U, trans N, diag U(nit) or N
_LOWER_UNIT = tuple(ctypes.addressof(_FLAGS) + k for k in (0, 2, 3))
_UPPER = tuple(ctypes.addressof(_FLAGS) + k for k in (1, 2, 2))
_NOTRANS = ctypes.addressof(_FLAGS) + 2
_SCALARS = np.array([-1.0, 1.0])  # dgemv's alpha and beta


class _SlabLU:
    """LU factors of a slab matrix A, computed in place, and the solve with
    them: a Fortran-ordered A (as assemble_slab allocates it) is
    overwritten, so the caller must own A. Raises SingularSlabMatrix, naming
    `what`, when a pivot is tiny against the largest or an entry of the LU is
    not finite.

    A vector load b gets the bytes of scipy.linalg.lu_solve (LAPACK getrs)
    on b + 0.0 from a windowed sweep, which reads only the blocks of the LU
    that hold nonzeros; a matrix load (several right-hand sides) goes to
    getrs itself. OpenBLAS's getrs with one right-hand side runs laswp on b,
    then a blocked dtrsv with L (unit diagonal) and one with U. Each dtrsv
    takes _BLOCK columns at a time, L's from the top and U's from the bottom
    (at n - 64k): inside a block the solve is a chain of axpy updates, and
    after it one gemv updates every row below the block (for U, above it).
    That gemv does the same arithmetic on a row whatever its row count,
    except on its last m % 4 rows, which take a scalar path. So the sweep
    - applies laswp's interchanges as one permutation, computed once, to
      b + 0.0: a gemv on a zero block, which the sweep skips, can turn a
      running -0.0 into +0.0, and only b can start one (an exact
      cancellation gives +0.0, and -0.0 + t is -0.0 only for t = -0.0);
    - runs dtrsv on diagonal windows of _WINDOW rows on the same grid (for U,
      single blocks when n % 4 != 0, where a window's inner gemv would put
      no scalar tail on rows that getrs's gemv does);
    - after each block, runs its gemv on the rows outside the window that
      hold nonzeros in the block's columns, widened to keep every gemv's
      scalar tail on getrs's rows. A row left out holds exact zeros there.
    The BLAS calls take lda = n on the LU itself, so no window is copied, and
    their arguments are computed here, once per factorization, from one pass
    over the LU's columns in blocks. A sweep writes into one work vector, so
    one solve runs at a time.
    """

    def __init__(self, A, what="slab matrix"):
        lu, piv = linalg.lu_factor(A, overwrite_a=True, check_finite=False)
        diag = np.abs(np.diag(lu))
        finite = np.isfinite(lu.min()) and np.isfinite(lu.max())  # a NaN or inf shows in one
        if not finite or diag.min() <= 10 * np.finfo(float).eps * diag.max():
            raise SingularSlabMatrix(
                f"{what} is numerically singular (pivot ratio "
                f"{diag.min():.3e} / {diag.max():.3e})"
            )
        n = lu.shape[0]
        if lu.shape != (n, n) or lu.dtype != np.float64 or not lu.flags.f_contiguous:
            raise ValueError("the windowed sweep needs a square Fortran-ordered float64 LU")
        perm = list(range(n))
        for i, p in enumerate(piv.tolist()):  # laswp's interchanges, in order
            perm[i], perm[p] = perm[p], perm[i]
        first, last = np.empty(n, dtype=int), np.empty(n, dtype=int)
        for c in range(0, n, _BLOCK):  # each column's first and last nonzero row
            nonzero = lu[:, c:c + _BLOCK] != 0
            first[c:c + _BLOCK] = nonzero.argmax(axis=0)
            last[c:c + _BLOCK] = n - 1 - nonzero[::-1].argmax(axis=0)

        calls = []  # (flags or None for a gemv, rows, LU offset, x offset, y offset)

        def gemv(start, stop, c):
            for r in range(start, stop, _ROWS):
                calls.append((None, min(r + _ROWS, stop) - r, r + c * n, c, r))

        for top in range(0, n, _WINDOW):
            end = min(top + _WINDOW, n)
            calls.append((_LOWER_UNIT, end - top, top * (n + 1), top, None))
            for c in range(top, end, _BLOCK) if end < n else ():
                rows = int(last[c:c + _BLOCK].max()) + 1 - end
                if rows > 0:  # rows rounded up to a multiple of 4, capped at n - end
                    gemv(end, min(end + rows + -rows % 4, n), c)
        size = _WINDOW if n % 4 == 0 else _BLOCK
        for end in range(n, 0, -size):
            top = max(end - size, 0)
            calls.append((_UPPER, end - top, top * (n + 1), top, None))
            for c in range(end - _BLOCK, top - 1, -_BLOCK) if top else ():
                start = int(first[c:c + _BLOCK].min()) // 4 * 4
                if start < top:
                    gemv(start, top, c)

        self.lu, self.piv, self.perm = lu, piv, np.array(perm)
        self.work = np.empty(n)  # the calls point into it, into the LU and into ints
        self.ints = np.array([1, n, _BLOCK] + [call[1] for call in calls], dtype=np.intc)
        one, ld, cols = (self.ints.ctypes.data + 4 * k for k in range(3))
        a, x = lu.ctypes.data, self.work.ctypes.data
        alpha, beta = _SCALARS.ctypes.data, _SCALARS.ctypes.data + 8
        self.calls = []
        for k, (flags, _, at, xo, yo) in enumerate(calls):
            rows = one + 4 * (3 + k)
            if flags:
                self.calls.append((_dtrsv, (*flags, rows, a + 8 * at, ld, x + 8 * xo, one)))
            else:
                self.calls.append((_dgemv, (_NOTRANS, rows, cols, alpha, a + 8 * at, ld,
                                            x + 8 * xo, one, beta, x + 8 * yo, one)))

    def __call__(self, b):
        """x with A x = b, for a load b of shape (n,) or (n, k); another
        shape raises DimensionMismatch. A vector load gets the bytes of
        lu_solve on b + 0.0 from the windowed sweep, a matrix load goes to getrs."""
        if b.ndim > 2 or b.shape[:1] != self.perm.shape:
            raise DimensionMismatch(f"load has shape {b.shape}, the LU solves {self.perm.shape}")
        if b.ndim == 2:
            return linalg.lu_solve((self.lu, self.piv), b, check_finite=False)
        self.work[:] = b[self.perm] + 0.0
        for routine, args in self.calls:
            routine(*args)
        return self.work.copy()


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

        Per degree, one per-row basis of the rows, its ElementBasis.stacked
        called in chunks of about _CHUNK values per field, then one gemv per
        row: the BLAS call of c @ F for that element alone, since each row's
        table in the stack is contiguous and has that element's own bytes.
        """
        E, H = np.empty(dx.shape), np.empty(dx.shape)
        for group in degree_groups(self.spec, ids):
            n = self.spec.dim_for(ids[group[0]])
            size = max(1, _CHUNK // (n * dx.shape[1]))
            for rows in (group[i:i + size] for i in range(0, len(group), size)):
                el = ids[rows]
                f = element_basis(self.mesh, self.spec, el).stacked(dx[rows], dt[rows])
                C = self.flat[self.starts[el][:, None] + np.arange(n)][:, None, :]
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


def _slab_classes(mesh, spec):
    """Each slab's class, numbered in order of first appearance: equal exactly
    where the height, the partition (the slab's x0, then its last x1) and the
    degree row are, all that A_j and slab j's load plan read
    (assembly._slab_frame). x0 + 0.0 turns a -0.0 into the 0.0 it equals."""
    degrees, bounds = spec.degrees(range(mesh.n_elements)), mesh.slab_starts.tolist()
    x0 = mesh.x0 + 0.0
    slabs = zip(mesh.slab_heights.tolist(), mesh.x1[mesh.slab_starts[1:] - 1].tolist(),
                bounds, bounds[1:])
    classes = {}
    return [classes.setdefault((h, last, x0[a:b].tobytes(), degrees[a:b].tobytes()), len(classes))
            for h, last, a, b in slabs]


def march(mesh, spec, flux, bc, initial_data, source=None):
    """Solve the space-time system slab by slab.

    Returns a SolutionField. Slab j solves A_j c_j = R_j c_{j-1} + b_j,
    with the operator from assemble_slab and the load from a load_plan.
    The slabs of a class (_slab_classes) share one load plan and one A,
    assembled at the class's first slab and factored in place. Before it
    assembles a class, the march drops every other class but the one that
    recurs first, so at most two LUs live at once; a dropped class that
    recurs is assembled again, bit for bit. The slabs behind a pair of
    classes share one R, from an assembly or from assemble_coupling, freed
    after the pair's last slab. Raises NonFiniteSolution at the first slab
    whose coefficients are not all finite.
    """
    sol = SolutionField(mesh, spec, flux, bc, np.empty(global_layout(mesh, spec)[1]))
    coeffs = sol.coefficients
    classes = _slab_classes(mesh, spec)
    pairs = [None, *zip(classes, classes[1:])]
    last = {pair: j for j, pair in enumerate(pairs)}
    held, coupling = {}, {}                     # class: (load plan, LU); pair: R
    for j, (c, pair) in enumerate(zip(classes, pairs)):
        if c not in held:
            # keep of the others only the one that recurs first, so that at
            # most two LUs live at once; a class dropped early is rebuilt
            recur = {k: classes.index(k, j) for k in held if k in classes[j:]}
            held = {k: held[k] for k in sorted(recur, key=recur.get)[:1]}
            system = load = lu = None           # free the dropped LUs first
            load = load_plan(mesh, j, spec, flux, bc, initial_data, source)
            system = assemble_slab(mesh, j, spec, flux, bc)
            held[c], coupling[pair] = (load, _SlabLU(system.A, f"slab {j} matrix")), system.R
        elif pair not in coupling:
            coupling[pair] = assemble_coupling(mesh, j, spec)
        load, lu = held[c]
        b = coupling[pair] @ coeffs[j - 1] + load(j) if j else load(0)
        coeffs[j][:] = lu(b)
        if not np.isfinite(coeffs[j]).all():
            raise NonFiniteSolution(
                f"slab {j} coefficients are not finite: its data or load hold a NaN or an "
                "infinity, or the solve overflowed"
            )
        coupling = {key: R for key, R in coupling.items() if last[key] > j}
    return sol


def update_matrix(mesh, spec, flux, bc):
    """Dense one-slab update operator U = A^{-1} R.

    Requires at least two slabs, all of one class (_slab_classes: the same
    height, partition and degrees), and a boundary condition whose
    structure does not depend on time-varying data.
    """
    if mesh.n_slabs < 2:
        raise InhomogeneousSlabs("update operator needs at least two slabs")
    if max(_slab_classes(mesh, spec)):
        raise InhomogeneousSlabs(
            "update operator requires identical slab heights, partitions and degrees"
        )
    if not bc.homogeneous:
        raise UnsupportedBC("update operator is defined for data-free boundary conditions")
    system = assemble_slab(mesh, 1, spec, flux, bc)
    return _SlabLU(system.A)(np.asarray(system.R))


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
