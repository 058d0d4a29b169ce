"""Exception types raised by the solver components.

Every named failure mode gets its own class so callers can react
selectively; all inherit from TrefftzDGError.
"""


class TrefftzDGError(Exception):
    """Base class for all package errors."""


# mesh
class NegativeExtent(TrefftzDGError):
    """Domain or slab with non-positive extent."""


class EmptyPartition(TrefftzDGError):
    """A spatial partition with fewer than two breakpoints."""


class NonconformingMaterial(TrefftzDGError):
    """Material breakpoint not present in a slab partition."""


class MismatchedDomain(TrefftzDGError):
    """Partitions or data defined over inconsistent intervals."""


class TooManyCells(TrefftzDGError):
    """A spacing that asks for more cells per direction than a mesh can hold."""


# quadrature
class ZeroPoints(TrefftzDGError):
    """Quadrature rule requested with fewer than one node."""


class DegenerateSegment(TrefftzDGError):
    """Integration segment with non-positive length."""


# basis
class PointOutsideElement(TrefftzDGError):
    """Evaluation point outside the closed element."""


# assembly
class TrefftzWithSource(TrefftzDGError):
    """Transport-polynomial space combined with a volume source."""


class SingularSlabMatrix(TrefftzDGError):
    """Slab system matrix is numerically singular."""


class DimensionMismatch(TrefftzDGError):
    """Coefficient vector length inconsistent with the degree-of-freedom map."""


# solver
class InhomogeneousSlabs(TrefftzDGError):
    """Operation requires all slabs to share height and partition."""


class EigensolverFailure(TrefftzDGError):
    """Dense eigenvalue iteration did not converge."""


class NonFiniteSolution(TrefftzDGError):
    """A slab's solved coefficients hold a NaN or an infinity."""


# reference
class NonconstantMaterial(TrefftzDGError):
    """Closed-form reference requires spatially constant materials."""


# analysis
class AmbiguousTrace(TrefftzDGError):
    """Trace evaluation at a slab interface without a side selection."""


class UnsupportedBC(TrefftzDGError):
    """Quantity not defined for this boundary condition."""


class InsufficientSamples(TrefftzDGError):
    """Too few samples for a rate fit."""


class NonpositiveError(TrefftzDGError):
    """Rate fit input contains a non-positive error value (or h, in an h fit)."""


# config / cli
class ConfigParse(TrefftzDGError):
    """Malformed configuration input; message carries line and field."""
