"""Exception and warning types shared across the package."""


class WeakFrenetError(Exception):
    """Base class for all package errors."""


class DegeneratePolygonal(WeakFrenetError):
    """Polygonal has too few usable vertices for the requested operation."""


class AntipodalPair(WeakFrenetError):
    """Geodesic between antipodal sphere points is not unique."""


class DegenerateArc(WeakFrenetError):
    """A geodesic arc is too short (or antipodal) to carry a direction."""


class AmbiguousLift(WeakFrenetError):
    """Consecutive projective points are equidistant from both lifts."""


class ZeroTorsion(WeakFrenetError):
    """Total absolute torsion vanishes; binormal indicatrix undefined."""


class NotConverged(WeakFrenetError):
    """Refinement levels did not settle within the requested tolerance."""


class AmbiguousReturnPoint(WeakFrenetError):
    """A point of return needs a geodesic-choice policy that was not given."""


class SearchFailed(WeakFrenetError):
    """Randomized search exhausted its budget without a witness."""


class EvalOutOfDomain(WeakFrenetError):
    """Curve evaluated outside its parameter interval."""


class BlowUp(WeakFrenetError):
    """Frenet ODE profile is non-integrable up to the requested endpoint."""


class ZeroTorsionDensity(WeakFrenetError):
    """Torsion vanishes on a set of positive measure; density undefined."""


class UnknownModel(WeakFrenetError):
    """Curve model name not in the registry."""


class ParseError(WeakFrenetError):
    """Malformed polygonal input file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnboundedVariationWarning(UserWarning):
    """Per-level variation keeps growing; a finiteness hypothesis fails."""
