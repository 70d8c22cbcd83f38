"""Exception hierarchy shared by all nlcurv modules."""


class NlcurvError(Exception):
    """Base class for all nlcurv errors."""


class InvalidParams(NlcurvError):
    """A numeric or enum parameter is outside its documented range."""


class ParseError(NlcurvError):
    """A mesh file could not be parsed."""


class NonManifoldError(NlcurvError):
    """A (d-1)-face is not shared by exactly two elements."""


class OrientationError(NlcurvError):
    """Element winding is inconsistent and cannot be repaired by one global flip."""


class UnsupportedMode(NlcurvError):
    """Operation requires a codimension-1 hypersurface."""


class DegenerateGeometry(NlcurvError):
    """A non-excluded sample pair is closer than the degeneracy cutoff."""


class NonGraphical(NlcurvError):
    """The surface is not a single-valued graph even on the smallest disc."""


class DegeneratePatch(NlcurvError):
    """A patch chart carries too few grid nodes to evaluate."""


class DisconnectedMesh(NlcurvError):
    """The edge graph of the mesh is not connected."""


class StallError(NlcurvError):
    """Line search could not find a descent step above the minimum step size."""


class UsageError(NlcurvError):
    """Bad command line or config input (CLI exit code 2)."""
