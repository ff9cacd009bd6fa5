"""Exception types shared across the toolkit."""


class CsiSenseError(Exception):
    """Base class for all toolkit errors."""


class ViewpointInsideTarget(CsiSenseError):
    """Viewpoint lies on or inside the target disk; occlusion geometry undefined."""


class DegenerateSegment(CsiSenseError):
    """Segment endpoints coincide."""


class EmptyGrid(CsiSenseError):
    """No scatter-grid point available inside the room / angular span."""


class ShapeMismatch(CsiSenseError):
    """Array or frame dimensions do not match the declared layout."""


class LengthMismatch(CsiSenseError):
    """Paired sequences differ in length."""


class MissingClass(CsiSenseError):
    """An evaluation set has zero samples for one hypothesis."""


class NonFiniteLoss(CsiSenseError):
    """Training loss became NaN or infinite."""


class InvalidSize(CsiSenseError):
    """Target diameter is not positive."""


class InvalidPitch(CsiSenseError):
    """Grid pitch is not positive."""


class ConfigError(CsiSenseError):
    """Invalid or unknown configuration content."""
