"""Multistatic passive-target sensing over simulated cellular links."""

__version__ = "0.1.0"

from .channel import Receiver, Scenario
from .geometry import Point2D

__all__ = ["Receiver", "Scenario", "Point2D", "__version__"]
