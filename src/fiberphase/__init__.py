"""Geometric phases of photons guided along a noncoplanarly curved fiber.

The package covers the semiclassical transport phase of a circularly
polarized spinor, the occupation-number-dependent second-quantized phases
including the zero-point (vacuum) halves, and the gyrotropic-medium /
finite-chamber mechanisms that suppress one circular mode so the otherwise
cancelling vacuum phase becomes observable.
"""
from .evolution import *
from .fock import *
from .geometry import *
from .media import *
from .spin import *

__version__ = "0.1.0"
