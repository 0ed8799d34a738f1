"""Exact sparse Fock-space simulation of iterated NOON-state concentration.

The package simulates two single-photon-assisted schemes that distill a
maximally entangled N-photon NOON state from a partially entangled one,
round by round with failure recycling, and verifies the simulated success
probabilities against closed forms.
"""

from . import analytics, fock, optics, protocols
from .analytics import *
from .fock import *
from .optics import *
from .protocols import *

__version__ = "0.1.0"

__all__ = fock.__all__ + optics.__all__ + protocols.__all__ + analytics.__all__
