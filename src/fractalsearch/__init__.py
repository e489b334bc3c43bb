"""Fractal word search: earliest-appearance search over letter
substitution grids without materializing exponentially large levels.

The package root exports the library API that README documents; every
other name is imported from the module that defines it.  The package
needs nothing outside the standard library.
"""

from .ancestry import first_appearance, witness_coordinates
from .core import Grid
from .files import load_rules
from .patterns import Direction

__version__ = "1.0.0"

__all__ = [
    "Direction",
    "Grid",
    "__version__",
    "first_appearance",
    "load_rules",
    "witness_coordinates",
]
