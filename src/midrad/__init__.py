"""Arbitrary-precision midpoint-radius (ball) interval arithmetic.

Submodules:

- ``bigfloat``   arbitrary-precision dyadic floats with correct directed rounding
- ``magnitude``  30-bit upward-rounded unsigned bounds (radii)
- ``ball``       real enclosures [mid +/- rad] and exact predicates
- ``elementary`` exp, log, sin/cos, atan, pow, and cached constants
- ``decimal_io`` guaranteed decimal printing/parsing of balls
- ``complexbox`` rectangular complex intervals, principal branches
- ``ballpoly``   interval polynomials; every product is one dot whose output
                 midpoints and radii are exact integer-convolution sums, each
                 rounded once by bigfloat's and magnitude's sum kernels
- ``intpoly``    exact integer polynomial products (schoolbook, or Kronecker
                 substitution with a single big multiplication: an int one,
                 or for big products a libmpdec (``decimal``) one)
- ``expreval``   expression parser and adaptive-precision evaluation
- ``cli``        the ``midrad`` command-line tool
"""

from . import ball, ballpoly, bench, bigfloat, cli, complexbox, decimal_io, elementary, expreval, intpoly, magnitude
from .ball import Ball
from .bigfloat import BigFloat, Rounding
from .complexbox import ComplexBox
from .magnitude import Magnitude

__all__ = [
    "Ball",
    "BigFloat",
    "ComplexBox",
    "Magnitude",
    "Rounding",
    "ball",
    "ballpoly",
    "bench",
    "bigfloat",
    "cli",
    "complexbox",
    "decimal_io",
    "elementary",
    "expreval",
    "intpoly",
    "magnitude",
]
__version__ = "0.1.0"
