"""Quaternion polynomial arithmetic.

Three notions of a quaternion polynomial, each with its own module:

* `mappoly`  - the ring of polynomial mappings, stored as quadruples of
  four-variate real polynomials (fast multiplication by Kronecker
  embedding, grid multi-evaluation, randomized zero witnesses);
* `seqpoly`  - coefficient sequences under non-commutative convolution
  (fast convolution from 16 real FFT convolutions);
* `onesided` - one- and two-sided coefficient polynomials as mappings
  (rotation-reduced fast multi-evaluation, Vandermonde interpolation,
  root-form evaluation, the real-pole N-body kernel).

`expr` parses and expands quaternion expressions and provides the
randomized linear-time zero test; `complexpoly` holds the commutative
kernels (FFT, complex multipoint evaluation, Cauchy sums) the fast paths
share; `cli` is the command-line front end.
"""

from .quaternion import (
    Quaternion, parse_quaternion, format_quaternion,
    auto_equivalent, apply_automorphism, rotation_to_complex,
)
from .complexpoly import CPoly
from .seqpoly import QSeq
from .mappoly import QuadruplePoly, RPoly4
from .onesided import OneSidedPoly, TwoSidedPoly, RootFormPoly
from .expr import Expr, parse_expression, expand, zero_test
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "parse_quaternion", "format_quaternion",
    "auto_equivalent", "apply_automorphism", "rotation_to_complex",
    "CPoly", "QSeq", "QuadruplePoly", "RPoly4",
    "OneSidedPoly", "TwoSidedPoly", "RootFormPoly",
    "Expr", "parse_expression", "expand", "zero_test",
    "errors",
]
