"""Quaternion scalars over double-precision reals.

The basis 1, i, j, k multiplies by i^2 = j^2 = k^2 = ijk = -1 and
ij = -ji = k plus cyclic interchange; products of general quaternions
follow by bilinearity.  Values are immutable and all operations are pure,
so they can be shared freely between threads.

Equality (`==`) is exact on components.  Anything that has to tolerate
floating-point noise goes through an explicit tolerance, such as `TOL_EQ`
for predicates such as automorphic equivalence.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError, ZeroConjugator

#: relative tolerance for geometric predicates (point equality, equivalence):
#: they compare against TOL_EQ times the largest norm among their points
TOL_EQ = 1e-9

#: |v + i| below this switches the rotation formula to the fixed conjugator j
_DEGENERATE_AXIS = 1e-12


class Quaternion:
    """A quaternion ``re + im_i*i + im_j*j + im_k*k``."""

    __slots__ = ("re", "im_i", "im_j", "im_k")

    def __init__(self, re=0.0, im_i=0.0, im_j=0.0, im_k=0.0):
        self.re = float(re)
        self.im_i = float(im_i)
        self.im_j = float(im_j)
        self.im_k = float(im_k)

    # -- basic structure ------------------------------------------------

    def components(self):
        return (self.re, self.im_i, self.im_j, self.im_k)

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.components() == other.components()
        if isinstance(other, (int, float)):
            return self == Quaternion(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.components())

    def __repr__(self):
        return f"Quaternion({self.re!r}, {self.im_i!r}, {self.im_j!r}, {self.im_k!r})"

    def __str__(self):
        return format_quaternion(self)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.re + other.re, self.im_i + other.im_i,
                          self.im_j + other.im_j, self.im_k + other.im_k)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.re - other.re, self.im_i - other.im_i,
                          self.im_j - other.im_j, self.im_k - other.im_k)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.re, -self.im_i, -self.im_j, -self.im_k)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.re * s, self.im_i * s, self.im_j * s, self.im_k * s)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a0, a1, a2, a3 = self.re, self.im_i, self.im_j, self.im_k
        b0, b1, b2, b3 = other.re, other.im_i, other.im_j, other.im_k
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        # division by a quaternion is ambiguous (left vs right); only reals
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        return NotImplemented

    # -- conjugation, norm, inversion -------------------------------------

    def conj(self):
        return Quaternion(self.re, -self.im_i, -self.im_j, -self.im_k)

    def norm_sq(self):
        return self.re * self.re + self.im_i * self.im_i \
            + self.im_j * self.im_j + self.im_k * self.im_k

    def norm(self):
        # hypot scales: the norm overflows only when it exceeds the double range
        return math.hypot(self.re, self.im_i, self.im_j, self.im_k)

    __abs__ = norm

    def inverse(self):
        """conj / |x|^2, taken on the quaternion scaled by the power of two
        of its largest |component|: the scaling is exact, so the result
        equals the unscaled formula wherever that does not overflow or
        underflow, and it is finite and nonzero whenever the inverse lies
        in the double range."""
        s = max(abs(self.re), abs(self.im_i), abs(self.im_j), abs(self.im_k))
        if s == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        e = -math.frexp(s)[1]
        a0, a1, a2, a3 = (math.ldexp(c, e) for c in self.components())
        n2 = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
        return Quaternion(math.ldexp(a0 / n2, e), math.ldexp(-a1 / n2, e),
                          math.ldexp(-a2 / n2, e), math.ldexp(-a3 / n2, e))

    def imag_norm(self):
        """Euclidean norm of the imaginary part; `hypot` scales, so it
        overflows only when the norm exceeds the double range."""
        return math.hypot(self.im_i, self.im_j, self.im_k)

    def is_zero(self):
        # the components, not norm_sq, which underflows below about 1e-154
        return not any(self.components())


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    return None


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

#: the multiplicative basis in component order 1, i, j, k
BASIS = (ONE, I, J, K)


def auto_equivalent(a: Quaternion, b: Quaternion) -> bool:
    """Whether a and b are conjugate under some u . x . u^-1.

    Equivalent to: equal real parts and equal imaginary-part norms, both
    checked within `TOL_EQ` times the larger of |a| and |b|, so the verdict
    does not change when both are scaled.
    """
    tol = TOL_EQ * max(a.norm(), b.norm())
    return abs(a.re - b.re) <= tol and abs(a.imag_norm() - b.imag_norm()) <= tol


def apply_automorphism(u: Quaternion, x: Quaternion) -> Quaternion:
    """Conjugation u . x . u^-1; an algebra automorphism fixing the reals.
    `inverse` scales, so every nonzero u in the double range conjugates."""
    if u.is_zero():
        raise ZeroConjugator("conjugation by the zero quaternion")
    return u * x * u.inverse()


def rotation_to_complex(x: Quaternion):
    """Unit u and y = u . x . u^-1 with y in the span of 1 and i.

    Points already of the form a + b*i are fixed (u = 1, y = x).  Otherwise
    y = Re(x) + |Im(x)|*i and u is the unit along Im(x)/|Im(x)| + i.  When
    the imaginary direction is (numerically) exactly -i that sum vanishes;
    u = j does the job there, since j*(-i)*j^-1 = i.
    """
    if x.im_j == 0.0 and x.im_k == 0.0:
        return ONE, x
    b = x.imag_norm()
    v_i, v_j, v_k = x.im_i / b, x.im_j / b, x.im_k / b
    s_i, s_j, s_k = v_i + 1.0, v_j, v_k
    sn = math.sqrt(s_i * s_i + s_j * s_j + s_k * s_k)
    if sn < _DEGENERATE_AXIS:
        u = J
    else:
        u = Quaternion(0.0, s_i / sn, s_j / sn, s_k / sn)
    return u, Quaternion(x.re, b)


def random_quaternion(rng) -> Quaternion:
    """Quaternion with components drawn uniformly from [-1, 1]."""
    c = rng.uniform(-1.0, 1.0, size=4)
    return Quaternion(c[0], c[1], c[2], c[3])


# -- literal text form -------------------------------------------------------
#
# quat := ['+'|'-'] term (('+'|'-') term)*
# term := number unit? | unit        unit := 'i' | 'j' | 'k'
#
# Whitespace is insignificant.  Examples: "1-2k", "i", "0.5+0.5i-j".

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"(?:({_NUMBER})\s*([ijk])?|([ijk]))\s*")
_WS_RE = re.compile(r"\s*")

_UNIT_INDEX = {None: 0, "i": 1, "j": 2, "k": 3}


def parse_term(text: str, pos: int):
    """The term at `pos` as ``(component index, value, end)``, or None
    when no term starts there; `end` is past the whitespace that follows.
    Raises ParseError for a number outside the double range."""
    m = _TERM_RE.match(text, pos)
    if m is None:
        return None
    if m.group(3) is not None:
        return _UNIT_INDEX[m.group(3)], 1.0, m.end()
    value = float(m.group(1))
    if not math.isfinite(value):
        raise ParseError("number outside the double range", pos)
    return _UNIT_INDEX[m.group(2)], value, m.end()


def parse_quaternion(text: str) -> Quaternion:
    """Parse a quaternion literal such as ``1-2k`` or ``0.5i+3``."""
    comps = [0.0, 0.0, 0.0, 0.0]
    pos = _WS_RE.match(text, 0).end()
    n = len(text)
    if pos >= n:
        raise ParseError("empty quaternion literal", pos)
    first = True
    while pos < n:
        sign = 1.0
        ch = text[pos]
        if ch in "+-":
            sign = -1.0 if ch == "-" else 1.0
            pos = _WS_RE.match(text, pos + 1).end()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        term = parse_term(text, pos)
        if term is None:
            raise ParseError("expected a number or unit (i, j, k)", pos)
        idx, value, end = term
        comps[idx] += sign * value
        if not math.isfinite(comps[idx]):
            raise ParseError("number outside the double range", pos)
        pos = end
        first = False
    return Quaternion(*comps)


def format_quaternion(q: Quaternion, digits=None) -> str:
    """Render a quaternion literal; `digits` significant digits if given,
    otherwise the shortest round-trip representation."""

    def fmt(v):
        if digits is None:
            s = repr(v)
            return s[:-2] if s.endswith(".0") else s
        return format(v, f".{digits}g")

    parts = []
    for value, unit in zip(q.components(), ("", "i", "j", "k")):
        if value == 0.0:
            continue
        sign = "-" if value < 0.0 else "+"
        mag = fmt(abs(value))
        if unit and mag == "1":
            mag = ""
        parts.append((sign, mag + unit))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out
