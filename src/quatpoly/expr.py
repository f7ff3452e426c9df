"""Quaternion expression trees: parsing, evaluation, expansion, zero test.

Grammar (whitespace insignificant, explicit multiplication only):

    expr := ['-'] prod (('+'|'-') prod)*
    prod := atom (('*'|U+00B7) atom)*
    atom := 'X' | constant | '(' expr ')'
    constant := number unit? | unit        unit := 'i'|'j'|'k'

A leading minus desugars to subtraction from zero.  Powers are rejected
outright: write repeated products instead.  Compound literals such as
``1+2i`` parse as sums of constants, which denote the same mapping.

Expansion flattens a bracket-free expression into the quadruple
representation: split at the top-level signs, expand each product term by
balanced ordered multiplication, then accumulate the terms in order of
ascending degree.  The zero test never expands anything; it evaluates the
tree at uniformly random small-integer points, where a nonzero mapping of
degree at most the tree's node count evaluates to nonzero with
probability above one half per round.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import BracketsNotAllowed, NonFiniteValue, ParseError, PowerNotSupported
from .mappoly import QuadruplePoly
from .quaternion import Quaternion, format_quaternion, parse_term

#: |value| <= this fraction of the accumulated partial-result magnitude
#: counts as a rounding residue of zero
ZERO_TEST_REL = 1e-12


class Const:
    __slots__ = ("value",)

    def __init__(self, value: Quaternion):
        self.value = value


class Var:
    __slots__ = ()


class Add:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Sub:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Mul:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Expr:
    """Parsed expression: the tree plus source metadata.

    `had_brackets` records whether the source used parentheses, which
    expansion refuses.
    """

    __slots__ = ("root", "had_brackets")

    def __init__(self, root, had_brackets: bool = False):
        self.root = root
        self.had_brackets = had_brackets

    def __repr__(self):
        return f"Expr({to_text(self)!r})"


_TOKEN_RE = re.compile(r"(?:(X)|([+\-*·()]))\s*")


def _tokenize(text: str):
    """Tokens as (kind, value, position); constants are read by the
    quaternion literal term rule."""
    tokens = []
    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is not None:
            tokens.append(("var", None, pos) if m.group(1) else (m.group(2), None, pos))
            pos = m.end()
            continue
        term = parse_term(text, pos)
        if term is None:
            if text[pos] == "^":
                raise PowerNotSupported(
                    "powers are not part of the expression alphabet; "
                    "write repeated products", pos)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        idx, value, end = term
        comps = [0.0, 0.0, 0.0, 0.0]
        comps[idx] = value
        tokens.append(("const", Quaternion(*comps), pos))
        pos = end
    return tokens


def parse_expression(text: str) -> Expr:
    """Parse expression text; multiplication binds tighter than +/-."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    state = {"pos": 0}

    def peek():
        return tokens[state["pos"]] if state["pos"] < len(tokens) else (None, None, len(text))

    def advance():
        tok = tokens[state["pos"]]
        state["pos"] += 1
        return tok

    def parse_expr():
        kind, _, _ = peek()
        if kind == "-":
            advance()
            node = Sub(Const(Quaternion()), parse_prod())
        else:
            node = parse_prod()
        while True:
            kind, _, _ = peek()
            if kind == "+":
                advance()
                node = Add(node, parse_prod())
            elif kind == "-":
                advance()
                node = Sub(node, parse_prod())
            else:
                return node

    def parse_prod():
        node = parse_atom()
        while peek()[0] in ("*", "·"):
            advance()
            node = Mul(node, parse_atom())
        return node

    def parse_atom():
        kind, value, pos = peek()
        if kind == "const":
            advance()
            return Const(value)
        if kind == "var":
            advance()
            return Var()
        if kind == "(":
            advance()
            node = parse_expr()
            kind, _, pos = peek()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            advance()
            return node
        raise ParseError("expected a constant, X, or '('", pos)

    root = parse_expr()
    kind, _, pos = peek()
    if kind is not None:
        raise ParseError(f"unexpected {kind!r}", pos)
    return Expr(root, had_brackets=any(t[0] == "(" for t in tokens))


def to_text(e: Expr) -> str:
    """Serialize a tree; parentheses appear only where precedence needs them."""

    def render(n, in_product):
        if isinstance(n, Const):
            s = format_quaternion(n.value)
            # compound or negative constants would re-tokenize as sums
            compound = "+" in s[1:] or "-" in s[1:] or s.startswith("-")
            return f"({s})" if compound and in_product else s
        if isinstance(n, Var):
            return "X"
        if isinstance(n, Mul):
            return render(n.left, True) + "·" + render(n.right, True)
        op = "+" if isinstance(n, Add) else "-"
        body = render(n.left, False) + op + render(n.right, False)
        return f"({body})" if in_product else body

    return render(e.root, False)


def node_count(node) -> int:
    """Nodes of the tree under `node`, leaves included.  It bounds the
    number of X leaves, and so the degree of the denoted mapping."""
    if isinstance(node, (Const, Var)):
        return 1
    return 1 + node_count(node.left) + node_count(node.right)


def eval_at(e: Expr, x: Quaternion) -> Quaternion:
    """Bottom-up evaluation; cost is one product or sum per tree node.

    Raises NonFiniteValue as `eval_with_bound` does.
    """
    return eval_with_bound(e, x)[0]


def eval_with_bound(e: Expr, x: Quaternion):
    """Value plus the sum of the magnitudes of every partial result.

    The magnitude sum tracks how large the intermediates were, which is
    the scale against which a near-zero float result should be judged.
    It is finite exactly when every partial result, the value included,
    is finite and their magnitudes sum within the double range; otherwise
    NonFiniteValue is raised.
    """
    value, bound = _eval_bound(e.root, x)
    if not math.isfinite(bound):
        raise NonFiniteValue(f"evaluation at {x} overflows")
    return value, bound


def _eval_bound(node, x):
    if isinstance(node, Const):
        v = node.value
        return v, v.norm()
    if isinstance(node, Var):
        return x, x.norm()
    lv, lb = _eval_bound(node.left, x)
    rv, rb = _eval_bound(node.right, x)
    if isinstance(node, Add):
        v = lv + rv
    elif isinstance(node, Sub):
        v = lv - rv
    else:
        v = lv * rv
    return v, lb + rb + v.norm()


def ordered_product(ps) -> QuadruplePoly:
    """Order-preserving product of quadruples by balanced binary splitting."""
    ps = list(ps)
    if not ps:
        raise ValueError("ordered_product needs at least one factor")
    if len(ps) == 1:
        return ps[0]
    mid = len(ps) // 2
    return ordered_product(ps[:mid]).mul_fast(ordered_product(ps[mid:]))


def expand(e: Expr) -> QuadruplePoly:
    """Quadruple representation of a bracket-free sum of products.

    Terms are expanded independently and accumulated in order of
    ascending degree (token length breaking ties), keeping every addition
    no larger than what follows it.  Raises NonFiniteValue when a
    coefficient of a product or of the sum overflows.
    """
    if e.had_brackets:
        raise BracketsNotAllowed(
            "expansion takes bracket-free expressions; "
            "the zero test accepts brackets")
    terms = []
    _split_terms(e.root, +1, terms)
    expanded = []
    for sign, node in terms:
        factors = []
        _split_factors(node, factors)
        quads = [QuadruplePoly.variable() if isinstance(f, Var)
                 else QuadruplePoly.constant(f.value) for f in factors]
        quad = ordered_product(quads)
        expanded.append((quad.degree, len(factors), sign, quad))
    expanded.sort(key=lambda t: (t[0], t[1]))
    acc = QuadruplePoly.zero()
    for _, _, sign, quad in expanded:
        acc = acc + quad if sign > 0 else acc - quad
    return acc


def _split_terms(node, sign, out):
    if isinstance(node, Add):
        _split_terms(node.left, sign, out)
        _split_terms(node.right, sign, out)
    elif isinstance(node, Sub):
        _split_terms(node.left, sign, out)
        _split_terms(node.right, -sign, out)
    else:
        out.append((sign, node))


def _split_factors(node, out):
    if isinstance(node, Mul):
        _split_factors(node.left, out)
        _split_factors(node.right, out)
    elif isinstance(node, (Const, Var)):
        out.append(node)
    else:
        raise BracketsNotAllowed(
            "products must multiply constants and X only; "
            "a sum inside a product needs brackets, which expansion rejects")


def zero_test(e: Expr, epsilon: float, rng) -> str:
    """One-sided randomized test whether e denotes the zero mapping.

    Runs ceil(log2(1/epsilon)) rounds; each substitutes X by a quaternion
    with components drawn uniformly from {0, ..., 2N-1} (N the node count
    of the tree, `node_count`) and checks the value against the
    magnitude-tracked threshold.
    Verdict "non-zero" is always right; "zero" is wrong with probability
    at most epsilon when e is in fact nonzero.  Raises NonFiniteValue when
    an evaluation overflows, since an infinite value has no scale to be
    judged against.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    rounds = max(1, math.ceil(math.log2(1.0 / epsilon)))
    n = node_count(e.root)
    pool = np.arange(2 * n, dtype=float)
    for _ in range(rounds):
        picks = pool[rng.integers(0, pool.size, size=4)]
        value, bound = eval_with_bound(e, Quaternion(*picks))
        if value.norm() > ZERO_TEST_REL * bound:
            return "non-zero"
    return "zero"
