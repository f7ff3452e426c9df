import numpy as np
import pytest

from quatpoly import expr as ex
from quatpoly import mappoly as mp
from quatpoly.errors import BracketsNotAllowed, ParseError, PowerNotSupported
from quatpoly.quaternion import I, J, K, Quaternion, random_quaternion

ONE = Quaternion(1)

VANISHING = "X·X·i·X·i + i·X·X·i·X - i·X·i·X·X - X·i·X·X·i"
ROOTLESS = "i·X-X·i+1"


def random_bracket_free(rng, max_terms=4, max_factors=6):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        factors = []
        for _ in range(rng.integers(1, max_factors + 1)):
            if rng.random() < 0.5:
                factors.append("X")
            else:
                mag = rng.uniform(0, 2)
                unit = rng.choice(["", "i", "j", "k"])
                factors.append(f"{mag:.3f}{unit}")
        terms.append("·".join(factors))
    text = terms[0]
    for t in terms[1:]:
        text += ("+" if rng.random() < 0.5 else "-") + t
    return text


def test_parse_shapes():
    e = ex.parse_expression("X·i·X")
    assert isinstance(e.root, ex.Mul)
    assert isinstance(e.root.left, ex.Mul)
    assert isinstance(e.root.left.left, ex.Var)
    assert e.n_tokens == 5 and not e.had_brackets
    e = ex.parse_expression("X+i·X")  # product binds tighter
    assert isinstance(e.root, ex.Add)
    assert isinstance(e.root.right, ex.Mul)
    e = ex.parse_expression("X-X-X")  # left associative
    assert isinstance(e.root, ex.Sub)
    assert isinstance(e.root.left, ex.Sub)


def test_parse_star_and_unary_minus():
    assert (ex.eval_at(ex.parse_expression("2*X"), J) - 2 * J).norm() <= 1e-15
    e = ex.parse_expression("-X·i")
    assert isinstance(e.root, ex.Sub) and isinstance(e.root.left, ex.Const)
    assert (ex.eval_at(e, J) + J * I).norm() <= 1e-15


def test_parse_errors_with_positions():
    with pytest.raises(PowerNotSupported) as err:
        ex.parse_expression("X^2")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        ex.parse_expression("X+·3")
    assert err.value.position == 2
    for bad in ["", "X X", "(X", "X)", "X·", "·X", "X&1"]:
        with pytest.raises(ParseError):
            ex.parse_expression(bad)


def test_eval_examples():
    assert (ex.eval_at(ex.parse_expression("(X+i)·(X-i)"), J) - 2 * K).norm() <= 1e-15
    assert (ex.eval_at(ex.parse_expression(ROOTLESS), J)
            - (ONE + 2 * K)).norm() <= 1e-15
    c = ex.parse_expression("2.5-1j")
    assert (ex.eval_at(c, random_quaternion(np.random.default_rng(0)))
            - Quaternion(2.5, 0, -1, 0)).norm() <= 1e-15


def test_vanishing_expression_evaluates_to_zero():
    e = ex.parse_expression(VANISHING)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = random_quaternion(rng)
        v, bound = ex.eval_with_bound(e, x)
        assert v.norm() <= 1e-9 * max(bound, 1e-300)


def test_serialization_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        text = random_bracket_free(rng)
        e = ex.parse_expression(text)
        again = ex.parse_expression(ex.to_text(e))
        assert ex.to_text(again) == ex.to_text(e)
        assert "(" not in ex.to_text(e)
        x = random_quaternion(rng)
        v1, v2 = ex.eval_at(e, x), ex.eval_at(again, x)
        assert (v1 - v2).norm() <= 1e-12 * max(1.0, v1.norm())


def test_node_count():
    assert ex.node_count(ex.parse_expression("X")) == 1
    assert ex.node_count(ex.parse_expression("X·i·X")) == 5
    assert ex.node_count(ex.parse_expression("X+2·j")) == 5


def test_ordered_product():
    var = mp.QuadruplePoly.variable()
    ci = mp.QuadruplePoly.constant(I)
    single = ex.ordered_product([var])
    assert mp.max_coeff_diff(single, var) == 0.0
    xix = ex.ordered_product([var, ci, var])
    assert (xix.evaluate(J) - I).norm() <= 1e-12
    assert mp.max_coeff_diff(ex.ordered_product([var, ci]),
                             ex.ordered_product([ci, var])) > 0.5
    rng = np.random.default_rng(3)
    factors = [mp.random_quadruple(int(rng.integers(0, 3)), rng) for _ in range(7)]
    prod = ex.ordered_product(factors)
    assert prod.degree == sum(f.degree for f in factors)
    with pytest.raises(ValueError):
        ex.ordered_product([])


def test_expand_matches_eval():
    # constant + X a X X a + a X X X a, built as a tree so the random
    # constants need no literal round trip
    rng = np.random.default_rng(4)
    consts = [random_quaternion(rng) for _ in range(5)]
    term2 = ex.Mul(ex.Mul(ex.Mul(ex.Mul(ex.Var(), ex.Const(consts[1])), ex.Var()),
                          ex.Var()), ex.Const(consts[2]))
    term3 = ex.Mul(ex.Mul(ex.Mul(ex.Mul(ex.Const(consts[3]), ex.Var()), ex.Var()),
                          ex.Var()), ex.Const(consts[4]))
    tree = ex.Add(ex.Const(consts[0]), ex.Add(term2, term3))
    e = ex.Expr(tree, n_tokens=ex.node_count(tree))
    quad = ex.expand(e)
    assert quad.degree == 3
    for _ in range(50):
        x = random_quaternion(rng)
        v1, bound = ex.eval_with_bound(e, x)
        v2 = quad.evaluate(x)
        assert (v1 - v2).norm() <= 1e-8 * max(bound, 1e-300)


def test_expand_vanishing_is_zero_quadruple():
    e = ex.parse_expression(VANISHING)
    quad = ex.expand(e)
    assert mp.coeff_scale(quad) <= 1e-9 * 4.0


def test_expand_degree_ignores_cancellation_residue():
    # two components cancel to rounding residue far below the quadruple's
    # peak coefficient; they must not count for the degree
    text = "·".join(["X", "i", "X", "j"] * 4) + " - " + "·".join(["j", "X", "i", "X"] * 4)
    assert ex.expand(ex.parse_expression(text)).degree == 8


def test_expand_rejects_brackets():
    with pytest.raises(BracketsNotAllowed):
        ex.expand(ex.parse_expression("(X)·(X)"))
    with pytest.raises(BracketsNotAllowed):
        ex.expand(ex.parse_expression("(X+i)·(X-i)"))
    # manually built sum nested inside a product is just as bad
    tree = ex.Mul(ex.Add(ex.Var(), ex.Const(I)), ex.Var())
    with pytest.raises(BracketsNotAllowed):
        ex.expand(ex.Expr(tree, n_tokens=5))


def test_zero_test_verdicts():
    rng = np.random.default_rng(5)
    assert ex.zero_test(ex.parse_expression(VANISHING), 2 ** -20, rng) == "zero"
    assert ex.zero_test(ex.parse_expression(ROOTLESS), 2 ** -20, rng) == "non-zero"
    assert ex.zero_test(ex.parse_expression("0"), 0.5, rng) == "zero"
    bracketed = "(X·X·i·X·i + i·X·X·i·X) - (i·X·i·X·X + X·i·X·X·i)"
    assert ex.zero_test(ex.parse_expression(bracketed), 0.01, rng) == "zero"
    with pytest.raises(ValueError):
        ex.zero_test(ex.parse_expression("X"), 1.5, rng)


def test_zero_test_is_one_sided():
    # every non-zero verdict on a generated corpus is confirmed by expansion
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(500):
        e = ex.parse_expression(random_bracket_free(rng, max_terms=3, max_factors=4))
        verdict = ex.zero_test(e, 0.5, rng)
        if verdict == "non-zero":
            quad = ex.expand(e)
            assert mp.coeff_scale(quad) > 1e-9
            checked += 1
    assert checked > 400  # random sums of products are almost never zero


def test_zero_test_round_frequency():
    e = ex.parse_expression(ROOTLESS)
    rng = np.random.default_rng(7)
    hits = sum(ex.zero_test(e, 0.5, rng) == "non-zero" for _ in range(200))
    assert hits >= 100


def test_eval_visits_each_node_once(monkeypatch):
    calls = {"n": 0}
    real = ex._eval_bound

    def counting(node, x):
        calls["n"] += 1
        return real(node, x)

    monkeypatch.setattr(ex, "_eval_bound", counting)
    e = ex.parse_expression("X·i·X+2-j·X")
    ex.eval_at(e, J)
    assert calls["n"] == ex.node_count(e)
