import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parafatou.engine import build_general_pipeline
from parafatou.errors import NonvanishingConstant, ParseError
from parafatou.expressions import (
    ONE,
    ZERO,
    BinOp,
    CompiledExpr,
    Const,
    Neg,
    Pow,
    Var,
    diff,
    ev,
    fold,
    fold_deep,
    parse_expr,
    parse_map_file,
    subst,
    to_series1,
    to_series2,
    to_text,
)
from parafatou.germs import make_skew_germ

MAPS = sorted((Path(__file__).resolve().parent.parent / "maps").glob("*.map"))


def test_parse_and_eval_basic():
    e = parse_expr("z - z^2")
    assert ev(e, {"z": 0.5}) == pytest.approx(0.25)
    e = parse_expr("z/(1+z)")
    assert ev(e, {"z": 1.0}) == pytest.approx(0.5)


def test_parse_complex_literals():
    assert ev(parse_expr("2i"), {}) == 2j
    assert ev(parse_expr("1+2i"), {}) == 1 + 2j
    assert ev(parse_expr("i"), {}) == 1j
    assert ev(parse_expr("0.5i*w"), {"w": 2.0}) == 1j
    assert ev(parse_expr("1.5e-2"), {}) == pytest.approx(0.015)


def test_parse_precedence_and_unary():
    e = parse_expr("-z^2")
    assert ev(e, {"z": 3.0}) == -9.0
    e = parse_expr("2*z + w^2*z")
    assert ev(e, {"z": 1.0 + 1j, "w": 2.0}) == 2 * (1 + 1j) + 4 * (1 + 1j)
    e = parse_expr("(1+z)^3")
    assert ev(e, {"z": 1.0}) == 8.0


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expr("z +")
    with pytest.raises(ParseError):
        parse_expr("q + 1")
    with pytest.raises(ParseError):
        parse_expr("z^w")
    with pytest.raises(ParseError):
        parse_expr("z ~ w")
    with pytest.raises(ParseError):
        parse_expr("3z")


def test_map_file_parsing():
    doc = """
    # special quadratic model
    lambda = z/(1+z)
    fiber = w - w^2 + w^3   # comment after expression
    """
    parsed = parse_map_file(doc)
    assert set(parsed) == {"lambda", "fiber"}
    assert ev(parsed["lambda"], {"z": 1.0}) == pytest.approx(0.5)


def test_map_file_errors():
    with pytest.raises(ParseError):
        parse_map_file("lambda = z\nlambda = z")
    with pytest.raises(ParseError):
        parse_map_file("sigma = z")
    with pytest.raises(ParseError):
        parse_map_file("just text")


def test_numpy_vector_eval():
    e = parse_expr("w - w^2 + z*w")
    z = np.array([0.1, 0.2])
    w = np.array([1.0 + 1j, 2.0])
    got = ev(e, {"z": z, "w": w})
    assert np.allclose(got, w - w**2 + z * w)


def test_derivative_rational():
    e = parse_expr("z/(1+z)")
    d = diff(e, "z")
    for z in (0.3, -0.2 + 0.4j, 1.5j):
        assert ev(d, {"z": z}) == pytest.approx(1 / (1 + z) ** 2)


def test_derivative_partial():
    e = parse_expr("w - w^2 + z^2*w")
    dw = diff(e, "w")
    dz = diff(e, "z")
    z, w = 0.3 + 0.1j, -0.25
    assert ev(dw, {"z": z, "w": w}) == pytest.approx(1 - 2 * w + z**2)
    assert ev(dz, {"z": z, "w": w}) == pytest.approx(2 * z * w)


def _unfolded_diff(expr, var):
    """`diff` as it was before it folded the nodes its rules build."""
    if isinstance(expr, Const):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == var else ZERO
    if isinstance(expr, Neg):
        return fold(Neg(_unfolded_diff(expr.arg, var)))
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return ZERO
        d = _unfolded_diff(expr.base, var)
        return fold(BinOp("*", BinOp("*", Const(expr.exponent),
                                     Pow(expr.base, expr.exponent - 1)), d))
    a, b = expr.left, expr.right
    da, db = _unfolded_diff(a, var), _unfolded_diff(b, var)
    if expr.op in "+-":
        return fold(BinOp(expr.op, da, db))
    if expr.op == "*":
        return fold(BinOp("+", BinOp("*", da, b), BinOp("*", a, db)))
    num = BinOp("-", BinOp("*", da, b), BinOp("*", a, db))
    return fold(BinOp("/", num, Pow(b, 2)))


def _dead_terms(expr):
    """Nodes of the tree that fold would remove: x^1, 0*x, 1*x, x*0, x*1."""
    if isinstance(expr, Pow):
        return [expr] * (expr.exponent == 1) + _dead_terms(expr.base)
    if isinstance(expr, Neg):
        return _dead_terms(expr.arg)
    if isinstance(expr, BinOp):
        dead = [expr] * (expr.op == "*" and any(
            isinstance(x, Const) and x.value in (0, 1)
            for x in (expr.left, expr.right)))
        return dead + _dead_terms(expr.left) + _dead_terms(expr.right)
    return []


def test_diff_pins_folded_trees():
    cubic = parse_expr("w - w^2 + w^3")
    assert diff(cubic, "w") == parse_expr("1 - 2*w + 3*w^2")
    assert _dead_terms(_unfolded_diff(cubic, "w")) == [Pow(Var("w"), 1)]
    assert diff(parse_expr("z/(1+z)"), "z") == parse_expr(
        "((1 + z) - z)/(1 + z)^2")
    assert diff(parse_expr("z + 2*z^2"), "z") == parse_expr("1 + 2*(2*z)")
    assert diff(parse_expr("w + 3*w^2 + z^3 + z^2*w + z*w^2"),
                "w") == parse_expr("1 + 3*(2*w) + z^2 + z*(2*w)")


@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_diff_leaves_no_dead_terms_and_keeps_its_values(path):
    """The folded derivatives of the map and of the pipeline germ's fiber
    hold no x^1 and no product with 0 or 1, and evaluate bit for bit as
    the unfolded ones did, on scalars and arrays."""
    parsed = parse_map_file(path.read_text())
    F = make_skew_germ(parsed["lambda"], parsed["fiber"], order=12)
    G = build_general_pipeline(F, 4).germ
    rng = np.random.default_rng(3)
    n = 100
    small = (rng.uniform(-0.5, 0.5, (2, n))
             + 1j * rng.uniform(-0.5, 0.5, (2, n)))
    large = np.exp(rng.uniform(np.log(5), np.log(5e3), (2, n))
                   + 1j * rng.uniform(-np.pi, np.pi, (2, n)))
    cases = [(parsed["lambda"], "z", small), (parsed["fiber"], "w", small),
             (parsed["fiber"], "z", small), (G.fiber_expr, "w", large)]
    for expr, var, (z, w) in cases:
        folded, unfolded = diff(expr, var), _unfolded_diff(expr, var)
        assert _dead_terms(folded) == []
        for tree in (folded, CompiledExpr(folded)):
            for a, b in zip(z.tolist(), w.tolist()):
                env = {"z": a, "w": b}
                assert _bits(ev(tree, env)) == _bits(ev(unfolded, env))
            env = {"z": z, "w": w}
            assert _bits(ev(tree, env)) == _bits(ev(unfolded, env))
    assert G._dfdw == diff(G.fiber_expr, "w")


def test_subst_builds_inverse_chart():
    lam = parse_expr("z/(1+z)")
    g = 1 / subst(lam, {"z": 1 / Var("z")})
    for u in (10.0, 25.0 + 5j):
        assert ev(g, {"z": u}) == pytest.approx(u + 1)


def test_series1_moebius():
    e = parse_expr("z/(1+z)")
    s = to_series1(e, 6)
    assert np.allclose(s.coeffs, [0, 1, -1, 1, -1, 1, -1])


def test_series1_rejects_pole_at_origin():
    with pytest.raises(NonvanishingConstant):
        to_series1(parse_expr("1/z"), 4)


def test_series2_fiber():
    e = parse_expr("w - w^2 + z^3*w + 2*z*w^2")
    s = to_series2(e, 4)
    assert s.coeff(0, 1) == 1
    assert s.coeff(0, 2) == -1
    assert s.coeff(3, 1) == 1
    assert s.coeff(1, 2) == 2
    assert s.coeff(1, 1) == 0


def test_series2_rational():
    e = parse_expr("w/(1+w)")
    s = to_series2(e, 4)
    for k in range(1, 5):
        assert s.coeff(0, k) == pytest.approx((-1.0) ** (k + 1))


def test_fold_deep_collapses_constants():
    e = parse_expr("0*z + 1*w + (2+3)*0")
    assert fold_deep(e) == Var("w")
    e = parse_expr("z^1 + w^0")
    f = fold_deep(e)
    assert ev(f, {"z": 2.0, "w": 99.0}) == 3.0


def test_to_text_round_trip():
    texts = ["z - z^2", "w/(1+w) + 2i*z", "(1+2i)*z^3 - w*z"]
    for t in texts:
        e = parse_expr(t)
        back = parse_expr(to_text(e))
        for z, w in [(0.2, 0.3), (0.1 + 0.5j, -0.4j)]:
            assert ev(back, {"z": z, "w": w}) == pytest.approx(
                ev(e, {"z": z, "w": w})
            )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    )
)
def test_polynomial_text_eval_matches_horner(coeffs):
    terms = []
    for k, c in enumerate(coeffs):
        terms.append(f"({c.real!r}+{c.imag!r}i)*z^{k}")
    e = parse_expr(" + ".join(terms))
    z = 0.37 - 0.21j
    direct = sum(c * z**k for k, c in enumerate(coeffs))
    assert ev(e, {"z": z}) == pytest.approx(direct, abs=1e-12)


def _bits(x):
    """Raw float64 words of a complex scalar or array, signed zeros included."""
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.uint64).tolist()


@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_compiled_matches_tree_walk_bit_for_bit(path):
    parsed = parse_map_file(path.read_text())
    F = make_skew_germ(parsed["lambda"], parsed["fiber"], order=12)
    G = build_general_pipeline(F, 4).germ
    rng = np.random.default_rng(11)
    n = 200
    z = np.exp(rng.uniform(np.log(5), np.log(5e3), n)
               + 1j * rng.uniform(-np.pi, np.pi, n))
    w = np.exp(rng.uniform(np.log(5), np.log(5e3), n)
               + 1j * rng.uniform(-np.pi, np.pi, n))
    for tree, code in ((G.fiber_expr, G._fiber_code),
                       (G._dfdw, G._dfdw_code),
                       (G.first.expr, G.first._code)):
        for a, b in zip(z.tolist(), w.tolist()):
            env = {"z": a, "w": b}
            walked, compiled = ev(tree, env), ev(code, env)
            assert type(compiled) is type(walked)
            assert _bits(compiled) == _bits(walked)
        env = {"z": z, "w": w}
        assert _bits(ev(code, env)) == _bits(ev(tree, env))


def test_compiled_shares_equal_subtrees_but_not_signed_zeros():
    z = Var("z")
    e = (z * z + z * z) * (z * z - Const(2.0))
    code = CompiledExpr(e)
    assert code.fn is None  # compiled on first evaluation
    assert ev(code, {"z": 1.5 - 2j}) == ev(e, {"z": 1.5 - 2j})
    # env, z, z*z, the sum, the difference and the product
    assert code.fn.__code__.co_nlocals == 6

    # 0.0 == -0.0, but 1/(z*0.0) and 1/(z*-0.0) are infinities of
    # opposite sign, so the two constants must stay apart
    e = Const(1.0) / (z * Const(0.0)) + Const(1.0) / (z * Const(-0.0))
    x = np.array([1.0, 2.0])
    with np.errstate(all="ignore"):
        assert np.isnan(ev(CompiledExpr(e), {"z": x})).all()
        assert np.isnan(ev(e, {"z": x})).all()

    with pytest.raises(ZeroDivisionError):
        ev(CompiledExpr(parse_expr("1/(z - 1)")), {"z": 1 + 0j})


def test_compiled_arrays_hold_no_more_temporaries_than_the_walk():
    # z + 1 z + 2 z + ... + 19 z: the walk keeps about three arrays alive
    z = Var("z")
    e = z
    for k in range(1, 20):
        e = e + Const(float(k)) * z
    env = {"z": np.linspace(0.0, 1.0, 50_000) + 0j}
    code = CompiledExpr(e)
    ev(code, env)  # compile outside the measurement

    def peak(expr):
        tracemalloc.start()
        try:
            ev(expr, env)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(code) <= peak(e) + env["z"].nbytes
