import cmath
from pathlib import Path

import numpy as np
import pytest

from parafatou.errors import (
    ChainDomainError,
    DegenerateQuadratic,
    NewtonDiverged,
    NotNormalized,
    OrderTooLargeForJet,
    WrongForm,
)
from parafatou.germs import (
    Germ1D,
    Point2,
    SkewGerm2D,
    make_germ1d,
    make_skew_germ,
    reciprocal_transport,
    to_infinity,
)
from parafatou.expressions import (
    Const,
    Pow,
    W,
    Z,
    fold_deep,
    parse_expr,
    parse_map_file,
    subst,
    to_series2,
)
from parafatou import normal_form
from parafatou.normal_form import (
    BranchedLog,
    ConjugacyChain,
    FiberScale,
    Inversion,
    LogShear,
    Scaling,
    Shear,
    _apply_fiber_step,
    _elimination_targets,
    compose_chains,
    extract_alpha,
    invert_log_shift,
    normalize_quadratic,
    raise_order,
    rotation,
    solve_log_shear,
)
from parafatou.sampling import low_discrepancy
from parafatou.series import INFINITY, TruncatedSeries1, TruncatedSeries2, substitute2


def sample_bidisk(n, scale, seed):
    pts = low_discrepancy(n, 4, seed)
    z = scale * np.sqrt(pts[:, 0]) * np.exp(2j * np.pi * pts[:, 1])
    w = scale * np.sqrt(pts[:, 2]) * np.exp(2j * np.pi * pts[:, 3])
    return z, w


def check_chain_identity(F_old, F_new, chain, scale=0.01, n=50, tol=1e-8):
    z, w = sample_bidisk(n, scale, seed=9)
    for k in range(n):
        p = Point2(z[k], w[k])
        lhs = F_new.evaluate(p)
        rhs = chain.inverse(F_old.evaluate(chain.forward(p)))
        assert abs(lhs.z - rhs.z) < tol
        assert abs(lhs.w - rhs.w) < tol


# --------------------------------------------------------------- normalize


def test_normalize_quadratic_scalings():
    F = make_skew_germ("z + 2*z^2", "w + 3*w^2", 10)
    F2, chain = normalize_quadratic(F)
    assert abs(F2.a2 + 1) < 1e-13
    assert abs(F2.b2 + 1) < 1e-13
    step = chain.steps[0]
    assert isinstance(step, Scaling)
    assert abs(step.s + 0.5) < 1e-15
    assert abs(step.t + 1 / 3) < 1e-15
    check_chain_identity(F, F2, chain)


def test_normalize_quadratic_series_oracle():
    # lam'(z) = lam(sz)/s expanded independently with compose1
    from parafatou.series import compose1

    F = make_skew_germ("z + 2*z^2", "w + 3*w^2", 10)
    F2, chain = normalize_quadratic(F)
    s = chain.steps[0].s
    sz = TruncatedSeries1([0, s] + [0] * 9, "origin")
    expected = compose1(F.first.jet, sz) * (1 / s)
    np.testing.assert_allclose(
        np.array(F2.first.jet.coeffs), np.array(expected.coeffs), atol=1e-14
    )


def test_normalize_already_normalized():
    F = make_skew_germ("z - z^2", "w - w^2 + w^3", 12)
    F2, chain = normalize_quadratic(F)
    assert F2 is F
    assert len(chain) == 0


def test_normalize_degenerate():
    F = make_skew_germ("z + z^3", "w + w^2", 8)
    with pytest.raises(DegenerateQuadratic):
        normalize_quadratic(F)


# -------------------------------------------------------------- raise_order


def mixed_cubic(order=12):
    return make_skew_germ(
        "z - z^2", "w - w^2 + z^3 + z^2*w + z*w^2", order)


def test_raise_order_eliminates_targets():
    F = mixed_cubic()
    F2, chain = raise_order(F, M=4)
    for j, k in ((2, 0), (3, 0), (1, 1), (2, 1), (3, 1)):
        assert F2.jet2.coeff(j, k) == 0
    # allowed residual structure survives
    assert abs(F2.jet2.coeff(0, 2) + 1) < 1e-12
    assert abs(F2.jet2.coeff(1, 2)) > 0.5  # z w^2 term is not a target
    # stages run low degree to high; earlier ones refill the z^3 w slot,
    # so three steps are needed even though the input has no z^3 w term
    assert [type(s).__name__ for s in reversed(chain.steps)] == [
        "Shear", "FiberScale", "FiberScale"]
    assert [s.k for s in reversed(chain.steps)] == [2, 1, 2]
    check_chain_identity(F, F2, chain)


def test_raise_order_substitute2_oracle():
    # Re-expand the chained conjugation directly at the series level.
    F = mixed_cubic()
    F2, chain = raise_order(F, M=4)
    n = F.jet2.order
    zs = TruncatedSeries2.variable(n, "z")
    lam2 = TruncatedSeries2.from_terms(
        n, {(k, 0): c for k, c in enumerate(F.first.jet.coeffs)})
    jet = F.jet2
    for step in reversed(chain.steps):
        ws = TruncatedSeries2.variable(n, "w")
        if isinstance(step, Shear):
            inner = ws + TruncatedSeries2.from_terms(
                n, {(step.k, 0): step.c})
            jet = substitute2(jet, zs, inner) - lam2.pow_int(step.k) * step.c
        else:
            factor = TruncatedSeries2.from_terms(
                n, {(0, 0): 1.0, (step.k, 0): step.c})
            den = TruncatedSeries2.from_terms(
                n, {(0, 0): 1.0}) + lam2.pow_int(step.k) * step.c
            jet = substitute2(jet, zs, ws * factor) * den.inv()
    for j in range(n + 1):
        for k in range(n + 1 - j):
            assert abs(jet.coeff(j, k) - F2.jet2.coeff(j, k)) < 1e-11


def test_raise_order_identity_when_clean():
    F = make_skew_germ("z/(1+z)", "w - w^2 + w^3", 12)
    F2, chain = raise_order(F, M=4)
    assert F2 is F
    assert len(chain) == 0


def test_raise_order_rejects_resonant_terms():
    with pytest.raises(WrongForm):
        raise_order(make_skew_germ("z - z^2", "w - w^2 + z*w", 12), M=4)
    with pytest.raises(WrongForm):
        raise_order(make_skew_germ("z - z^2", "w - w^2 + z^2", 12), M=4)


def test_raise_order_requires_normalization_and_order():
    with pytest.raises(NotNormalized):
        raise_order(make_skew_germ("z + 2*z^2", "w - w^2", 12), M=4)
    with pytest.raises(OrderTooLargeForJet):
        raise_order(make_skew_germ("z - z^2", "w - w^2 + z^3", 8), M=4)


def test_full_pipeline_chain_composition():
    F0 = make_skew_germ(
        "z + 2*z^2", "w + 3*w^2 + z^3 + z^2*w + z*w^2", 14)
    F1, ch1 = normalize_quadratic(F0)
    F2, ch2 = raise_order(F1, M=4)
    full = compose_chains(ch2, ch1)
    assert len(full) == len(ch1) + len(ch2)
    check_chain_identity(F0, F2, full, scale=0.005)


class _StepGerm:
    """An unchecked skew germ: the fiber folded as SkewGerm2D folds it."""

    def __init__(self, first, fiber_expr, jet2):
        self.first = first
        self.fiber_expr = fold_deep(fiber_expr)
        self.jet2 = jet2


def _oracle_raise_order(F, M, slope_of=None):
    """raise_order with one germ per step and snap, the final one checked:
    the reference the elimination on (fiber, jet) pairs must reproduce.

    Each step's slope is the closed form j - 1, or slope_of(G, make, j, k)
    measured on the current germ G when given."""
    def apply(G, step):
        lam_e = G.first.expr
        if isinstance(step, Shear):
            mono = Const(step.c) * Pow(Z, step.k)
            fib = subst(G.fiber_expr, {"w": W + mono})
            fib = fib - Const(step.c) * Pow(lam_e, step.k)
        else:
            factor = Const(1) + Const(step.c) * Pow(Z, step.k)
            lam_factor = Const(1) + Const(step.c) * Pow(lam_e, step.k)
            fib = subst(G.fiber_expr, {"w": W * factor}) / lam_factor
        fib = fold_deep(fib)
        return _StepGerm(G.first, fib, to_series2(fib, G.jet2.order))

    def zeroed(jet2, j, k):
        arr = np.array(jet2.coeffs)
        arr[j, k] = 0
        return TruncatedSeries2(arr, jet2.order)

    for j, k in ((1, 1), (2, 0)):
        if abs(F.jet2.coeff(j, k)) > 1e-12:
            raise WrongForm((j, k))
    targets = _elimination_targets(M)
    if all(abs(F.jet2.coeff(j, k)) <= 1e-12 for j, k in targets):
        return F, ConjugacyChain()
    cur = F
    chain = ConjugacyChain()
    for j, k in targets:
        g0 = cur.jet2.coeff(j, k)
        scale = max(1.0, abs(g0))
        if abs(g0) <= 1e-13:
            if g0 != 0:
                cur = _StepGerm(cur.first, cur.fiber_expr,
                                zeroed(cur.jet2, j, k))
            continue
        make = Shear if k == 0 else FiberScale
        slope = j - 1 if slope_of is None else slope_of(cur, make, j, k)
        c_star = -g0 / slope
        nxt = apply(cur, make(c_star, j - 1))
        for _ in range(3):
            g = nxt.jet2.coeff(j, k)
            if abs(g) <= 1e-12 * scale:
                break
            c_star = c_star - g / slope
            nxt = apply(cur, make(c_star, j - 1))
        if abs(nxt.jet2.coeff(j, k)) > 1e-12 * scale:
            raise WrongForm((j, k))
        cur = _StepGerm(nxt.first, nxt.fiber_expr, zeroed(nxt.jet2, j, k))
        chain = chain.prepend(make(c_star, j - 1))
    return SkewGerm2D(cur.first, cur.fiber_expr, cur.jet2), chain


_MAPS = Path(__file__).resolve().parent.parent / "maps"


def _map_germ(name):
    parsed = parse_map_file((_MAPS / f"{name}.map").read_text())
    return parsed["lambda"], parsed["fiber"]


_ORACLE_GERMS = [
    _map_germ("mixed_cubic"),
    _map_germ("mobius_cubic"),
    ("z - z^2", "w - w^2 + z^3 + z^2*w + z*w^2"),
    ("z - z^2", "w - w^2 + 1e-14*z^3 + 5e-13*z^4 + z^2*w"),
    # at M = 4 the last target is snapped with no step after it
    ("z - z^2", "w - w^2 + 1e-10*z^3 + 1e-14*z^3*w"),
    ("z - z^2", "w - w^2 + z*w"),
    ("z - z^2", "w - w^2 + z^2"),
]
_ORACLE_IDS = ["mixed_cubic", "mobius_cubic", "mixed", "tiny", "snap", "zw",
               "z2"]


@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("lam, fib", _ORACLE_GERMS, ids=_ORACLE_IDS)
def test_raise_order_matches_germ_per_step_oracle(lam, fib, M):
    F, _ = normalize_quadratic(make_skew_germ(lam, fib, 2 * M + 4))
    try:
        want = _oracle_raise_order(F, M)
    except Exception as exc:
        with pytest.raises(type(exc)):
            raise_order(F, M)
        return
    got = raise_order(F, M)
    assert got[0].fiber_expr == want[0].fiber_expr
    assert got[0].jet2.coeffs.tobytes() == want[0].jet2.coeffs.tobytes()
    assert got[1].describe() == want[1].describe()
    assert (got[0] is F) == (want[0] is F)


def _probe_slope(G, make, j, k):
    """The target's response to a unit step, measured by conjugating."""
    jet = _apply_fiber_step(G.first.expr, G.fiber_expr, G.jet2.order,
                            make(1.0, j - 1))[1]
    return jet.coeff(j, k) - G.jet2.coeff(j, k)


@pytest.mark.parametrize("M", range(2, 11))
@pytest.mark.parametrize("lam, fib", _ORACLE_GERMS, ids=_ORACLE_IDS)
def test_closed_form_slope_matches_probe(lam, fib, M):
    F, _ = normalize_quadratic(make_skew_germ(lam, fib, 2 * M + 4))
    slopes = []

    def probe(G, make, j, k):
        g0 = G.jet2.coeff(j, k)
        slopes.append((j, g0, _probe_slope(G, make, j, k)))
        return slopes[-1][2]

    try:
        want = _oracle_raise_order(F, M, slope_of=probe)
    except WrongForm:
        with pytest.raises(WrongForm):
            raise_order(F, M)
        return
    # the probe reads a difference of two rounded coefficients, so its
    # rounding scales with the larger of them
    for j, g0, slope in slopes:
        big = max(j - 1, abs(g0), abs(g0 + slope))
        assert abs(slope - (j - 1)) <= 4 * np.spacing(big)
    got = raise_order(F, M)[1].steps
    assert [(type(s), s.k) for s in got] == [
        (type(s), s.k) for s in want[1].steps]
    for s, t in zip(got, want[1].steps):
        assert abs(s.c - t.c) <= 1e-14 * abs(t.c)


@pytest.mark.parametrize("M, steps", [(4, 3), (6, 7), (10, 15)])
def test_raise_order_one_conjugation_per_term(monkeypatch, M, steps):
    calls = []
    real = normal_form._apply_fiber_step

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(normal_form, "_apply_fiber_step", counted)
    F, _ = normalize_quadratic(
        make_skew_germ(*_map_germ("mixed_cubic"), 2 * M + 4))
    _, chain = raise_order(F, M)
    assert len(chain) == steps
    assert calls == list(reversed(chain.steps))


def test_raise_order_refines_at_the_input_gates():
    # a2 + 1 and the z w coefficient each sit just inside their 1e-12
    # gates, so the closed-form slope misses the first target by more than
    # 1e-12 and one refinement step is needed
    F = make_skew_germ("z - 0.9999999999991*z^2",
                       "w - w^2 - 9e-13*z*w + z^3 + z^2*w", 12)
    assert normalize_quadratic(F)[0] is F
    F2, chain = raise_order(F, M=4)
    assert len(chain) == 3
    check_chain_identity(F, F2, chain)


# ------------------------------------------------------------ extract_alpha


def infinity_germ_of(text, order=10):
    return make_germ1d(
        reciprocal_transport(parse_expr(text)), order, chart=INFINITY)


def test_extract_alpha_examples():
    assert abs(extract_alpha(infinity_germ_of("z - z^2")) - 1) < 1e-13
    assert abs(extract_alpha(make_germ1d("z + 1", 6, chart=INFINITY))) == 0
    assert abs(extract_alpha(infinity_germ_of("z/(1+z)"))) < 1e-13


def test_extract_alpha_wrong_form():
    jet = TruncatedSeries1([2, 0, 0], INFINITY)
    g = Germ1D(jet, expr=parse_expr("z + 2"), chart=INFINITY)
    with pytest.raises(WrongForm):
        extract_alpha(g)


def test_extract_alpha_numeric_fit():
    g = infinity_germ_of("z - z^2 + 0.3*z^3")
    alpha = extract_alpha(g)
    assert abs(alpha - 0.7) < 1e-12
    radii = np.array([1e3, 1e4, 1e5])
    w = radii * np.exp(0.2j)
    y = np.array([(g(wk) - wk - 1) * wk for wk in w])
    A = np.column_stack([np.ones(3), 1 / w])
    fit, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert abs(fit[0] - alpha) < 1e-4 * abs(alpha)


# ---------------------------------------------------------- solve_log_shear


def test_solve_log_shear_known_params():
    F = make_skew_germ("z - z^2", "w - w^2 - 2*z*w^2 + 2*w^3", 12)
    G = to_infinity(F)
    p = solve_log_shear(G)
    assert abs(p.alpha - 2) < 1e-12
    assert abs(p.beta + 1) < 1e-12

    # independent numeric fit of the 1/u and 1/v tail coefficients;
    # keep |v| modest so the subtraction does not quantize the tail away
    u, v = 1e3, 1e7
    a_fit = (G.fiber(u, v) - v - 1) * u
    assert abs(a_fit - p.alpha) < 1e-2
    u, v = 1e7, 1e3
    b_fit = (G.fiber(u, v) - v - 1) * v
    assert abs(b_fit - p.beta) < 1e-2


def test_solve_log_shear_zero_for_special():
    G = to_infinity(make_skew_germ("z/(1+z)", "w - w^2 + w^3", 12))
    p = solve_log_shear(G)
    assert abs(p.alpha) < 1e-13
    assert abs(p.beta - 0) < 1e-13


def test_solve_log_shear_wrong_forms():
    G = to_infinity(make_skew_germ("z - z^2", "w - w^2 + z^2*w", 12))
    with pytest.raises(WrongForm):
        solve_log_shear(G)

    base = make_germ1d("z + 1", 8, chart=INFINITY)
    bad = SkewGerm2D(base, "w + 1", to_series2(parse_expr("w - 2*w^2"), 8),
                     chart=INFINITY)
    with pytest.raises(WrongForm):
        solve_log_shear(bad)

    nojet = SkewGerm2D(base, "w + 1", None, chart=INFINITY)
    with pytest.raises(WrongForm):
        solve_log_shear(nojet)


def test_log_shear_conjugation_cancels_tails():
    F = make_skew_germ("z - z^2", "w - w^2 - 2*z*w^2 + 2*w^3", 12)
    G = to_infinity(F)
    p = solve_log_shear(G)
    theta = LogShear(p.alpha, p.beta)

    def conjugated_fiber(u, v):
        q = theta.forward(Point2(u, v, INFINITY))
        r = G.evaluate(q)
        return theta.inverse(r).w

    u, v = 1e3, 1e7
    a_before = (G.fiber(u, v) - v - 1) * u
    a_after = (conjugated_fiber(u, v) - v - 1) * u
    u, v = 1e7, 1e3
    b_before = (G.fiber(u, v) - v - 1) * v
    b_after = (conjugated_fiber(u, v) - v - 1) * v
    assert abs(a_before) > 1.9 and abs(b_before) > 0.9
    assert abs(a_after) < 0.05
    assert abs(b_after) < 0.05


# -------------------------------------------------------------- chain steps


def test_step_round_trips():
    origin_p = Point2(0.013 - 0.004j, 0.008 + 0.011j)
    inf_p = Point2(40.0 + 9j, 55.0 - 6j, INFINITY)
    cases = [
        (Scaling(2.0, -3j), origin_p),
        (Shear(0.5 - 0.2j, 3), origin_p),
        (FiberScale(0.4 + 0.1j, 2), origin_p),
        (Inversion(), origin_p),
        (LogShear(0.3, -0.2 + 0.05j), inf_p),
    ]
    for step, p in cases:
        q = step.inverse(step.forward(p))
        assert abs(q.z - p.z) < 1e-10, step.describe()
        assert abs(q.w - p.w) < 1e-10, step.describe()
        r = step.forward(step.inverse(p))
        assert abs(r.z - p.z) < 1e-10, step.describe()
        assert abs(r.w - p.w) < 1e-10, step.describe()


def test_inversion_flips_chart():
    p = Point2(0.01, 0.02)
    q = Inversion().forward(p)
    assert q.chart == INFINITY
    assert abs(q.z - 100) < 1e-12


def test_chain_order_and_describe():
    c = ConjugacyChain()
    c = c.prepend(Scaling(2, 2))
    c = c.prepend(Shear(1, 2))
    # the shear was applied later, so it acts first on the way out
    p = Point2(1, 1)
    q = c.forward(p)
    assert q.as_tuple() == (2, 4)  # scale(shear(p)); shear(scale(p)) is (2, 6)
    r = c.inverse(q)
    assert abs(r.z - 1) < 1e-14 and abs(r.w - 1) < 1e-14
    assert "shear" in c.describe() and "scale" in c.describe()
    assert ConjugacyChain().describe() == "identity"


def test_branched_log():
    principal = BranchedLog(0.0)
    assert abs(principal(2.0) - np.log(2)) < 1e-15
    flipped = BranchedLog(np.pi)
    val = flipped(-5 - 0.1j)
    assert val.imag > 3.1  # continuous across the negative real axis
    assert abs(np.exp(val) - (-5 - 0.1j)) < 1e-12


@pytest.mark.parametrize("center", [0.0, np.pi])
def test_branched_log_refuses_zero(center):
    log = BranchedLog(center)
    for x in (0j, 0.0):
        with pytest.raises(ChainDomainError, match="0 lies on no"):
            log(x)
    shear = LogShear(0, 1, log, log)
    with pytest.raises(ChainDomainError):
        shear.forward(Point2(-5, 0j, INFINITY))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("w", [0j, -1])
def test_log_shear_inverse_refuses_flat_derivative(w):
    # v + log v has derivative 1 + 1/v: infinite at v = 0, zero at v = -1
    shear = LogShear(0, 1, BranchedLog(np.pi), BranchedLog(np.pi))
    with pytest.raises(NewtonDiverged) as exc:
        shear.inverse(Point2(-5, w, INFINITY))
    assert exc.value.reason == "flat"
    assert exc.value.last_value == w


# mixed_cubic's shear parameters, on tag i's branches
_SHEAR = LogShear(-19 / 24, 1.0, BranchedLog(0.0), BranchedLog(0.0))
_SHEAR_POINTS = [Point2(2712.4 - 10.9j, 2724.8 + 3.1j, INFINITY),
                 Point2(40.0 + 5j, 35.0 - 4j, INFINITY),
                 Point2(13.0 - 11.5j, -6.8 + 11.1j, INFINITY)]


def _shear_target(shear, p):
    return p.w - shear.alpha * shear.log_u(p.z)


@pytest.mark.parametrize("p", _SHEAR_POINTS)
def test_log_shear_inverse_without_guess_starts_at_the_fiber(p):
    got = _SHEAR.inverse(p)
    want = invert_log_shift(_shear_target(_SHEAR, p), 1.0, _SHEAR.log_v, p.w)
    assert got.w == want and got.z == p.z
    assert _SHEAR.inverse(p, None) == got


@pytest.mark.parametrize("p", _SHEAR_POINTS)
def test_log_shear_inverse_reruns_an_accepted_guess(p):
    """A guess the solve accepts as it stands is replaced by the solve
    from p.w, so an orbit limit never reads an unrefined guess back."""
    cold = _SHEAR.inverse(p).w
    tol = 1e-12 * max(1.0, abs(_shear_target(_SHEAR, p)))
    guess = cold + 0.1 * tol
    assert guess != cold
    assert abs(guess + _SHEAR.log_v(guess) - _shear_target(_SHEAR, p)) <= tol
    assert _SHEAR.inverse(p, guess).w == cold


@pytest.mark.parametrize("p", _SHEAR_POINTS)
def test_log_shear_inverse_from_a_near_guess_round_trips(p):
    cold = _SHEAR.inverse(p).w
    for guess in (cold + 1e-3, cold - 0.5j, cold * (1 + 1e-6)):
        q = _SHEAR.inverse(p, guess)
        assert q.z == p.z
        back = _SHEAR.forward(q)
        assert abs(back.w - p.w) <= 1e-12 * max(1.0, abs(p.w))


def test_log_shear_inverse_refuses_a_zero_guess():
    with pytest.raises(NewtonDiverged) as exc:
        _SHEAR.inverse(_SHEAR_POINTS[1], 0j)
    assert exc.value.reason == "flat"


def test_log_shear_inverse_ignores_the_guess_without_beta():
    shear = LogShear(-19 / 24, 0, BranchedLog(0.0), BranchedLog(0.0))
    p = _SHEAR_POINTS[1]
    for guess in (None, 0j, 7.0 + 1j):
        assert shear.inverse(p, guess) == shear.inverse(p)


def _outcome(log, x):
    """(value, None) or (None, refusal message) of one log call."""
    try:
        return log(x), None
    except ChainDomainError as err:
        return None, str(err)


def _scalar_probes(center):
    """Scalars near both branch edges, zeros with either sign, every type.

    The turned argument's angle can land within an ulp of an edge, so the
    edges get a seeded sample as well as fixed points.
    """
    edge = BranchedLog._DOMAIN
    points = [0j, 0.0, 0, complex(0.0, -0.0), complex(-0.0, 0.0),
              complex(-0.0, -0.0), 1.0, -1.0, 3, -3, 2.5 + 0.0j,
              complex(2.5, -0.0), complex(-2.5, 0.0), complex(-2.5, -0.0)]
    for side in (edge, -edge):
        for gap in (1e-7, 1e-14):
            for angle in (side - gap, side + gap):
                for r in (1e-3, 1.0, 7.5e4):
                    points.append(r * complex(np.exp(1j * (center + angle))))
    points += [np.complex128(x) for x in points[-6:]] + [
        np.complex128(0j), np.complex128(-1.0), np.float64(-2.0),
        np.float64(2.0)]
    rng = np.random.default_rng(17)
    for side in (edge, -edge):
        angles = center + side + rng.uniform(-1e-14, 1e-14, 1000)
        radii = np.exp(rng.uniform(-8.0, 12.0, 1000))
        points += [complex(x) for x in radii * np.exp(1j * angles)]
    return points


@pytest.mark.parametrize("center", [0.0, np.pi, np.pi / 2, -0.75 * np.pi,
                                    2.0])
def test_branched_log_decides_by_cmath_angle(center):
    log = BranchedLog(center)
    outcomes = {"refused": 0, "accepted": 0}
    for x in _scalar_probes(center):
        value, refused = _outcome(log, x)
        y = x * rotation(center)
        if abs(cmath.phase(y)) > BranchedLog._DOMAIN:
            assert refused == (
                f"argument left the log branch centered at {center:g}"), x
        elif y == 0:
            assert refused == "0 lies on no log branch", x
        else:
            assert refused is None, x
            assert type(value) is complex, x
            assert abs(value.imag - center) <= BranchedLog._DOMAIN, x
            assert abs(cmath.exp(value) - x) <= 1e-12 * abs(x), x
        outcomes["accepted" if refused is None else "refused"] += 1
    # about half of the edge sample lies past an edge
    assert min(outcomes.values()) > 800, outcomes
