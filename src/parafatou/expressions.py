"""Rational expressions in z and w: parsing, evaluation, calculus.

This is the closed-form substrate for germs. Expressions are small immutable
trees over +, -, *, /, integer powers, complex literals and the variables
z, w. One tree serves three interpreters: numeric evaluation (scalars or
numpy arrays), symbolic differentiation for Newton solvers, and expansion
into truncated series for jet extraction. An expression evaluated many
times, such as a germ's map, is wrapped in a CompiledExpr and runs as
straight-line code compiled once, with the same results as the walk.

Literal grammar: a number is `12`, `3.5`, `1e-3`; a trailing `i` makes it
imaginary (`2i`, `1.5i`); bare `i` is the imaginary unit. Complex constants
are spelled with arithmetic, e.g. `1+2i`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import NonvanishingConstant, ParseError
from .series import TruncatedSeries1, TruncatedSeries2, _div1, _mul1


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return BinOp("+", self, _coerce(other))

    def __radd__(self, other):
        return BinOp("+", _coerce(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _coerce(other))

    def __rsub__(self, other):
        return BinOp("-", _coerce(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _coerce(other))

    def __rmul__(self, other):
        return BinOp("*", _coerce(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _coerce(other))

    def __rtruediv__(self, other):
        return BinOp("/", _coerce(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n):
        return Pow(self, int(n))


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


Z = Var("z")
W = Var("w")
ONE = Const(1.0 + 0j)
ZERO = Const(0j)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(complex(x))


# ------------------------------------------------------------------ parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
        if m.lastgroup is None and m.group().strip() == "":
            pos = m.end()
            continue
        kind = m.lastgroup
        if kind is not None:
            out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", position=len(self.text))
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, got {tok[1]!r}", position=tok[2])

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", position=tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.next()
            rhs = self.term()
            e = BinOp(tok[1], e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.next()
            rhs = self.factor()
            e = BinOp(tok[1], e, rhs)
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.next()
            inner = self.factor()
            return inner if tok[1] == "+" else Neg(inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok[0] != "num" or not exp_tok[1].isdigit():
                raise ParseError(
                    "exponent must be a nonnegative integer", position=exp_tok[2]
                )
            return Pow(base, int(exp_tok[1]))
        return base

    def atom(self) -> Expr:
        tok = self.next()
        kind, value, where = tok
        if kind == "num":
            if value.endswith("i"):
                return Const(complex(0, float(value[:-1] or "1")))
            return Const(complex(float(value)))
        if kind == "ident":
            if value == "i":
                return Const(1j)
            if value in ("z", "w"):
                return Var(value)
            raise ParseError(f"unknown identifier {value!r}", position=where)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", position=where)


def parse_expr(text: str) -> Expr:
    """Parse a rational expression in z and w."""
    return _Parser(_tokenize(text), text).parse()


def parse_map_file(text: str) -> dict[str, Expr]:
    """Parse a map-definition document: `key = expression` lines, # comments.

    Recognized keys are `lambda` (base map, in z) and `fiber` (in z, w).
    """
    out: dict[str, Expr] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected `key = expression`")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in ("lambda", "fiber"):
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = parse_expr(rhs)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", position=exc.position) from exc
    return out


# --------------------------------------------------------------- interpreters


def ev(expr: Expr | CompiledExpr, env: dict):
    """Numeric evaluation; env maps variable names to scalars or arrays.

    expr is a tree, walked node by node, or a CompiledExpr, which runs its
    straight-line function. Both give bit-identical results.
    """
    if type(expr) is CompiledExpr:
        fn = expr.fn
        if fn is None:
            fn = expr.fn = _compile(expr.expr)
        return fn(env)
    return _walk(expr, env)


def _walk(expr: Expr, env: dict):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_walk(expr.arg, env)
    if isinstance(expr, Pow):
        return _walk(expr.base, env) ** expr.exponent
    a = _walk(expr.left, env)
    b = _walk(expr.right, env)
    op = expr.op
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


class CompiledExpr:
    """An expression compiled once into a straight-line function of env.

    `ev` compiles it on the first evaluation, so an expression that is
    built but never evaluated costs no compilation. Subexpressions the
    tree repeats are computed once. Constants are bound as the same
    objects the tree holds and every operation keeps its operands and its
    order, so `fn(env)` is bit-identical to walking the tree, for scalars
    and numpy arrays alike. The first operation to raise is the one the
    walk would reach first. Each intermediate is deleted after its last
    use, so on arrays the function holds no more temporaries than the walk.
    """

    __slots__ = ("expr", "fn")

    def __init__(self, expr: Expr):
        self.expr = expr
        self.fn = None


def _compile(expr: Expr):
    consts: list = []
    lines: list[str] = []
    by_node: dict = {}
    by_id: dict = {}

    def name_of(key, make):
        name = by_node.get(key)
        if name is None:
            name = by_node[key] = make()
        return name

    def const(value):
        def make():
            consts.append(value)
            return f"c{len(consts) - 1}"
        # repr tells -0.0 from 0.0 and int from complex, which == does not
        return name_of(("c", type(value), repr(value)), make)

    def line(rhs, *operands):
        def make():
            name = f"t{len(lines)}"
            lines.append((name, rhs, operands))
            return name
        return make

    def emit(node: Expr) -> str:
        name = by_id.get(id(node))
        if name is not None:
            return name
        if isinstance(node, Const):
            name = const(node.value)
        elif isinstance(node, Var):
            name = name_of(("v", node.name), line(f"env[{node.name!r}]"))
        elif isinstance(node, Neg):
            a = emit(node.arg)
            name = name_of(("neg", a), line(f"-{a}", a))
        elif isinstance(node, Pow):
            a = emit(node.base)
            e = const(node.exponent)
            name = name_of(("pow", a, e), line(f"{a} ** {e}", a))
        else:
            a = emit(node.left)
            b = emit(node.right)
            name = name_of((node.op, a, b),
                           line(f"{a} {node.op} {b}", a, b))
        by_id[id(node)] = name
        return name

    result = emit(expr)
    last_use = {a: k for k, (_, _, ops) in enumerate(lines) for a in ops}
    body = []
    for k, (name, rhs, operands) in enumerate(lines):
        body.append(f"        {name} = {rhs}")
        dead = [a for a in dict.fromkeys(operands)
                if a[0] == "t" and last_use[a] == k]
        if dead:
            body.append(f"        del {', '.join(dead)}")
    names = ", ".join(f"c{k}" for k in range(len(consts)))
    source = "\n".join(
        [f"def _make({names}):", "    def fn(env):"] + body
        + [f"        return {result}", "    return fn"])
    scope: dict = {}
    exec(compile(source, "<compiled expression>", "exec"), scope)
    # popped so that fn's globals hold no cycle back to the factory
    return scope.pop("_make")(*consts)


def diff(expr: Expr, var: str) -> Expr:
    """Symbolic derivative, every node it builds folded.

    So no dead term reaches evaluation: the rules leave no `x^1`, no
    product with 0 or 1 and no sum with 0, e.g. the derivative of
    `w - w^2 + w^3` in w is `1 - 2*w + 3*w^2`.
    """
    if isinstance(expr, Const):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == var else ZERO
    if isinstance(expr, Neg):
        return fold(Neg(diff(expr.arg, var)))
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return ZERO
        d = diff(expr.base, var)
        power = fold(Pow(expr.base, expr.exponent - 1))
        return _mul(_mul(Const(expr.exponent), power), d)
    a, b = expr.left, expr.right
    da, db = diff(a, var), diff(b, var)
    if expr.op in "+-":
        return fold(BinOp(expr.op, da, db))
    if expr.op == "*":
        return fold(BinOp("+", _mul(da, b), _mul(a, db)))
    num = fold(BinOp("-", _mul(da, b), _mul(a, db)))
    return fold(BinOp("/", num, fold(Pow(b, 2))))


def _mul(a: Expr, b: Expr) -> Expr:
    return fold(BinOp("*", a, b))


def subst(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Substitute expressions for variables."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Neg):
        return fold(Neg(subst(expr.arg, mapping)))
    if isinstance(expr, Pow):
        return fold(Pow(subst(expr.base, mapping), expr.exponent))
    return fold(
        BinOp(expr.op, subst(expr.left, mapping), subst(expr.right, mapping))
    )


def fold(expr: Expr) -> Expr:
    """Constant folding and unit/zero elimination, one level deep."""
    if isinstance(expr, Neg):
        if isinstance(expr.arg, Const):
            return Const(-expr.arg.value)
        if isinstance(expr.arg, Neg):
            return expr.arg.arg
        return expr
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return ONE
        if expr.exponent == 1:
            return expr.base
        if isinstance(expr.base, Const):
            return Const(expr.base.value**expr.exponent)
        return expr
    if not isinstance(expr, BinOp):
        return expr
    a, b = expr.left, expr.right
    ca = a.value if isinstance(a, Const) else None
    cb = b.value if isinstance(b, Const) else None
    if ca is not None and cb is not None:
        if expr.op == "+":
            return Const(ca + cb)
        if expr.op == "-":
            return Const(ca - cb)
        if expr.op == "*":
            return Const(ca * cb)
        if cb != 0:
            return Const(ca / cb)
        return expr
    if expr.op == "+":
        if ca == 0:
            return b
        if cb == 0:
            return a
    elif expr.op == "-":
        if cb == 0:
            return a
        if ca == 0:
            return fold(Neg(b))
    elif expr.op == "*":
        if ca == 0 or cb == 0:
            return ZERO
        if ca == 1:
            return b
        if cb == 1:
            return a
    elif expr.op == "/":
        if ca == 0:
            return ZERO
        if cb == 1:
            return a
    return expr


def fold_deep(expr: Expr) -> Expr:
    if isinstance(expr, Neg):
        return fold(Neg(fold_deep(expr.arg)))
    if isinstance(expr, Pow):
        return fold(Pow(fold_deep(expr.base), expr.exponent))
    if isinstance(expr, BinOp):
        return fold(BinOp(expr.op, fold_deep(expr.left), fold_deep(expr.right)))
    return expr


def to_text(expr: Expr) -> str:
    """Render an expression back to the map-file grammar."""
    if isinstance(expr, Const):
        v = expr.value
        if v.imag == 0:
            return _fmt(v.real)
        if v.real == 0:
            return _fmt(v.imag) + "i"
        sign = "+" if v.imag >= 0 else "-"
        return f"({_fmt(v.real)}{sign}{_fmt(abs(v.imag))}i)"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_text(expr.arg)})"
    if isinstance(expr, Pow):
        return f"{to_text(expr.base)}^{expr.exponent}"
    return f"({to_text(expr.left)} {expr.op} {to_text(expr.right)})"


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# ------------------------------------------------------- rational normal form


def as_rational_poly2(expr: Expr) -> tuple[dict, dict]:
    """Clear denominators: return (P, Q) dicts with expr = P/Q exactly.

    Keys are (z-degree, w-degree); values complex. No truncation happens, so
    this is the exact rational normal form of the tree. Degrees stay small
    for the maps this package handles.
    """

    def mul(a, b):
        out: dict = {}
        for (j1, k1), c1 in a.items():
            for (j2, k2), c2 in b.items():
                key = (j1 + j2, k1 + k2)
                s = out.get(key, 0j) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def add(a, b):
        out = dict(a)
        for key, c in b.items():
            s = out.get(key, 0j) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return out

    one = {(0, 0): 1 + 0j}

    def rec(e: Expr) -> tuple[dict, dict]:
        if isinstance(e, Const):
            return ({(0, 0): e.value} if e.value != 0 else {}, dict(one))
        if isinstance(e, Var):
            key = (1, 0) if e.name == "z" else (0, 1)
            return ({key: 1 + 0j}, dict(one))
        if isinstance(e, Neg):
            p, q = rec(e.arg)
            return ({k: -c for k, c in p.items()}, q)
        if isinstance(e, Pow):
            p, q = rec(e.base)
            rp, rq = dict(one), dict(one)
            for _ in range(e.exponent):
                rp = mul(rp, p)
                rq = mul(rq, q)
            return rp, rq
        p1, q1 = rec(e.left)
        p2, q2 = rec(e.right)
        if e.op == "+":
            return add(mul(p1, q2), mul(p2, q1)), mul(q1, q2)
        if e.op == "-":
            neg = {k: -c for k, c in p2.items()}
            return add(mul(p1, q2), mul(neg, q1)), mul(q1, q2)
        if e.op == "*":
            return mul(p1, p2), mul(q1, q2)
        return mul(p1, q2), mul(q1, p2)

    return rec(expr)


def poly2_to_expr(terms: dict) -> Expr:
    """Sum-of-monomials expression from a (j, k) -> coeff dict."""
    if not terms:
        return ZERO
    out: Expr | None = None
    for (j, k), c in sorted(terms.items()):
        mono: Expr = Const(c)
        if j:
            mono = BinOp("*", mono, Pow(Z, j) if j > 1 else Z)
        if k:
            mono = BinOp("*", mono, Pow(W, k) if k > 1 else W)
        mono = fold_deep(mono)
        out = mono if out is None else BinOp("+", out, mono)
    return fold_deep(out)


def poly_eq(a: dict, b: dict, tol: float = 1e-12) -> bool:
    """Coefficientwise equality of two polynomial dicts, relative to scale."""
    scale = max(
        [abs(c) for c in a.values()] + [abs(c) for c in b.values()] + [1.0]
    )
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0) - b.get(k, 0)) <= tol * scale for k in keys)


# ---------------------------------------------------------- series expansion


def to_series1(expr: Expr, order: int) -> TruncatedSeries1:
    """Origin-chart jet of the expression as a function of z alone.

    Division requires the denominator to be nonzero at the origin, i.e. the
    expression must be analytic there.
    """
    coeffs = _series1_rec(expr, order)
    return TruncatedSeries1(coeffs)


def _series1_rec(expr: Expr, n: int) -> list[complex]:
    if isinstance(expr, Const):
        return [expr.value] + [0j] * n
    if isinstance(expr, Var):
        if expr.name != "z":
            raise ParseError(f"unexpected variable {expr.name!r} in 1-d expression")
        return [0j, 1 + 0j] + [0j] * (n - 1) if n >= 1 else [0j]
    if isinstance(expr, Neg):
        return [-c for c in _series1_rec(expr.arg, n)]
    if isinstance(expr, Pow):
        base = _series1_rec(expr.base, n)
        out = [1 + 0j] + [0j] * n
        for _ in range(expr.exponent):
            out = _mul1(out, base, n)
        return out
    a = _series1_rec(expr.left, n)
    b = _series1_rec(expr.right, n)
    if expr.op == "+":
        return [x + y for x, y in zip(a, b)]
    if expr.op == "-":
        return [x - y for x, y in zip(a, b)]
    if expr.op == "*":
        return _mul1(a, b, n)
    if b[0] == 0:
        raise NonvanishingConstant("division by a series vanishing at the origin")
    return _div1(a, b, n)


def to_series2(expr: Expr, order: int) -> TruncatedSeries2:
    """Bivariate origin jet of the expression."""
    return _series2_rec(expr, order)


def _series2_rec(expr: Expr, n: int) -> TruncatedSeries2:
    if isinstance(expr, Const):
        return TruncatedSeries2.from_terms(n, {(0, 0): expr.value})
    if isinstance(expr, Var):
        return TruncatedSeries2.variable(n, expr.name)
    if isinstance(expr, Neg):
        return -_series2_rec(expr.arg, n)
    if isinstance(expr, Pow):
        return _series2_rec(expr.base, n).pow_int(expr.exponent)
    a = _series2_rec(expr.left, n)
    b = _series2_rec(expr.right, n)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    return a * b.inv()
