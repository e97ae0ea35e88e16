"""Oracles for the evaluated paths of the period-model commands.

`monodromy(m, at)` evaluates the quotient rule at the point; it must give
the rows of the symbolic derivatives substituted there, or refuse the
point as they do, also with two transverse variables and removable poles.
`ratio_constancy` compares columns by cross-multiplication; it must give
the verdicts of one division per column.  The DSL evaluates scalar subtrees as RatFuncs; they must
give the value, the error and the `poly_gcd` calls of evaluation through
the term store, which a reference evaluator below does as the interpreter
did before scalars stayed RatFuncs.
"""

import contextlib
import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from leafnorm import rational
from leafnorm.dsl import EBin, ENeg, ENum, EVar
from leafnorm.errors import (LimitExceeded, SingularPoint, ZeroDenominator,
                             ZeroGenerator)
from leafnorm.interp import (MAX_EXPONENT, MAX_POWER_BITS, _EvalError,
                             _eval_expr, _power_bits)
from leafnorm.models import PeriodModel, monodromy, ratio_constancy
from leafnorm.multivector import Graded
from leafnorm.rational import ChartContext, Poly, Q, RatFunc

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

# --- monodromy at a point ---------------------------------------------------

# u is a chart variable that no point fixes
CTX = ChartContext(base=["u"], fiber=[], params=("r", "s", "PI"))
_r, _s, _u = (Poly.var(CTX, n) for n in ("r", "s", "u"))
PI = RatFunc.var(CTX, "PI")
_MONOS = (Poly.one(CTX), _r, _s, _u, _r * _s, _r * _r, _s * _s, _r * _u)


def _period(n, d):
    return PI * RatFunc.from_poly(n) / RatFunc.from_poly(d)


polys = st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(_MONOS)),
                 min_size=1, max_size=3).map(
    lambda terms: sum((c * m for c, m in terms), Poly.zero(CTX)))
# points on the zero sets of the small denominators are likely
values = st.sampled_from([Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-2, 3)])


@st.composite
def models_and_points(draw):
    transverse = draw(st.sampled_from([("r", "s"), ("r",), ("s",)]))
    periods = []
    for _ in range(draw(st.integers(1, 3))):
        n, d = draw(polys), draw(polys)
        assume(not d.is_zero())
        periods.append(_period(n, d))
    # a point may also fix a parameter that is not transverse
    names = draw(st.sampled_from([transverse, ("r", "s")]))
    at = {k: draw(values) for k in dict.fromkeys(transverse + names)}
    return transverse, periods, at


def _symbolic_then_substitute(model, at):
    rows = [[f.derivative(k) for k in model.transverse] for f in model.periods]
    try:
        return [[e.substitute(at) for e in row] for row in rows]
    except ZeroDenominator:
        return "singular"


@SETTINGS
@given(models_and_points())
# a removable pole: d vanishes at the point, the r-derivative PI does not
@example((("r",), [_period(1 + _r * _s - _r, _s - 1)],
          {"r": Q(0), "s": Q(1)}))
# a pole of the derivative on the zero set of d
@example((("r", "s"), [_period(Poly.one(CTX), 1 - _r)],
          {"r": Q(1), "s": Q(0)}))
# d vanishes at the point only, not on a line
@example((("r", "s"), [_period(_r, 2 - _r - _s)],
          {"r": Q(1, 2), "s": Q(3, 2)}))
# d keeps the chart variable u that the point leaves free
@example((("r", "s"), [_period(_r + _u, 1 + _r * _u + _s * _s)],
          {"r": Q(1, 3), "s": Q(-1)}))
def test_monodromy_at_a_point_is_the_substituted_derivative(case):
    transverse, periods, at = case
    try:
        model = PeriodModel(CTX, transverse, periods)
    except SingularPoint:
        assume(False)
    expect = _symbolic_then_substitute(model, at)
    try:
        got = monodromy(model, at=at)
    except SingularPoint:
        got = "singular"
    assert got == expect


# --- two transverse variables: removable poles and ratio constancy ---------

# the point also fixes w, which no period is differentiated by: a pole in w
# and u alone is removable for the r- and s-derivatives
WCTX = ChartContext(base=["u"], fiber=[], params=("r", "s", "w", "PI"))
_wr, _ws, _wu, _ww = (Poly.var(WCTX, n) for n in ("r", "s", "u", "w"))
WPI = RatFunc.var(WCTX, "PI")


def _wpolys(monos, min_size):
    return st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(monos)),
                    min_size=min_size, max_size=3).map(
        lambda terms: sum((c * m for c, m in terms), Poly.zero(WCTX)))


wpolys = _wpolys((Poly.one(WCTX), _wr, _ws, _wu, _ww, _wr * _ws, _wr * _wr,
                  _ws * _ws, _wr * _ww, _ws * _wu), 1)
# a term in r or s, so that few generators vanish
moving = st.sampled_from([_wr, _ws, _wr * _ws, _wr * _wr, -_ws * _ws])
pole_nums = _wpolys((Poly.one(WCTX), _wu, _ww, _wu * _ww), 0)
pole_dens = st.sampled_from([Poly.one(WCTX), _ww, _ww - 1, 2 * _ww + 1,
                             _ww * _ww - _ww])


def _rf(n, d):
    return RatFunc.from_poly(n) / RatFunc.from_poly(d)


@st.composite
def two_variable_models(draw):
    """Periods PI (n/d + p/q + e) in the transverse r and s, with p/q free
    of them; periods that share n/d up to a factor have a constant ratio."""
    shared_n, shared_d = draw(wpolys) + draw(moving), draw(wpolys)
    periods = []
    for _ in range(draw(st.integers(2, 3))):
        if draw(st.integers(0, 2)):
            n, d = shared_n * draw(st.sampled_from([-2, -1, 1, 2])), shared_d
        else:
            n, d = draw(wpolys) + draw(moving), draw(wpolys)
        assume(not d.is_zero())
        pole = _rf(draw(pole_nums), draw(pole_dens))
        periods.append(WPI * (_rf(n, d) + pole + draw(st.integers(-2, 2))))
    # the point may leave a transverse variable free
    fixed = draw(st.sampled_from([("r", "s", "w"), ("r", "s", "w"),
                                  ("r", "w"), ("s", "w")]))
    return periods, {k: draw(values) for k in fixed}


def _ratio_constancy_by_division(model):
    """ratio_constancy as read off the rows: a / b in every column where a
    or b is nonzero, all equal and constant."""
    rows = monodromy(model)
    if any(all(e.is_zero() for e in row) for row in rows):
        return "zero generator"
    out = {}
    for i, j in itertools.combinations(range(len(rows)), 2):
        ratios = [None if b.is_zero() else a / b
                  for a, b in zip(rows[i], rows[j])
                  if not (a.is_zero() and b.is_zero())]
        out[(i, j)] = all(r is not None and r == ratios[0] and r.is_const()
                          for r in ratios)
    return out


@SETTINGS
@given(two_variable_models())
# a pole in w at the point, removable for both derivatives, and a constant
# ratio
@example(([WPI * (_rf(_wr * _ws, Poly.one(WCTX)) + _rf(_wu, _ww - 1)),
           WPI * (_rf(-2 * _wr * _ws, Poly.one(WCTX)) + 1)],
          {"r": Q(1, 2), "s": Q(-1), "w": Q(1)}))
# the first column vanishes in one generator only, the second has a
# constant ratio
@example(([WPI * _rf(_wr + _ws, Poly.one(WCTX)),
           WPI * _rf(2 * _ws, Poly.one(WCTX))],
          {"r": Q(0), "s": Q(2), "w": Q(0)}))
# a generator that vanishes
@example(([WPI * 3, WPI * _rf(_wr, 1 - _ws)], {"r": Q(2), "s": Q(1, 2),
                                            "w": Q(1)}))
def test_two_variable_monodromy_and_ratio_constancy(case):
    periods, at = case
    try:
        model = PeriodModel(WCTX, ("r", "s"), periods)
    except SingularPoint:
        assume(False)
    expect = _symbolic_then_substitute(model, at)
    try:
        got = monodromy(model, at=at)
    except SingularPoint:
        got = "singular"
    assert got == expect
    try:
        got = ratio_constancy(model)
    except ZeroGenerator:
        got = "zero generator"
    assert got == _ratio_constancy_by_division(model)


# --- scalar expressions -----------------------------------------------------

SCTX = ChartContext(base=[], fiber=[], params=("r", "s"))


def _reference(node, ctx):
    """Scalar DSL evaluation through the term store: every literal and
    variable a Graded scalar, every operation the Graded one."""
    if isinstance(node, ENum):
        return Graded.scalar(RatFunc.const(ctx, node.value))
    if isinstance(node, EVar):
        return Graded.scalar(RatFunc.var(ctx, node.name))
    if isinstance(node, ENeg):
        return -_reference(node.arg, ctx)
    left, right = _reference(node.left, ctx), _reference(node.right, ctx)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return right.scale(left.scalar_value())
    if node.op == "/":
        f = right.scalar_value()
        if f.is_zero():
            raise _EvalError("division by zero")
        return left.map_coeffs(lambda c: c / f)
    e = right.scalar_value()
    if not e.is_const():
        return left.wedge(right)
    ev = e.const_value()
    if ev.denominator != 1:
        raise _EvalError("exponent must be an integer")
    if abs(ev) > MAX_EXPONENT:
        raise LimitExceeded("exponent %s exceeds the limit %d"
                            % (ev, MAX_EXPONENT))
    base, n = left.scalar_value(), int(ev)
    bits = _power_bits(base.num, abs(n)) + _power_bits(base.den, abs(n))
    if bits > MAX_POWER_BITS:
        raise LimitExceeded("power may take %d bits, over the limit %d"
                            % (bits, MAX_POWER_BITS))
    return Graded.scalar(base ** n)


@contextlib.contextmanager
def _counted_gcds():
    calls = []
    inner = rational.poly_gcd

    def spy(f, g):
        calls.append(1)
        return inner(f, g)

    rational.poly_gcd = spy
    try:
        yield calls
    finally:
        rational.poly_gcd = inner


def _outcome(evaluate):
    """(value or error class and message, poly_gcd calls)."""
    with _counted_gcds() as calls:
        try:
            out = evaluate()
        except Exception as exc:
            out = (type(exc).__name__, str(exc))
    return out, len(calls)


leaves = st.one_of(st.integers(0, 3).map(ENum),
                   st.sampled_from(["r", "s"]).map(EVar))
exponents = st.one_of(st.integers(-2, 3).map(ENum),
                      st.sampled_from([ENum(1001), ENum(-1001),
                                       EBin("/", ENum(1), ENum(2)),
                                       EVar("r")]))


def _extend(children):
    return st.one_of(
        st.builds(ENeg, children),
        st.builds(EBin, st.sampled_from("+-*/"), children, children),
        st.builds(EBin, st.just("^"), children,
                  st.one_of(children, exponents)))


trees = st.recursive(leaves, _extend, max_leaves=7)
_ONE_R = EBin("+", ENum(1), EVar("r"))
_ONE_R_S = EBin("+", _ONE_R, EVar("s"))


@SETTINGS
@given(trees)
@example(EBin("/", EVar("r"), EBin("-", EVar("s"), EVar("s"))))
@example(EBin("^", _ONE_R_S, ENum(1000)))
@example(EBin("^", EVar("r"), ENum(1001)))
@example(EBin("^", ENum(0), ENum(-1)))
@example(EBin("^", ENum(0), EVar("r")))
@example(EBin("*", ENum(0), EBin("/", ENum(1), _ONE_R)))
@example(EBin("+", ENum(0), EBin("/", ENum(1), _ONE_R)))
def test_scalar_evaluation_is_the_term_store_evaluation(tree):
    got, got_gcds = _outcome(lambda: _eval_expr(tree, SCTX))
    ref, ref_gcds = _outcome(lambda: _reference(tree, SCTX).scalar_value())
    assert isinstance(got, tuple) == isinstance(ref, tuple)
    assert got == ref
    assert got_gcds == ref_gcds
