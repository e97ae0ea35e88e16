"""Program execution: dispatch commands to the engine, collect a Report.

Residual-bearing commands (check jacobi, check dirac, structure_eqs, jet,
moser, chain_map) set ok <=> the printed residual is exactly "0".  The
value-producing commands (decompose, monodromy, ratio_constancy, affine,
int_identity, emit) report their result in `value` with residual null and
ok = successful execution.  Errors, of whatever type, are recorded per
command; execution continues.  The `ms` field is always 0 so that reports
are byte-identical across runs.
"""

import math
import re

from . import dsl
from .errors import LeafnormError, LimitExceeded, Record, UnknownIdentifier
from .models import (
    PeriodModel,
    affine_in_params,
    heisenberg3,
    integer_affine_identity,
    linear_poisson,
    monodromy,
    product_poisson,
    ratio_constancy,
    so3,
    sphere_example,
)
from .multivector import DiffForm, Graded, Multivector, is_poisson
from .omega import (INVALID, MixedElement, dilation, jet_n, ltimes_bracket,
                    validate_membership)
from .rational import ChartContext, RatFunc, _split, int_str
from .vorobjev import (
    decompose,
    first_jet_model,
    gamma_dot_1,
    moser_at,
    moser_gamma_dot,
    moser_path,
    structure_equations,
    chain_map_residual,
)

__all__ = ["execute", "emit", "Report", "CommandRecord", "MAX_EXPONENT",
           "MAX_POWER_BITS", "MAX_JET_ORDER"]

# Largest |n| in a scalar power f^n.  Repeated squaring of a non-monomial or
# of a constant builds dense or huge results long before n gets large.
MAX_EXPONENT = 1000

# Largest bound on the size of a scalar power, in bits (see _power_bits).
# u^1000 is bounded by about 2.0e6 bits; (1 + u + v)^1000 by 1.5e9.
MAX_POWER_BITS = 1 << 22

# Highest jet order.  The jet sums every Taylor order up to n, and each order
# costs more than the last: order 16 of the sphere model takes 1.6 s on a
# 2-vCPU host, order 32 about 40 s.
MAX_JET_ORDER = 16


class CommandRecord(Record):
    __slots__ = ("cmd", "ok", "residual", "value")

    def as_dict(self):
        return {"cmd": self.cmd, "ok": self.ok, "residual": self.residual,
                "value": self.value, "ms": 0}


class Report(Record):
    __slots__ = ("records",)  # a tuple of CommandRecords

    @property
    def all_ok(self):
        return all(r.ok for r in self.records)

    def as_dict(self):
        return {"version": 1, "commands": [r.as_dict() for r in self.records]}


# --- expression evaluation --------------------------------------------------------


class _EvalError(LeafnormError):
    pass


def _eval_expr(node, ctx):
    """Evaluate a subtree with no basis vector or form into a RatFunc, and
    any other into the term store keyed by (covariant, contravariant)."""
    if isinstance(node, dsl.ENum):
        return RatFunc.const(ctx, node.value)
    if isinstance(node, dsl.EVar):
        try:
            ctx.var_index(node.name)
        except LeafnormError:
            raise UnknownIdentifier("unknown variable %r" % node.name)
        return RatFunc.var(ctx, node.name)
    if isinstance(node, dsl.EBasisVec):
        i = _gen_index(ctx, node.name)
        return Graded(ctx, {((), (i,)): RatFunc.one(ctx)})
    if isinstance(node, dsl.EBasisForm):
        i = _gen_index(ctx, node.name)
        return Graded(ctx, {((i,), ()): RatFunc.one(ctx)})
    if isinstance(node, dsl.ENeg):
        return -_eval_expr(node.arg, ctx)
    if isinstance(node, dsl.EBin):
        left = _eval_expr(node.left, ctx)
        right = _eval_expr(node.right, ctx)
        return _apply_binop(node.op, left, right)
    raise _EvalError("cannot evaluate %r" % (node,))


def _gen_index(ctx, name):
    if name not in ctx.gens:
        raise UnknownIdentifier("no chart direction named %r" % name)
    return ctx.gens.index(name)


def _scalar(val):
    """The RatFunc of a scalar value; None when it has basis elements."""
    if isinstance(val, RatFunc):
        return val
    return val.scalar_value() if val.is_scalar() else None


def _apply_binop(op, left, right):
    a, b = _scalar(left), _scalar(right)
    if a is not None and b is not None:
        return _scalar_binop(op, a, b)
    if op == "*":
        if a is not None:
            return right.scale(a)
        if b is not None:
            return left.scale(b)
        raise _EvalError("'*' needs a scalar factor; use '^' for wedges")
    if op == "/":
        if b is None:
            raise _EvalError("division by a non-scalar")
        if b.is_zero():
            raise _EvalError("division by zero")
        return left.map_coeffs(lambda c: c / b)
    if op == "^" and b is not None and b.is_const():
        raise _EvalError("cannot raise a wedge to a power")
    # a scalar meets a term-store operand: it joins the term store
    if isinstance(left, RatFunc):
        left = Graded.scalar(left)
    if isinstance(right, RatFunc):
        right = Graded.scalar(right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "^":
        return left.wedge(right)
    raise _EvalError("unknown operator %r" % op)


def _scalar_binop(op, a, b):
    """The term store's arithmetic on two scalars, operation for operation:
    a zero operand is skipped as an empty term dict is, and a product is
    formed as `Graded.scale` forms it, c * f."""
    if op in ("+", "-"):
        if op == "-":
            b = -b
        return b if a.is_zero() else a if b.is_zero() else a + b
    if op == "*":
        return RatFunc.zero(a.ctx) if a.is_zero() or b.is_zero() else b * a
    if op == "/":
        if b.is_zero():
            raise _EvalError("division by zero")
        return a if a.is_zero() else a / b
    if op == "^":
        if not b.is_const():
            # the wedge of two scalars
            return RatFunc.zero(a.ctx) if a.is_zero() else a * b
        n, d = _split(b)
        if d != 1:
            raise _EvalError("exponent must be an integer")
        if abs(n) > MAX_EXPONENT:
            raise LimitExceeded("exponent %d exceeds the limit %d"
                                % (n, MAX_EXPONENT))
        bits = _power_bits(a.num, abs(n)) + _power_bits(a.den, abs(n))
        if bits > MAX_POWER_BITS:
            raise LimitExceeded("power may take %d bits, over the limit "
                                "%d" % (bits, MAX_POWER_BITS))
        return a ** n
    raise _EvalError("unknown operator %r" % op)


def _power_bits(poly, n):
    """Upper bound on the size of poly^n in bits: at most C(n*deg + v, v)
    terms in its v variables, each coefficient below (t * 2^b)^n for t terms
    of at most b bits."""
    if not poly.terms:
        return 0
    nvars = sum(map(poly.depends_on, range(len(poly.ctx.vars))))
    terms = math.comb(n * poly.total_degree() + nvars, nvars)
    bits = max(abs(c).bit_length() for c in poly.terms.values())
    return terms * n * (bits + len(poly.terms).bit_length())


def _classify(val):
    """Turn an evaluated value into RatFunc / Multivector / DiffForm /
    MixedElement."""
    if isinstance(val, RatFunc):
        return val
    ctx = val.context
    has_form = any(k[0] for k in val.terms)
    has_vec = any(k[1] for k in val.terms)
    if not has_form and not has_vec:
        return val.scalar_value()
    if not has_form:
        return Multivector(ctx, {k[1]: c for k, c in val.terms.items()})
    if not has_vec:
        return DiffForm(ctx, {k[0]: c for k, c in val.terms.items()})
    terms = {}
    for (fkey, vkey), c in val.terms.items():
        if any(i >= ctx.p for i in fkey):
            raise _EvalError(
                "mixed elements only take base covariant directions")
        J = tuple(i for i in vkey if i < ctx.p)
        K = tuple(i for i in vkey if i >= ctx.p)
        terms[(fkey, J, K)] = c
    e = MixedElement(ctx, terms)
    if validate_membership(e) == INVALID:
        raise _EvalError("element violates the mixed-degree constraints")
    return e


def _eval_binding(binding, ctx, env):
    rhs = binding.rhs
    if isinstance(rhs, dsl.Catalog):
        if rhs.name == "so3":
            return linear_poisson(so3(), ctx)
        if rhs.name == "heisenberg3":
            return linear_poisson(heisenberg3(), ctx)
        if rhs.name == "sphere_so3":
            return sphere_example(rhs.args[0], ctx)
        if rhs.name == "product":
            a = _lookup(env, rhs.args[0], Multivector)
            b = _lookup(env, rhs.args[1], Multivector)
            return product_poisson(a, b)
        if rhs.name == "period_model":
            periods = []
            for e in rhs.args:
                f = _scalar(_eval_expr(e, ctx))
                if f is None:
                    raise _EvalError("period entries must be scalars")
                periods.append(f)
            if "PI" not in ctx.params:
                raise _EvalError(
                    "period_model needs a formal parameter named PI")
            transverse = [p for p in ctx.params if p != "PI"]
            return PeriodModel(ctx, transverse, periods)
        raise _EvalError("unknown catalog entry %r" % rhs.name)
    return _classify(_eval_expr(rhs, ctx))


def _lookup(env, name, kind):
    """The value bound to name; a binding that failed left None there."""
    try:
        val = env[name]
    except KeyError:
        raise UnknownIdentifier("name %r is not bound" % name) from None
    if val is None:
        raise UnknownIdentifier("the binding of %r failed" % name)
    if not isinstance(val, kind):
        raise _EvalError("name %r is bound to %s, expected %s"
                         % (name, type(val).__name__, kind.__name__))
    return val


# --- command dispatch ----------------------------------------------------------------


def _residual_record(cmd, residual_strs, value=None):
    ok = all(s == "0" for s in residual_strs)
    if len(residual_strs) == 1:
        res = residual_strs[0]
    else:
        res = "0" if ok else "[" + "; ".join(residual_strs) + "]"
    return CommandRecord(dsl._pcmd(cmd), ok, res, value)


def _run_command(cmd, ctx, env):
    if isinstance(cmd, dsl.CmdCheckJacobi):
        pi = _lookup(env, cmd.target, Multivector)
        chk = is_poisson(pi)
        return _residual_record(cmd, [str(chk.residual)])
    if isinstance(cmd, dsl.CmdCheckDirac):
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        return _residual_record(cmd, [str(gamma.dirac_residual())])
    if isinstance(cmd, dsl.CmdDecompose):
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        return CommandRecord(dsl._pcmd(cmd), True, None, str(gamma))
    if isinstance(cmd, dsl.CmdStructureEqs):
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        rs = structure_equations(gamma)
        return _residual_record(cmd, [str(r) for r in rs])
    if isinstance(cmd, dsl.CmdJet):
        if cmd.order > MAX_JET_ORDER:
            raise LimitExceeded("jet order %d exceeds the limit %d"
                                % (cmd.order, MAX_JET_ORDER))
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        if cmd.order == 1:
            j = first_jet_model(gamma).mixed
        else:
            j = jet_n(gamma.mixed, cmd.order)
        resid = ltimes_bracket(j, j)
        return _residual_record(cmd, [str(resid)], str(j))
    if isinstance(cmd, dsl.CmdMoser):
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        path = moser_path(gamma)
        g_t = path.gamma_t.mixed
        residuals = [str(ltimes_bracket(g_t, g_t))]
        end1 = moser_at(path, 1).mixed - gamma.mixed
        end0 = moser_at(path, 0).mixed - first_jet_model(gamma).mixed
        residuals.append(str(end1))
        residuals.append(str(end0))
        # auxiliary identity t^-1 phi_t(gdot_1) = gdot_t
        ctx_t = path.context
        t = RatFunc.var(ctx_t, path.param)
        gd1 = gamma_dot_1(gamma).cast(ctx_t)
        aux = dilation(gd1, t).scale(RatFunc.one(ctx_t) / t) - \
            moser_gamma_dot(path)
        residuals.append(str(aux))
        return _residual_record(cmd, residuals)
    if isinstance(cmd, dsl.CmdChainMap):
        theta = _lookup(env, cmd.target, Multivector)
        u = _lookup(env, cmd.argument, Multivector)
        return _residual_record(cmd, [str(chain_map_residual(theta, u))])
    if isinstance(cmd, dsl.CmdMonodromy):
        model = _lookup(env, cmd.target, PeriodModel)
        at = None
        if cmd.point is not None:
            if len(cmd.point) != len(model.transverse):
                raise _EvalError(
                    "evaluation point needs %d entries, got %d"
                    % (len(model.transverse), len(cmd.point)))
            at = {}
            for name, e in zip(model.transverse, cmd.point):
                c = _scalar(_eval_expr(e, ctx))
                if c is None or not c.is_const():
                    raise _EvalError("evaluation point must be rational")
                at[name] = c
        gens = monodromy(model, at=at)
        if all(len(row) == 1 for row in gens):
            value = "(" + ", ".join(str(row[0]) for row in gens) + ")"
        else:
            value = "(" + ", ".join(
                "(" + ", ".join(str(e) for e in row) + ")" for row in gens) + ")"
        return CommandRecord(dsl._pcmd(cmd), True, None, value)
    if isinstance(cmd, dsl.CmdRatioConstancy):
        model = _lookup(env, cmd.target, PeriodModel)
        res = ratio_constancy(model)
        parts = ["(%d,%d): %s" % (i, j, "constant" if v else "non-constant")
                 for (i, j), v in sorted(res.items())]
        return CommandRecord(dsl._pcmd(cmd), True, None, "; ".join(parts))
    if isinstance(cmd, dsl.CmdAffine):
        model = _lookup(env, cmd.target, PeriodModel)
        return CommandRecord(dsl._pcmd(cmd), True, None,
                             "true" if affine_in_params(model) else "false")
    if isinstance(cmd, dsl.CmdIntIdentity):
        f = _scalar(_eval_expr(cmd.func, ctx))
        basis = [_scalar(_eval_expr(e, ctx)) for e in cmd.basis]
        if f is None or any(b is None for b in basis):
            raise _EvalError("int_identity needs scalar arguments")
        res = integer_affine_identity(f, basis)
        if res.feasible:
            value = "m = (" + ", ".join(map(int_str, res.coefficients)) + ")"
        else:
            value = "infeasible"
        return CommandRecord(dsl._pcmd(cmd), True, None, value)
    if isinstance(cmd, dsl.CmdEmit):
        val = _lookup(env, cmd.target, object)
        return CommandRecord(dsl._pcmd(cmd), True, None, str(val))
    raise _EvalError("unknown command node %r" % (cmd,))


def execute(program):
    """Run a parsed Program; errors are recorded per command."""
    chart = program.chart
    ctx = ChartContext(base=chart.base, fiber=chart.fiber,
                       params=chart.params)
    env = {}
    records = []
    for binding in program.bindings:
        try:
            env[binding.name] = _eval_binding(binding, ctx, env)
        except Exception as exc:
            env[binding.name] = None
            records.append(CommandRecord(
                "let %s" % binding.name, False, None,
                "error: %s: %s" % (type(exc).__name__, exc)))
    for cmd in program.commands:
        try:
            records.append(_run_command(cmd, ctx, env))
        except Exception as exc:
            records.append(CommandRecord(
                dsl._pcmd(cmd), False, None,
                "error: %s: %s" % (type(exc).__name__, exc)))
    return Report(tuple(records))


# json.dumps(report.as_dict(), indent=2), spelled out: the json module
# would add about 3 ms to the import of leafnorm, and with an indent it
# encodes in pure Python anyway (docs/conventions.md, "Imports")
_JSON_RECORD = """    {
      "cmd": %s,
      "ok": %s,
      "residual": %s,
      "value": %s,
      "ms": 0
    }"""

# the characters that json.dumps escapes with ensure_ascii: quote,
# backslash, and all outside printable ASCII; a pattern string, which re
# compiles (and caches) on the first report that has one
_JSON_ESCAPE = r'[\\"]|[^\ -~]'
_JSON_SHORT = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f",
               "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_escape(match):
    ch = match.group()
    short = _JSON_SHORT.get(ch)
    if short is not None:
        return short
    n = ord(ch)
    if n < 0x10000:
        return "\\u%04x" % n
    # a surrogate pair, as json writes characters beyond the BMP
    n -= 0x10000
    return "\\u%04x\\u%04x" % (0xd800 | (n >> 10), 0xdc00 | (n & 0x3ff))


def _json_value(v):
    """The JSON text of a report field: a str, a bool or None."""
    if isinstance(v, str):
        if not (v.isascii() and v.isprintable()) or '"' in v or "\\" in v:
            v = re.sub(_JSON_ESCAPE, _json_escape, v)
        return '"' + v + '"'
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    raise TypeError("report field %r is not a str, bool or None" % (v,))


def emit(report, fmt="json"):
    """Serialize a report; byte-identical across runs for the same input."""
    if fmt == "json":
        if not report.records:
            return '{\n  "version": 1,\n  "commands": []\n}\n'
        records = ",\n".join(
            _JSON_RECORD % tuple(map(_json_value, (r.cmd, r.ok, r.residual,
                                                   r.value)))
            for r in report.records)
        return ('{\n  "version": 1,\n  "commands": [\n' + records
                + "\n  ]\n}\n")
    if fmt == "text":
        lines = ["leafnorm report v1"]
        for r in report.records:
            status = "ok  " if r.ok else "FAIL"
            parts = ["[%s] %s" % (status, r.cmd)]
            if r.residual is not None:
                parts.append("residual = %s" % r.residual)
            if r.value is not None:
                parts.append("value = %s" % r.value)
            parts.append("ms = 0")
            lines.append(" | ".join(parts))
        lines.append("result: %s" % ("all ok" if report.all_ok else "failures"))
        return "\n".join(lines) + "\n"
    raise ValueError("unknown format %r" % fmt)
