"""Program execution: dispatch commands to the engine, collect a Report.

Residual-bearing commands (check jacobi, check dirac, structure_eqs, jet,
moser, chain_map) set ok <=> the printed residual is exactly "0".  The
value-producing commands (decompose, monodromy, ratio_constancy, affine,
int_identity, emit) report their result in `value` with residual null and
ok = successful execution.  Errors, of whatever type, are recorded per
command; execution continues.  The `ms` field is always 0 so that reports
are byte-identical across runs.
"""

import json

from . import dsl
from .errors import LeafnormError, LimitExceeded, UnknownIdentifier
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
from .omega import MixedElement, jet_n, ltimes_bracket, validate_membership, INVALID
from .rational import ChartContext, RatFunc
from .vorobjev import (
    decompose,
    first_jet_model,
    moser_at,
    moser_gamma_dot,
    moser_path,
    structure_equations,
    chain_map_residual,
)

__all__ = ["execute", "emit", "Report", "CommandRecord", "MAX_EXPONENT"]

# Largest |n| in a scalar power f^n.  Repeated squaring of a non-monomial or
# of a constant builds dense or huge results long before n gets large.
MAX_EXPONENT = 1000


class CommandRecord:
    __slots__ = ("cmd", "ok", "residual", "value")

    def __init__(self, cmd, ok, residual, value):
        self.cmd = cmd
        self.ok = ok
        self.residual = residual
        self.value = value

    def as_dict(self):
        return {"cmd": self.cmd, "ok": self.ok, "residual": self.residual,
                "value": self.value, "ms": 0}


class Report:
    def __init__(self, records):
        self.records = list(records)

    @property
    def all_ok(self):
        return all(r.ok for r in self.records)

    def as_dict(self):
        return {"version": 1, "commands": [r.as_dict() for r in self.records]}


# --- expression evaluation --------------------------------------------------------


class _EvalError(LeafnormError):
    pass


def _eval_expr(node, ctx):
    """Evaluate into the term store keyed by (covariant, contravariant)."""
    if isinstance(node, dsl.ENum):
        return Graded.scalar(RatFunc.const(ctx, node.value))
    if isinstance(node, dsl.EVar):
        try:
            ctx.var_index(node.name)
        except LeafnormError:
            raise UnknownIdentifier("unknown variable %r" % node.name)
        return Graded.scalar(RatFunc.var(ctx, node.name))
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
    if name in ctx.base:
        return ctx.base.index(name)
    if name in ctx.fiber:
        return ctx.p + ctx.fiber.index(name)
    raise UnknownIdentifier("no chart direction named %r" % name)


def _apply_binop(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        if left.is_scalar():
            return right.scale(left.scalar_value())
        if right.is_scalar():
            return left.scale(right.scalar_value())
        raise _EvalError("'*' needs a scalar factor; use '^' for wedges")
    if op == "/":
        if not right.is_scalar():
            raise _EvalError("division by a non-scalar")
        f = right.scalar_value()
        if f.is_zero():
            raise _EvalError("division by zero")
        return left.map_coeffs(lambda c: c / f)
    if op == "^":
        if right.is_scalar() and left.is_scalar():
            e = right.scalar_value()
            if not e.is_const():
                return left.wedge(right)
            ev = e.const_value()
            if ev.denominator != 1:
                raise _EvalError("exponent must be an integer")
            if abs(ev) > MAX_EXPONENT:
                raise LimitExceeded("exponent %s exceeds the limit %d"
                                    % (ev, MAX_EXPONENT))
            return Graded.scalar(left.scalar_value() ** int(ev))
        if right.is_scalar() and not left.is_scalar():
            e = right.scalar_value()
            if e.is_const():
                raise _EvalError("cannot raise a wedge to a power")
        return left.wedge(right)
    raise _EvalError("unknown operator %r" % op)


def _classify(val):
    """Turn an evaluated value into RatFunc / Multivector / DiffForm /
    MixedElement."""
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
                v = _eval_expr(e, ctx)
                if not v.is_scalar():
                    raise _EvalError("period entries must be scalars")
                periods.append(v.scalar_value())
            if "PI" not in ctx.params:
                raise _EvalError(
                    "period_model needs a formal parameter named PI")
            transverse = [p for p in ctx.params if p != "PI"]
            return PeriodModel(ctx, transverse, periods)
        raise _EvalError("unknown catalog entry %r" % rhs.name)
    return _classify(_eval_expr(rhs, ctx))


def _lookup(env, name, kind):
    try:
        val = env[name]
    except KeyError:
        raise UnknownIdentifier("name %r is not bound" % name) from None
    if not isinstance(val, kind):
        raise _EvalError("name %r is bound to %s, expected %s"
                         % (name, type(val).__name__, kind.__name__))
    return val


# --- command dispatch ----------------------------------------------------------------


def _render(cmd):
    return dsl._pcmd(cmd)[:-1]  # drop the trailing semicolon


def _residual_record(cmd, residual_strs):
    ok = all(s == "0" for s in residual_strs)
    if len(residual_strs) == 1:
        res = residual_strs[0]
    else:
        res = "0" if ok else "[" + "; ".join(residual_strs) + "]"
    return CommandRecord(_render(cmd), ok, res, None)


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
        return CommandRecord(_render(cmd), True, None, str(gamma))
    if isinstance(cmd, dsl.CmdStructureEqs):
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        rs = structure_equations(gamma)
        return _residual_record(cmd, [str(r) for r in rs])
    if isinstance(cmd, dsl.CmdJet):
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        if cmd.order == 1:
            j = first_jet_model(gamma).as_mixed()
        else:
            j = jet_n(gamma.as_mixed(), cmd.order)
        resid = ltimes_bracket(j, j)
        rec = _residual_record(cmd, [str(resid)])
        rec.value = str(j)
        return rec
    if isinstance(cmd, dsl.CmdMoser):
        gamma = decompose(_lookup(env, cmd.target, Multivector))
        path = moser_path(gamma)
        g_t = path.gamma_t.as_mixed()
        residuals = [str(ltimes_bracket(g_t, g_t))]
        end1 = moser_at(path, 1).as_mixed() - gamma.as_mixed()
        end0 = moser_at(path, 0).as_mixed() - \
            first_jet_model(gamma).as_mixed()
        residuals.append(str(end1))
        residuals.append(str(end0))
        # auxiliary identity t^-1 phi_t(gdot_1) = gdot_t
        from .omega import dilation
        from .vorobjev import gamma_dot_1
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
                v = _eval_expr(e, ctx).scalar_value()
                if not v.is_const():
                    raise _EvalError("evaluation point must be rational")
                at[name] = v.const_value()
        gens = monodromy(model, at=at)
        if all(len(row) == 1 for row in gens):
            value = "(" + ", ".join(str(row[0]) for row in gens) + ")"
        else:
            value = "(" + ", ".join(
                "(" + ", ".join(str(e) for e in row) + ")" for row in gens) + ")"
        return CommandRecord(_render(cmd), True, None, value)
    if isinstance(cmd, dsl.CmdRatioConstancy):
        model = _lookup(env, cmd.target, PeriodModel)
        res = ratio_constancy(model)
        parts = ["(%d,%d): %s" % (i, j, "constant" if v else "non-constant")
                 for (i, j), v in sorted(res.items())]
        return CommandRecord(_render(cmd), True, None, "; ".join(parts))
    if isinstance(cmd, dsl.CmdAffine):
        model = _lookup(env, cmd.target, PeriodModel)
        return CommandRecord(_render(cmd), True, None,
                             "true" if affine_in_params(model) else "false")
    if isinstance(cmd, dsl.CmdIntIdentity):
        f = _eval_expr(cmd.func, ctx)
        basis = [_eval_expr(e, ctx) for e in cmd.basis]
        if not f.is_scalar() or not all(b.is_scalar() for b in basis):
            raise _EvalError("int_identity needs scalar arguments")
        res = integer_affine_identity(f.scalar_value(),
                                      [b.scalar_value() for b in basis])
        if res.feasible:
            value = "m = (" + ", ".join(str(m) for m in res.coefficients) + ")"
        else:
            value = "infeasible"
        return CommandRecord(_render(cmd), True, None, value)
    if isinstance(cmd, dsl.CmdEmit):
        val = env.get(cmd.target)
        if val is None:
            raise UnknownIdentifier("name %r is not bound" % cmd.target)
        return CommandRecord(_render(cmd), True, None, str(val))
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
            records.append(CommandRecord(
                "let %s" % binding.name, False, None,
                "error: %s: %s" % (type(exc).__name__, exc)))
    for cmd in program.commands:
        try:
            records.append(_run_command(cmd, ctx, env))
        except Exception as exc:
            records.append(CommandRecord(
                _render(cmd), False, None,
                "error: %s: %s" % (type(exc).__name__, exc)))
    return Report(records)


def emit(report, fmt="json"):
    """Serialize a report; byte-identical across runs for the same input."""
    if fmt == "json":
        return json.dumps(report.as_dict(), indent=2) + "\n"
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
