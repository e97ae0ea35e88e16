import pytest

from leafnorm import dsl
from leafnorm.dsl import (
    Binding, Catalog, ChartDecl, CmdCheckJacobi, CmdDecompose, CmdEmit,
    CmdJet, EBin, ENum, EVar, parse, print_program,
)
from leafnorm.errors import (
    ChartRedeclared, DslError, DslSyntaxError, InvalidElement,
    NonRationalInput, UnknownIdentifier, Verdict,
)
from leafnorm import interp, rational
from leafnorm.interp import (
    MAX_EXPONENT, MAX_JET_ORDER, CommandRecord, execute,
)
from leafnorm.models import (
    PeriodModel, integer_affine_identity, lattice_discreteness,
    sphere_context, sphere_example, sphere_period_model,
)
from leafnorm.multivector import is_poisson
from leafnorm.omega import ds_n, euler_field
from leafnorm.rational import Q, RatFunc
from leafnorm.vorobjev import (
    DiracElement, algebroid_from_jet, decompose, first_jet_model,
    graded_differential, horizontal_blocks, is_horizontally_nondegenerate,
    leaf_check, moser_path,
)


SMOKE = """
chart { base:[u,v]; fiber:[x,y,z]; }
let p = x*(d/dy ^ d/dz) + y*(d/dz ^ d/dx) + z*(d/dx ^ d/dy);
check jacobi(p);
"""


def test_parse_smoke():
    prog = parse(SMOKE)
    assert len(prog.bindings) == 1
    assert len(prog.commands) == 1
    assert prog.chart == ChartDecl(("u", "v"), ("x", "y", "z"), ())
    assert prog.commands[0] == CmdCheckJacobi("p")


def test_smoke_executes_jacobi_true():
    report = execute(parse(SMOKE))
    assert report.records[0].ok
    assert report.records[0].residual == "0"


def test_missing_semicolon_position():
    src = "chart { base:[u,v]; fiber:[x,y,z]; }\nlet p = d/dx ^ d/dy\ncheck jacobi(p);"
    with pytest.raises(DslSyntaxError) as err:
        parse(src)
    assert err.value.line == 3


def test_unknown_identifier():
    src = "chart { base:[u]; fiber:[y]; } check jacobi(nope);"
    with pytest.raises(UnknownIdentifier):
        parse(src)


def test_chart_redeclared():
    src = ("chart { base:[u]; fiber:[y]; } chart { base:[v]; fiber:[z]; } "
           "emit(u);")
    with pytest.raises(ChartRedeclared):
        parse(src)


def test_ast_nodes_are_immutable_values():
    assert CmdJet("p", 2) == CmdJet("p", 2)
    assert hash(CmdJet("p", 2)) == hash(CmdJet("p", 2))
    assert CmdJet("p", 2) != CmdJet("p", 3)
    assert CmdEmit("p") != CmdDecompose("p")
    assert CmdEmit("p") != "p"
    node = CmdJet("p", 2)
    with pytest.raises(AttributeError):
        node.order = 3
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node.order == 2
    for args in (("p",), ("p", 2, 3)):
        with pytest.raises(TypeError):
            CmdJet(*args)
    assert repr(CmdJet("p", 2)) == "CmdJet(target='p', order=2)"
    assert repr(ChartDecl(("u",), (), ())) == \
        "ChartDecl(base=('u',), fiber=(), params=())"


@pytest.fixture(scope="module")
def engine_records():
    """One record of each engine class, each from a real call."""
    theta = sphere_example(False)
    gamma = decompose(theta)
    algebroid = algebroid_from_jet(first_jet_model(gamma))
    u = RatFunc.var(sphere_context(), "u")
    report = execute(parse(SMOKE))
    return {
        "PoissonCheck": is_poisson(theta),
        "HorizontalCheck": is_horizontally_nondegenerate(theta),
        "LeafCheck": leaf_check(gamma),
        "IntegerIdentity": integer_affine_identity(u * 2, [u]),
        "IntegerIdentity-infeasible": integer_affine_identity(u / 2, [u]),
        "DiracElement": gamma,
        "HorizontalData": horizontal_blocks(theta),
        "MoserPath": moser_path(gamma),
        "AlgebroidData": algebroid,
        "GradedDifferential": graded_differential(
            ds_n(gamma.mixed, 1), 1),
        "LatticeResult": lattice_discreteness([[Q(1)], [Q(3, 7)]], 1),
        "PeriodModel": sphere_period_model(),
        "CommandRecord": report.records[0],
        "Report": report,
    }


VERDICTS = {"PoissonCheck", "HorizontalCheck", "LeafCheck", "IntegerIdentity"}


@pytest.mark.parametrize("name", [
    "PoissonCheck", "HorizontalCheck", "LeafCheck", "IntegerIdentity",
    "IntegerIdentity-infeasible", "DiracElement", "HorizontalData",
    "MoserPath", "AlgebroidData", "GradedDifferential",
    "LatticeResult", "PeriodModel", "CommandRecord", "Report"])
def test_engine_records_are_immutable_values(engine_records, name):
    rec = engine_records[name]
    cls = type(rec)
    assert cls.__name__ == name.split("-")[0]
    fields = rec.fields()
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, field, value)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert cls(*fields.values()) == rec
    assert isinstance(rec, Verdict) == (cls.__name__ in VERDICTS)
    if isinstance(rec, Verdict):
        truth = fields["ok"] if "ok" in fields else fields["feasible"]
        assert bool(rec) is truth


@pytest.mark.parametrize("cls, values", [
    (EVar, ("u",)),
    (Binding, ("a", EVar("u"))),
    (EBin, ("+", ENum(1), EVar("u"))),
    (CommandRecord, ("emit(a)", True, None, "u")),
], ids=["EVar", "Binding", "EBin", "CommandRecord"])
def test_records_take_exactly_their_fields(cls, values):
    rec = cls(*values)
    assert tuple(rec.fields().values()) == values
    assert rec == cls(*values) and hash(rec) == hash(cls(*values))
    assert rec != cls(*values[:-1], "other")
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)
    with pytest.raises(TypeError):
        cls(**rec.fields())
    for field in rec.fields():
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


def test_validating_records_still_check_their_fields():
    model = sphere_period_model()
    one = RatFunc.const(model.ctx, Q(1))
    with pytest.raises(NonRationalInput):
        PeriodModel(model.ctx, ["r"], [one / RatFunc.var(model.ctx, "PI")])
    assert PeriodModel(*model.fields().values()) == model
    gamma = decompose(sphere_example(False))
    with pytest.raises(InvalidElement):
        DiracElement(gamma.mixed + euler_field(gamma.context))
    assert DiracElement(*gamma.fields().values()) == gamma


CHART = "chart { base:[u]; fiber:[y]; }"


# hostile sources, with the error class, message and position that the
# per-line lexer and its Token-based parser reported
@pytest.mark.parametrize("source, error, message, line, col", [
    (CHART + "\f\nlet a = u;\n", DslSyntaxError,
     "unexpected character '\\x0c'", 1, 31),
    (CHART + "\nlet a = u\u00a0+ 1;\n", DslSyntaxError,
     "unexpected character '\\xa0'", 2, 10),
    ("\ufeff" + CHART + "\n", DslSyntaxError,
     "unexpected character '\\ufeff'", 1, 1),
    (CHART + "\nlet a = d/d\u00b2;\n", DslSyntaxError,
     "unexpected character '\u00b2'", 2, 12),
    (CHART + "\nlet a = $;\n", DslSyntaxError,
     "unexpected character '$'", 2, 9),
    (CHART + "\nlet a = \t@;\n", DslSyntaxError,
     "unexpected character '@'", 2, 10),
    (CHART + "\nlet a = ;\nlet b = $;\n", DslSyntaxError,
     "unexpected character '$'", 3, 9),
    (CHART + "\r\nlet a = u +;\r\n", DslSyntaxError,
     "unexpected token ';'", 2, 12),
    (CHART + "\nlet a = u # hi", DslSyntaxError,
     "expected ;, found 'end of input'", 2, 11),
    (CHART + "\nlet a = u \r", DslSyntaxError,
     "expected ;, found 'end of input'", 3, 1),
    (CHART + "\nlet a = u\n", DslSyntaxError,
     "expected ;, found 'end of input'", 3, 1),
    ("", DslSyntaxError, "expected 'chart', found 'end of input'", 1, 1),
    ("# only", DslSyntaxError,
     "expected 'chart', found 'end of input'", 1, 1),
    ("# only\n", DslSyntaxError,
     "expected 'chart', found 'end of input'", 2, 1),
    ("  \n \t ", DslSyntaxError,
     "expected 'chart', found 'end of input'", 2, 4),
    (CHART + "\nlet a = " + "-" * 150 + "u;\n", DslSyntaxError,
     "expression nested deeper than 100 levels", 2, 109),
    (CHART + "\nlet a = " + "(" * 150 + "u" + ")" * 150 + ";\n",
     DslSyntaxError, "expression nested deeper than 100 levels", 2, 109),
    (CHART + "\nlet a = dx[", DslSyntaxError,
     "expected variable name, found 'end of input'", 2, 12),
    ("chart { base:[u]; fiber:[y, u]; }\n", DslSyntaxError,
     "chart repeats the name 'u'", 1, 29),
    (CHART + "\nchart { base:[v]; fiber:[z]; }\n", ChartRedeclared,
     "only one chart per program", 2, 1),
    (CHART + "\nlet a = u;\nemit(b);\n", UnknownIdentifier,
     "name 'b' is not bound", 3, 6),
    (CHART + "\nlet a = u;\nfrobnicate(a);\n", DslSyntaxError,
     "unknown command 'frobnicate'", 3, 1),
    (CHART + "\nlet a = " + "9" * 5000 + ";\n", DslSyntaxError,
     "integer literal of 5000 digits is too long", 2, 9),
    (CHART + "\nlet p = sphere_so3(maybe);\n", DslSyntaxError,
     "expected true or false, found 'maybe'", 2, 20),
], ids=["form-feed", "nbsp", "bom", "dd-superscript", "dollar", "tab-at",
        "lexical-before-syntax", "crlf", "trailing-comment", "trailing-cr",
        "trailing-newline", "empty", "comment-only", "comment-line",
        "blank-only", "minus-150", "paren-150", "dx-bracket-at-end",
        "repeated-chart-name", "second-chart", "unbound", "unknown-command",
        "long-integer", "not-a-boolean"])
def test_error_positions(source, error, message, line, col):
    with pytest.raises(DslError) as info:
        parse(source)
    assert type(info.value) is error
    assert info.value.args == (message,)
    assert (info.value.line, info.value.col) == (line, col)


def test_comment_ends_at_a_carriage_return():
    # old Mac line endings: "\r" alone ends the comment's line, as it does
    # when the CLI reads the file as text
    source = CHART + "\r# note\rlet a = u;\remit(a);\r"
    program = parse(source)
    assert [b.name for b in program.bindings] == ["a"]
    assert program.commands == (CmdEmit("a"),)
    assert program == parse(source.replace("\r", "\n"))


def test_printer_refuses_a_value_that_is_no_expression():
    p = parse(CHART + "\nlet a = u;\n")
    with pytest.raises(TypeError, match="^not an expression node: 42$"):
        print_program(dsl.Program(p.chart, (dsl.Binding("a", 42),), ()))


def test_binding_after_command_rejected():
    src = ("chart { base:[u]; fiber:[y]; } let a = 1; emit(a); let b = 2; ")
    with pytest.raises(DslSyntaxError):
        parse(src)


def test_catalog_roundtrip_ast():
    src = ("chart { base:[u, v]; fiber:[y1, y2, y3]; params:[r, PI]; }\n"
           "let q = sphere_so3(true);\n"
           "let m = period_model((PI / (1 + (r ^ 2))), (PI * r));\n"
           "check jacobi(q);\n"
           "monodromy(m);\n")
    prog = parse(src)
    assert prog.bindings[0].rhs == Catalog("sphere_so3", (True,))
    assert parse(print_program(prog)) == prog


def test_roundtrip_on_all_command_forms():
    src = """
chart { base:[u, v]; fiber:[y1, y2, y3]; params:[r, PI]; }
let p = sphere_so3(false);
let s = so3;
let h = heisenberg3;
let w = d/dy1;
let m = period_model(PI*r);
check jacobi(p);
check dirac(p);
decompose(p);
structure_eqs(p);
jet(p, 2);
moser(p);
chain_map(p, w);
monodromy(m);
monodromy(m, [1/2]);
ratio_constancy(m);
affine(m);
int_identity(1/(1+r^2); 1, r/(1+r^2));
emit(p);
"""
    prog = parse(src)
    printed = print_program(prog)
    assert parse(printed) == prog
    # canonical print is a fixed point
    assert print_program(parse(printed)) == printed


def test_expression_shapes():
    src = ("chart { base:[u]; fiber:[y]; }\n"
           "let a = -3/4 * (dx[u] ^ d/dy) + dx[u] ^ d/du;\n"
           "emit(a);\n")
    prog = parse(src)
    report = execute(prog)
    assert report.records[0].ok


def test_unary_plus_is_no_operation():
    chart = "chart { base:[u]; fiber:[y]; }\n"
    assert parse(chart + "let a = +u * +(1 - +2);") \
        == parse(chart + "let a = u * (1 - 2);")


def test_product_catalog():
    src = """
chart { base:[u, v]; fiber:[y1, y2, y3]; }
let a = (1/4)*(1 + u^2 + v^2)^2 * (d/du ^ d/dv);
let b = so3;
let p = product(a, b);
check jacobi(p);
"""
    report = execute(parse(src))
    assert report.records[0].ok


def test_command_errors_recorded_not_fatal():
    src = """
chart { base:[u, v]; fiber:[y1, y2, y3]; }
let bad = d/dy1 ^ d/dy2;
let good = d/du ^ d/dv;
decompose(bad);
check jacobi(good);
"""
    report = execute(parse(src))
    assert not report.records[0].ok
    assert "NotHorizontallyNondegenerate" in report.records[0].value
    assert report.records[1].ok


def test_exponent_limit_recorded_in_binding():
    src = """
chart { base:[u]; fiber:[y]; }
let a = (1 + u)^1000000000000;
let b = 2^-1000000000000;
let c = u^%d;
let d = u^%d;
emit(c);
""" % (MAX_EXPONENT, MAX_EXPONENT + 1)
    records = execute(parse(src)).records
    assert [r.cmd for r in records[:3]] == ["let a", "let b", "let d"]
    for r in records[:3]:
        assert not r.ok
        assert r.value.startswith("error: LimitExceeded: exponent ")
    assert records[3].ok and records[3].value == "u^%d" % MAX_EXPONENT


def test_a_failed_binding_reads_as_failed():
    # the parser accepts q as bound; the commands that read it say that its
    # binding failed, also where an earlier binding of q succeeded
    src = """
chart { base:[u, v]; fiber:[y]; }
let q = u/0;
let p = d/du ^ d/dv;
let p = d/du / 0;
emit(q);
decompose(p);
"""
    records = execute(parse(src)).records
    assert [(r.cmd, r.ok) for r in records[:2]] == [("let q", False),
                                                    ("let p", False)]
    assert records[0].value == "error: _EvalError: division by zero"
    assert [(r.ok, r.value) for r in records[2:]] == [
        (False, "error: UnknownIdentifier: the binding of 'q' failed"),
        (False, "error: UnknownIdentifier: the binding of 'p' failed")]


def test_degree_overflow_recorded_in_its_command(monkeypatch):
    # u^1000 squared ten times is within MAX_POWER_BITS and far below the
    # degree limit of the packed monomials
    def squared(k):
        return "(" * k + "u^1000" + ")^2" * k

    src = ("chart { base:[u]; fiber:[y]; }\n"
           "let a = %s;\nlet b = %s;\nemit(a);\nemit(b);\n"
           % (squared(9), squared(10)))
    records = execute(parse(src)).records
    assert [(r.ok, r.value) for r in records] == [(True, "u^512000"),
                                                  (True, "u^1024000")]
    # with the limit lowered below that degree, the product that would pass
    # it is refused in its own binding and leaves the other one intact
    monkeypatch.setattr(rational, "MAX_DEGREE", 600000)
    overflow, below, unbound = execute(parse(src)).records
    assert overflow.cmd == "let b" and not overflow.ok
    assert overflow.value == ("error: LimitExceeded: total degree 1024000 "
                              "exceeds the limit 600000")
    assert below.ok and below.value == "u^512000"
    assert not unbound.ok


def test_power_size_and_jet_order_limits(monkeypatch):
    # a power or jet past its limit must be refused before any work: the
    # spies fail, rather than hang, if one of them slipped through
    power = rational.RatFunc.__pow__

    def guarded_power(f, n):
        bits = max(abs(c).bit_length() for c in f.num.terms.values())
        assert abs(n) < 1000 or (len(f.num.terms) == 1 and bits < 2000)
        return power(f, n)

    def no_decompose(theta):
        raise AssertionError("decompose ran")

    monkeypatch.setattr(rational.RatFunc, "__pow__", guarded_power)
    monkeypatch.setattr(interp, "decompose", no_decompose)
    src = """
chart { base:[u, v]; fiber:[y]; }
let a = (1 + u + v)^1000;
let b = ((2^1000)^1000)^1000;
let c = u^1000;
let p = d/du ^ d/dv;
jet(p, 1000000000);
emit(c);
"""
    records = execute(parse(src)).records
    assert [r.cmd for r in records] == ["let a", "let b", "jet(p, 1000000000)",
                                        "emit(c)"]
    for r in records[:2]:
        assert not r.ok
        assert r.value.startswith("error: LimitExceeded: power may take ")
    assert not records[2].ok
    assert records[2].value == ("error: LimitExceeded: jet order 1000000000 "
                                "exceeds the limit %d" % MAX_JET_ORDER)
    assert records[3].ok and records[3].value == "u^1000"


def test_jet_at_order_limit_runs():
    src = ("chart { base:[u, v]; fiber:[y]; }\nlet p = d/du ^ d/dv;\n"
           "jet(p, %d);\n" % MAX_JET_ORDER)
    assert execute(parse(src)).records[0].ok


def test_no_float_literals():
    with pytest.raises(DslSyntaxError):
        parse("chart { base:[u]; fiber:[y]; } let a = 1.5; emit(a);")


def test_comments_ignored():
    src = ("# leading comment\nchart { base:[u]; fiber:[y]; }\n"
           "let a = 2; # trailing comment\nemit(a);\n")
    report = execute(parse(src))
    assert report.records[0].value == "2"


def test_monodromy_with_point():
    src = """
chart { base:[u, v]; fiber:[y1, y2, y3]; params:[r, PI]; }
let m = period_model(PI/(1 + r^2), PI*r);
monodromy(m, [1/2]);
"""
    report = execute(parse(src))
    rec = report.records[0]
    assert rec.ok
    assert rec.value == "(-16*PI/25, PI)"


def test_monodromy_at_the_empty_point():
    # a model with no transverse parameter is evaluated at the point []
    src = """
chart { base:[u]; fiber:[y]; params:[PI]; }
let m = period_model(PI, 2*PI);
monodromy(m, []);
monodromy(m, [1]);
"""
    prog = parse(src)
    assert prog.commands[0] == dsl.CmdMonodromy("m", ())
    assert "monodromy(m, []);" in print_program(prog)
    assert parse(print_program(prog)) == prog
    ok, wrong = execute(prog).records
    assert ok.ok and ok.value == "((), ())"
    assert not wrong.ok and wrong.value == (
        "error: _EvalError: evaluation point needs 0 entries, got 1")


def test_monodromy_point_must_be_scalar():
    # a non-scalar entry used to be read as its scalar part: [d/du] as 0
    src = """
chart { base:[u, v]; fiber:[y1, y2, y3]; params:[r, PI]; }
let m = period_model(PI/(1 + r^2), PI*r);
monodromy(m, [d/du]);
monodromy(m, [dx[u] + 1]);
"""
    for rec in execute(parse(src)).records:
        assert not rec.ok
        assert rec.value == ("error: _EvalError: evaluation point must be "
                             "rational")


def test_moser_on_a_chart_that_names_t():
    # the path parameter is the first of t, t1, ... the chart leaves free
    src = """
chart { base:[u, t]; fiber:[y1, y2, y3]; }
let p = sphere_so3(true);
moser(p);
"""
    rec = execute(parse(src)).records[0]
    assert rec.ok and rec.residual == "0"


def test_wedge_vs_power_dispatch():
    src = ("chart { base:[u]; fiber:[y]; }\n"
           "let a = (1 + u)^2;\n"
           "let b = d/du ^ d/dy;\n"
           "emit(a);\nemit(b);\n")
    report = execute(parse(src))
    assert report.records[0].value == "u^2 + 2*u + 1"
    assert report.records[1].value == "(d/du ^ d/dy)"


def test_zero_factor_leaves_no_terms():
    src = ("chart { base:[u]; fiber:[y]; }\n"
           "let a = 0*dx[u];\n"
           "let b = dx[u]*0 + 1;\n"
           "emit(a);\nemit(b);\n")
    report = execute(parse(src))
    assert [r.value for r in report.records] == ["0", "1"]


def test_emit_prints_a_period_model():
    src = """
chart { base:[u]; fiber:[y]; params:[r, PI]; }
let m = period_model(PI/(1 + r^2), PI*r);
emit(m);
"""
    (rec,) = execute(parse(src)).records
    assert rec.ok
    assert rec.value == ("period_model(transverse=[r]; "
                         "periods=(PI/(r^2 + 1), r*PI))")


@pytest.mark.parametrize("rhs, message", [
    ("dx[y1] ^ d/du",
     "_EvalError: mixed elements only take base covariant directions"),
    ("dx[u] ^ d/du ^ d/dv",
     "_EvalError: element violates the mixed-degree constraints"),
    ("zz + 1", "UnknownIdentifier: unknown variable 'zz'"),
    ("d/dzz", "UnknownIdentifier: no chart direction named 'zz'"),
    ("d/du * d/dv",
     "_EvalError: '*' needs a scalar factor; use '^' for wedges"),
    ("u / d/du", "_EvalError: division by a non-scalar"),
    ("(d/du)^2", "_EvalError: cannot raise a wedge to a power"),
    ("period_model(d/du)", "_EvalError: period entries must be scalars"),
], ids=["fiber-form", "two-lifts", "unknown-variable", "unknown-direction",
        "product-of-vectors", "division-by-vector", "power-of-vector",
        "vector-period"])
def test_malformed_mixed_elements_are_refused(rhs, message):
    src = "chart { base:[u, v]; fiber:[y1]; }\nlet a = %s;\n" % rhs
    (rec,) = execute(parse(src)).records
    assert not rec.ok
    assert rec.value == "error: %s" % message


@pytest.mark.parametrize("chart, body, cmd, message", [
    ("params:[r];", "let a = period_model(r);", "let a",
     "period_model needs a formal parameter named PI"),
    ("params:[r, PI];", "let m = period_model(PI*r); check jacobi(m);",
     "check jacobi(m)",
     "name 'm' is bound to PeriodModel, expected Multivector"),
    ("", "int_identity(d/du; 1);", "int_identity(d/du; 1)",
     "int_identity needs scalar arguments"),
], ids=["period-model-without-PI", "jacobi-of-a-model",
        "int-identity-of-a-vector"])
def test_interpreter_refusals_are_recorded(chart, body, cmd, message):
    src = "chart { base:[u, v]; fiber:[y1]; %s }\n%s\n" % (chart, body)
    (rec,) = execute(parse(src)).records
    assert (rec.cmd, rec.ok, rec.value) == (
        cmd, False, "error: _EvalError: %s" % message)


def test_a_scalar_joins_the_term_store_and_heisenberg_binds():
    src = """
chart { base:[u, v]; fiber:[x, y, z]; }
let a = 1 + d/du;
let h = heisenberg3;
emit(a);
emit(h);
"""
    records = execute(parse(src)).records
    assert [(r.ok, r.value) for r in records] == [
        (True, "1 + (d/du)"), (True, "z*(d/dx ^ d/dy)")]


# --- hand-built programs and formats the parser never makes ---------------------

def test_execute_records_a_command_on_an_unbound_name():
    program = dsl.Program(ChartDecl(("u",), ("y",), ()), (),
                          (CmdCheckJacobi("p"),))
    (record,) = execute(program).records
    assert record == CommandRecord(
        "check jacobi(p)", False, None,
        "error: UnknownIdentifier: name 'p' is not bound")


def test_emit_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        interp.emit(execute(parse(SMOKE)), "xml")
