import pytest

from leafnorm import dsl
from leafnorm.dsl import (
    Catalog, ChartDecl, CmdCheckJacobi, parse, print_program,
)
from leafnorm.errors import (
    ChartRedeclared, DslSyntaxError, UnknownIdentifier,
)
from leafnorm.interp import MAX_EXPONENT, execute


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
