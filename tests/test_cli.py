import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import leafnorm
from leafnorm import cli, rational
from leafnorm.dsl import MAX_DEPTH, parse, print_program
from leafnorm.errors import DslError
from leafnorm.interp import CommandRecord, Report, emit

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "leafnorm.cli"] + args,
                          capture_output=True, text=True)


GOOD = """
chart { base:[u, v]; fiber:[x, y, z]; }
let p = x*(d/dy ^ d/dz) + y*(d/dz ^ d/dx) + z*(d/dx ^ d/dy);
check jacobi(p);
"""

FAILING = """
chart { base:[u, v]; fiber:[x, y, z]; }
let p = x*(d/dx ^ d/dy) + y*(d/dy ^ d/dz);
check jacobi(p);
"""

BROKEN = """
chart { base:[u, v]; fiber:[x, y, z]
check jacobi(p);
"""


def test_run_json_schema(tmp_path):
    f = tmp_path / "good.lnf"
    f.write_text(GOOD)
    res = run_cli(["run", str(f)])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["version"] == 1
    assert len(doc["commands"]) == 1
    rec = doc["commands"][0]
    assert set(rec) == {"cmd", "ok", "residual", "value", "ms"}
    assert rec["ok"] is True
    assert rec["residual"] == "0"
    assert rec["ms"] == 0


# runs the CLI with the first command raising an exception that leafnorm
# does not anticipate
FIRST_COMMAND_FAILS = """
import sys
from leafnorm import cli, interp
run_command, calls = interp._run_command, []
def first_fails(cmd, ctx, env):
    calls.append(cmd)
    if len(calls) == 1:
        raise RuntimeError("unanticipated")
    return run_command(cmd, ctx, env)
interp._run_command = first_fails
sys.exit(cli.main(sys.argv[1:]))
"""


def test_any_exception_recorded_in_its_command(tmp_path):
    f = tmp_path / "two.lnf"
    f.write_text("chart { base:[u]; fiber:[y]; }\n"
                 "let a = 1;\nlet b = 2;\nemit(a);\nemit(b);\n")

    def run(args):
        return subprocess.run([sys.executable, "-c", FIRST_COMMAND_FAILS]
                              + args, capture_output=True, text=True)

    res = run(["run", str(f)])
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    first, second = json.loads(res.stdout)["commands"]
    assert first["ok"] is False
    assert first["value"].startswith("error: RuntimeError: ")
    assert second["ok"] is True and second["value"] == "2"
    assert run(["check", str(f)]).returncode == 1


def test_integers_past_the_digit_limit_print_in_full(tmp_path):
    # 5001 digits, over the 4300 that str() of an int allows by default
    f = tmp_path / "big.lnf"
    f.write_text("chart { base:[u]; fiber:[y]; }\n"
                 "let a = (10^100)^50;\nlet b = -(10^100)^50*u/3;\n"
                 "emit(a);\nemit(b);\nint_identity((10^100)^50; 1);\n")
    res = run_cli(["run", str(f)])
    assert res.returncode == 0
    first, second, third = json.loads(res.stdout)["commands"]
    assert first["ok"] is True and first["value"] == "1" + "0" * 5000
    assert second["ok"] is True
    assert second["value"] == "-1" + "0" * 5000 + "*u/3"
    assert third["ok"] is True and third["value"] == "m = (1%s)" % ("0" * 5000)
    assert run_cli(["check", str(f)]).returncode == 0


def test_empty_program_report(tmp_path):
    f = tmp_path / "empty.lnf"
    f.write_text("chart { base:[u]; fiber:[y]; }\n")
    res = run_cli(["run", str(f)])
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"version": 1, "commands": []}


def test_check_exit_codes(tmp_path):
    good = tmp_path / "good.lnf"
    good.write_text(GOOD)
    bad = tmp_path / "bad.lnf"
    bad.write_text(FAILING)
    broken = tmp_path / "broken.lnf"
    broken.write_text(BROKEN)
    assert run_cli(["check", str(good)]).returncode == 0
    assert run_cli(["check", str(bad)]).returncode == 1
    res = run_cli(["check", str(broken)])
    assert res.returncode == 2
    assert "line" in res.stderr
    assert run_cli(["check", str(tmp_path / "missing.lnf")]).returncode == 2


def test_usage_errors_exit_2(tmp_path):
    # a command line argparse rejects: a usage line and one error on
    # stderr, nothing on stdout, no traceback
    f = tmp_path / "good.lnf"
    f.write_text(GOOD)
    for args in ([], ["frobnicate"], ["run"],
                 ["run", "--format", "xml", str(f)]):
        res = run_cli(args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert res.stderr.startswith("usage: leafnorm"), args
        assert res.stderr.splitlines()[-1].startswith("leafnorm")
        assert ": error: " in res.stderr
        assert "Traceback" not in res.stderr


def test_out_flag(tmp_path):
    f = tmp_path / "good.lnf"
    f.write_text(GOOD)
    out = tmp_path / "report.json"
    res = run_cli(["run", str(f), "--out", str(out)])
    assert res.returncode == 0
    assert res.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["commands"][0]["ok"] is True


def test_byte_determinism(tmp_path):
    # equality with checked-in reports implies determinism, and also catches
    # any drift in representation or printing
    pipeline = leafnorm.sphere_pipeline_path()
    cases = [([pipeline], "sphere_pipeline.json"),
             ([pipeline, "--format", "text"], "sphere_pipeline.txt"),
             ([str(FIXTURES / "term_store.lnf"), "--format", "text"],
              "term_store.txt")]
    for args, expected in cases:
        res = run_cli(["run"] + args)
        assert res.returncode == 0
        assert res.stdout == (FIXTURES / expected).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", [
    # the so(3)+so(3) Casimir program of the benchmark (seed 1), whose
    # quotient-rule gcds meet a divisor of the other operand
    "so3x2_casimir",
    # the non-Casimir twin (benchmark seed 1): its false verdicts print big
    # residuals, which are the quotient rule's canonical forms
    "so3x2_noncasimir",
    # period models, monodromy with and without a point (poles at the point
    # are error records), ratio constancy, affine, integer identities and
    # scalar expressions with zero literals and power limits
    "period_models",
    # the benchmark's batch of period models and identities (seed 1): its
    # one-variable gcds, monodromy at points and two-column ratio tests
    "obstruction_batch",
])
def test_report_is_golden(name):
    res = subprocess.run(
        [sys.executable, "-m", "leafnorm.cli", "run",
         str(FIXTURES / (name + ".lnf"))], capture_output=True)
    assert res.returncode == 0
    assert res.stdout == (FIXTURES / (name + ".json")).read_bytes()


def test_golden_reports_never_reach_the_prs(tmp_path, monkeypatch):
    # the gcd fallback is off the path of every shipped program: with the
    # PRS raising, a command that reached it would record the error, and
    # its report would differ from the fixture; every content in a
    # variable is certified by trial division, with no gcd
    def prs(f, g):
        raise AssertionError("the PRS fallback ran")

    content_gcds, gcd = [], rational.poly_gcd

    def gcd_spy(f, g):
        if sys._getframe(1).f_code.co_name == "_content_free_part":
            content_gcds.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(rational, "_prs", prs)
    monkeypatch.setattr(rational, "poly_gcd", gcd_spy)
    pipeline = leafnorm.sphere_pipeline_path()
    cases = [(pipeline, "json", "sphere_pipeline.json"),
             (pipeline, "text", "sphere_pipeline.txt"),
             (FIXTURES / "term_store.lnf", "text", "term_store.txt")]
    cases += [(FIXTURES / (name + ".lnf"), "json", name + ".json")
              for name in ("so3x2_casimir", "so3x2_noncasimir",
                           "period_models", "obstruction_batch")]
    out = tmp_path / "report"
    for src, fmt, expected in cases:
        assert cli.main(["run", str(src), "--format", fmt,
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / expected).read_bytes()
    assert not content_gcds


def test_report_is_utf8_whatever_the_locale(tmp_path):
    # stdout carries the bytes that --out writes, also where the locale
    # cannot encode a chart name
    src = str(FIXTURES / "non_ascii.lnf")
    env = dict(os.environ, PYTHONIOENCODING="ascii")

    def run(args):
        res = subprocess.run([sys.executable, "-m", "leafnorm.cli"] + args,
                             capture_output=True, env=env)
        assert b"Traceback" not in res.stderr
        return res

    for fmt, expected in (("text", (FIXTURES / "non_ascii.txt").read_bytes()),
                          ("json", None)):
        out = tmp_path / ("report." + fmt)
        res = run(["run", "--format", fmt, src])
        assert res.returncode == 0
        assert run(["run", "--format", fmt, src, "--out", str(out)]
                   ).returncode == 0
        assert res.stdout == out.read_bytes()
        if expected is not None:
            assert res.stdout == expected
    res = run(["check", src])
    assert res.returncode == 0
    assert res.stdout == (FIXTURES / "non_ascii.txt").read_bytes()


def test_closed_stdout_exits_2(tmp_path):
    # a reader that went away is an IO error, like a failed --out write,
    # not a false verdict; the report is large enough to fill a pipe
    good = tmp_path / "good.lnf"
    good.write_text(GOOD)
    for args in (["run", str(FIXTURES / "period_models.lnf")],
                 ["run", str(good)], ["check", str(good)],
                 ["check", str(FIXTURES / "period_models.lnf")]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "leafnorm.cli"] + args,
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert res.returncode == 2, args
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr
        assert res.stderr.splitlines() == [
            "leafnorm: cannot write standard output: [Errno 32] Broken pipe"]


def test_out_to_missing_directory_exits_2(tmp_path):
    f = tmp_path / "good.lnf"
    f.write_text(GOOD)
    res = run_cli(["run", str(f), "--out", str(tmp_path / "missing" / "x.json")])
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "cannot write" in res.stderr


def test_non_utf8_program_exits_2(tmp_path):
    f = tmp_path / "latin1.lnf"
    f.write_bytes(b"chart { base:[u]; fiber:[y]; }\nlet a = u; # \xff\n")
    res = run_cli(["run", str(f)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert "cannot read" in res.stderr


def test_program_with_a_byte_order_mark_runs(tmp_path):
    # a leading mark is the file's encoding signature, as in Python source;
    # dsl.parse still refuses U+FEFF inside program text
    plain, marked = tmp_path / "plain.lnf", tmp_path / "marked.lnf"
    plain.write_text(GOOD, encoding="utf-8")
    marked.write_text(GOOD, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    for fmt in ("json", "text"):
        res = run_cli(["run", "--format", fmt, str(marked)])
        assert res.returncode == 0, res.stderr
        assert res.stdout == run_cli(["run", "--format", fmt,
                                      str(plain)]).stdout
    assert run_cli(["check", str(marked)]).returncode == 0
    inner = tmp_path / "inner.lnf"
    inner.write_text(GOOD + "\ufeff", encoding="utf-8")
    res = run_cli(["run", str(inner)])
    assert res.returncode == 2
    assert "unexpected character '\\ufeff'" in res.stderr


def test_repeated_chart_name_exits_2(tmp_path):
    f = tmp_path / "repeat.lnf"
    for chart, col in (("chart { base:[u, u]; fiber:[y]; }", 18),
                       ("chart { base:[u]; fiber:[y, u]; }", 29),
                       ("chart { base:[u]; fiber:[y]; params:[u]; }", 38)):
        f.write_text(chart + "\nlet a = u;\nemit(a);\n")
        res = run_cli(["run", str(f)])
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert "'u'" in res.stderr and "(line 1, col %d)" % col in res.stderr


# prints the modules that `import leafnorm` loads beyond those loaded at
# start-up, with src/ first on the path
NEW_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import leafnorm
print(" ".join(sorted(set(sys.modules) - before)))
"""


# modules that would more than double the import time of a small program
# (docs/conventions.md, "Imports"); fractions brings decimal and numbers
UNUSED_MODULES = {"dataclasses", "inspect", "ast", "dis", "fractions",
                  "decimal", "numbers", "json"}


def test_import_loads_no_introspection_modules():
    src = pathlib.Path(leafnorm.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-E", "-s", "-c", NEW_MODULES,
                          str(src)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "leafnorm.dsl" in loaded
    assert not loaded & UNUSED_MODULES


# as NEW_MODULES, after also executing and emitting (in both formats) the
# programs named by the further arguments
RUN_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from leafnorm import dsl, interp
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        report = interp.execute(dsl.parse(fh.read()))
    assert not any(r.value and r.value.startswith("error:")
                   for r in report.records), path
    interp.emit(report, "json")
    interp.emit(report, "text")
print(" ".join(sorted(set(sys.modules) - before)))
"""

# monodromy at integral and non-integral points where no period has a pole,
# with rational exponents and scalars around it
POINTS = """
chart { base:[u]; fiber:[y]; params:[r, s, PI]; }
let m = period_model(PI/(1 + r^2), 2*PI*(1 - r)/(1 + s^2) + PI*r*s/3);
let e = (1/2)^(4/2)*r - 3/4;
monodromy(m, [1/2, -3]);
monodromy(m, [2, 5/7]);
monodromy(m, [0, 0]);
monodromy(m);
ratio_constancy(m);
emit(e);
int_identity(6*r + 4*s; 3*r + 2*s, r);
"""


def test_execute_and_emit_load_no_unused_modules(tmp_path):
    points = tmp_path / "points.lnf"
    points.write_text(POINTS)
    programs = [leafnorm.sphere_pipeline_path(),
                str(FIXTURES / "so3x2_casimir.lnf"),
                str(FIXTURES / "so3x2_noncasimir.lnf"), str(points)]
    src = pathlib.Path(leafnorm.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-E", "-s", "-c", RUN_MODULES,
                          str(src)] + programs, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert "leafnorm.interp" in loaded
    assert not loaded & UNUSED_MODULES


# report text with every kind of character that json escapes: quote,
# backslash, control characters, DEL, non-ASCII and beyond the BMP
report_text = st.text(st.one_of(
    st.sampled_from('"\\\x00\x08\t\n\x0c\r\x1f\x7f\x80\u00e9\u2028'
                    '\ufeff\U0001f600\U0010ffff'),
    st.characters()))
report_field = st.one_of(st.none(), st.booleans(), report_text)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.builds(CommandRecord, report_field, report_field,
                          report_field, report_field), max_size=4))
def test_emit_is_json_dumps(records):
    report = Report(tuple(records))
    assert emit(report) == json.dumps(report.as_dict(), indent=2) + "\n"


def test_emit_of_the_empty_report_is_json_dumps():
    report = Report(())
    assert emit(report) == json.dumps(report.as_dict(), indent=2) + "\n"


def _deep_expressions(depth):
    """Each shape that used to overflow the stack, `depth` levels deep."""
    return {"parens": "(" * depth + "u" + ")" * depth,
            "minus": "-" * depth + "u",
            "power": " ^ ".join(["u"] * (depth + 1)),
            "sum": " + ".join(["u"] * (depth + 1))}


def test_expression_depth_limit(tmp_path):
    at_limit = _deep_expressions(MAX_DEPTH)
    src = "chart { base:[u]; fiber:[y]; }\n" + "".join(
        "let %s = %s;\n" % item for item in at_limit.items()) + "".join(
        "emit(%s);\n" % name for name in at_limit)
    prog = parse(src)
    assert parse(print_program(prog)) == prog
    f = tmp_path / "deep.lnf"
    f.write_text(src)
    res = run_cli(["check", str(f)])
    assert res.returncode == 0, res.stderr
    for depth in (MAX_DEPTH + 1, 2000):
        for name, expr in _deep_expressions(depth).items():
            with pytest.raises(DslError) as info:
                parse("chart { base:[u]; fiber:[y]; }\nlet a = %s;\n" % expr)
            assert "deeper than %d" % MAX_DEPTH in str(info.value), name
            assert info.value.line == 2
    f.write_text("chart { base:[u]; fiber:[y]; }\nlet a = %s;\n"
                 % _deep_expressions(2000)["parens"])
    res = run_cli(["run", str(f)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "line 2" in res.stderr


def test_hostile_literals_exit_2(tmp_path):
    # "²" is a digit to str.isdigit, and int() refuses literals beyond
    # Python's int-to-str digit limit (4300 by default)
    digits = "9" * 5000
    f = tmp_path / "literal.lnf"
    for body, line in (("let a = \u00b2;\n", 2), ("let a = %s;\n" % digits, 2),
                       ("let p = d/du ^ d/dv;\njet(p, %s);\n" % digits, 3)):
        f.write_text("chart { base:[u, v]; fiber:[y]; }\n" + body,
                     encoding="utf-8")
        res = run_cli(["run", str(f)])
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert "(line %d, col " % line in res.stderr


def test_sphere_pipeline_all_ok():
    path = leafnorm.sphere_pipeline_path()
    res = run_cli(["check", path])
    assert res.returncode == 0
