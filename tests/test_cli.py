import json
import pathlib
import subprocess
import sys

import pytest

import leafnorm
from leafnorm.dsl import MAX_DEPTH, parse, print_program
from leafnorm.errors import DslError

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


def test_any_exception_recorded_in_its_command(tmp_path):
    # printing 10^5000 exceeds Python's int-to-str digit limit (ValueError)
    f = tmp_path / "big.lnf"
    f.write_text("chart { base:[u]; fiber:[y]; }\n"
                 "let a = (10^100)^50;\nlet b = 2;\nemit(a);\nemit(b);\n")
    res = run_cli(["run", str(f)])
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    first, second = json.loads(res.stdout)["commands"]
    assert first["ok"] is False
    assert first["value"].startswith("error: ValueError: ")
    assert second["ok"] is True and second["value"] == "2"
    assert run_cli(["check", str(f)]).returncode == 1


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


def test_out_to_missing_directory_exits_2(tmp_path):
    f = tmp_path / "good.lnf"
    f.write_text(GOOD)
    res = run_cli(["run", str(f), "--out", str(tmp_path / "missing" / "x.json")])
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "cannot write" in res.stderr


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


def test_sphere_pipeline_all_ok():
    path = leafnorm.sphere_pipeline_path()
    res = run_cli(["check", path])
    assert res.returncode == 0
