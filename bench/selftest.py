"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

(The file name keeps it out of the default test collection: these tests
run the generated programs and take about a minute.)
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GENERATED = ("so3x2_casimir", "so3x2_noncasimir", "obstruction_batch")


def _report(text):
    from leafnorm import dsl, interp
    return interp.emit(interp.execute(dsl.parse(text)), "json").encode()


@pytest.mark.parametrize("name", GENERATED)
def test_same_seed_gives_identical_program(name):
    # separate interpreters with different string hashing, as in real runs
    script = ("import sys; sys.path.insert(0, %r); import workloads; "
              "sys.stdout.write(repr(workloads.generate(%r, 7)))" % (HERE, name))
    outs = [subprocess.run([sys.executable, "-c", script], check=True,
                           capture_output=True, env={"PYTHONHASHSEED": h}
                           ).stdout for h in ("1", "2")]
    assert outs[0] == outs[1]
    assert outs[0].decode() == repr(workloads.generate(name, 7))


@pytest.mark.parametrize("name", GENERATED)
def test_other_seed_gives_other_program_with_known_verdicts(name):
    a = workloads.generate(name, 1, ROOT)
    b = workloads.generate(name, 2, ROOT)
    assert a.text != b.text
    if name == "obstruction_batch":      # commands are shuffled; all succeed
        assert all(e.ok for e in a.expects + b.expects)
    else:
        assert [(e.cmd, e.ok) for e in a.expects] == \
            [(e.cmd, e.ok) for e in b.expects]
    assert check.check_report(_report(b.text), b) == []


def test_flipped_verdict_and_wrong_value_are_counted_as_failed():
    work = workloads.generate("sphere_pipeline", 0, ROOT)
    doc = json.loads(_report(work.text))
    assert check.check_report(json.dumps(doc).encode(), work) == []
    jacobi = doc["commands"][1]          # check jacobi(p0), alone on p0
    jacobi["ok"] = False
    assert check.check_report(json.dumps(doc).encode(), work) == [1]
    jacobi["ok"] = True
    dirac = doc["commands"][3]           # check dirac(p): also breaks the
    dirac["ok"] = False                  # agreement with jacobi(p), structure_eqs(p)
    assert check.check_report(json.dumps(doc).encode(), work) == [0, 3, 4]
    dirac["ok"] = True
    mono = doc["commands"][8]
    mono["value"] = mono["value"].replace("-2*", "-3*", 1)
    assert check.check_report(json.dumps(doc).encode(), work) == [8]


def test_monodromy_values_are_checked_at_a_point():
    work = workloads.generate("obstruction_batch", 3, ROOT)
    doc = json.loads(_report(work.text))
    i = next(k for k, e in enumerate(work.expects)
             if e.monodromy is not None and e.monodromy[2] is not None)
    doc["commands"][i]["value"] = doc["commands"][i]["value"].replace(
        "PI", "2*PI", 1)
    assert check.check_report(json.dumps(doc).encode(), work) == [i]


def _traced_counts(text):
    """Tracer counts and independent profiler counts for one execution."""
    import leafnorm
    from leafnorm import dsl, interp, rational
    deriv_code = rational.RatFunc.derivative.__code__
    gcd_code = rational.poly_gcd.__code__
    seen = {"derivative": 0, "gcd_top": 0, "gcd_depth": 0}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code is deriv_code:
            seen["derivative"] += 1
        elif event == "call" and code is gcd_code:
            seen["gcd_top"] += seen["gcd_depth"] == 0
            seen["gcd_depth"] += 1
        elif event == "return" and code is gcd_code:
            seen["gcd_depth"] -= 1

    tr = tracer.Tracer()
    tr.install(leafnorm)
    sys.setprofile(profile)
    try:
        interp.execute(dsl.parse(text))
    finally:
        sys.setprofile(None)
        tr.uninstall()
    assert rational.poly_gcd.__code__ is gcd_code, "uninstall restores"
    return tracer.per_layer_metrics(tr.summary(), 1.0), seen


def test_tracer_misses_no_call_and_reproduces_the_sphere_baseline():
    work = workloads.generate("sphere_pipeline", 0, ROOT)
    metrics, seen = _traced_counts(work.text)
    assert metrics["rational.derivative.calls"] == seen["derivative"]
    assert metrics["rational.poly_gcd.calls_top"] == seen["gcd_top"]
    # the counts of the kernel the benchmark was defined on (ROADMAP baseline)
    assert (metrics["rational.derivative.calls"],
            metrics["rational.derivative.distinct_inputs"],
            metrics["rational.poly_gcd.calls_top"]) == (677, 79, 1748)


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_is_correct_and_prints_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "obstruction_batch", "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    assert result["metrics"]["dsl.tokens"]["value"] > 0


def test_runner_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name),
                                            "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sphere_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
