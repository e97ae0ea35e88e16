"""Cold-process benchmark of leafnorm programs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a leafnorm checkout; the engine is imported from
`src/`.  The workload's program is generated from the seed (see
workloads.py) and every repetition runs it in a fresh interpreter, one at a
time, as `leafnorm run` users do.  Repetitions continue while the next one
is expected to finish within S seconds (at least MIN_REPS).  Set-up-only
processes run between repetitions, SETUPS_PER_REP at a time, and after
them until there are MIN_SETUP_SAMPLES set-up samples.

--trace 0 prints the end-to-end metrics: medians of report_s (execute +
emit), setup_s (import leafnorm, read and parse) and peak_rss_mb.  The two
times are CPU seconds of the measured process corrected for the host's
varying speed (probe.py): report_s by the speed probe, which shares the one
CPU this process and its children are pinned to, and setup_s by the
reference imports run before and after each set-up process.  The wall
times of the repetitions are printed on the lines before the JSON.
--trace 1 runs one traced process between two untraced ones and prints the
per-layer metrics of tracer.py; the trace summary and spans are kept under bench/out/.

Every report is checked against the workload's known answers outside the
timed region (check.py).  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` (commands) and `metrics`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from probe import (REF_IMPORT_S, REF_RATE, Probe, ProbeFailed,  # noqa: E402
                   ref_import_cpu_s)

MIN_REPS = 1
MIN_SETUP_SAMPLES = 30
SETUPS_PER_REP = 5
PAD_S = 0.03
CHILD_TIMEOUT_S = 170

END_TO_END = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _child(program, report, mode, *extra):
    cmd = [sys.executable, "-E", "-s", CHILD, SRC, program, report, mode]
    cmd += list(extra)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed("%s exited %d:\n%s" % (mode, proc.returncode,
                                                 proc.stderr[-4000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    return out


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check(reports, workload):
    """(commands attempted, commands failed, drift flag) over all reports."""
    verdicts = {}
    failed = 0
    for data in reports:
        if data not in verdicts:
            verdicts[data] = len(check.check_report(data, workload))
        failed += verdicts[data]
    drift = int(len(verdicts) > 1)
    attempted = len(workload.expects) * len(reports)
    return attempted, failed, drift


def _corrected_report(probe, program, report):
    """One repetition; its report CPU time corrected by the speed probe.

    The probe's rate is taken over a window that starts and ends PAD_S
    before and after the child, while the probe has the CPU alone, so that
    its start and end are sampled as well as its middle.
    """
    start = probe.mark()
    time.sleep(PAD_S)
    r = _child(program, report, "run")
    time.sleep(PAD_S)
    r["report_corr_s"] = (r["report_cpu_s"] * probe.rate(start, probe.mark())
                          / REF_RATE)
    return r


class _SetupSampler:
    """Set-up-only processes, each between two reference imports."""

    def __init__(self, program):
        self.program = program
        self.ref = ref_import_cpu_s(CHILD_TIMEOUT_S)
        self.samples = []

    def sample(self):
        cpu = _child(self.program, "-", "setup")["setup_cpu_s"]
        ref = ref_import_cpu_s(CHILD_TIMEOUT_S)
        self.samples.append(cpu * REF_IMPORT_S / ((self.ref + ref) / 2))
        self.ref = ref


def _timed_runs(program, outdir, seconds, probe):
    reps, reports = [], []
    setup = _SetupSampler(program)
    start = time.perf_counter()
    while True:
        path = os.path.join(outdir, "report_%d.json" % len(reps))
        r = _corrected_report(probe, program, path)
        reps.append(r)
        reports.append(_read(path))
        # set-up samples between repetitions spread over the whole run
        for _ in range(SETUPS_PER_REP):
            setup.sample()
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + r["wall_s"] > seconds:
            break
    while len(setup.samples) < MIN_SETUP_SAMPLES:
        setup.sample()
    setups = setup.samples
    for name, values in (("report_s", [r["report_corr_s"] for r in reps]),
                         ("setup_s", setups),
                         ("report wall s", [r["report_s"] for r in reps])):
        print("samples %s: %s" % (name, " ".join("%.4f" % v for v in values)))
    metrics = {
        "report_s": statistics.median(r["report_corr_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    samples = {"report_s": len(reps), "setup_s": len(setups),
               "peak_rss_mb": len(reps)}
    return metrics, samples, reports


def _traced_run(program, outdir, workload):
    """One traced process between two untraced ones (the overhead baseline)."""
    paths = [os.path.join(outdir, "report_%s.json" % k)
             for k in ("untraced_0", "traced", "untraced_1")]
    trace_path = os.path.join(outdir, "trace.json")
    before = _child(program, paths[0], "run")
    _child(program, paths[1], "trace", trace_path)
    after = _child(program, paths[2], "run")
    with open(trace_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    metrics = tracer.per_layer_metrics(
        summary, (before["report_s"] + after["report_s"]) / 2)
    if workload == "sphere_pipeline":
        print("tracer self-check: %d derivative calls, %d distinct inputs, "
              "%d top-level poly_gcd calls (seed kernel: 677 / 79 / 1748)"
              % (metrics["rational.derivative.calls"],
                 metrics["rational.derivative.distinct_inputs"],
                 metrics["rational.poly_gcd.calls_top"]))
    return metrics, [_read(p) for p in paths]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "leafnorm", "__init__.py")):
        print("bench: no leafnorm sources under %s; run from the root of a "
              "leafnorm checkout" % SRC, file=sys.stderr)
        return 2
    work = workloads.generate(args.workload, args.seed, ROOT)
    outdir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    program = os.path.join(outdir, "program.lnf")
    with open(program, "w", encoding="utf-8") as fh:
        fh.write(work.text)

    # this process, its children and the speed probe share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = None
    try:
        _child(program, "-", "setup")   # compile bytecode, warm the file cache
        if args.trace:
            metrics, reports = _traced_run(program, outdir, args.workload)
            units = tracer.PER_LAYER
            samples = None
        else:
            probe = Probe()
            metrics, samples, reports = _timed_runs(program, outdir,
                                                    args.seconds, probe)
            units = END_TO_END
    except (ChildFailed, ProbeFailed, subprocess.TimeoutExpired) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if probe is not None:
            probe.stop()

    attempted, failed, drift = _check(reports, work)
    for name, value in metrics.items():
        n = "" if samples is None else "  (n=%d)" % samples[name]
        print("%-44s %14.6f %s%s" % (name, value, units[name], n))
    print("failed_share %.6f (%d/%d commands)  report_drift %d  reports %d"
          % (failed / attempted, failed, attempted, drift, len(reports)))
    result = {
        "correct": failed == 0 and drift == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
