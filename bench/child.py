"""One cold leafnorm run, in the fresh interpreter this file is started in.

    python3 child.py SRC PROGRAM REPORT [setup|run|trace TRACE_OUT]

`setup` imports leafnorm and reads and parses PROGRAM; `run` also executes it
and writes the JSON report to REPORT, timing `interp.execute` + `interp.emit`
in wall and CPU seconds;
`trace` instead runs `leafnorm run PROGRAM --out REPORT` through `cli.main`
with every layer wrapped by the outside-in tracer and writes the trace
summary to TRACE_OUT.  The last stdout line is a JSON object with the
timings and the peak resident memory.  Only `sys` and `time` are imported
before the set-up clock starts, so leafnorm pays for its own imports.
"""

import sys
import time


def main(argv):
    t0 = time.perf_counter()
    c0 = time.process_time()
    src, program, report, mode = argv[:4]
    sys.path.insert(0, src)
    import leafnorm
    from leafnorm import dsl, interp
    if mode == "trace":
        return _traced(leafnorm, program, report, argv[4])
    with open(program, encoding="utf-8") as fh:
        parsed = dsl.parse(fh.read())
    t1 = time.perf_counter()
    c1 = time.process_time()
    out = {"setup_s": t1 - t0, "setup_cpu_s": c1 - c0}
    if mode == "run":
        text = interp.emit(interp.execute(parsed), "json")
        out["report_s"] = time.perf_counter() - t1
        out["report_cpu_s"] = time.process_time() - c1
        with open(report, "w", encoding="utf-8") as fh:
            fh.write(text)
    return out


def _traced(leafnorm, program, report, trace_out):
    import os
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer
    from leafnorm import cli
    tr = tracer.Tracer()
    tr.install(leafnorm)
    cli.main(["run", program, "--out", report])
    tr.uninstall()
    summary = tr.summary()
    tr.write(trace_out, summary)
    return {"report_s": summary["report_s"]}


if __name__ == "__main__":
    result = main(sys.argv[1:])
    import json
    import resource
    # ru_maxrss is in KiB on Linux
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
