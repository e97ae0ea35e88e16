"""Known-answer checks of a leafnorm JSON report.

`check_report(report_bytes, workload)` compares each command record with its
`Expect` and returns the indices of the commands that failed.  It also
applies the equivalence theorem: on every bivector, the jacobi, dirac and
structure-equation verdicts agree.  Monodromy values are compared with the
periods' derivatives by sympy, in a child process (`python3 check.py
--sympy`, JSON on stdin), so that sympy never enters a timed process.
"""

import json
import os
import subprocess
import sys


def check_report(report_bytes, workload):
    """Indices of failed commands (raised, wrong verdict or wrong value)."""
    try:
        records = json.loads(report_bytes)["commands"]
    except (ValueError, KeyError, TypeError):
        return list(range(len(workload.expects)))
    expects = workload.expects
    if len(records) != len(expects):
        # a binding that failed adds a record; nothing lines up any more
        return list(range(len(expects)))
    failed = set()
    symbolic = []
    verdicts = {}
    for i, (rec, exp) in enumerate(zip(records, expects)):
        value = rec.get("value")
        if not rec.get("cmd", "").startswith(exp.cmd + "(") or \
                (isinstance(value, str) and value.startswith("error:")):
            failed.add(i)
            continue
        if exp.target is not None:
            verdicts.setdefault(exp.target, []).append((i, rec.get("ok")))
        if rec.get("ok") is not exp.ok:
            failed.add(i)
        elif exp.value is not None and value != exp.value:
            failed.add(i)
        elif exp.monodromy is not None:
            symbolic.append((i, exp.monodromy, value))
        elif exp.value is None and exp.cmd in ("decompose", "emit") and \
                not value:
            failed.add(i)
    for entries in verdicts.values():
        # the equivalence theorem: Poisson <=> Dirac <=> structure equations
        if len({ok for _, ok in entries}) > 1:
            failed.update(i for i, _ in entries)
    if symbolic:
        results = _sympy_check([(m, v) for _, m, v in symbolic])
        failed.update(i for (i, _, _), good in zip(symbolic, results)
                      if not good)
    return sorted(failed)


def _sympy_check(items):
    payload = json.dumps([[list(m[0]), list(m[1]), m[2], v] for m, v in items])
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-B", os.path.abspath(__file__),
         "--sympy"],
        input=payload, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return [False] * len(items)
    return json.loads(proc.stdout)


# --- sympy side (runs in its own process) -------------------------------------------

def _split_top(text):
    """Split "(a, (b, c))" into ["a", "(b, c)"] at top-level commas."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("not a tuple: %r" % text)
    body, parts, depth, start = text[1:-1], [], 0, 0
    for k, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:k].strip())
            start = k + 1
    parts.append(body[start:].strip())
    return parts


def _monodromy_ok(sympy, periods, transverse, point, value):
    names = {n: sympy.Symbol(n) for n in ("r", "s", "PI")}

    def parse(text):
        return sympy.sympify(text.replace("^", "**"), locals=names)

    rows = _split_top(value)
    if len(transverse) > 1:
        rows = [_split_top(row) for row in rows]
    else:
        rows = [[row] for row in rows]
    if len(rows) != len(periods):
        return False
    subs = {}
    if point is not None:
        subs = {names[t]: parse(x) for t, x in zip(transverse, point)}
    for period, row in zip(periods, rows):
        if len(row) != len(transverse):
            return False
        p = parse(period)
        for t, got in zip(transverse, row):
            want = sympy.diff(p, names[t]).subs(subs)
            if sympy.cancel(parse(got) - want) != 0:
                return False
    return True


def _sympy_main():
    import sympy
    items = json.load(sys.stdin)
    out = []
    for periods, transverse, point, value in items:
        try:
            out.append(bool(_monodromy_ok(sympy, periods, transverse, point,
                                          value)))
        except (ValueError, TypeError, sympy.SympifyError):
            out.append(False)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    if sys.argv[1:] == ["--sympy"]:
        _sympy_main()
    else:
        sys.exit("usage: check.py --sympy  (JSON items on stdin)")
