"""Corrects measured CPU time for the host's varying speed.

    python3 probe.py serve NICE  # the speed probe process; run.py starts it
    python3 probe.py import      # one reference import; prints CPU seconds

On a shared host the core the benchmark runs on is slowed, for seconds at a
time, by work outside the sandbox: the same program takes up to 1.5 times as
long as a minute before.  The probe is a niced process that repeats a fixed
chunk of `Fraction` and dict work, the kind of work leafnorm's exact kernel
does, on the same pinned CPU as the measured process.  It gets about a tenth
of the CPU and so samples the core's speed all through the measured process's
life.  `Probe.mark()` returns (chunks done, probe CPU seconds); over a window,
chunks per probe CPU second is the speed the measured process saw, and

    corrected_s = cpu_s * rate / REF_RATE

is the time the measured work would take at REF_RATE, the probe's rate on an
uncontended core (2-vCPU sandbox, Python 3.11.7).

A set-up is too short for that: the core's speed changes within a window
of enough probe chunks, and a fresh process starts with cold caches, which
the probe's warm loop does not feel.  So each set-up process is paired with
the reference import, a fresh process that imports REF_MODULES, run just
before and just after it, and

    corrected_s = cpu_s * REF_IMPORT_S / (mean CPU s of the two imports)

Nothing in leafnorm is used here, so no change to leafnorm moves either.
"""

import os
import select
import subprocess
import sys
import time
from fractions import Fraction

# chunks per CPU second on an uncontended core of a 2-vCPU sandbox,
# Python 3.11.7; only the scale of the corrected times depends on it
REF_RATE = 3700.0
# stdlib modules leafnorm does not import, and their import's CPU seconds on
# the same uncontended core
REF_MODULES = ("decimal", "email.parser", "http.client", "xml.dom.minidom",
               "tomllib", "csv", "calendar", "difflib", "pprint", "logging",
               "zipfile", "tarfile")
REF_IMPORT_S = 0.040
NICE = 10            # weight 110 against 1024: about a tenth of the CPU
MIN_CHUNKS = 30      # fewer chunks in a window than this make a rate too coarse
POLL_EVERY = 4       # chunks between checks for a query


def _chunk(n):
    d = {}
    x = Fraction(n % 7 + 1, 3)
    for i in range(40):
        key = (i % 5, (i * 3) % 4, n % 3)
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 3)
        d[key] = d.get(key, 0) + x
    return tuple(sorted(d.items()))


def _serve(nice):
    os.nice(nice)
    fd = sys.stdin.fileno()
    n = 0
    while True:
        _chunk(n)
        n += 1
        if n % POLL_EVERY:
            continue
        if not select.select([fd], [], [], 0)[0]:
            continue
        if os.read(fd, 1) != b"m":
            return 0
        os.write(sys.stdout.fileno(),
                 b"%d %.9f\n" % (n, time.process_time()))


class ProbeFailed(RuntimeError):
    pass


class Probe:
    """The probe process, on the CPU set the caller is pinned to."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-E", "-s", os.path.abspath(__file__), "serve",
             str(NICE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)

    def mark(self):
        try:
            self.proc.stdin.write(b"m")
        except OSError:
            line = b""
        else:
            line = self.proc.stdout.readline()
        if not line:
            raise ProbeFailed("speed probe exited %s" % self.proc.poll())
        chunks, cpu = line.split()
        return int(chunks), float(cpu)

    def rate(self, start, end):
        """Chunks per probe CPU second between two marks."""
        chunks = end[0] - start[0]
        if chunks < MIN_CHUNKS:
            raise ProbeFailed("speed probe ran only %d chunks in a window"
                              % chunks)
        return chunks / (end[1] - start[1])

    def stop(self):
        try:
            self.proc.stdin.write(b"q")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def ref_import_cpu_s(timeout):
    """CPU seconds of one reference import, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", os.path.abspath(__file__), "import"],
        capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise ProbeFailed("reference import exited %d:\n%s"
                          % (proc.returncode, proc.stderr[-2000:]))
    return float(proc.stdout)


def _import():
    start = time.process_time()
    for name in REF_MODULES:
        __import__(name)
    print(repr(time.process_time() - start))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        sys.exit(_serve(int(sys.argv[2])))
    sys.exit(_import())
