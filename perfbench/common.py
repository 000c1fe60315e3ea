"""Paths, environment hygiene and statistics shared by the workloads."""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BUDGET_VAR = "CHAIRCODES_BUDGET"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def clean_environment() -> None:
    """Drop the budget override and pin native thread pools to one thread.

    Runs before the library (and numpy) is imported; subprocesses inherit it.
    """
    os.environ.pop(BUDGET_VAR, None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(BUDGET_VAR, None)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chaircodes").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def environment_record(seed: int) -> dict:
    import numpy

    from chaircodes.budget import resolve_budget

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "budget": resolve_budget(),
        "budget_env": os.environ.get(BUDGET_VAR),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in 0..100) of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


@dataclass
class RunResult:
    """What one timed loop of a workload produced."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    op_times: list = field(default_factory=list)  # seconds per timed operation
    op_starts: list = field(default_factory=list)  # clock reading at the start of each
    passes: list = field(default_factory=list)  # (start, end, slowest op) of each complete pass
    rate_work: int = 0  # units of work behind ops_per_s
    rate_windows: list = field(default_factory=list)  # (start, seconds) that work took
    named: dict = field(default_factory=dict)  # workload-specific metrics: name -> (value, unit)
    direct: dict = field(default_factory=dict)  # calls the workload made itself
    expected: dict = field(default_factory=dict)  # traced counts the workload predicts
    layer: dict = field(default_factory=dict)  # per-layer metrics measured without the tracer
    child_spans: list = field(default_factory=list)  # (process, spans) from traced children
    info: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None  # taken after a fixed amount of work, or by children

    @property
    def ops_per_s(self) -> float:
        return self.rate_work / sum(seconds for _, seconds in self.rate_windows)

    @property
    def pass_times(self) -> list[float]:
        return [end - start for start, end, _ in self.passes]

    def timed(self, start: float, seconds: float) -> None:
        self.op_starts.append(start)
        self.op_times.append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def pass_fits(res: RunResult, t_end: float) -> bool:
    """Whether another pass, as long as the median so far, ends by t_end.

    The first pass always runs, so a run measures at least one.
    """
    return not res.passes or time.perf_counter() + median(res.pass_times) <= t_end


def run_child(args: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run one subprocess to completion; return (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


# -- exact helpers independent of the library ---------------------------------

def chair_points(sides, notch) -> list[tuple[int, ...]]:
    """Integer points of a discrete chair: the box minus the far-corner notch."""
    import itertools

    free = [l - k for l, k in zip(sides, notch)]
    return [p for p in itertools.product(*[range(l) for l in sides])
            if any(x < f for x, f in zip(p, free))]


def chair_generator(sides, notch) -> list[list]:
    """The paper's tiling lattice basis: sides on the diagonal, -k_{i+1} beside it."""
    n = len(sides)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] += sides[i]
        rows[i][(i + 1) % n] -= notch[(i + 1) % n]
    return rows


def solve_rows(rows, p) -> list[Fraction] | None:
    """Coefficients y with y @ rows = p over the rationals (None if singular)."""
    n = len(rows)
    a = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(p[j])] for j in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][n] / a[i][i] for i in range(n)]


def determinant(rows) -> Fraction:
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


class SpeedProbe:
    """Samples how fast this machine runs exact Python arithmetic during a run.

    The host of a small VM is shared, and its speed drifts by 20% or more from
    one run to the next, for every program alike.  While installed, a timer
    signal every INTERVAL_S seconds runs a fixed 5x5 Fraction determinant
    written here, independent of the library, and records how long it took.
    The handler runs between bytecodes of whatever is executing, so the
    samples cover the whole run, long library calls included.

    slowdown is the mean sample over REFERENCE_S: above 1 the machine ran
    slower than the reference during the run.  Dividing a measured time by it
    gives the time at the reference speed; a library change moves that value
    while machine drift mostly does not.  slowdown_between does the same for
    the samples taken inside one pass or operation.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 300e-6
    MATRIX = ((7, -3, 2, 0, 5), (1, 4, -2, 3, 0), (0, 2, 9, -1, 4), (3, 0, 1, 6, -2), (-4, 1, 0, 2, 8))

    def __init__(self):
        self.samples = array("d")
        self.started = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        determinant(self.MATRIX)
        self.samples.append(time.perf_counter() - start)
        self.started.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / self.REFERENCE_S

    def slowdown_between(self, start: float, end: float, default: float) -> float:
        """Slowdown from the samples started in [start, end]; default if none."""
        lo = bisect.bisect_left(self.started, start)
        hi = bisect.bisect_right(self.started, end)
        if lo == hi:
            return default
        return sum(self.samples[lo:hi]) / (hi - lo) / self.REFERENCE_S


def dump_json_line(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()
