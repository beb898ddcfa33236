"""Benchmark of the sasakijoin CLI: end-to-end timings or a per-layer trace.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from src/.  One client
drives `sasakijoin.cli.main(argv)` in this process as a closed loop: the next
item starts when the previous one has returned.  stdout is captured in
memory, so no file is written.  The run cycles through the seed's pass of
items (workloads.make_pass) until --seconds have gone by and every item has
run at least once.

Item times are divided by a calibration kernel (a fixed Horner loop over
fractions.Fraction, timed after every item), because on a shared host the
same work can take 1.4x longer from one minute to the next while its ratio to
the kernel moves much less.  `_cal` metrics are in kernel units.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
tracer.py.  Every answer is checked after the timed loop, against reference/
and, for profiles, with sympy.  The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_RUNS = 7     # fresh interpreters timed for setup_s, spread over the run
TAIL_BEYOND = 10   # items of a pass beyond the tail percentile
# kernel time after an item, as a share of the item's time: a longer item
# gets a longer, steadier kernel sample
KERNEL_SHARE = 0.02

# operands of 40 to 64 bits, like the brackets and coefficients the program
# works with, so that the kernel slows down on a busy host as the items do
_KERNEL_COEFFS = [Fraction((-1) ** i * (2 ** 61 + 2 * i + 3), 3 ** 40 + 3 * i + 7)
                  for i in range(12)]
_KERNEL_POINTS = [Fraction(2 ** 40 + 2 * j + 1, 2 ** 41 + 4 * j + 9) for j in range(6)]


def kernel():
    """Fixed Fraction work, stdlib only: Horner at six points."""
    total = Fraction(0)
    for t in _KERNEL_POINTS:
        acc = Fraction(0)
        for coeff in reversed(_KERNEL_COEFFS):
            acc = acc * t + coeff
        total += acc
    return total


def kernel_seconds(budget=0.0):
    """Median kernel time over at least three runs and about `budget` seconds."""
    times = []
    spent = 0.0
    while len(times) < 3 or spent < budget:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def run_cli(argv):
    """(stdout, None) on exit 0, else (None, reason)."""
    from sasakijoin.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an item that raises counts as failed
        return None, f"raised {type(exc).__name__}: {exc}"
    if code != 0:
        return None, f"exit {code}: {err.getvalue().strip()[:200]}"
    return out.getvalue(), None


def run_item(item):
    """Run one item's CLI calls; (seconds, outputs, failure reason or None)."""
    outputs = []
    start = time.perf_counter()
    for argv in item:
        text, reason = run_cli(argv)
        if reason:
            return time.perf_counter() - start, outputs, reason
        outputs.append(text)
    return time.perf_counter() - start, outputs, None


def setup_seconds(workload, seed):
    """One fresh interpreter, from start to first item ready: import plus inputs."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import sasakijoin.cli, workloads; "
            "workloads.make_pass(sys.argv[3], int(sys.argv[4]))")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, SRC, HERE, workload, str(seed)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Run:
    """Samples, answers and failures of one benchmark run."""

    def __init__(self, items):
        self.items = items
        self.seconds = [[] for _ in items]
        self.cal = [[] for _ in items]
        self.kernels = [kernel_seconds()]
        self.answers = {}    # item index -> (meanings, profile documents)
        self.failures = {}   # item index -> first failure reason

    def step(self, index):
        """Run item `index` once, then time the kernel; returns the item's seconds."""
        elapsed, outputs, reason = run_item(self.items[index])
        self.kernels.append(kernel_seconds(KERNEL_SHARE * elapsed))
        self.seconds[index].append(elapsed)
        self.cal[index].append(elapsed / ((self.kernels[-2] + self.kernels[-1]) / 2))
        reason = reason or self._digest(index, outputs)
        if reason:
            self.failures.setdefault(index, reason)
        return elapsed

    def _digest(self, index, outputs):
        """Keep the meaning of an item's first run; later runs must match it."""
        import answers

        try:
            docs = [json.loads(text) for text in outputs]
            meaning = [answers.summarize(doc) for doc in docs]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable document: {exc}"
        reason = answers.consistency(docs)
        if reason:
            return reason
        if index not in self.answers:
            self.answers[index] = (meaning, [d for d in docs if d["command"] == "profile"])
        elif self.answers[index][0] != meaning:
            return "answer changed between runs of one item"
        return None

    @property
    def attempted(self):
        return sum(len(s) for s in self.seconds)

    @property
    def failed(self):
        return sum(len(self.seconds[index]) for index in self.failures)

    def check(self, workload):
        """Compare each item with the reference; re-check profiles with sympy."""
        import answers
        import workloads

        reference = workloads.load_reference(workload)["answers"]
        for index, item in enumerate(self.items):
            if index in self.failures:
                continue
            meaning, profiles = self.answers[index]
            expected = reference.get(workloads.item_key(item))
            if expected is None:
                self.failures[index] = "no reference answer"
                continue
            problems = [f"{argv[0]}: {reason}"
                        for argv, ref, got in zip(item, expected, meaning)
                        if (reason := answers.agreement(ref, got, argv[0]))]
            problems = problems or [f"profile: {reason}" for doc in profiles
                                    if (reason := answers.profile_residual(doc))]
            if problems:
                self.failures[index] = problems[0]


def measure_plain(run, seconds, workload, seed):
    """Cycle through the items until `seconds` are up; returns setup times.

    Fresh interpreters for setup_s are started between items, spread over
    the run, so they see the same host conditions as the items.
    """
    setup_seconds(workload, seed)   # warms the bytecode cache; not counted
    setup = []
    start = time.perf_counter()
    for k in itertools.count():
        run.step(k % len(run.items))
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_RUNS and elapsed >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_seconds(workload, seed))
        if k + 1 >= len(run.items) and elapsed >= seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(setup_seconds(workload, seed))
    return setup


def measure_traced(run, seconds, tracer):
    """Whole passes: plain, traced, traced, then alternating, until `seconds`.

    Returns {traced: [pass seconds]} and the tracer's snapshot of each traced
    pass.  Two traced passes always run, so their counts can be compared.
    """
    walls = {False: [], True: []}
    snapshots = []
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        traced = n in (1, 2) or (n > 2 and n % 2 == 0)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall = sum(run.step(index) for index in range(len(run.items)))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            snapshots.append(tracer.snapshot())
        walls[traced].append(wall)
        if len(snapshots) >= 2 and time.perf_counter() >= deadline:
            return walls, snapshots


def percentile(values, share):
    """The value below which `share` of the values lie, interpolated."""
    ordered = sorted(values)
    rank = share * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(run, setup, peak_rss_mb):
    """The end-to-end metrics and, for people, raw-time diagnostics.

    total_cal sums each item's median.  The median and tail are taken over
    all samples.  The tail percentile leaves TAIL_BEYOND of a pass's items
    above it; it is fixed by the pass size, not by how many samples a run
    got, so a faster commit is compared at the same percentile.
    """
    samples = [x for cal in run.cal for x in cal]
    tail_share = max(len(run.items) - TAIL_BEYOND, 0) / len(run.items)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "total_cal": (sum(statistics.median(cal) for cal in run.cal), "kernel"),
        "item_p50_cal": (statistics.median(samples), "kernel"),
        "item_tail_cal": (percentile(samples, tail_share), "kernel"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - run.failed / run.attempted, "frac"),
    }
    diagnostics = {
        "run.wall_s": sum(map(sum, run.seconds)),
        "run.item_p50_ms": 1000 * statistics.median(x for s in run.seconds for x in s),
        "run.items": len(run.items),
        "run.samples": run.attempted,
        "item_tail_cal.percentile": round(100 * tail_share, 1),
        "item_tail_cal.samples": len(samples),
        "setup_s.samples": setup,
    }
    return metrics, diagnostics


def per_layer(run, walls, snapshots):
    """Per-layer metrics, and the deterministic ones that differed between passes."""
    import tracer

    metrics = {}
    for name, unit in tracer.METRICS:
        values = [snap[name] for snap in snapshots]
        timed = name.endswith(".self_s") and None not in values
        metrics[name] = (statistics.median(values) if timed else values[0], unit)
    overhead = statistics.median(walls[True]) / statistics.median(walls[False])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["calib.kernel_ms"] = (1000 * statistics.median(run.kernels), "ms")
    unsteady = [name for name in tracer.DETERMINISTIC
                if any(snap[name] != snapshots[0][name] for snap in snapshots)]
    return metrics, unsteady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True   # write nothing outside the checkout

    if not os.path.isfile(os.path.join(SRC, "sasakijoin", "__init__.py")):
        sys.stderr.write(f"perfbench: no package at {SRC}/sasakijoin; "
                         "run from the root of a checkout of the repository\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_ms": 1000 * kernel_seconds(),
        "loadavg": os.getloadavg(),
    }

    import sasakijoin.cli  # noqa: F401  (loads every module before tracing)
    import tracer

    run = Run(workloads.make_pass(args.workload, args.seed))
    if args.trace:
        walls, snapshots = measure_traced(run, args.seconds, tracer.Tracer())
    else:
        setup = measure_plain(run, args.seconds, args.workload, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    run.check(args.workload)
    if args.trace:
        metrics, unsteady = per_layer(run, walls, snapshots)
        diagnostics = {"trace.passes": len(snapshots), "trace.unsteady": unsteady}
    else:
        metrics, diagnostics = end_to_end(run, setup, peak_rss_mb)
        unsteady = []

    print(json.dumps({"env": env, **diagnostics}))
    for index, reason in sorted(run.failures.items()):
        print(f"FAILED {workloads.item_key(run.items[index])}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:55s} {value!s:>24} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not unsteady,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
