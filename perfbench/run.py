"""Benchmark runner for piercesum.

    python3 perfbench/run.py --workload {points,integral,graph} \
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy.  The runner builds the
workload's inputs from the seed, repeats the workload's fixed job as
often as fits in ``--seconds`` (at least once), checks the output of every
operation, and prints a report followed by one JSON result line.

``--trace 0`` reports the end-to-end metrics: the job's wall and CPU time
in units of a reference kernel timed in between the library's steps (see
``speed.py``), the set-up time and the peak memory.  ``--trace 1`` alternates
untraced and traced jobs and reports the time spent in each library call,
the work counts, and the tracing overhead; the spans of the last traced
job are written to ``perfbench/traces/``.  ``--tiny`` shrinks every size
for the smoke test; its timings mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter, process_time, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11
#: idle time between set-up probes, so that they meet more of the host's
#: fast and slow stretches than a burst of probes would
SETUP_GAP_S = 0.25

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Library calls timed by the traced run; each is reported as "<name>_s".
TRACED_CALLS = (
    "core.expand",
    "sequences.phi",
    "errorsum.esum",
    "errorsum.jumps_at",
    "errorsum.cylinder_extrema",
    "intervals.fundamental_interval",
    "analysis.ivt_root",
    "analysis.integrate_esum",
    "analysis.box_count_empirical",
    "analysis.box_count_lambda",
    "analysis.lambda_cover_counts",
    "analysis.factorial_bounds_check",
    "analysis.hausdorff_cover_sum",
    "analysis.variation_over_partition",
    "analysis.count_bounded_products",
    "cli.graph",
)
WORK_COUNTS = (
    "core.digits",
    "analysis.ivt_bracket_order",
    "analysis.integral_grid_points",
    "analysis.box_cells",
    "cli.graph_bytes",
)
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in TRACED_CALLS},
    **{name: "count" for name in WORK_COUNTS},
    "trace_overhead_s": "s",
}


def children_cpu_seconds() -> float:
    """User plus system time of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    return process_time() + children_cpu_seconds()


def peak_rss_mib() -> float:
    """The larger of this process's and its children's peak RSS (Linux reports KiB)."""
    kib = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


class Job:
    """Timings and outputs of one pass over a workload's operations.

    The sampler's handler time is taken out of every operation's wall and
    CPU time.  ``kernel`` is the mean reference-kernel time during the job;
    ``wall_kernel`` is the kernel time that the job's wall time follows:
    the slowest CPU's if worker processes ran, else the mean.
    """

    def __init__(self, ops, layers, sampler, tracer=None):
        self.latencies = array("d")  # wall seconds per operation, in op order
        self.outputs = []
        self.cpu = 0.0
        sampler.sample()  # at least two samples, however short the job
        first = len(sampler.kernel_cpu) - 1
        children0 = children_cpu_seconds()
        with sampler:
            for op in ops:
                span = tracer.begin_op() if tracer else None
                c0 = cpu_seconds()
                t0 = perf_counter()
                h0, hc0 = sampler.wall, sampler.cpu
                try:
                    out = op.run(layers)
                except Exception as exc:  # a raising operation is a failed one; keep going
                    out = exc
                h1, hc1 = sampler.wall, sampler.cpu
                t1 = perf_counter()
                self.cpu += cpu_seconds() - c0 - (hc1 - hc0)
                if tracer:
                    tracer.end_op(span, op.label, t0, t1)
                self.latencies.append(t1 - t0 - (h1 - h0))
                self.outputs.append(out)
        sampler.sample()
        self.wall = sum(self.latencies)
        self.kernel, slowest = sampler.kernel_times(first)
        self.wall_kernel = slowest if children_cpu_seconds() > children0 else self.kernel


def check_job(ops, job, failures: list[str]) -> int:
    """Check every output; append a message per failed operation and return how many failed."""
    failed = 0
    for op, out in zip(ops, job.outputs):
        if isinstance(out, Exception):
            problem = f"raised {out!r}"
        else:
            try:
                op.check(out)
                continue
            except Exception as exc:  # a check that raises counts the operation as failed
                problem = str(exc)
        failed += 1
        failures.append(f"{op.label}: {problem}")
    return failed


def measure_setup(args) -> float:
    """Median time from launch to exit of fresh interpreters that only import the package and build the inputs."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for i in range(SETUP_PROBES):
        if i:
            sleep(SETUP_GAP_S)
        # a piped stdout makes run() wake on the probe's exit instead of
        # polling for it in steps of up to 50 ms
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def provenance(loadavg) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "loadavg_at_start": loadavg,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("points", "integral", "graph"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "piercesum" / "__init__.py").is_file():
        print(f"error: no piercesum sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from spans import Tracer
    from speed import Sampler

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    sizes = workloads.TINY if args.tiny else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, sizes, None)
        return 0

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        wl = cls(args.seed, sizes, workdir)
        ops = wl.ops()
        plain = workloads.layer_table()
        sampler = Sampler()
        failures: list[str] = []
        attempted = failed = 0
        plain_jobs, traced_jobs, tracers, counts = [], [], [], None
        begin, round_s = perf_counter(), 0.0
        # start another round only if it should end within --seconds
        while not plain_jobs or perf_counter() - begin + round_s <= args.seconds:
            round_start = perf_counter()
            plain_jobs.append(Job(ops, plain, sampler))
            failed += check_job(ops, plain_jobs[-1], failures)
            attempted += len(ops)
            if args.trace:
                tracer = Tracer()
                traced_jobs.append(Job(ops, workloads.layer_table(tracer), sampler, tracer))
                tracers.append(tracer)
                failed += check_job(ops, traced_jobs[-1], failures)
                attempted += len(ops)
                try:
                    counts = wl.counts(traced_jobs[-1].outputs)
                except Exception:  # outputs of failed operations (already counted) carry no counts
                    counts = {}
                traced_jobs[-1].outputs = None
            plain_jobs[-1].outputs = None
            round_s = perf_counter() - round_start

    med = statistics.median
    if args.trace:
        metrics = {f"{name}_s": med([t.busy_seconds().get(name, 0.0) for t in tracers]) for name in TRACED_CALLS}
        metrics.update({name: counts.get(name, 0) for name in WORK_COUNTS})
        # each traced job against the untraced job of its round, rescaled to the traced job's host speed
        metrics["trace_overhead_s"] = med(
            [t.wall - p.wall * t.kernel / p.kernel for p, t in zip(plain_jobs, traced_jobs)]
        )
        units = PER_LAYER_UNITS
        tracers[-1].write(HERE / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "wall_ref": med([j.wall / j.wall_kernel for j in plain_jobs]),
            "cpu_ref": med([j.cpu / j.kernel for j in plain_jobs]),
            "peak_rss_mib": peak_rss_mib(),  # before the set-up probes add children
        }
        metrics["setup_s"] = measure_setup(args)
        units = END_TO_END_UNITS

    print(f"provenance: {json.dumps(provenance(loadavg))}")
    print(f"workload: {args.workload} seed={args.seed}")
    print(f"job walls (s): untraced {[j.wall for j in plain_jobs]} traced {[j.wall for j in traced_jobs]}")
    print(f"job kernels (ms): untraced {[j.kernel * 1e3 for j in plain_jobs]}")
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    extras = {"fail_ratio": (failed / attempted, "1")}
    if not args.trace:
        extras.update(
            wall_s=(med([j.wall for j in plain_jobs]), "s"),
            cpu_s=(med([j.cpu for j in plain_jobs]), "s"),
            kernel_ms=(med([j.kernel for j in plain_jobs]) * 1e3, "ms"),
        )
        extras.update(wl.extra_metrics(plain_jobs))
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    for name, (value, unit) in extras.items():
        print(f"  {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
