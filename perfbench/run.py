"""Benchmark of the vkribbon laboratory: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload plate_flow --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py                # every workload, one fresh process each

Run from the root of a checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last stdout line is a JSON object whose
metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced run.  The full record (provenance, sample
counts, percentiles used, gate outcomes) goes to
``perfbench/results/<workload>-seed<n>-trace<t>.json``.  See
``perfbench/README.md`` for the metric and workload definitions.
"""

from __future__ import annotations

import os

# pinned before numpy loads its BLAS/OpenMP runtimes
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import Tally, latency_summary  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("plate_flow", "ribbon_tau_study", "recovery_gamma")
DEFAULT_SECONDS = 25
# a run stops adding rounds once it has used this many times --seconds
OVERRUN_FACTOR = 3
# set-up is sampled on its own for at least this long (and 9 times)
SETUP_SAMPLE_S = 1.0
MIN_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 900

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; the benchmark also
    runs in exported trees that have none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def median(values) -> float:
    return float(statistics.median(values))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def record_operations(tally, clock, done_before: int, failed_before: int) -> None:
    for _ in range(len(clock.latencies) - done_before):
        tally.record("operation", True)
    for _ in range(clock.failures - failed_before):
        tally.record("operation", False, "StepFailure")


def measure(wl, repeats: int, tally, deadline: float) -> dict:
    """Untraced run: set-up samples, then ``repeats`` set-up + solve rounds."""
    clock = wl.clock_type()
    setup_times, solve_times = [], []
    with Patches() as patches:
        clock.install(patches)
        stop = time.perf_counter() + SETUP_SAMPLE_S
        while len(setup_times) < MIN_SETUP_SAMPLES or time.perf_counter() < stop:
            setup_times.append(timed(wl.setup)[1])
        for _ in range(repeats):
            if solve_times and time.perf_counter() > deadline:
                break
            state, dt = timed(wl.setup)
            setup_times.append(dt)
            done, failed = len(clock.latencies), clock.failures
            result, dt = timed(wl.solve, state)
            solve_times.append(dt)
            record_operations(tally, clock, done, failed)
            wl.check(state, result, tally)
    latencies_ms = [1e3 * t for t in clock.latencies]
    ops = latency_summary(latencies_ms)
    return {
        "metrics": {
            "setup_s": median(setup_times),
            "solve_s": median(solve_times),
            "op_ms_p50": ops["p50"],
            "op_ms_tail": ops["tail"],
        },
        "samples": {
            "setup_s": len(setup_times),
            "solve_s": len(solve_times),
            "op_ms_p50": ops["samples"],
            "op_ms_tail": ops["samples"],
        },
        "tail_percentile": ops["tail_percentile"],
        "rounds": len(solve_times),
        "newton_iters": sum(r.newton_iters for r in clock.reports),
        "setup_times": setup_times,
        "solve_times": solve_times,
        "op_latencies_ms": latencies_ms,
    }


def measure_traced(wl, repeats: int, tally, deadline: float, spans_path: Path) -> dict:
    """Alternate untraced and traced set-up + solve rounds.

    Per-layer values are medians over the traced rounds; the tracing
    overhead is the median traced wall time minus the median untraced one.
    """
    import layers

    clock = wl.clock_type()
    tracer = Tracer()
    plain, traced, per_round = [], [], []
    with Patches() as patches:
        clock.install(patches)
        for _ in range(max(1, repeats // 2)):
            if per_round and time.perf_counter() > deadline:
                break
            t0 = time.perf_counter()
            state = wl.setup()
            done, failed = len(clock.latencies), clock.failures
            result = wl.solve(state)
            plain.append(time.perf_counter() - t0)
            record_operations(tally, clock, done, failed)
            wl.check(state, result, tally)

            tracer.clear()
            done, failed = len(clock.latencies), clock.failures
            with Patches() as tracing:
                layers.install(tracer, tracing)
                t0 = time.perf_counter()
                state = wl.setup()
                result = wl.solve(state)
                traced.append(time.perf_counter() - t0)
            record_operations(tally, clock, done, failed)
            wl.check(state, result, tally)
            per_round.append(
                layers.layer_metrics(
                    tracer.spans,
                    tracer.counters,
                    clock.reports[done:],
                    clock.failures - failed,
                )
            )
    tracer.write_csv(spans_path)
    # counts repeat exactly between rounds; times take the median
    values = {}
    for name, _, _ in layers.PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = median(traced) - median(plain)
            continue
        first = per_round[0][name]
        values[name] = first if isinstance(first, int) else median([r[name] for r in per_round])
    return {
        "metrics": values,
        "rounds": len(traced),
        "untraced_wall_s": plain,
        "traced_wall_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import vkribbon
    except ImportError as exc:
        print(f"perfbench: cannot import vkribbon from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(vkribbon.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: vkribbon resolved outside {SRC}: {vkribbon.__file__}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    info = provenance()
    workdir = RESULTS / "work" / args.workload
    wl = WORKLOADS[args.workload](args.seed, workdir)
    # a fixed round count keeps the sample count, and so the tail
    # percentile, the same from run to run
    repeats = max(1, round(args.seconds / wl.nominal_repeat_s))
    tally = Tally()
    wl.probe(tally)
    wl.warm_up()
    deadline = time.perf_counter() + OVERRUN_FACTOR * args.seconds
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record = measure_traced(wl, repeats, tally, deadline, RESULTS / f"{args.workload}-seed{args.seed}-spans.csv")
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        record = measure(wl, repeats, tally, deadline)
        record["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["samples"]["peak_rss_mb"] = 1
        units = dict(END_TO_END)
    info["loadavg_end"] = list(os.getloadavg())
    record.update(
        {
            "workload": args.workload,
            "why": wl.why,
            "operation": wl.op,
            "seed": args.seed,
            "amplitude_factors": [float(x) for x in wl.factors],
            "seconds": args.seconds,
            "repeats": repeats,
            "trace": args.trace,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_share": tally.share,
            "failures": tally.failures,
            "correct": tally.correct,
            "provenance": info,
        }
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_table(record, units)
    line = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


def print_table(record: dict, units: dict) -> None:
    print(
        f"# {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"repeats={record['repeats']}  operation: {record['operation']}"
    )
    samples = record.get("samples", {})
    for name, value in record["metrics"].items():
        extra = ""
        if name in samples:
            extra = f"n={samples[name]}"
            if name == "op_ms_tail":
                extra += f" p{record['tail_percentile']:g}"
        print(f"  {name:28s} {value:>16.6g} {units[name]:6s} {extra}")
    print(
        f"  {'failed_share':28s} {record['failed_share']:>16.6g} {'ratio':6s} "
        f"{record['failed']}/{record['attempted']}"
    )
    for failure in record["failures"]:
        print(f"  failed: {failure}")
    p = record["provenance"]
    print(
        f"  sha={p['git_sha'][:12]} python={p['python']} numpy={p['numpy']} scipy={p['scipy']} "
        f"nproc={p['nproc']} load={p['loadavg_start'][0]:.2f}->{p['loadavg_end'][0]:.2f}"
    )


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and cache state are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=0, help="0 keeps the acceptance fixtures")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
