"""btem benchmark: one workload per run, or all three with --workload all.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics, with the tracer off.
With --trace 1 it measures the same operations untraced, then a fixed
number of steps traced, and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every check a workload makes counts into "failed"; if any fails the
command exits 1 after printing.  Set-up failures (btem not importable
from ./src) exit 2 without a result.  The machine block, the metrics
under their descriptive names and, for traced runs, the spans are
written under perfbench/out/.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# name, unit, better, regression bound (share of the parent's median).
# Timings get the widest bound allowed: on a shared 2-vCPU host the
# median of one run drifts by up to 10% between runs minutes apart.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("primary_ms", "ms", "lower", 0.25),
    ("secondary_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("quality_rate", "ratio", "higher", 0.05),
)

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import btem; "
                "print(time.perf_counter() - t)")


def _import_btem():
    """Import btem from this checkout's src/, never from elsewhere."""
    if not (SRC / "btem" / "__init__.py").is_file():
        print(f"error: {SRC / 'btem'} not found; run from a btem checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import btem
    if Path(btem.__file__).resolve().parent != SRC / "btem":
        print(f"error: imported btem from {btem.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _cold_import_s():
    """Seconds to import btem in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def _timed_setup(workload):
    """Set up SETUP_REPEATS times; return the median of import + set-up."""
    totals = []
    for _ in range(SETUP_REPEATS):
        import_s = _cold_import_s()
        t0 = time.perf_counter()
        workload.setup()
        totals.append(import_s + time.perf_counter() - t0)
    return statistics.median(totals)


def _measure(workload, seconds, min_steps, first_step=0):
    """Run steps closed-loop; start another only if it should end in time.

    Returns the samples per operation ("A", "B") in seconds, and the
    number of steps run.
    """
    samples = {"A": [], "B": []}
    start = time.perf_counter()
    i = first_step
    while True:
        t0 = time.perf_counter()
        for op, value in workload.step(i):
            samples[op].append(value)
        i += 1
        now = time.perf_counter()
        if i - first_step >= min_steps and now - start + (now - t0) > seconds:
            return samples, i


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_ms(values):
    return statistics.median(values) * 1e3 if values else float("nan")


def run_workload(name, seed, seconds, trace, tiny):
    """Run one workload; return (result line, report) as dicts."""
    # These modules import btem, so they load only after _import_btem.
    from layers import layer_metrics
    from machine import machine_block
    from spans import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed, tiny, workdir)
        setup_s = _timed_setup(workload)
        if not trace:
            samples, _ = _measure(workload, seconds, workload.min_steps)
            metrics = {
                "setup_s": setup_s,
                "primary_ms": _median_ms(samples["A"]),
                "secondary_ms": _median_ms(samples["B"]),
                "peak_rss_mb": _peak_rss_mb(),
                "quality_rate": workload.quality(),
            }
            units = {m[0]: m[1] for m in END_TO_END}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        else:
            plain, steps = _measure(workload, seconds / 2, 1)
            with Tracer() as tracer:
                traced, _ = _measure(workload, 0, workload.trace_steps, steps)
            overhead = _median_ms(traced["A"]) / _median_ms(plain["A"]) - 1.0
            metrics = layer_metrics(tracer, workload, overhead)
            tracer.write(OUT / f"spans-{name}.jsonl.gz")
            samples = plain
        named = workload.named(samples)
        named["setup_s"] = (setup_s, "s")
        named["peak_rss_mb"] = (_peak_rss_mb(), "MiB")
        named["error_rate"] = (workload.failed / max(workload.attempted, 1), "ratio")
        result = {
            "correct": workload.failed == 0 and workload.attempted > 0,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": metrics,
        }
        report = {
            "workload": name,
            "trace": trace,
            "seconds": seconds,
            "machine": machine_block(ROOT, seed),
            "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "samples": {op: len(v) for op, v in samples.items()},
            "problems": workload.problems,
        }
        return result, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_report(report):
    for key, value in report["machine"].items():
        print(f"machine {key} {value}")
    for name, entry in report["named"].items():
        print(f"{report['workload']} {name} {entry['value']} {entry['unit']}")
    for problem in report["problems"]:
        print(f"FAILED {report['workload']}: {problem}", file=sys.stderr)


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            sys.exit(2)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        report = json.loads((OUT / _report_name(name, args)).read_text())
        for key, entry in report["named"].items():
            metrics[f"{name}.{key}"] = entry
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _report_name(name, args):
    return f"report-{name}-seed{args.seed}-trace{args.trace}.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fit-large", "cli-io", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _import_btem()

    if args.workload == "all":
        result = run_all(args)
    else:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.tiny)
        report["result"] = result
        (OUT / _report_name(args.workload, args)).write_text(
            json.dumps(report, indent=2) + "\n")
        _print_report(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
