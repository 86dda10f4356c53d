"""octoplan benchmark: one workload per run, outputs checked, one JSON result.

    python3 benchmark/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the run measures passes of the
workload with tracing off and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead. Every time
is scaled to reference speed by the kernel samples ``refclock`` takes
during the same stretch of work. Every pass is checked; the run exits 1
when a check failed. The last line of standard output is the result
object, the line before it a report with the environment, sample counts
and the workload's own named metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import refclock
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least SETUP_MIN times and until SETUP_BUDGET_S seconds
# went into it, so a set-up of a few milliseconds still gets a steady median.
SETUP_MIN = 3
SETUP_MAX = 25
SETUP_BUDGET_S = 1.0
# Stop starting passes once this much time has been measured, so a slow
# commit still ends well within the per-run limit.
MEASURE_CAP_S = 120.0


def load_package():
    """Import octoplan from this checkout's src, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import octoplan
    if Path(octoplan.__file__).resolve().parent.parent != src:
        raise ImportError(f"octoplan imported from {octoplan.__file__}")
    return numpy


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def one_pass(workload, state, traced: bool):
    # Start every pass from the same collector state, so garbage left by
    # set-up or an earlier pass is not collected on this pass's clock.
    gc.collect()
    cap = workload.new_capture()
    tracer = Tracer()
    for entry in workload.probes(cap):
        tracer.wrap(*entry)
    if traced:
        for entry in workload.layers():
            tracer.wrap(*entry)
    first = refclock.mark()
    try:
        result = workload.run_pass(state, cap, tracer)
    finally:
        tracer.restore()
    scale = refclock.scale(first, refclock.mark())
    result.kind = "traced" if traced else "untraced"
    result.tracer = tracer if traced else None
    result.scale = scale
    result.raw_wall = result.wall
    result.wall *= scale
    result.op_times = [t * scale for t in result.op_times]
    result.samples = {k: [t * scale for t in v]
                      for k, v in result.samples.items()}
    return result


def measure(workload, state, seconds: float, trace: bool) -> list:
    """Whole passes until the measured time is nearest to seconds.

    Untraced runs make at least two passes. Traced runs repeat an untraced
    pass followed by a traced one, at least once.
    """
    passes = []
    units = []
    kinds = (False, True) if trace else (False,)
    while True:
        unit = 0.0
        for traced in kinds:
            result = one_pass(workload, state, traced)
            workload.check(result, first=not passes)
            passes.append(result)
            unit += result.raw_wall
        units.append(unit)
        measured = sum(units)
        if len(units) >= (1 if trace else 2) and \
                measured >= seconds - statistics.median(units) / 2:
            break
        if measured >= MEASURE_CAP_S:
            break
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        numpy = load_package()
        from workloads import PER_LAYER, WORKLOADS, layer_metrics
    except ImportError as exc:
        print(f"benchmark: cannot import octoplan from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with refclock.sampling():
            workload = WORKLOADS[args.workload](args.seed, str(workdir))
            setup_times = []
            first = refclock.mark()
            while len(setup_times) < SETUP_MIN or (
                    sum(setup_times) < SETUP_BUDGET_S
                    and len(setup_times) < SETUP_MAX):
                t0 = refclock.now()
                state = workload.setup()
                setup_times.append(refclock.now() - t0)
            setup_scale = refclock.scale(first, refclock.mark())
            passes = measure(workload, state, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if p.kind == "untraced"]
    traced = [p for p in passes if p.kind == "traced"]
    attempted = sum(p.ops for p in passes)
    failed = sum(len(p.failed) for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    op_times = [t for p in untraced for t in p.op_times]

    named = {
        "setup_s": (statistics.median(setup_times) * setup_scale, "s",
                    len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
        "ok_op_share": ((attempted - failed) / attempted, "ratio", attempted),
        "work_per_s": (workload.work_per_s(untraced), "1/s", len(untraced)),
        "op_s_p50": (statistics.median(op_times), "s", len(op_times)),
    }
    end_to_end = list(named)
    named.update(workload.report(untraced))

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "git_revision": git_revision(),
        },
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "walls_s": [p.wall for p in passes],
                   "raw_walls_s": [p.raw_wall for p in passes],
                   "scales": [p.scale for p in passes]},
        "reference": {"interval_s": refclock.INTERVAL_S,
                      "nominal_s": refclock.NOMINAL_S,
                      "kernel_s_mean": statistics.fmean(refclock.samples),
                      "samples": len(refclock.samples),
                      "setup_scale": setup_scale},
        "named_metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in named.items()},
        "problems": problems,
    }
    report.update(workload.extra())

    if args.trace:
        seconds = {name for name, unit, _ in PER_LAYER if unit == "s"}
        per_pass = []
        for p in traced:
            values, idle = layer_metrics(p.tracer)
            per_pass.append(({k: v * p.scale if k in seconds else v
                              for k, v in values.items()}, idle))
        idle = sorted(set.intersection(*(set(i) for _, i in per_pass)))
        metrics = {
            name: {"value": statistics.median(v[name] for v, _ in per_pass),
                   "unit": unit}
            for name, unit, _ in PER_LAYER}
        overhead = (statistics.median(p.wall for p in traced)
                    / statistics.median(p.wall for p in untraced) - 1.0)
        metrics["trace.overhead_share"] = {"value": overhead,
                                           "unit": "ratio"}
        report["idle_metrics"] = idle
        report["idle_wrappers"] = sorted(
            key for key in traced[0].tracer.calls
            if all(p.tracer.calls[key] == 0 for p in traced))
    else:
        metrics = {name: {"value": named[name][0], "unit": named[name][1]}
                   for name in end_to_end}

    for name, (value, unit, samples) in named.items():
        print(f"{name:26s} {value!r:>24} {unit:6s} n={samples}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
