"""Benchmark for promptpress: train, compress and eval, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload train-synth --seed 1 --seconds 15 --trace 0

Each workload drives one command of ``promptpress.cli.main`` in-process,
as a closed loop with one client: the next invocation starts when the
previous one has returned. With ``--trace 0`` it invokes the command
for ``--seconds``, pairing every invocation with the same one run by the
frozen baseline (:mod:`baseline`), and reports the end-to-end metrics
from the program-to-baseline ratios; with ``--trace 1`` it runs the
command untraced and under :class:`tracing.Tracer` and reports the
per-layer metrics. The last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS, known here before numpy is imported.
WORKLOAD_NAMES = ("train-synth", "compress-long", "eval-zipf")
# Set-up time (s) and work per second of the frozen baseline on the
# reference machine, a 2-vCPU Xeon VM with one BLAS thread, rounded from
# the medians of five runs of each workload. They turn the program's
# ratios to the baseline back into seconds and work per second.
BASELINE_ON_REFERENCE = {
    "train-synth": (0.0043, 29.5),
    "compress-long": (0.06, 12500.0),
    "eval-zipf": (0.063, 225.0),
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_environment() -> None:
    """Fix what the program reads from the environment, before numpy loads.

    BLAS runs on one thread. With one thread per core, as OpenBLAS picks
    by itself, its threads spin on every core the machine gives, and the
    timings follow the other tenants of a shared host more than the
    program; the traced run shows that oversubscription as a negative
    ``trace.overhead_frac``.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("DCP_SEED", None)  # the CLI's fallback training seed


def _environment_record() -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _warm_up(cli, workload) -> None:
    from workloads import invoke

    inv = invoke(cli, workload.warmup_argv())
    if inv.code != 0:
        raise RuntimeError(f"warm-up {workload.command} failed: {inv.stderr.strip()}")


def _interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    Per-cycle ratios on a shared machine scatter by about a tenth; this
    mean of the middle half varies less from run to run than the median
    of a few dozen, and ignores the quarter of values at either end.
    """
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.mean(ordered[k:len(ordered) - k])


def _run_timed(cli, workload, seconds: int, baseline) -> tuple[dict, int, int, dict]:
    from workloads import invoke

    _warm_up(cli, workload)
    baseline.wait_ready()
    setups, setup_ratios, work_ratios, rates = [], [], [], []
    attempted = failed = 0
    wall_s = cpu_s = 0.0
    cycles = []
    start = time.perf_counter()
    i = 0
    while True:
        c0 = time.perf_counter()
        # The baseline runs first in every other cycle, so that neither
        # side always finds the caches left by the other.
        if i % 2:
            ref = baseline.run(i)
        # A set-up probe before every invocation spreads the set-up
        # samples over the whole run.
        probe = invoke(cli, workload.argv(i), workload.first_unit, probe=True)
        if probe.setup_s is None:
            raise RuntimeError(f"set-up probe never reached {workload.first_unit}: "
                               f"{probe.stderr.strip()}")
        inv = invoke(cli, workload.argv(i), workload.first_unit)
        outcome = workload.check(cli, i, inv)
        attempted += outcome.attempted
        failed += outcome.failed
        wall_s += inv.wall_s
        cpu_s += inv.cpu_s
        if not i % 2:
            ref = baseline.run(i)
        setups.append(probe.setup_s)
        if inv.setup_s is not None:
            setups.append(inv.setup_s)
            setup_ratios.append((probe.setup_s + inv.setup_s) / sum(ref["setup_s"]))
            if outcome.failed == 0:
                rates.append(outcome.units / inv.work_s)
                work_ratios.append(ref["work_s"] / inv.work_s)
        if outcome.failed:
            print(f"invocation {i}: {outcome.failed} of {outcome.attempted} "
                  f"operations failed; {inv.stderr.strip()[-500:]}", file=sys.stderr)
        cycles.append(time.perf_counter() - c0)
        i += 1
        # Stop before a cycle that would end past the deadline.
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            break
    # Each ratio compares the program with the baseline on the same inputs
    # moments apart, so the drift of a shared machine cancels; the
    # baseline's figures on the reference machine turn it back into time.
    base_setup_s, base_work_per_s = BASELINE_ON_REFERENCE[workload.name]
    work_ratio = _interquartile_mean(work_ratios) if work_ratios else 0.0
    setup_ratio = _interquartile_mean(setup_ratios) if setup_ratios else 0.0
    metrics = {
        "setup_s": (base_setup_s * setup_ratio, "s"),
        "work_per_s": (base_work_per_s * work_ratio, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    context = {"invocations": i, "wall_s": wall_s, "process.cpu_s": cpu_s,
               "raw_setup_s": statistics.median(setups),
               "raw_work_per_s": statistics.median(rates) if rates else 0.0,
               "work_ratio": work_ratio}
    if getattr(workload, "key_recall", None):
        context["key_recall"] = workload.key_recall[min(workload.key_recall)]
    return metrics, attempted, failed, context


def _run_traced(cli, workload, out_dir: Path, label: str) -> tuple[dict, int, int, dict]:
    from tracing import Tracer
    from workloads import invoke

    _warm_up(cli, workload)
    # Untraced, traced, untraced: the overhead compares the traced wall
    # time with the mean of the two untraced runs around it.
    outcomes = []
    plain = [invoke(cli, workload.argv(0))]
    outcomes.append(workload.check(cli, 0, plain[0]))
    with Tracer() as tracer:
        traced = invoke(cli, workload.argv(0))
    outcomes.append(workload.check(cli, 0, traced))
    plain.append(invoke(cli, workload.argv(0)))
    outcomes.append(workload.check(cli, 0, plain[1]))
    if tracer.missing:
        print("not found, so not traced: " + ", ".join(tracer.missing), file=sys.stderr)
    tracer.write(out_dir / f"spans-{label}.jsonl")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wall_s = statistics.mean(p.wall_s for p in plain)
    metrics = tracer.layer_metrics()
    for command in ("train", "compress", "eval"):
        metrics[f"cli.{command}.s"] = (wall_s if command == workload.command else 0.0, "s")
    metrics["process.cpu_s"] = (statistics.mean(p.cpu_s for p in plain), "s")
    metrics["trace.overhead_frac"] = (traced.wall_s / wall_s - 1.0, "frac")
    metrics["error_rate"] = (failed / attempted, "frac")
    recall = getattr(workload, "key_recall", {})
    metrics["key_recall"] = (recall.get(0, 0.0), "frac")
    return metrics, attempted, failed, {"spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "promptpress" / "__init__.py").is_file():
        print(f"error: no promptpress sources under {SRC}", file=sys.stderr)
        return 2

    _pin_environment()  # must precede the first numpy import
    sys.path.insert(0, str(SRC))
    import promptpress.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "promptpress":
        print(f"error: imported promptpress from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from baseline import Baseline
    from workloads import WORKLOADS

    env = _environment_record()
    label = f"{args.workload}-seed{args.seed}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=out_dir))
    try:
        workload = WORKLOADS[args.workload]()
        with contextlib.ExitStack() as stack:
            if not args.trace:
                # The baseline's child process makes its inputs and warms up
                # while this one does; nothing is timed until both are done.
                baseline = stack.enter_context(
                    Baseline(args.workload, args.seed, work / "baseline"))
            t0 = time.perf_counter()
            workload.prepare(cli, work, args.seed)
            env["prepare_s"] = time.perf_counter() - t0
            if args.trace:
                metrics, attempted, failed, context = _run_traced(
                    cli, workload, out_dir, label)
            else:
                metrics, attempted, failed, context = _run_timed(
                    cli, workload, args.seconds, baseline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": env, "run": context}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
