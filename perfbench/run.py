"""Benchmark of graphcap: training, evaluation and gradient checking.

    python3 perfbench/run.py --workload {train,eval,gradcheck} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The full record, with the
machine facts and every phase's counts, goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
# one thread of numeric work: the decoder's matrices are far too small
# for BLAS threads to pay, and they would only add run-to-run noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "eval", "gradcheck")


def since_process_start() -> float:
    """Seconds since this process was started, read from the kernel's
    start time; falls back to the time since this file began running."""
    fallback = time.perf_counter() - _START
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return elapsed if fallback <= elapsed < fallback + 60.0 else fallback


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": threads,
        "scipy_present": find_spec("scipy") is not None,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: dict, setup_s: float) -> dict:
    """Every end-to-end metric as {name: (value, unit)}."""
    out = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    units = {
        "train_instances_per_s": "instances/s",
        "control_tokens_per_s": "tokens/s",
        "greedy_tokens_per_s": "tokens/s",
        "diversity_scenes_per_s": "scenes/s",
        "gradcheck_evals_per_s": "evals/s",
    }
    for res in results.values():
        if res.metric in units:
            out[res.metric] = (res.rate(), units[res.metric])
    p50, p90 = caption_latency(results["captions"])
    out["caption_p50_ms"] = (p50 * 1e3, "ms")
    out["caption_p90_ms"] = (p90 * 1e3, "ms")
    return out


def caption_latency(res) -> tuple[float, float]:
    """p50 and p90 over the distinct requests, each request's latency
    being its fastest repeat."""
    lat = res.fastest()
    return statistics.median(lat), statistics.quantiles(lat, n=10)[8]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "graphcap").is_dir():
        print(f"error: no graphcap source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import graphcap
    import tracing
    import workloads as wl

    tracer = tracing.Tracer(graphcap) if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        if tracer:
            tracer.install()
        inp = wl.setup(args.seed, workdir)
        setup_s = since_process_start()
        # the collector's full passes would otherwise walk the corpora and
        # models the set-up holds, at moments that differ from pass to pass
        gc.collect()
        gc.freeze()
        round_stats = tracing.Stats()
        if tracer:
            round_stats.add(tracer.take())
            tracer.uninstall()

        phases = [wl.make_phase(inp, name, size) for name, size in wl.SCHEDULES[args.workload]]
        results, rounds = wl.run_rounds(inp, phases, args.seconds, tracer)
        if tracer:
            round_stats.add(tracer.take(), 1.0 / rounds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    requests = results["captions"].fastest()
    problems = [p for res in results.values() for p in res.problems]
    attempted = sum(res.attempted for res in results.values())
    failed = sum(res.failed for res in results.values())
    if tracer:
        overhead = sum(res.overhead_s() for res in results.values())
        values = tracing.layer_metrics(round_stats, overhead)
        metrics = {name: (values[name], unit) for name, unit in tracing.layer_metric_specs()}
    else:
        metrics = end_to_end(results, setup_s)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "absent_layers": tracer.absent if tracer else [],
        "caption_requests": {
            "distinct": len(requests),
            "beyond_p90": sum(t > caption_latency(results["captions"])[1] for t in requests),
        },
        "phases": {
            name: {
                "metric": res.metric,
                "operation": res.op,
                "passes": res.passes,
                "units": len(res.unit_times),
                "attempted": res.attempted,
                "failed": res.failed,
                "work_per_pass": res.work_per_pass,
                "samples": res.passes * len(res.unit_times),
                "fastest_unit_s": res.fastest(),
            }
            for name, res in results.items()
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for prob in problems:
        print(f"CHECK FAILED: {prob}", file=sys.stderr)
    facts = record["machine"]
    print(f"workload {args.workload} seed {args.seed}: nproc {facts['nproc']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, blas {facts['blas'].get('name')} x{facts['blas_threads']}, "
          f"scipy {'present' if facts['scipy_present'] else 'absent'}")
    for name, ph in record["phases"].items():
        print(f"  {name}: {ph['passes']} passes of {ph['units']} units, {ph['attempted']} {ph['operation']}, "
              f"{ph['failed']} failed, {ph['samples']} samples")
    if record["absent_layers"]:
        print(f"  absent layers: {', '.join(record['absent_layers'])}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
