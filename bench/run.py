#!/usr/bin/env python3
"""Benchmark of robust-ope: three off-policy-evaluation workloads.

Run from the repository root:

    python3 bench/run.py --workload vehicle_uniform --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

`--workload all` runs every workload in turn in this one process (its
`peak_rss_mb` is then the process peak so far) and prefixes each metric name
with the workload's. With `--trace 0` the run reports the end-to-end metrics
listed in BENCHMARK.json; with `--trace 1` it reports the per-layer metrics,
from spans recorded around the calls into each `robust_ope` module, and
writes the spans to `.bench_out/<workload>.trace.jsonl`. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only when every op succeeded and every output check passed.

Set-up (imports, CSV parse, warm-up or model fits) is repeated `SETUP_REPS`
times and reported as import time plus the median repetition. Ops then run in
a closed loop for `--seconds`, and at least until every input has run twice.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
#: one BLAS thread: the default threading added about 1 s of warm-up to the
#: first vehicle trial, and the nets here are too small to gain from threads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
#: an op-time percentile is reported with at least this many samples above it
TAIL_SAMPLES = 10
NAMES = ("vehicle_uniform", "optdigits_estimated", "optdigits_scoring")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "robust_ope").glob("*.py")))
    return {"blas_env": BLAS_ENV, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "src_robust_ope_lines": src_lines}


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_SAMPLES samples above it."""
    ranked = sorted(times)
    n = len(ranked)
    if n <= TAIL_SAMPLES:
        return ranked[-1], f"max of {n} ops (too few for a tail percentile)"
    pct = 100.0 * (n - TAIL_SAMPLES) / n
    return ranked[n - TAIL_SAMPLES - 1], \
        f"p{pct:.0f} of {n} ops, {TAIL_SAMPLES} above it"


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 import_s: float) -> dict:
    from spans import Tracer, layer_metrics
    from workloads import OP_FAULTS, WORKLOADS, ProtocolWorkload, \
        best_rmse, check

    tracer = Tracer() if traced else None

    def span(op_id):
        return tracer.op_span(op_id) if tracer else contextlib.nullcontext()

    workload = WORKLOADS[name](seed)
    setup_times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        with span(f"setup{rep}"):
            workload.setup()
        setup_times.append(time.perf_counter() - start)

    window = 2 * workload.inputs  # ops that run every input twice
    times, problems, kept = [], [], {}
    failed = 0
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    j, previous = 0, None
    while j < window or time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            with span(j) if j % 2 else contextlib.nullcontext():
                result = workload.run(j // 2)
        except OP_FAULTS as exc:
            result, found = None, [f"{type(exc).__name__}: {exc}"]
        else:
            found = check(result)
        times.append(time.perf_counter() - start)
        if j % 2 and None not in (result, previous) and (
                (previous.truth, previous.estimates)
                != (result.truth, result.estimates)):
            found.append("differs from the previous op on the same input")
        if found:
            failed += 1
            problems += [f"op {j}: {item}" for item in found]
        if j < window:
            kept[j] = result
        previous = result
        j += 1
    wall = time.perf_counter() - loop_start

    summary = {"attempted": j, "failed": failed, "problems": problems,
               "failed_frac": failed / j}
    if None not in kept.values():
        passes = [{k // 2: r for k, r in kept.items() if k % 2 == side}
                  for side in (0, 1)]
        summary["accuracy"] = best_rmse(list(passes[0].values()))
        if isinstance(workload, ProtocolWorkload):
            csvs = [workload.report_csv(p) for p in passes]
            if csvs[0] != csvs[1]:
                problems.append("report CSV differs between the two passes")
            summary["report_sha256"] = hashlib.sha256(
                csvs[0].encode()).hexdigest()

    if traced:
        traced_ops = list(range(1, window, 2))
        metrics = layer_metrics(tracer.spans, traced_ops,
                                [f"setup{r}" for r in range(SETUP_REPS)])
        metrics["trace.overhead_frac"] = (
            statistics.median(times[1::2]) / statistics.median(times[0::2])
            - 1.0)
        summary["missing_spans"] = sorted(tracer.missing)
        tracer.write(OUT / f"{name}.trace.jsonl",
                     {"workload": name, "seed": seed, **machine_record(),
                      "missing_spans": summary["missing_spans"]})
    else:
        op_tail, tail_note = tail(times)
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": (j - failed) / wall,
            "op_s_p50": statistics.median(times),
            "op_s_tail": op_tail,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **summary.get("accuracy", {}),
        }
        summary["tail"] = tail_note
    summary["metrics"] = metrics
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "robust_ope").is_dir():
        print(f"no robust_ope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports numpy and robust_ope)
    import_s = time.perf_counter() - START

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = NAMES if args.workload == "all" else (args.workload,)
    print(json.dumps({"machine": machine_record(), "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), import_s)
        attempted += summary["attempted"]
        failed += summary["failed"]
        correct &= not summary["problems"]
        print(f"\n## {name}: {summary['attempted']} ops, "
              f"failed_frac {summary['failed_frac']:.4g}")
        for problem in summary["problems"][:20]:
            print(f"  FAILED {problem}")
        for key in ("tail", "report_sha256", "missing_spans"):
            if key in summary:
                print(f"  {key}: {summary[key]}")
        for metric in declared:
            value = summary["metrics"].get(metric["name"])
            if value is None:
                correct = False
                print(f"  MISSING {metric['name']}")
                continue
            computed = metric["name"].endswith((".rows", ".gflop"))
            print(f"  {metric['name']:40s} {value:14.6g} {metric['unit']}"
                  + (" (computed from weight shapes)" if computed else ""))
            key = metric["name"] if len(names) == 1 \
                else f"{name}.{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
