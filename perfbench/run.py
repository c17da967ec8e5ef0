"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from spans recorded around the program's public calls, and the
spans are written to ``perfbench_out/``.  See ``perfbench/README.md``.
"""

import os

# pin BLAS threads before numpy is imported, here or by the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
#: request_tail_s is this percentile of the operation wall times
TAIL_PERCENTILE = 90
WORKLOADS = ("cold-solve", "warm-refactor", "service-mix", "paper-replay")
#: the workload timings that are request_p50_s on their workload
ALIASES = {"cold-solve": "cold_solve_s", "warm-refactor": "refactor_s",
           "paper-replay": "replay_s"}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def run(args) -> tuple[dict, list, dict]:
    """Set up, run whole rounds for ``args.seconds``; (metrics, results, info)."""
    import layers
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    wl = None
    try:
        if tracer is not None:
            layers.install(tracer)
        setup = []
        for i in range(cls.setup_repeats):
            if wl is not None:
                wl.close()
                wl = None
                gc.collect()
            span = tracer.begin_op(f"setup{i}") if tracer is not None else None
            t0 = time.perf_counter()
            wl = cls(args.seed)
            setup.append(time.perf_counter() - t0)
            if span is not None:
                tracer.end_op(span)

        results, rounds, reference = [], 0, []
        if tracer is not None:
            # one untraced round first: the tracing overhead is the
            # difference to the traced rounds that follow
            tracer.restore()
            reference = wl.run_round(0)
            layers.install(tracer)
            rounds = 1
        wl.begin_measure()
        first = rounds
        start = time.perf_counter()
        while True:
            results += wl.run_round(rounds, tracer)
            rounds += 1
            if wl.max_rounds is not None and rounds >= wl.max_rounds:
                break
            enough = tracer is not None or rounds - first >= wl.min_rounds
            if enough and time.perf_counter() - start >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        walls = [r.wall for r in results]
        if tracer is not None:
            tracer.restore()
            metrics = layers.layer_metrics(tracer)
            metrics.update(wl.layer_metrics())
            metrics["trace.overhead_s"] = statistics.fmean(walls) - statistics.fmean(
                r.wall for r in reference)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            import numpy as np

            metrics = {
                "setup_s": statistics.median(setup),
                "request_p50_s": statistics.median(walls),
                "request_tail_s": float(np.percentile(walls, TAIL_PERCENTILE)),
                "requests_per_s": len(walls) / elapsed,
                "sim_factor_s": wl.sim_s,
                "factor_nnz": wl.nnz,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        info = {"rounds": rounds, "measured_s": elapsed, "setup_runs_s": setup}
        return metrics, reference + results, info
    finally:
        if tracer is not None:
            tracer.restore()
        if wl is not None:
            wl.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no program source (src/repro) to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    metrics, results, info = run(args)

    failures: dict[str, int] = {}
    for r in results:
        if r.failure is not None:
            kind = "known:nonfinite-accepted" if r.known else r.failure
            failures[kind] = failures.get(kind, 0) + 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    # a layer the workload never enters reads 0
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": units[name]}
           for name in units}

    print("env " + json.dumps(environment()))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "trace": args.trace, **info}))
    print("failures " + json.dumps({"attempted": len(results), "failed": failures}))
    if not args.trace and args.workload in ALIASES:
        print(f"{ALIASES[args.workload]} = {out['request_p50_s']['value']:.6g} s"
              " (request_p50_s)")
    for name, m in out.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r.known for r in results if r.failure is not None),
        "attempted": len(results),
        "failed": sum(failures.values()),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
