"""Run one workload in this fresh process and print its result as JSON.

``run.py`` starts this script with BLAS/OpenMP pinned to one thread and
passes the monotonic clock reading taken just before the process was
spawned, so ``setup_s`` covers interpreter start, imports and the workload's
input construction.  With ``--setup-only`` the process stops after set-up.
Otherwise it runs closed-loop passes (one client; the next pass starts when
the previous one ends) for ``--seconds``.  Untraced passes run with the
speed sampler of ``speed.py``, and set-up and pass times are reported both
as measured and normalised to its reference speed.  With ``--trace 1`` the
first half of that time is untraced and the second half traced (without
the sampler), so that the tracing overhead is the difference of the two
median pass times.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MALLOC_MMAP_THRESHOLD_")
MAX_FAILURES_KEPT = 20


def _blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_VARS},
    }


def _passes(workload, workloads, until, tracer=None, sampler=None):
    """Closed-loop passes; a pass starts only if it should end near ``until``.

    Traced passes run under ``tracer``, the others under ``sampler``; their
    records also hold the pass's times normalised to the reference speed
    (``speed.py``), with the sampler's own time taken out.
    """
    records = []
    while not records or time.perf_counter() + 0.5 * records[-1]["wall_s"] < until:
        p = workloads.Pass(tracer)
        if tracer is None:
            sampler.reset()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            sampler.resume()
            workload.run_pass(p)
            sampler.pause()
        else:
            tracer.pass_no = len(records)
            with tracer.span("bench.pass"):
                workload.run_pass(p)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        record = {"wall_s": wall, "cpu_s": cpu, "attempted": p.attempted,
                  "failed": len(p.failures), "failures": p.failures,
                  "digests": p.digests, "bytes_written": p.bytes_written}
        if tracer is None:
            kernel_s, handler_wall, handler_cpu = sampler.take()
            f = speed.factor(kernel_s)
            record.update(wall_s=wall - handler_wall, cpu_s=cpu - handler_cpu,
                          kernel_s=kernel_s, samples=sampler.samples,
                          wall_norm_s=(wall - handler_wall) * f,
                          cpu_norm_s=(cpu - handler_cpu) * f)
        records.append(record)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "entroflow" / "__init__.py").is_file():
        print(f"error: entroflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entroflow
    import workloads

    if Path(entroflow.__file__).resolve().parent != (SRC / "entroflow").resolve():
        print(f"error: imported entroflow from {entroflow.__file__}", file=sys.stderr)
        return 2

    os.makedirs(args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        setup_s = time.monotonic() - args.spawn_time
        setup = {"setup_s": setup_s, "setup_norm_s": setup_s * speed.setup_factor()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = measure(workload, workloads, args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result.update(setup)
    print(json.dumps(result))
    return 0


def measure(workload, workloads, args):
    start = time.perf_counter()
    sampler = speed.Sampler()
    sampler.start()
    try:
        untraced = _passes(workload, workloads,
                           start + args.seconds * (0.5 if args.trace else 1.0), sampler=sampler)
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    layers = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.instrument()
        try:
            traced = _passes(workload, workloads, start + args.seconds, tracer=tracer)
        finally:
            tracer.uninstrument()
        layers, residual = spans.layer_metrics(
            tracer, traced, [r["wall_s"] for r in untraced],
            workload.per_step_ops, workload.feedback_steps)
        tracer.write(args.spans)
    records = untraced + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = list(dict.fromkeys(f for r in records for f in r["failures"]))
    walls = [r["wall_s"] for r in untraced]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_KEPT],
        "pass_wall_s": walls,
        "pass_cpu_s": [r["cpu_s"] for r in untraced],
        "reference_s": speed.REFERENCE_S,
        "pass_kernel_s": [r["kernel_s"] for r in untraced],
        "pass_kernel_samples": [r["samples"] for r in untraced],
        "pass_wall_norm_s": [r["wall_norm_s"] for r in untraced],
        "pass_cpu_norm_s": [r["cpu_norm_s"] for r in untraced],
        "digests": records[0]["digests"],
        "artifacts_identical": all(r["digests"] == records[0]["digests"] for r in records),
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "wall_norm_s": statistics.median(r["wall_norm_s"] for r in untraced),
            "cpu_norm_s": statistics.median(r["cpu_norm_s"] for r in untraced),
            "peak_rss_mb": peak_rss_mb,
            "failed_share": failed / attempted,
        },
    }
    if layers is not None:
        result["per_layer"] = layers
        result["trace_self_residual_s"] = residual
    return result


if __name__ == "__main__":
    sys.exit(main())
