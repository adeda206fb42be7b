"""entroflow benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own fresh process (``worker.py``) with BLAS and
OpenMP pinned to one thread, so every figure is the single-threaded
baseline.  Around it, ``SETUP_PROBES`` more fresh processes only set up
(half before, half after), and ``setup_s`` is the median of all the set-ups.  The inputs come from the seed;
entroflow receives only the generated inputs.  Every pass is checked against
independent oracles (see ``workloads.py``), and a failed check counts into
``failed_share``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The full record of a run (environment, pass times, artifact
sha256 digests, failures) is written to ``.perfbench/results/`` and the spans
of a traced run to ``.perfbench/spans/``.  The command exits 1 without a
result when the workload cannot run, for instance when the sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("grid-2d-scheduled", "grid-1d-dense", "ensembles", "quantum-nlevel")
DEFAULT_SEED = 20070
CONFIRM_SEED = 31337   # a second seed for confirming a claimed change
SETUP_PROBES = 6
WORKLOAD_DEADLINE_S = 170.0
# One BLAS/OpenMP thread: each workload is the single-threaded baseline and
# stays within the cores of a small machine.  A fixed glibc mmap threshold
# (its documented default, which glibc otherwise raises as the program frees
# large blocks) makes large arrays come and go with mmap, so the peak
# resident memory repeats from run to run instead of varying with heap
# fragmentation.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "131072"}

# Times are normalised to the reference speed of speed.py; setup_s is too.
END_TO_END = (("wall_norm_s", "s"), ("cpu_norm_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    """A workload process failed; no result is printed."""


def _spawn(args, deadline):
    env = {**os.environ, **PINNED_ENV}
    cmd = [sys.executable, str(WORKER), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise BenchError("out of time before the workload process started")
    try:
        proc = subprocess.run([*cmd, "--spawn-time", repr(time.monotonic())], env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """Set-up probes around the measured process; returns the full record."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]

    def probe(i):
        return _spawn([*common, "--setup-only", "--workdir",
                       str(work / f"{name}-{os.getpid()}-probe{i}")], deadline)

    # Half the probes run before the measured process and half after it, so
    # the set-up samples span the run rather than one moment of it.
    setups = [probe(i) for i in range(SETUP_PROBES // 2)]
    spans_path = OUT / "spans" / f"{name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    record = _spawn([*common, "--seconds", str(seconds), "--trace", str(trace),
                     "--workdir", str(work / f"{name}-{os.getpid()}"),
                     "--spans", str(spans_path)], deadline)
    setups.append({k: record.pop(k) for k in ("setup_s", "setup_norm_s")})
    setups += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    record["setup_samples_s"] = [s["setup_s"] for s in setups]
    record["setup_norm_samples_s"] = [s["setup_norm_s"] for s in setups]
    record["end_to_end"]["setup_raw_s"] = statistics.median(record["setup_samples_s"])
    record["end_to_end"]["setup_s"] = statistics.median(record["setup_norm_samples_s"])
    results = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    record["results_file"] = str(results.relative_to(ROOT))
    return record


def tail_percentile(samples):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, sorted(samples)[math.ceil(p / 100.0 * n) - 1]
    return None


def report(record):
    e2e = record["end_to_end"]
    walls = record["pass_wall_s"]
    env = record["environment"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"  env: nproc={env['nproc']} cpus_usable={env['cpus_usable']} "
          f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} blas_threads={env['blas_threads']}")
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                 else "no percentile has >= 10 samples beyond it")
    norm_tail = tail_percentile(record["pass_wall_norm_s"])
    norm_tail_text = f"; p{norm_tail[0]:g} {norm_tail[1]:.4f} s" if norm_tail else ""
    kernel_ms = 1e3 * statistics.median(record["pass_kernel_s"])
    print(f"  wall_norm_s  {e2e['wall_norm_s']:.4f} s   median of {len(walls)} passes, "
          f"at reference speed{norm_tail_text}")
    print(f"  cpu_norm_s   {e2e['cpu_norm_s']:.4f} s   median, at reference speed")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  setup_s      {e2e['setup_s']:.4f} s   median of "
          f"{len(record['setup_samples_s'])} set-ups, at reference speed")
    print(f"  as measured: wall_s {e2e['wall_s']:.4f} s ({tail_text}), cpu_s "
          f"{e2e['cpu_s']:.4f} s, setup_s {e2e['setup_raw_s']:.4f} s; reference kernel "
          f"{kernel_ms:.3f} ms (nominal {1e3 * record['reference_s']:.3f} ms), "
          f"{statistics.median(record['pass_kernel_samples']):.0f} samples per pass")
    print(f"  failed_share {e2e['failed_share']:.4g} ratio   "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for failure in record["failures"]:
        print(f"    failed: {failure}")
    print(f"  artifacts identical across passes: {record['artifacts_identical']}; "
          f"{len(record['digests'])} sha256 digests in {record['results_file']}")
    if "per_layer" in record:
        print(f"  trace self-time residual {record['trace_self_residual_s']:.3g} s")
        for name, value in record["per_layer"].items():
            print(f"  {name:48s} {value:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="entroflow benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(HERE))
    import spans

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace))
            report(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    residual_ok = all(r.get("trace_self_residual_s", 0.0) < 1e-6 for r in records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.trace:
        # Per-layer metrics: one workload, or summed over all of them.
        metrics = {name: {"value": sum(r["per_layer"][name] for r in records), "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    else:
        # End-to-end metrics: one workload, or the suite (sums; peak memory max).
        metrics = {name: {"value": (max if name == "peak_rss_mb" else sum)(
                       r["end_to_end"][name] for r in records), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0 and residual_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
