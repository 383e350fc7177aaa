"""survconcord benchmark: one command for any subset of the four workloads.

    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--workload`` takes one name, a comma-separated list or ``all``.  For each
workload it generates the inputs and independent references from
``--seed`` (untimed), measures set-up time in fresh interpreters, then runs
the jobs in a fresh single-threaded worker process for ``--seconds`` of job
time, checking every job's output.  It prints every end-to-end metric by
name and unit, one row per workload, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
also runs traced jobs and reports the per-layer metrics instead.

Exits 0 only when every job passed its check; exits 2 without a result when
the package source (``src/survconcord``) is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
RESULTS = ROOT / "bench" / ".results"
WORKER_TIMEOUT_S = 150
SETUP_SPAWNS = 7

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Import plus one tiny concordance call in a fresh interpreter, which then
# prints the system-wide monotonic clock so the parent's wait adds nothing.
_SETUP_SNIPPET = (
    "import survconcord as sc\n"
    "sc.concordance(sc.SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 1, 0]),\n"
    "               [0.9, 0.5, 0.1], sc.tie_weighted_policy(0.0, 0.5))\n"
    "import time; print(repr(time.monotonic()))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # glibc otherwise adapts its mmap threshold to the sizes freed so far, so the
    # same job page-faults more or less depending on earlier inputs.  Fixed
    # thresholds serve every array below 32 MiB from a heap that is never trimmed.
    env.update(MALLOC_MMAP_THRESHOLD_=str(32 << 20), MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    return env


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing the package (one warm-up)."""
    samples = []
    for _ in range(SETUP_SPAWNS + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], env=child_env(),
                              cwd=ROOT, check=True, timeout=60, capture_output=True,
                              text=True).stdout
        samples.append(float(done.split()[-1]) - t0)
    return statistics.median(samples[1:])


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "survconcord").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": 1,
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten jobs beyond it: (value, percentile, count)."""
    s = sorted(times)
    n = len(s)
    k = max(n - 11, 0)
    return s[k], 100.0 * (k + 1) / n, n


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    try:
        instances = [workloads.make_instance(name, seed, k, work)
                     for k in range(workloads.POOL)]
        setup_s = measure_setup()
        spec = {"src": str(SRC), "workload": name, "seconds": seconds, "trace": trace,
                "instances": instances, "result": str(work / "result.json"),
                "spans": str(stem) + "-spans.json"}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        with open(work / "worker.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "worker.py"), str(work / "spec.json")],
                env=child_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            log_text = (work / "worker.log").read_text(encoding="utf-8")
            raise RuntimeError(f"worker for {name} exited {proc.returncode}:\n{log_text[-3000:]}")
        raw = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    window = raw["window"]
    attempted = len(raw["warmup"]["times"]) + len(window["times"])
    problems = raw["warmup"]["problems"] + window["problems"]
    plain = [(t, ok) for t, ok, tr in zip(window["times"], window["ok"], window["traced"])
             if not tr]
    timed = [t for t, _ in plain]
    tail_value, tail_pct, tail_n = tail(timed)
    e2e = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(timed),
        "job_tail_s": tail_value,
        "jobs_per_s": sum(ok for _, ok in plain) / sum(timed),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    props = {key: float(np.mean([inst["properties"][key] for inst in instances]))
             for key in instances[0]["properties"]}
    out = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "input_properties": props,
        "attempted": attempted, "failed": len(problems), "problems": problems[:20],
        "failed_ratio": len(problems) / attempted,
        "end_to_end": e2e, "job_tail": {"percentile": tail_pct, "jobs": tail_n},
        "job_times_s": timed,
    }
    if trace:
        out["per_layer"] = raw["per_layer"]
    stem.with_suffix(".json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    return out


def print_table(results: list[dict]) -> None:
    print("environment: " + json.dumps(results[0]["environment"], sort_keys=True))
    for r in results:
        print(f"input properties [{r['workload']}, seed {r['seed']}]: "
              + json.dumps(r["input_properties"], sort_keys=True))
    cols = [f"{m} ({u})" for m, u in END_TO_END.items()] + ["failed_ratio (ratio)"]
    print("workload".ljust(18) + "".join(c.rjust(22) for c in cols))
    for r in results:
        e = r["end_to_end"]
        cells = [f"{e[m]:.6g}" for m in END_TO_END] + [f"{r['failed_ratio']:.6g}"]
        cells[2] += f" p{r['job_tail']['percentile']:.0f}/{r['job_tail']['jobs']}"
        print(r["workload"].ljust(18) + "".join(c.rjust(22) for c in cells))
    for r in results:
        if "per_layer" in r:
            print(f"per-layer [{r['workload']}]:")
            layers = r["per_layer"]
            for metric, unit in tracing.PER_LAYER.items():
                print(f"  {metric:34s} {layers[metric]:>14.6g} {unit}")
            print(f"  layer self times sum to {layers['trace.layer_sum_s']:.6g} s = "
                  f"{layers['trace.layer_sum_s'] / r['end_to_end']['job_p50_s']:.4f} x the "
                  f"untraced job_p50_s; trace.overhead_ratio "
                  f"{layers['trace.overhead_ratio']:.4f}")
    for r in results:
        for p in r["problems"]:
            print(f"FAILED [{r['workload']}] {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, a comma list, or all" % ", ".join(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "survconcord" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.SIZES) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.SIZES]
    if unknown:
        print(f"error: unknown workload(s) {unknown}", file=sys.stderr)
        return 2

    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    print_table(results)

    single = len(results) == 1
    metrics = {}
    for r in results:
        prefix = "" if single else r["workload"] + "."
        values = r["per_layer"] if args.trace else r["end_to_end"]
        units = tracing.PER_LAYER if args.trace else END_TO_END
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
