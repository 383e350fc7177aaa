"""One workload's timed jobs, run in a fresh process so peak RSS is per workload.

Usage: python3 bench/worker.py SPEC.json -- the spec is written by run.py and
names the package source directory, the workload, the input instances with
their references, the run length and whether to trace.  The result goes to
the path the spec names.  This is a closed loop with one client: the next
job starts only after the previous one finished and was checked.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_JOBS = 5


def _import_package(src: str):
    sys.path.insert(0, src)
    import survconcord
    import survconcord.cli
    import survconcord.io

    if Path(survconcord.__file__).resolve().parent != Path(src).resolve() / "survconcord":
        raise SystemExit(f"survconcord imported from {survconcord.__file__}, not {src}")
    return survconcord


def _window(sc, workload, instances, seconds, first_job, min_jobs=MIN_JOBS, rec=None):
    """Run whole cycles over the instances until ``seconds`` of job time have passed.

    With a recorder, every second job is traced, so traced and untraced jobs
    share the machine's slow and fast spells; the cycle then spans both.
    """
    from workloads import check_job, clean_outputs, run_job

    cycle = len(instances) * (2 if rec is not None else 1)
    times, traced, ok, problems = [], [], [], []
    busy, k = 0.0, first_job
    while busy < seconds or len(times) < min_jobs or (k - first_job) % cycle:
        inst = instances[k % len(instances)]
        trace = rec is not None and k % 2 == 1
        clean_outputs(workload, inst)
        gc.collect()
        if trace:
            uninstall = rec.install(sc)
            rec.begin_job(k)
            root = rec.open("job")
        t0 = time.perf_counter()
        try:
            output = run_job(sc, workload, inst)
        except (Exception, SystemExit):  # a job that raises is a failed job
            output = None
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if trace:
            rec.close(root)
            uninstall()
        busy += dt
        times.append(dt)
        traced.append(trace)
        found = check_job(workload, inst, output) if output is not None else [error]
        ok.append(not found)
        if found:
            problems.append(f"job {k}: {found[0]}")
        k += 1
    return {"times": times, "traced": traced, "ok": ok, "problems": problems,
            "next_job": k}


def _peak_rss_mb() -> float:
    """This process's peak resident set.

    ``ru_maxrss`` keeps the parent's high-water mark across fork and exec,
    so it would report run.py's size whenever that is larger; the
    kernel's VmHWM counts only this process's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    # One CPU for the whole run, so the scheduler does not migrate the jobs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sc = _import_package(spec["src"])
    instances = spec["instances"]

    # Warm-up: one checked job per instance, so lazy set-up is not timed.
    warm = _window(sc, spec["workload"], instances, 0.0, 0, min_jobs=len(instances))
    rec = None
    if spec["trace"]:
        import tracing

        rec = tracing.Recorder()
    timed = _window(sc, spec["workload"], instances, spec["seconds"], warm["next_job"],
                    rec=rec)
    result = {"warmup": warm, "window": timed, "peak_rss_mb": _peak_rss_mb()}
    if rec is not None:
        plain = [t for t, tr in zip(timed["times"], timed["traced"]) if not tr]
        result["per_layer"] = tracing.summarize(rec.spans, plain)
        Path(spec["spans"]).write_text(json.dumps(tracing.spans_to_json(rec.spans)),
                                       encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
