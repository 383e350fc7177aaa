"""The four benchmark workloads: inputs from a seed, the job, and its check.

Inputs are generated with numpy alone and written as the files a user would
hand to ``survconcord``; the package only ever sees those files (and, for
the bias sweep, the arrays it reads back itself).  Each seed yields
``POOL`` distinct input instances that jobs cycle through.

Jobs call the package only through module attributes looked up at call
time (``sc.cli.main``, ``sc.io.read_subjects_csv``, ...), so the tracing
wrappers installed on those attributes see every call.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

import reference as ref

POOL = 3

EPSILONS = (0.0, 0.5, 1.0, 3.0, 7.0, 13.0)
BIAS_PROFILES = ("hmisc", "pec", "survival_n_g2", "survival_n")
BIAS_TAU = 100.0
# Median event time about 150.  Shape 3 keeps the largest event time, which sets
# the oracle's grid and so peak memory, similar across seeds; censoring runs
# from none (epsilon 0) to about 90 % (epsilon 13).
BIAS_EVENT = {"shape": 3.0, "scale": 2.05e-7, "coefficients": [0.7, -0.4, 0.25]}
BIAS_CENSORING = {"shape": 1.0, "scale": 1.0 / 600.0}
BOOT_PROFILES = ("hmisc", "pec", "survival_n_g2")
TD_PROFILES = ("pec", "pycox_ant", "pycox_adj_ant")

# Input sizes, chosen so one job takes a few tenths of a second on the seed
# code and a run holds enough jobs for a median and a tail.
SIZES = {
    "multiverse_scalar": {"n": 700, "tau": 365.0},
    "bootstrap": {"n": 300, "resamples": 20, "tau": 120.0},
    "td_matrix": {"n": 1000, "grid_step": 8.0, "grid_stop": 360.0},
    "bias_sweep": {"n": 400},
}


def instance_seed(seed: int, workload: str, k: int) -> int:
    ss = np.random.SeedSequence([seed, list(SIZES).index(workload), k])
    return int(ss.generate_state(1, np.uint32)[0])


def _write_subjects(path: Path, times, events, risks=None) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "time", "event"] + (["risk"] if risks is not None else []))
        for i in range(times.size):
            row = [f"s{i}", repr(float(times[i])), str(int(events[i]))]
            if risks is not None:
                row.append(repr(float(risks[i])))
            w.writerow(row)


def _write_matrix(path: Path, grid, probs) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [repr(float(t)) for t in grid])
        for i, row in enumerate(probs):
            w.writerow([f"s{i}"] + [repr(float(v)) for v in row])


def _tied_pair_share(values, tol: float) -> float:
    """Share of unordered pairs whose values differ by at most tol."""
    s = np.sort(values)
    n = s.size
    hi = np.searchsorted(s, s + tol, side="right")
    tied = int((hi - np.arange(n) - 1).sum())
    return tied / (n * (n - 1) / 2)


def properties(times, events, risks, grid_columns=0, resamples=0) -> dict:
    return {
        "n": int(times.size),
        "tied_time_pair_share": _tied_pair_share(times, 0.0),
        "tied_pred_pair_share_tol0": _tied_pair_share(risks, 0.0),
        "tied_pred_pair_share_tol1e-8": _tied_pair_share(risks, 1e-8),
        "censoring_rate": float(1.0 - events.mean()),
        "matrix_grid_columns": grid_columns,
        "resamples": resamples,
    }


def _tied_risks(rng, n):
    """Risks on a 0.01 lattice; a fifth get a 5e-9 nudge, tied only at tolerance 1e-8."""
    risks = np.round(rng.random(n), 2)
    nudge = rng.random(n) < 0.2
    return risks + np.where(nudge, 5e-9, 0.0)


def make_instance(workload: str, seed: int, k: int, workdir: Path) -> dict:
    """Write instance k's input files and compute its reference (untimed set-up)."""
    size = SIZES[workload]
    s = instance_seed(seed, workload, k)
    rng = np.random.default_rng(s)
    d = workdir / f"in{k}"
    d.mkdir(parents=True, exist_ok=True)
    out = str(workdir / f"out{k}" / "report")
    n = size["n"]

    if workload in ("multiverse_scalar", "bootstrap"):
        times = np.ceil(rng.exponential(250.0, n))
        events = (rng.random(n) < 0.65).astype(np.int8)
        risks = _tied_risks(rng, n)
        subjects = d / "subjects.csv"
        _write_subjects(subjects, times, events, risks)
        argv = ["cindex", "--subjects", str(subjects), "--risk-col", "risk",
                "--tau", repr(size["tau"]), "--out", out]
        if workload == "multiverse_scalar":
            expected = ref.score_scalar(tuple(ref.PROFILES), times, events, risks, size["tau"])
            props = properties(times, events, risks)
        else:
            boot_seed = s % 10_000
            argv += ["--profiles", ",".join(BOOT_PROFILES),
                     "--bootstrap", str(size["resamples"]), "--seed", str(boot_seed)]
            expected = ref.bootstrap_cells(BOOT_PROFILES, times, events, risks,
                                           size["tau"], size["resamples"], boot_seed)
            props = properties(times, events, risks, resamples=size["resamples"])
        return {"argv": argv, "report": out + ".json", "expected": expected,
                "properties": props}

    if workload == "td_matrix":
        times = np.ceil(rng.uniform(0.0, 420.0, n))
        events = (rng.random(n) < 0.6).astype(np.int8)
        grid = np.arange(0.0, size["grid_stop"] + size["grid_step"] / 2, size["grid_step"])
        rate = np.exp(rng.normal(-5.5, 0.6, n))
        shape = rng.uniform(0.8, 1.6, n)
        # Three decimals leave ties between curves; rounding keeps rows monotone.
        probs = np.round(np.exp(-(rate[:, None] * grid[None, :]) ** shape[:, None]), 3)
        subjects, matrix = d / "subjects.csv", d / "matrix.csv"
        _write_subjects(subjects, times, events)
        _write_matrix(matrix, grid, probs)
        argv = ["cindex", "--subjects", str(subjects), "--matrix", str(matrix),
                "--grid", "0:355:1", "--transform", "neg-rmst:355",
                "--profiles", ",".join(TD_PROFILES), "--out", out]
        fine = np.arange(356.0)
        curves = ref.interpolate_matrix(grid, probs, fine)
        risks = ref.neg_rmst(fine, curves, 355.0)
        expected = ref.score_scalar(("pec",), times, events, risks)
        expected.update(ref.score_td(TD_PROFILES[1:], times, events, fine, curves))
        return {"argv": argv, "report": out + ".json", "expected": expected,
                "properties": properties(times, events, risks, grid_columns=grid.size)}

    if workload == "bias_sweep":
        params = d / "params.json"
        params.write_text(json.dumps({"event": BIAS_EVENT, "censoring": BIAS_CENSORING}),
                          encoding="utf-8")
        sim_seed = s % 1_000_000
        out_dir = workdir / f"out{k}" / "sweep"
        argv = ["simulate", "--params", str(params), "--n", str(n), "--datasets", "1",
                "--epsilon-list", ",".join(format(e, "g") for e in EPSILONS),
                "--seed", str(sim_seed), "--out-dir", str(out_dir)]
        cov, event_times, observed = ref.simulate_replicate(
            BIAS_EVENT, BIAS_CENSORING, n, sim_seed, EPSILONS)
        fine = np.arange(356.0)
        risks = ref.neg_rmst(fine, ref.weibull_curves(BIAS_EVENT, cov, fine), 355.0)
        expected = [ref.score_scalar(BIAS_PROFILES, t, e, risks, BIAS_TAU)
                    for t, e in observed]
        props = [properties(t, e, risks) for t, e in observed]
        return {
            "argv": argv,
            "out_dir": str(out_dir),
            "expected": expected,
            "oracle": ref.oracle_value(BIAS_EVENT, cov, event_times),
            "properties": {key: float(np.mean([p[key] for p in props])) for key in props[0]},
        }

    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Worker side: run one job and check its output.

def run_job(sc, workload: str, inst: dict):
    """One job through the public API; returns what ``check_job`` needs."""
    code = sc.cli.main(inst["argv"])
    if workload != "bias_sweep" or code != 0:
        return code, None
    params = sc.synthetic.WeibullPHParams(
        shape=BIAS_EVENT["shape"], scale=BIAS_EVENT["scale"],
        coefficients=np.array(BIAS_EVENT["coefficients"]))
    grid = sc.transforms.default_common_grid()
    profiles = sc.profiles.get_profiles(list(BIAS_PROFILES))
    tau = sc.engine.Truncation(mode="value", value=BIAS_TAU)
    reports = []
    for eps in EPSILONS:
        path = Path(inst["out_dir"]) / f"eps_{format(eps, 'g')}" / "dataset_000.csv"
        ds, _ = sc.io.read_subjects_csv(path)
        risks = sc.transforms.neg_rmst(params.survival_matrix(grid, ds.covariates), 355.0)
        reports.append(sc.profiles.run_multiverse(ds, risks=risks, profiles=profiles, tau=tau))
    return code, reports


def clean_outputs(workload: str, inst: dict) -> None:
    """Remove a job's output files, so a job that fails to write them cannot pass
    on an earlier job's copy."""
    if workload == "bias_sweep":
        shutil.rmtree(inst["out_dir"], ignore_errors=True)
    else:
        for suffix in (".json", ".csv"):
            Path(inst["report"]).with_suffix(suffix).unlink(missing_ok=True)


def check_job(workload: str, inst: dict, output) -> list[str]:
    """Mismatches against the reference; an empty list means the job is correct."""
    code, reports = output
    if code != 0:
        return [f"exit code {code}"]
    if workload != "bias_sweep":
        with open(inst["report"], encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        return ref.compare_cells(results, inst["expected"])
    problems = []
    with open(Path(inst["out_dir"]) / "oracle.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1 or not ref.close(float(rows[0]["oracle_cindex"]), inst["oracle"]):
        problems.append(f"oracle {rows} != {inst['oracle']!r}")
    for eps, report, expected in zip(EPSILONS, reports, inst["expected"]):
        problems += [f"eps {eps:g}: {p}" for p in
                     ref.compare_cells([r.to_dict() for r in report.results], expected)]
    return problems
