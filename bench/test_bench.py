"""Cross-checks of the benchmark's reference against a plain double loop.

Run with ``python3 -m pytest bench/test_bench.py``.  Each workload's input
generator runs on a down-sized instance; the vectorized reference it produces
must match a naive per-pair loop written here from the case taxonomy
(counts exactly, estimates and interval bounds to 1e-12 relative).  Nothing
here imports survconcord.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import reference as ref
import tracing
import workloads

SMALL = {
    "multiverse_scalar": {"n": 45, "tau": 365.0},
    "bootstrap": {"n": 30, "resamples": 4, "tau": 120.0},
    "td_matrix": {"n": 45, "grid_step": 8.0, "grid_stop": 360.0},
    "bias_sweep": {"n": 40},
}


def naive_weights(times, events, scheme):
    """1/G(T)^2 or 1/(G(T-) G(T)) with G the censoring product-limit estimate."""
    if scheme == "uniform":
        return [1.0] * len(times)

    def g(t, left):
        value = Fraction(1)
        for u in sorted(set(times)):
            if u < t or (u == t and not left):
                at_risk = sum(1 for x in times if x >= u)
                d = sum(1 for x, e in zip(times, events) if x == u and e == 0)
                value *= Fraction(at_risk - d, at_risk)
        return float(value)

    out = []
    for t in times:
        g_at = g(t, left=False)
        denom = g_at * g_at if scheme == "uno_squared" else g(t, left=True) * g_at
        out.append(1.0 / denom if denom > 0 else math.nan)
    return out


def loop_cell(times, events, diff, profile, tau):
    """One profile's cell by iterating over every ordered pair."""
    tol, table = profile["tol"], profile["table"]
    weights = naive_weights(times, events, profile["weight"])
    pairs, dropped, num, den = Counter(), 0, [], []
    for i in range(len(times)):
        if tau is not None and not times[i] < tau:
            continue
        for j in range(len(times)):
            if i == j:
                continue
            d = diff(i, j)
            rel = "A" if d > tol else ("B" if d < -tol else "C")
            if times[i] < times[j]:
                if events[i]:
                    label = ("1" if events[j] else "2") + rel
                else:
                    label = "3" if events[j] else "4"
            elif times[i] > times[j]:
                label = "3" if events[j] else "4"
            else:
                label = {(1, 1): "5" + rel, (1, 0): "6" + rel,
                         (0, 1): "7" + rel, (0, 0): "8"}[(events[i], events[j])]
            cw, credit = table.get(label, (0, 0))
            if cw > 0 and math.isnan(weights[i]):
                dropped += 1
                continue
            pairs[label] += 1
            if cw > 0:
                den.append(weights[i] * cw)
                num.append(weights[i] * cw * credit)
    if math.fsum(den) == 0:
        return None
    estimate = math.fsum(num) / math.fsum(den)
    if profile["fold"]:
        estimate = max(estimate, 1.0 - estimate)
    return {"pairs": dict(pairs), "dropped_pairs": dropped, "estimate": estimate}


def read_subjects(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    times = [float(r["time"]) for r in rows]
    events = [int(r["event"]) for r in rows]
    risks = [float(r["risk"]) for r in rows] if "risk" in rows[0] else None
    return times, events, risks


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (np.array([float(v) for v in rows[0][1:]]),
            np.array([[float(v) for v in r[1:]] for r in rows[1:]]))


def assert_cell(got, want):
    assert got["pairs"] == want["pairs"]
    assert got["dropped_pairs"] == want["dropped_pairs"]
    assert ref.close(got["estimate"], want["estimate"])


def arg(argv, flag):
    return argv[argv.index(flag) + 1]


@pytest.fixture
def small(monkeypatch, tmp_path):
    def make(workload, seed=3):
        monkeypatch.setitem(workloads.SIZES, workload, SMALL[workload])
        return workloads.make_instance(workload, seed, 0, tmp_path)
    return make


@pytest.mark.parametrize("seed", [0, 1])
def test_multiverse_scalar(small, seed):
    inst = small("multiverse_scalar", seed)
    times, events, risks = read_subjects(arg(inst["argv"], "--subjects"))
    tau = float(arg(inst["argv"], "--tau"))
    assert list(inst["expected"]) == list(ref.PROFILES)
    for name, want in inst["expected"].items():
        profile = ref.PROFILES[name]
        if profile["td"]:
            assert want["error"] == "requires a survival matrix"
            continue
        assert_cell(loop_cell(times, events, lambda i, j: risks[i] - risks[j], profile, tau),
                    want)


def test_tie_tolerances_differ(small):
    """The nudged risks make tolerance 1e-8 tie pairs that tolerance 0 does not."""
    inst = small("multiverse_scalar")
    p = inst["properties"]
    assert p["tied_pred_pair_share_tol1e-8"] > p["tied_pred_pair_share_tol0"] > 0


def test_bootstrap(small):
    inst = small("bootstrap")
    argv = inst["argv"]
    times, events, risks = read_subjects(arg(argv, "--subjects"))
    tau, seed = float(arg(argv, "--tau")), int(arg(argv, "--seed"))
    resamples = SMALL["bootstrap"]["resamples"]
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = [rng.integers(0, len(times), size=len(times)) for _ in range(resamples)]
    for name in workloads.BOOT_PROFILES:
        profile, want = ref.PROFILES[name], inst["expected"][name]
        assert_cell(loop_cell(times, events, lambda i, j: risks[i] - risks[j], profile, tau),
                    want)
        samples = []
        for draw in draws:
            t = [times[k] for k in draw]
            e = [events[k] for k in draw]
            m = [risks[k] for k in draw]
            cell = loop_cell(t, e, lambda i, j: m[i] - m[j], profile, tau)
            if cell is not None:
                samples.append(cell["estimate"])
        lo, hi = np.quantile(samples, [0.025, 0.975])
        assert want["failed_resamples"] == resamples - len(samples)
        assert ref.close(want["ci_lower"], float(lo))
        assert ref.close(want["ci_upper"], float(hi))


def test_td_matrix(small):
    inst = small("td_matrix")
    times, events, _ = read_subjects(arg(inst["argv"], "--subjects"))
    grid, probs = read_matrix(arg(inst["argv"], "--matrix"))
    fine = np.arange(356.0)
    curves = ref.interpolate_matrix(grid, probs, fine)

    def survival(i, t):
        k = int(np.searchsorted(fine, t, side="right")) - 1
        return 1.0 if k < 0 else float(curves[i, min(k, fine.size - 1)])

    def diff(i, j):
        return survival(j, times[i]) - survival(i, times[i])

    risks = ref.neg_rmst(fine, curves, 355.0)
    pec_tau = max(t for t, e in zip(times, events) if e == 1)
    assert_cell(loop_cell(times, events, lambda i, j: risks[i] - risks[j],
                          ref.PROFILES["pec"], pec_tau), inst["expected"]["pec"])
    for name in workloads.TD_PROFILES[1:]:
        assert_cell(loop_cell(times, events, diff, ref.PROFILES[name], None),
                    inst["expected"][name])
    assert inst["expected"]["pycox_ant"]["anchors_beyond_grid"] == sum(t > 355 for t in times)


def test_bias_sweep(small):
    inst = small("bias_sweep")
    n, seed = SMALL["bias_sweep"]["n"], int(arg(inst["argv"], "--seed"))
    cov, event_times, observed = ref.simulate_replicate(
        workloads.BIAS_EVENT, workloads.BIAS_CENSORING, n, seed, workloads.EPSILONS)
    fine = np.arange(356.0)
    risks = ref.neg_rmst(fine, ref.weibull_curves(workloads.BIAS_EVENT, cov, fine), 355.0)
    for (t, e), expected in zip(observed, inst["expected"]):
        t, e = t.tolist(), e.tolist()
        for name in workloads.BIAS_PROFILES:
            assert_cell(loop_cell(t, e, lambda i, j: risks[i] - risks[j], ref.PROFILES[name],
                                  workloads.BIAS_TAU), expected[name])
    t_star = float(event_times.max())
    grid = np.arange(math.floor(t_star) + 1.0)
    true_risks = ref.neg_rmst(grid, ref.weibull_curves(workloads.BIAS_EVENT, cov, grid),
                              t_star)
    oracle = {"tol": 0.0, "table": ref.ORACLE_TABLE, "weight": "uniform", "fold": False}
    cell = loop_cell(event_times.tolist(), [1] * n,
                     lambda i, j: true_risks[i] - true_risks[j], oracle, None)
    assert ref.close(cell["estimate"], inst["oracle"])


def test_compare_cells_flags_mismatches(small):
    inst = small("multiverse_scalar")
    expected = inst["expected"]
    results = [{"name": name, "error": cell["error"], "ci_lower": None, "ci_upper": None,
                "failed_resamples": 0, "dropped_pairs": cell.get("dropped_pairs"),
                "anchors_beyond_grid": 0, "tau_used": cell.get("tau_used"),
                "estimate": cell.get("estimate"), "numerator": cell.get("numerator"),
                "denominator": cell.get("denominator"),
                "per_case": {lab: {"pairs": v} for lab, v in cell.get("pairs", {}).items()}}
               for name, cell in expected.items()]
    assert ref.compare_cells(results, expected) == []
    results[0]["per_case"]["1A"]["pairs"] += 1
    results[1]["estimate"] *= 1 + 1e-9
    results[-1]["error"] = None
    assert len(ref.compare_cells(results, expected)) == 3


def test_self_time_subtracts_children():
    spans = [tracing.Span("job", 0.0, 10.0, -1, 0),
             tracing.Span("cli.main", 1.0, 9.0, 0, 0),
             tracing.Span("engine.concordance", 2.0, 5.0, 1, 0),
             tracing.Span("engine.concordance", 5.0, 6.0, 1, 0)]
    assert tracing.self_times(spans) == [2.0, 4.0, 3.0, 1.0]
