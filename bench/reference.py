"""Independent reference results for the benchmark's correctness check.

Nothing here imports survconcord: the expected per-case pair counts,
estimates, bootstrap intervals and error cells are recomputed from the
generated input arrays with numpy alone, from the case taxonomy and the
documented profile definitions.  A change to the package therefore cannot
regenerate its own reference.  ``test_bench.py`` cross-checks these
vectorized counts against a plain double loop on down-sized inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LABELS = (
    "1A", "1B", "1C", "2A", "2B", "2C", "3", "4",
    "5A", "5B", "5C", "6A", "6B", "6C", "7A", "7B", "7C", "8",
)
N_CASES = len(LABELS)
_SLOT = {lab: k for k, lab in enumerate(LABELS)}


def classify(ti: float, di: int, tj: float, dj: int, rel: str) -> str:
    """Case label of the ordered pair anchored at i; ``rel`` is A, B or C."""
    if ti < tj:
        if di == 1:
            return ("1" if dj == 1 else "2") + rel
        return "3" if dj == 1 else "4"
    if ti > tj:
        return "3" if dj == 1 else "4"
    if di == 1:
        return ("5" if dj == 1 else "6") + rel
    return ("7" + rel) if dj == 1 else "8"


# (time order: i<j, i==j, i>j) x delta_i x delta_j x (A, B, C) -> slot
_LUT = np.array([
    [[[_SLOT[classify(ti, di, tj, dj, rel)] for rel in "ABC"]
      for dj in (0, 1)] for di in (0, 1)]
    for ti, tj in ((0.0, 1.0), (1.0, 1.0), (1.0, 0.0))
], dtype=np.intp)


def rel_codes(diff: np.ndarray, tol: float) -> np.ndarray:
    """0 (A, anchor riskier) where diff > tol, 1 (B) where diff < -tol, else 2 (C)."""
    out = np.full(diff.shape, 2, dtype=np.intp)
    out[diff > tol] = 0
    out[diff < -tol] = 1
    return out


def anchor_counts(times, events, diff_rows, tol: float, block: int = 256) -> np.ndarray:
    """(n, 18) integer pair counts per anchor and case, self-pairs excluded.

    ``diff_rows(a0, a1)`` returns the (a1-a0, n) matrix whose entry is
    positive when anchor i is ranked riskier than subject j.
    """
    n = times.size
    ev = events.astype(np.intp)
    out = np.zeros((n, N_CASES), dtype=np.int64)
    for a0 in range(0, n, block):
        a1 = min(a0 + block, n)
        b = a1 - a0
        ti = times[a0:a1, None]
        order = np.where(ti < times, 0, np.where(ti > times, 2, 1))
        rel = rel_codes(diff_rows(a0, a1), tol)
        case = _LUT[order, ev[a0:a1, None], ev[None, :], rel]
        flat = case + N_CASES * np.arange(b)[:, None]
        keep = np.ones((b, n), dtype=bool)
        keep[np.arange(b), np.arange(a0, a1)] = False
        out[a0:a1] = np.bincount(flat[keep], minlength=N_CASES * b).reshape(b, N_CASES)
    return out


def scalar_counts(times, events, risks, tol: float) -> np.ndarray:
    return anchor_counts(times, events, lambda a0, a1: risks[a0:a1, None] - risks, tol)


def td_counts(times, events, grid, probs, tol: float = 0.0) -> np.ndarray:
    """Counts when ranking by survival at the anchor's time (step lookup)."""
    col = np.searchsorted(grid, times, side="right") - 1
    below = col < 0
    col = np.clip(col, 0, grid.size - 1)

    def diff_rows(a0, a1):
        s = probs[:, col[a0:a1]].T.copy()
        s[below[a0:a1], :] = 1.0
        own = s[np.arange(a1 - a0), np.arange(a0, a1)]
        return s - own[:, None]

    return anchor_counts(times, events, diff_rows, tol)


# ---------------------------------------------------------------------------
# Profiles, as documented: case table {label: (comparable weight, credit)},
# tie tolerance, weighting, default truncation and final fold.

_STRICT = {"1A": (1, 1), "1B": (1, 0), "2A": (1, 1), "2B": (1, 0)}
_HALF_TIES = {"1C": (1, .5), "2C": (1, .5), "6A": (1, 1), "6B": (1, 0), "6C": (1, .5)}


def _profile(table, tol=0.0, weight="uniform", trunc="none", fold=False, td=False):
    return dict(table={**_STRICT, **table}, tol=tol, weight=weight, trunc=trunc,
                fold=fold, td=td)


PROFILES = {
    "hmisc": _profile(_HALF_TIES),
    "hmisc_outx": _profile({"6A": (1, 1), "6B": (1, 0)}),
    "survmetrics": _profile({"1C": (1, .5), "2C": (1, .5), "5A": (1, .5), "5B": (1, .5),
                             "5C": (1, 1), "6A": (1, 1), "6B": (1, .5), "6C": (1, .5)}),
    "lifelines": _profile(_HALF_TIES),
    "pysurvival": _profile(_HALF_TIES, weight="pec_product", fold=True),
    "pysurvival_noties": _profile({"1C": (1, 0), "2C": (1, 0), "6A": (1, 1),
                                   "6B": (1, 0), "6C": (1, 0)},
                                  weight="pec_product", fold=True),
    "sksurv_censored": _profile(_HALF_TIES, tol=1e-8),
    "sksurv_ipcw": _profile(_HALF_TIES, tol=1e-8, weight="uno_squared"),
    "pec": _profile({**_HALF_TIES, "5A": (1, 1), "5B": (1, 0), "5C": (1, 1)},
                    weight="pec_product", trunc="max_uncensored"),
    "survival_n": _profile(_HALF_TIES),
    "survival_n_g2": _profile(_HALF_TIES, weight="uno_squared"),
    "survc1": _profile({"1C": (1, .5), "2C": (1, 1)}, weight="uno_squared"),
    "pycox_ant": _profile({"1C": (1, 0), "2C": (1, 0), "6A": (1, 1), "6B": (1, 0),
                           "6C": (1, 0)}, td=True),
    "pycox_adj_ant": _profile({"1C": (1, .5), "2C": (1, .5), "5A": (1, .5),
                               "5B": (1, .5), "5C": (1, 1), "6A": (1, 1), "6B": (1, 0),
                               "6C": (1, .5), "7A": (1, 0), "7B": (1, 1),
                               "7C": (1, .5)}, td=True),
}

# The oracle concordance of the simulator: strict pairs only, tied predictions out.
ORACLE_TABLE = {"1A": (1, 1), "1B": (1, 0), "2A": (1, 1), "2B": (1, 0)}


def _table_arrays(table):
    cw = np.array([float(table.get(lab, (0, 0))[0]) for lab in LABELS])
    credit = np.array([float(table.get(lab, (0, 0))[1]) for lab in LABELS])
    return cw, credit


def km_censoring(times, events):
    """Censoring survivor function G as (jump times, values), exact rational product."""
    uniq = np.unique(times)
    jumps, values = [], []
    running = Fraction(1)
    for t in uniq:
        at_risk = int(np.count_nonzero(times >= t))
        d = int(np.count_nonzero((times == t) & (events == 0)))
        if d:
            running *= Fraction(at_risk - d, at_risk)
            jumps.append(float(t))
            values.append(float(running))
    return np.array(jumps), np.array(values)


def _step(jumps, values, t, side):
    if values.size == 0:
        return np.ones_like(t)
    idx = np.searchsorted(jumps, t, side=side) - 1
    return np.where(idx < 0, 1.0, values[np.clip(idx, 0, None)])


def anchor_weights(times, events, scheme: str) -> np.ndarray:
    """Inverse censoring weights fitted on the scored data; NaN where G = 0."""
    if scheme == "uniform":
        return np.ones(times.size)
    jumps, values = km_censoring(times, events)
    g_at = _step(jumps, values, times, "right")
    if scheme == "uno_squared":
        denom = g_at * g_at
    else:
        denom = _step(jumps, values, times, "left") * g_at
    return np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), np.nan)


class NoComparablePairs(Exception):
    pass


def reduce_counts(counts, times, weights, table, tau, fold) -> dict:
    """Fold per-anchor counts into one profile's cell."""
    cw, credit = _table_arrays(table)
    active = np.ones(times.size, dtype=bool) if tau is None else times < tau
    undefined = np.isnan(weights)
    used = counts[active & ~undefined]
    lost = counts[active & undefined]
    comparable = cw > 0
    pairs = used.sum(axis=0) + np.where(comparable, 0, lost.sum(axis=0))
    dropped = int(lost[:, comparable].sum())
    w = weights[active & ~undefined]
    numerator = math.fsum(w * (used @ (cw * credit)))
    denominator = math.fsum(w * (used @ cw))
    if denominator == 0:
        raise NoComparablePairs("no comparable pairs")
    estimate = numerator / denominator
    if fold:
        estimate = max(estimate, 1.0 - estimate)
    return {
        "pairs": {lab: int(v) for lab, v in zip(LABELS, pairs) if v > 0},
        "dropped_pairs": dropped,
        "estimate": estimate,
        "numerator": numerator,
        "denominator": denominator,
    }


def resolve_tau(profile, tau, times, events):
    if tau is not None:
        return tau
    if profile["trunc"] == "max_uncensored":
        return float(times[events == 1].max())
    return None


_NO_CI = {"ci_lower": None, "ci_upper": None, "failed_resamples": 0}


def score_scalar(names, times, events, risks, tau=None):
    """Reference cells for scalar profiles (td profiles become error cells)."""
    cells = {}
    counts_by_tol = {}
    for name in names:
        prof = PROFILES[name]
        if prof["td"]:
            cells[name] = {"error": "requires a survival matrix"}
            continue
        tol = prof["tol"]
        if tol not in counts_by_tol:
            counts_by_tol[tol] = scalar_counts(times, events, risks, tol)
        t = resolve_tau(prof, tau, times, events)
        w = anchor_weights(times, events, prof["weight"])
        try:
            cell = reduce_counts(counts_by_tol[tol], times, w, prof["table"], t, prof["fold"])
        except NoComparablePairs as exc:
            cells[name] = {"error": str(exc)}
            continue
        cell.update(error=None, tau_used=t, anchors_beyond_grid=0, **_NO_CI)
        cells[name] = cell
    return cells


def bootstrap_cells(names, times, events, risks, tau, n_resamples, seed, level=0.95):
    """Percentile intervals replaying the documented per-seed resample stream.

    Every profile sees the same resamples: resample r is
    ``PCG64(seed).integers(0, n, size=n)`` drawn r-th in sequence.
    """
    cells = score_scalar(names, times, events, risks, tau)
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = {name: [] for name in names}
    failed = {name: 0 for name in names}
    n = times.size
    for _ in range(n_resamples):
        draw = rng.integers(0, n, size=n)
        t, e, m = times[draw], events[draw], risks[draw]
        counts = {}
        for name in names:
            prof = PROFILES[name]
            if prof["tol"] not in counts:
                counts[prof["tol"]] = scalar_counts(t, e, m, prof["tol"])
            w = anchor_weights(t, e, prof["weight"])
            try:
                cell = reduce_counts(counts[prof["tol"]], t, w, prof["table"],
                                     resolve_tau(prof, tau, t, e), prof["fold"])
            except NoComparablePairs:
                failed[name] += 1
                continue
            samples[name].append(cell["estimate"])
    tail = (1.0 - level) / 2.0
    for name in names:
        lo, hi = np.quantile(np.array(samples[name]), [tail, 1.0 - tail])
        cells[name].update(ci_lower=float(lo), ci_upper=float(hi),
                           failed_resamples=failed[name])
    return cells


def interpolate_matrix(src_grid, probs, dst_grid):
    """Linear re-gridding as documented, then the matrix's monotone clamp."""
    out = np.empty((probs.shape[0], dst_grid.size))
    for i, row in enumerate(probs):
        left = 1.0 if src_grid[0] > 0 else row[0]
        out[i] = np.interp(dst_grid, src_grid, row, left=left, right=row[-1])
    return monotone_clamp(out)


def monotone_clamp(probs):
    return np.minimum.accumulate(np.clip(probs, 0.0, 1.0), axis=1)


def neg_rmst(grid, probs, t_star):
    nxt = np.append(grid[1:], np.inf)
    include = grid < t_star
    dt = np.minimum(nxt[include], t_star) - grid[include]
    return -(probs[:, include] * dt).sum(axis=1)


def score_td(names, times, events, grid, probs):
    cells = {}
    counts = None
    for name in names:
        prof = PROFILES[name]
        if counts is None:
            counts = td_counts(times, events, grid, probs)
        cell = reduce_counts(counts, times, np.ones(times.size), prof["table"], None,
                             prof["fold"])
        cell.update(error=None, tau_used=None, **_NO_CI,
                    anchors_beyond_grid=int(np.count_nonzero(times > grid[-1])))
        cells[name] = cell
    return cells


# ---------------------------------------------------------------------------
# Simulator replay for the bias sweep: the documented stream layout of
# ``survconcord simulate`` (covariates on subseed(seed, 2, k), event times on
# stream 0 of subseed(seed, 0, k), censoring on stream 1 of
# subseed(seed, 1, k, e)).

def subseed(seed: int, *path: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def simulate_replicate(event_params, cens_params, n, seed, epsilons, k=0):
    """Covariates, event times and per-epsilon (times, events) of dataset k."""
    beta = np.asarray(event_params["coefficients"], dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(subseed(seed, 2, k))))
    cov = rng.standard_normal((n, beta.size))
    lp = (cov * beta).sum(axis=1)
    u = 1.0 - _stream(subseed(seed, 0, k), 0).random(n)
    event_times = (-np.log(u) / (event_params["scale"] * np.exp(lp))) ** (
        1.0 / event_params["shape"])
    observed = []
    for e_idx, eps in enumerate(epsilons):
        crng = _stream(subseed(seed, 1, k, e_idx), 1)
        if eps == 0:
            censor = np.full(n, np.inf)
        else:
            u = 1.0 - crng.random(n)
            rate = eps * cens_params["scale"]
            censor = (-np.log(u) / rate) ** (1.0 / cens_params["shape"])
        observed.append((np.minimum(event_times, censor),
                         (event_times < censor).astype(np.int8)))
    return cov, event_times, observed


def weibull_curves(event_params, cov, grid):
    beta = np.asarray(event_params["coefficients"], dtype=float)
    rate = event_params["scale"] * np.exp((cov * beta).sum(axis=1))
    return monotone_clamp(np.exp(-rate[:, None] * grid[None, :] ** event_params["shape"]))


def oracle_value(event_params, cov, event_times) -> float:
    t_star = float(event_times.max())
    grid = 1.0 * np.arange(int(math.floor(t_star + 1e-12)) + 1)
    risks = neg_rmst(grid, weibull_curves(event_params, cov, grid), t_star)
    ones = np.ones(event_times.size, dtype=np.int8)
    counts = scalar_counts(event_times, ones, risks, 0.0)
    return reduce_counts(counts, event_times, np.ones(event_times.size), ORACLE_TABLE,
                         None, False)["estimate"]


# ---------------------------------------------------------------------------
# Comparison of a report's cells with the reference.

REL_TOL = 1e-12
_FLOAT_KEYS = ("estimate", "numerator", "denominator", "ci_lower", "ci_upper", "tau_used")
_EXACT_KEYS = ("dropped_pairs", "failed_resamples", "anchors_beyond_grid")


def close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_cells(results: list[dict], expected: dict) -> list[str]:
    """Mismatches between report result dicts and reference cells (empty = correct)."""
    problems = []
    got_names = [r["name"] for r in results]
    if got_names != list(expected):
        return [f"profiles {got_names} != {list(expected)}"]
    for r in results:
        want = expected[r["name"]]
        where = r["name"]
        if r.get("error") != want["error"]:
            problems.append(f"{where}: error {r.get('error')!r} != {want['error']!r}")
            continue
        if want["error"] is not None:
            continue
        pairs = {lab: v["pairs"] for lab, v in r["per_case"].items() if v["pairs"] > 0}
        if pairs != want["pairs"]:
            problems.append(f"{where}: per-case pairs {pairs} != {want['pairs']}")
        for key in _EXACT_KEYS:
            if key in want and r[key] != want[key]:
                problems.append(f"{where}: {key} {r[key]} != {want[key]}")
        for key in _FLOAT_KEYS:
            if key in want and not close(r[key], want[key]):
                problems.append(f"{where}: {key} {r[key]!r} != {want[key]!r}")
    return problems
