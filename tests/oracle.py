"""Naive reference estimators and pair counts used to check the engine."""

import csv
import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from survconcord import (
    ComputationError,
    InputError,
    RankRelation,
    StepFunction,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    classify_pair,
    km_fit,
)
from survconcord.data import CASE_ORDER, as_risk_array
from survconcord.engine import (
    FOLD_MAX_COMPLEMENT,
    G_SOURCE_PROVIDED,
    ConcordancePolicy,
    PairTally,
)
from survconcord.engine import WEIGHT_UNIFORM, WEIGHT_UNO_SQUARED
from survconcord.io import _parse_float


BRUTE_FORCE_LIMIT = 2000


def km_reference(ds: SurvivalDataset, target: str = "event"):
    """Naive product-limit fit: jump times and values, as lists.

    Each distinct time is spelt as it first occurs in input order, so -0.0
    and 0.0 keep their sign.  A time with d > 0 events of ``target``'s kind
    and n = #{T >= t} at risk contributes the factor (n - d) / n; each
    jump's value is the exact Fraction product of the factors up to it.
    """
    times = ds.times.tolist()
    hits = (ds.events == (1 if target == "event" else 0)).tolist()
    factor = {}
    for t in dict.fromkeys(times):  # distinct times, first spelling kept
        d = sum(h for u, h in zip(times, hits) if u == t)
        if d:
            at_risk = sum(u >= t for u in times)
            factor[t] = Fraction(at_risk - d, at_risk)
    jumps = sorted(factor)
    values = [float(math.prod(f for u, f in factor.items() if u <= t)) for t in jumps]
    return jumps, values


def _folded(num: float, den: float, policy: ConcordancePolicy) -> float:
    """num / den, reported as max(C, 1 - C) under the max_with_complement fold."""
    if den == 0:
        raise ComputationError("no comparable pairs")
    c = num / den
    return max(c, 1.0 - c) if policy.final_fold == FOLD_MAX_COMPLEMENT else c


def brute_force_oracle(
    ds: SurvivalDataset,
    risks,
    policy: ConcordancePolicy,
    g: StepFunction | None = None,
) -> float:
    """Reference implementation: plain double loop over ordered pairs.

    Kept deliberately naive (scalar classification and accumulation, no
    shared intermediates with the vectorized path) so it can serve as an
    independent check; guarded to small inputs.
    """
    if ds.n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute force reference is limited to n <= {BRUTE_FORCE_LIMIT}")
    m = as_risk_array(risks, ds.n)
    tau = policy.truncation.resolve(ds.times[ds.events == 1])
    tol = policy.tie_tolerance

    if policy.weight_scheme == WEIGHT_UNIFORM:
        g = None
    elif g is None:
        if policy.g_source == G_SOURCE_PROVIDED:
            raise InputError(
                "policy requires an externally fitted censoring distribution"
            )
        g = km_fit(ds, target="censoring")

    rules = {case: policy.case_table[case] for case in CASE_ORDER}
    times, events = ds.times, ds.events
    num = 0.0
    den = 0.0
    for i in range(ds.n):
        ti, di, mi = float(times[i]), int(events[i]), m[i]
        if tau is not None and not ti < tau:
            continue
        if g is None:
            wi = 1.0
        else:
            g_at = g.evaluate(ti)
            if policy.weight_scheme == WEIGHT_UNO_SQUARED:
                denom_w = g_at * g_at
            else:
                denom_w = g.evaluate_left(ti) * g_at
            wi = 1.0 / denom_w if denom_w > 0 else math.nan
            if math.isinf(wi):  # 1 / G^2 overflows: undefined, as for G = 0
                wi = math.nan
        for j in range(ds.n):
            if i == j:
                continue
            diff = mi - m[j]
            if diff > tol:
                rel = RankRelation.GREATER
            elif diff < -tol:
                rel = RankRelation.LESS
            else:
                rel = RankRelation.TIED
            rule = rules[classify_pair(ti, di, float(times[j]), int(events[j]), rel)]
            if rule.comparable_weight == 0 or math.isnan(wi):
                continue
            den += wi * rule.comparable_weight
            num += wi * rule.comparable_weight * rule.credit
    return _folded(num, den, policy)


def td_brute_force_oracle(ds: SurvivalDataset, sm, policy: ConcordancePolicy) -> float:
    """Per-pair time-dependent reference with explicit step lookups.

    Ranks each ordered pair by both curves evaluated at the anchor's time
    (before the grid a curve is 1, beyond it the last value carries forward).
    Uniform weights only; truncation, tie tolerance and fold follow the policy.
    """
    if policy.weight_scheme != WEIGHT_UNIFORM:
        raise InputError("td brute force reference supports uniform weights only")
    grid = sm.grid.points
    tau = policy.truncation.resolve(ds.times[ds.events == 1])
    tol = policy.tie_tolerance

    def lookup(row, t):
        k = -1
        while k + 1 < len(grid) and grid[k + 1] <= t:
            k += 1
        return 1.0 if k < 0 else float(sm.probs[row, k])

    times, events = ds.times, ds.events
    num = den = 0.0
    for i in range(ds.n):
        ti = float(times[i])
        if tau is not None and not ti < tau:
            continue
        s_i = lookup(i, ti)
        for j in range(ds.n):
            if i == j:
                continue
            diff = lookup(j, ti) - s_i
            if diff > tol:
                rel = RankRelation.GREATER
            elif diff < -tol:
                rel = RankRelation.LESS
            else:
                rel = RankRelation.TIED
            rule = policy.case_table[
                classify_pair(ti, int(events[i]), float(times[j]), int(events[j]), rel)
            ]
            den += rule.comparable_weight
            num += rule.comparable_weight * rule.credit
    return _folded(num, den, policy)


_RELATIONS = (RankRelation.GREATER, RankRelation.LESS, RankRelation.TIED)

# (sign(T_i - T_j) + 1, delta_i, delta_j, rank code) -> index into CASE_ORDER.
_CASE_OF = np.array([
    [[[CASE_ORDER.index(classify_pair(ti, di, tj, dj, rel)) for rel in _RELATIONS]
      for dj in (0, 1)]
     for di in (0, 1)]
    for ti, tj in ((0.0, 1.0), (1.0, 1.0), (1.0, 0.0))
])


def _rank_codes(diff: np.ndarray, tol: float) -> np.ndarray:
    """Index into ``_RELATIONS``: greater above tol, less below -tol, else tied."""
    return np.where(diff > tol, 0, np.where(diff < -tol, 1, 2))


def _dense_counts(times, events, codes: np.ndarray) -> np.ndarray:
    """Counts per anchor row and case from the rank code of every ordered pair."""
    n = times.size
    n_cases = len(CASE_ORDER)
    sign = np.sign(times[:, None] - times[None, :]).astype(int) + 1
    ev = np.asarray(events, dtype=int)
    case = _CASE_OF[sign, ev[:, None], ev[None, :], codes]
    others = ~np.eye(n, dtype=bool)
    key = (np.arange(n)[:, None] * n_cases + case)[others]
    return np.bincount(key, minlength=n * n_cases).reshape(n, n_cases)


def dense_scalar_counts(times, events, risks, tol: float) -> np.ndarray:
    """Scalar case counts from every pair's rank relation ``m_i - m_j``."""
    return _dense_counts(times, events, _rank_codes(risks[:, None] - risks[None, :], tol))


def dense_curve_counts(times, events, sm, tol: float) -> tuple[np.ndarray, int]:
    """Curve case counts and the number of anchors beyond the grid.

    Both curves of a pair are read at the anchor's time: a curve is 1 before
    the first grid point and the value at the last grid point at or below the
    time otherwise.  The anchor ranks greater (riskier) when the partner's
    value exceeds its own by more than ``tol``.
    """
    grid = np.asarray(sm.grid.points)
    last = (grid[None, :] <= times[:, None]).sum(axis=1) - 1
    # s[i, j] = S_j(T_i)
    s = np.where(last[:, None] < 0, 1.0, np.asarray(sm.probs)[:, np.maximum(last, 0)].T)
    counts = _dense_counts(times, events, _rank_codes(s - np.diag(s)[:, None], tol))
    return counts, int(np.count_nonzero(times > grid[-1]))


def fsum_reduce(
    counts: np.ndarray,
    times: np.ndarray,
    policy: ConcordancePolicy,
    weights: np.ndarray,
    tau: float | None,
    anchors_beyond_grid: int = 0,
) -> PairTally:
    """Reference for ``engine._reduce``: one ``math.fsum`` per weighted sum.

    Anchors with T_i >= tau are left out.  An anchor whose weight is NaN
    (G = 0) drops its pairs in comparable cases; they are counted in
    ``dropped_pairs`` instead of ``case_counts``.  Every weighted sum is one
    correctly rounded ``math.fsum`` over anchors, so it does not depend on
    how the counts were produced.
    """
    cw = np.array([policy.case_table[c].comparable_weight for c in CASE_ORDER])
    cr = np.array([policy.case_table[c].credit for c in CASE_ORDER])
    comparable = cw > 0
    active = np.ones(times.size, dtype=bool) if tau is None else times < tau
    undefined = active & np.isnan(weights)
    dropped_by_case = counts[undefined].sum(axis=0) * comparable
    case_counts = counts[active].sum(axis=0) - dropped_by_case

    live = active & ~undefined
    pair_comp = weights[live, None] * cw[comparable]
    pair_cred = pair_comp * cr[comparable]
    live_counts = counts[live][:, comparable]
    comp_terms = live_counts * pair_comp
    cred_terms = live_counts * pair_cred
    comp = np.zeros(cw.size)
    cred = np.zeros(cw.size)
    comp[comparable] = [math.fsum(col) for col in comp_terms.T.tolist()]
    cred[comparable] = [math.fsum(col) for col in cred_terms.T.tolist()]

    def by_label(values, cast):
        return MappingProxyType({c.value: cast(v) for c, v in zip(CASE_ORDER, values)})

    return PairTally(
        case_counts=by_label(case_counts, int),
        case_comparable=by_label(comp, float),
        case_credit=by_label(cred, float),
        numerator=math.fsum(cred_terms.ravel().tolist()),
        denominator=math.fsum(comp_terms.ravel().tolist()),
        dropped_pairs=int(dropped_by_case.sum()),
        anchors_beyond_grid=anchors_beyond_grid,
        policy=policy,
        tau=tau,
    )


def interpolate_reference(src, probs, dst) -> np.ndarray:
    """Re-grid each row with its own ``np.interp`` call: below the source grid
    the anchor 1 when the grid starts after time 0 (the first value
    otherwise), beyond it the last value carried forward."""
    out = np.empty((probs.shape[0], dst.size))
    for i, row in enumerate(probs):
        left = 1.0 if src[0] > 0 else row[0]
        out[i] = np.interp(dst, src, row, left=left, right=row[-1])
    return out


def normalized_reference(probs) -> np.ndarray:
    """A survival matrix's normalization done unconditionally: every value
    clamped to [0, 1], then each row's running minimum."""
    return np.minimum.accumulate(np.clip(probs, 0.0, 1.0), axis=1)


def _reference_rows(path):
    """The header, then ``(line number, fields)`` per non-blank row, from
    ``csv.reader`` streaming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}:1: empty file")
            yield header
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(f"{path}:{lineno}: expected {len(header)} "
                                     f"fields, got {len(row)}")
                yield lineno, row
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_subjects_reference(path, risk_col=None):
    """``io.read_subjects_csv`` one row and one ``_parse_float`` at a time."""
    rows = _reference_rows(path)
    header = next(rows)
    if header[:3] != ["id", "time", "event"]:
        raise InputError(f"{path}:1: header must start with id,time,event "
                         f"(got {','.join(header[:3])})")
    cov_cols, risk_idx = [], None
    for pos, name in enumerate(header[3:], start=3):
        if risk_col is not None and name == risk_col:
            if risk_idx is not None:
                raise InputError(f"{path}:1: risk column {risk_col!r} is named twice")
            risk_idx = pos
        elif name == f"cov_{len(cov_cols) + 1}":
            cov_cols.append(pos)
        elif name != "risk":
            raise InputError(f"{path}:1: unexpected column {name!r} "
                             f"(expected cov_{len(cov_cols) + 1}"
                             + (f" or {risk_col!r}" if risk_col else "") + ")")
    if risk_col is not None and risk_idx is None:
        raise InputError(f"{path}:1: risk column {risk_col!r} not found")
    ids, times, events, risks, covs = [], [], [], [], []
    for lineno, row in rows:
        where = f"{path}:{lineno}"
        time = _parse_float(row[1], where, "time")
        if time < 0:
            raise InputError(f"{where}: negative time {row[1]!r}")
        if row[2] not in ("0", "1"):
            raise InputError(f"{where}: event must be 0 or 1, got {row[2]!r}")
        if risk_idx is not None:
            risks.append(_parse_float(row[risk_idx], where, "risk"))
        covs.append([_parse_float(row[c], where, header[c]) for c in cov_cols])
        ids.append(row[0])
        times.append(time)
        events.append(row[2] == "1")
    if not ids:
        raise InputError(f"{path}: no records")
    ds = SurvivalDataset(times=np.array(times), events=np.array(events),
                         subject_ids=tuple(ids),
                         covariates=np.array(covs) if cov_cols else None)
    return ds, (np.array(risks) if risk_idx is not None else None)


def read_matrix_reference(path, expected_ids):
    """``io.read_matrix_csv`` one row and one ``_parse_float`` at a time."""
    rows = _reference_rows(path)
    header = next(rows)
    if not header or header[0] != "id":
        raise InputError(f"{path}:1: first column must be 'id'")
    points = [_parse_float(h, f"{path}:1", f"grid time {h!r}") for h in header[1:]]
    try:
        grid = TimeGrid(np.array(points))
    except InputError as exc:
        raise InputError(f"{path}:1: {exc}") from None
    ids, linenos, probs = [], [], []
    for lineno, row in rows:
        probs.append([_parse_float(v, f"{path}:{lineno}", "survival value")
                      for v in row[1:]])
        ids.append(row[0])
        linenos.append(lineno)
    expected = list(expected_ids)
    if len(ids) != len(expected):
        raise InputError(f"{path}: {len(ids)} rows, but {len(expected)} in the subjects "
                         f"file; rows must follow the subjects file row order")
    for lineno, got, want in zip(linenos, ids, expected):
        if got != want:
            raise InputError(f"{path}:{lineno}: subject id {got!r} does not follow the "
                             f"subjects file row order, which has {want!r} there")
    try:
        return SurvivalMatrix(grid=grid, probs=np.array(probs).reshape(-1, len(grid)))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_pool_reference(path):
    """``io.read_covariate_pool`` one row and one ``_parse_float`` at a time."""
    rows = _reference_rows(path)
    header = next(rows)
    pool = [[_parse_float(v, f"{path}:{lineno}", name) for v, name in zip(row, header)]
            for lineno, row in rows]
    if not pool:
        raise InputError(f"{path}: no covariate rows")
    return np.array(pool).reshape(-1, len(header))
