"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  The semi-synthetic comparisons (bias trend, comparable-pair
decline) share one precomputed sweep; everything is seeded and deterministic.
"""

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import survconcord
from survconcord import (
    ComputationError,
    RankRelation,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    Truncation,
    WeibullCensoring,
    WeibullPHParams,
    assemble,
    classify_pair,
    concordance,
    concordance_td,
    decompose,
    generate_censoring,
    generate_event_times,
    km_fit,
    neg_rmst,
    oracle_cindex,
    run_multiverse,
    subseed,
    tie_weighted_policy,
)
from survconcord.engine import TRUNC_NONE
from survconcord.profiles import get_profiles, pec_profile

from conftest import random_instance
from oracle import brute_force_oracle
from golden_tables import GOLDEN_CASE_TABLES, PEC_FLAG_TABLE


@contextlib.contextmanager
def gate(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


# --- shared semi-synthetic sweep -------------------------------------------

SWEEP_EPSILONS = (0.0, 0.5, 1.0, 3.0, 7.0, 13.0)
SWEEP_DATASETS = 24
SWEEP_N = 1000
SWEEP_SEED = 20250809
SWEEP_TAU = 100.0


@pytest.fixture(scope="module")
def synthetic_sweep():
    """Known-parameter study over increasing censoring levels.

    Event times from a Weibull proportional-hazards model (median ~60 for the
    baseline subject, strongly spread risks); censoring from a Weibull hazard
    scaled by epsilon.  Risks are the true-model negative restricted mean
    survival times on the common grid, so no fitting noise enters; the
    ground-truth value per dataset comes from the uncensored times.
    """
    t0 = time.time()
    gamma = 1.2
    lam = float(np.log(2) / 60.0**gamma)
    params = WeibullPHParams(shape=gamma, scale=lam, coefficients=[1.5, -1.0])
    common_grid = TimeGrid.regular(355.0)

    ipcw_policy = pec_profile().policy.replace(
        truncation=Truncation("value", SWEEP_TAU)
    )
    hmisc, survival_n, survival_n_g2 = get_profiles(
        ["hmisc", "survival_n", "survival_n_g2"]
    )
    unweighted_policy = hmisc.policy
    denom_uniform = survival_n.policy.replace(
        truncation=Truncation("value", SWEEP_TAU)
    )
    denom_ipcw = survival_n_g2.policy.replace(
        truncation=Truncation("value", SWEEP_TAU)
    )

    abs_err = {"ipcw": {e: [] for e in SWEEP_EPSILONS},
               "unweighted": {e: [] for e in SWEEP_EPSILONS}}
    denominators = {"uniform": {e: [] for e in SWEEP_EPSILONS},
                    "ipcw": {e: [] for e in SWEEP_EPSILONS}}
    censoring_rates = {e: [] for e in SWEEP_EPSILONS}

    for k in range(SWEEP_DATASETS):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(subseed(SWEEP_SEED, 2, k)))
        )
        covariates = rng.standard_normal((SWEEP_N, 2))
        event_times = generate_event_times(params, covariates, subseed(SWEEP_SEED, 0, k))
        oracle = oracle_cindex(params, covariates, event_times)
        risks = neg_rmst(params.survival_matrix(common_grid, covariates), 355.0)

        for e_idx, eps in enumerate(SWEEP_EPSILONS):
            mechanism = WeibullCensoring(shape=gamma, scale=lam, epsilon=eps)
            censor_times = generate_censoring(
                mechanism, event_times, covariates, subseed(SWEEP_SEED, 1, k, e_idx)
            )
            ds = assemble(event_times, censor_times)
            censoring_rates[eps].append(1.0 - ds.n_events / ds.n)
            est_i, _ = concordance(ds, risks, ipcw_policy)
            est_u, _ = concordance(ds, risks, unweighted_policy)
            abs_err["ipcw"][eps].append(abs(est_i - oracle))
            abs_err["unweighted"][eps].append(abs(est_u - oracle))
            denominators["uniform"][eps].append(
                concordance(ds, risks, denom_uniform)[1].denominator
            )
            denominators["ipcw"][eps].append(
                concordance(ds, risks, denom_ipcw)[1].denominator
            )

    return {
        "abs_err": abs_err,
        "denominators": denominators,
        "censoring_rates": censoring_rates,
        "elapsed": time.time() - t0,
    }


# --- criteria ----------------------------------------------------------------


def test_golden_case_table_conformance():
    """Every shipped profile reproduces its published pair table exactly."""
    rels = {
        RankRelation.GREATER: (0.9, 0.1),
        RankRelation.LESS: (0.1, 0.9),
        RankRelation.TIED: (0.4, 0.4),
    }
    sign_times = {-1: (1.0, 2.0), 0: (2.0, 2.0), 1: (2.0, 1.0)}
    tables = dict(GOLDEN_CASE_TABLES)
    profiles = {p.name: p for p in get_profiles()}
    for flags, entries in PEC_FLAG_TABLE.items():
        toi, tpi, tmi = flags
        prof = pec_profile(bool(tpi), bool(toi), bool(tmi))
        profiles[prof.name] = prof
        table = dict(GOLDEN_CASE_TABLES["pec"])
        table["1C"] = (1.0, 0.5) if tpi else None
        table["2C"] = (1.0, 0.5) if tpi else None
        table["5A"] = (1.0, 1.0) if toi else None
        table["5B"] = (1.0, 0.0) if toi else None
        table.update(entries)
        tables[prof.name] = table

    from survconcord import StepFunction

    trivial_g = StepFunction(np.empty(0), np.empty(0))  # G == 1 everywhere
    with gate("golden case tables"):
        checked = 0
        for name, golden in tables.items():
            profile = profiles[name]
            policy = profile.policy.replace(truncation=Truncation(TRUNC_NONE))
            for sign, (ti, tj) in sign_times.items():
                for di in (0, 1):
                    for dj in (0, 1):
                        for rel, (ri, rj) in rels.items():
                            label = classify_pair(ti, di, tj, dj, rel).value
                            ds = SurvivalDataset(times=[ti, tj], events=[di, dj])
                            if profile.requires_matrix:
                                sm = SurvivalMatrix(
                                    grid=TimeGrid([0.0, 10.0]),
                                    probs=[[1 - ri] * 2, [1 - rj] * 2],
                                )
                                try:
                                    _, tally = concordance_td(ds, sm, policy)
                                except ComputationError:
                                    tally = None
                            else:
                                try:
                                    _, tally = concordance(
                                        ds, [ri, rj], policy, g=trivial_g
                                    )
                                except ComputationError:
                                    tally = None
                            expected = golden[label]
                            if tally is None:
                                # Nothing comparable in either orientation.
                                assert expected is None or sign == 1, (name, label)
                                checked += 1
                                continue
                            comp = tally.case_comparable[label]
                            cred = tally.case_credit[label]
                            if expected is None:
                                assert comp == 0.0, (name, label)
                            else:
                                assert comp > 0.0, (name, label)
                                assert cred / comp == pytest.approx(
                                    expected[1], abs=1e-12
                                ), (name, label)
                            checked += 1
        assert checked == len(tables) * 36
        print(f"  {len(tables)} profiles x 36 grid combinations, all matched")


def test_oracle_equivalence_on_random_instances():
    """Vectorized engine equals the naive reference on 1000+ random inputs."""
    with gate("engine vs brute force"):
        t0 = time.time()
        rng = np.random.default_rng(1234)
        schemes = ["uniform", "uno_squared", "pec_product"]
        truncations = [
            Truncation(),
            Truncation("max_uncensored"),
            Truncation("value", 8.0),
        ]
        compared = 0
        attempts = 0
        while compared < 1000:
            attempts += 1
            ds, risks = random_instance(rng, n_max=200, tie_rich=bool(attempts % 2))
            policy = tie_weighted_policy(
                float(rng.integers(0, 2)),
                0.5 * float(rng.integers(0, 2)),
                tie_tolerance=float(rng.choice([0.0, 0.05])),
                weight_scheme=schemes[attempts % 3],
                truncation=truncations[attempts % 3],
                final_fold="max_with_complement" if attempts % 7 == 0 else "identity",
            )
            try:
                fast, _ = concordance(ds, risks, policy)
            except ComputationError:
                with pytest.raises(ComputationError):
                    brute_force_oracle(ds, risks, policy)
                continue
            slow = brute_force_oracle(ds, risks, policy)
            assert abs(fast - slow) <= 1e-12, (attempts, fast, slow)
            compared += 1

        # Same comparison through every shipped scalar case table, which
        # also exercises the non-standard credits (full-credit censored-
        # partner ties, half-credit discordant tied times, the 5x rows).
        scalar_profiles = [p for p in get_profiles() if not p.requires_matrix]
        extra = 0
        while extra < 200:
            ds, risks = random_instance(rng, n_max=100, tie_rich=True)
            profile = scalar_profiles[extra % len(scalar_profiles)]
            policy = profile.policy.replace(truncation=truncations[extra % 3])
            g = km_fit(ds, "censoring")
            try:
                fast, _ = concordance(ds, risks, policy, g=g)
            except ComputationError:
                with pytest.raises(ComputationError):
                    brute_force_oracle(ds, risks, policy, g=g)
                continue
            slow = brute_force_oracle(ds, risks, policy, g=g)
            assert abs(fast - slow) <= 1e-12, (profile.name, fast, slow)
            extra += 1

        elapsed = time.time() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"  {compared} instances + {extra} profile-table instances "
              f"in {elapsed:.1f}s")


def test_decomposition_identity():
    """Recombining the weighted-average blocks reproduces the estimate."""
    with gate("decomposition identity"):
        rng = np.random.default_rng(555)
        checked = 0
        while checked < 100:
            ds, risks = random_instance(rng, n_max=120, tie_rich=True)
            if ds.n < 4:
                continue
            for omega_o in (0.0, 1.0):
                for omega_p in (0.0, 0.5):
                    policy = tie_weighted_policy(omega_o, omega_p)
                    try:
                        estimate, tally = concordance(ds, risks, policy)
                    except ComputationError:
                        continue
                    report = decompose(tally)
                    assert abs(report.recombined - estimate) <= 1e-12
            checked += 1
        print(f"  {checked} tie-rich instances x 4 weight settings")


def test_collapse_without_censoring_or_ties():
    """All scalar profiles coincide exactly on clean data; pysurvival folds."""
    with gate("profile collapse"):
        rng = np.random.default_rng(2024)
        n = 60
        ds = SurvivalDataset(
            times=np.cumsum(rng.uniform(0.5, 2.0, n)), events=np.ones(n, int)
        )
        for risks in (rng.permutation(n).astype(float), -np.arange(float(n))):
            scalar = [p for p in get_profiles() if not p.requires_matrix]
            report = run_multiverse(
                ds, risks=risks, profiles=scalar, tau=Truncation(TRUNC_NONE)
            )
            base = report.result("hmisc").estimate
            for r in report.results:
                assert r.error is None, r.name
                if r.name.startswith("pysurvival"):
                    assert r.estimate == max(base, 1.0 - base), r.name
                else:
                    assert r.estimate == base, r.name
        print(f"  {len(scalar)} scalar profiles agree exactly on both rankings")


def test_uno_reduces_to_harrell():
    """With zero censoring and tau past the horizon, weighting cannot matter."""
    with gate("weights reduce to uniform"):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(3, 80))
            ds = SurvivalDataset(
                times=rng.exponential(10.0, n), events=np.ones(n, int)
            )
            risks = rng.normal(size=n)
            tau = Truncation("value", float(ds.times.max()) + 1.0)
            uniform, _ = concordance(
                ds, risks, tie_weighted_policy(0.0, 0.0, truncation=tau)
            )
            weighted, _ = concordance(
                ds, risks,
                tie_weighted_policy(
                    0.0, 0.0, weight_scheme="uno_squared", truncation=tau
                ),
            )
            assert weighted == uniform
        print("  25 uncensored datasets, exact equality")


def test_bias_trend_under_increasing_censoring(synthetic_sweep):
    """IPCW with truncation tracks the ground truth better at high censoring."""
    with gate("semi-synthetic bias trend"):
        err = synthetic_sweep["abs_err"]
        rates = synthetic_sweep["censoring_rates"]
        for eps in SWEEP_EPSILONS[-2:]:
            med_ipcw = statistics.median(err["ipcw"][eps])
            med_plain = statistics.median(err["unweighted"][eps])
            assert med_ipcw <= med_plain, (eps, med_ipcw, med_plain)
        assert synthetic_sweep["elapsed"] <= 600.0
        summary = ", ".join(
            f"eps={eps:g} ({np.mean(rates[eps]):.0%} censored): "
            f"ipcw {statistics.median(err['ipcw'][eps]):.4f} "
            f"vs plain {statistics.median(err['unweighted'][eps]):.4f}"
            for eps in SWEEP_EPSILONS[-2:]
        )
        print(f"  {summary}; sweep took {synthetic_sweep['elapsed']:.0f}s")


def test_comparable_pairs_decline(synthetic_sweep):
    """Censoring erodes comparable mass; weighting slows the erosion."""
    with gate("comparable-pair decline"):
        den = synthetic_sweep["denominators"]
        medians = [statistics.median(den["uniform"][eps]) for eps in SWEEP_EPSILONS]
        assert all(a > b for a, b in zip(medians, medians[1:])), medians
        top = SWEEP_EPSILONS[-1]
        ratio_uniform = statistics.median(
            [den["uniform"][top][k] / den["uniform"][0.0][k]
             for k in range(SWEEP_DATASETS)]
        )
        ratio_ipcw = statistics.median(
            [den["ipcw"][top][k] / den["ipcw"][0.0][k]
             for k in range(SWEEP_DATASETS)]
        )
        assert ratio_ipcw > ratio_uniform
        print(f"  retained mass at eps={top:g}: weighted {ratio_ipcw:.2f} "
              f"vs unweighted {ratio_uniform:.2f}")


def test_hand_enumerated_fixture(four_subjects):
    """The 4-subject fixture, checked against an in-test enumeration."""
    with gate("hand-enumerated fixture"):
        ds, risks = four_subjects

        def enumerate_by_hand(include_tied_times):
            num = den = 0.0
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    ti, tj = ds.times[i], ds.times[j]
                    di, dj = ds.events[i], ds.events[j]
                    if ti < tj and di == 1:
                        den += 1
                        num += float(risks[i] > risks[j])
                    elif ti == tj and di == 1 and dj == 0 and include_tied_times:
                        den += 1
                        num += float(risks[i] > risks[j])
            return num / den

        assert enumerate_by_hand(False) == 0.8
        assert enumerate_by_hand(True) == pytest.approx(2 / 3)
        est_plain, _ = concordance(ds, risks, tie_weighted_policy(0.0, 0.0))
        est_tied, _ = concordance(ds, risks, tie_weighted_policy(1.0, 0.0))
        assert est_plain == pytest.approx(0.8, abs=1e-15)
        assert est_tied == pytest.approx(2 / 3, abs=1e-15)
        print("  0.8 and 2/3 confirmed against independent enumeration")


def test_km_golden_values():
    """Product-limit fits match hand computations."""
    with gate("product-limit golden values"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            times = np.round(rng.exponential(5.0, n), 1)
            ds = SurvivalDataset(times=times, events=np.ones(n, int))
            f = km_fit(ds, "event")
            grid = np.unique(times)
            dropped = np.searchsorted(np.sort(times), grid, side="right")
            empirical = (n - dropped) / n
            assert np.array_equal(np.asarray(f.evaluate(grid)), empirical)
        mixed = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 0, 1])
        f = km_fit(mixed, "event")
        for t, expected in ((1.0, 2 / 3), (2.0, 2 / 3), (3.0, 0.0)):
            assert abs(f.evaluate(t) - expected) <= 1e-15
        print("  no-censoring equality exact; mixed fixture within 1e-15")


def test_transform_properties():
    """Risk reductions behave monotonically and stay finite."""
    with gate("transform properties"):
        rng = np.random.default_rng(31415)
        from survconcord import expected_mortality

        for _ in range(1000):
            m = int(rng.integers(2, 15))
            grid = TimeGrid(np.cumsum(rng.uniform(0.2, 3.0, m)) - 0.1)
            upper = np.sort(rng.random(m))[::-1]
            lower = upper * rng.uniform(0.0, 1.0)
            sm = SurvivalMatrix(grid=grid, probs=np.vstack([upper, lower]))
            t_star = float(grid.points[0]) + float(rng.uniform(0.1, 50.0))
            risks = neg_rmst(sm, t_star)
            assert risks[0] <= risks[1]

        flat = SurvivalMatrix(
            grid=TimeGrid.regular(20.0), probs=np.ones((3, 21))
        )
        assert np.all(neg_rmst(flat, 20.0) == -20.0)

        with_zeros = SurvivalMatrix(
            grid=TimeGrid([0.0, 1.0, 2.0]),
            probs=[[1.0, 0.4, 0.0], [1.0, 0.9, 0.5]],
        )
        em = expected_mortality(with_zeros)
        assert np.all(np.isfinite(em)) and em[0] > em[1]
        print("  1000 dominance checks, unit-curve horizon, finite with zeros")


def test_exponential_race_oracle():
    """Ground-truth concordance hits the closed-form two-group race odds."""
    with gate("exponential race oracle"):
        beta = 1.0
        params = WeibullPHParams(shape=1.0, scale=0.01, coefficients=[beta])
        target = float(np.exp(beta) / (1.0 + np.exp(beta)))
        datasets, n = 200, 500
        values = []
        for k in range(datasets):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(subseed(424242, 2, k)))
            )
            groups = (rng.random(n) < 0.5).astype(float).reshape(-1, 1)
            event_times = generate_event_times(params, groups, subseed(424242, 0, k))
            values.append(oracle_cindex(params, groups, event_times))
        estimate = float(np.mean(values))
        assert abs(estimate - target) < 0.01, (estimate, target)
        print(f"  {datasets * n} subject draws: {estimate:.4f} vs closed form "
              f"{target:.4f}")


def _run_cli(args, tmp_path, threads="1"):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    # Absolute root: the child runs in tmp_path, where a relative "src" breaks.
    root = str(Path(survconcord.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "survconcord.cli", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    return result


def test_cli_determinism(tmp_path):
    """Identical seeds give byte-identical outputs across runs and threads."""
    with gate("CLI determinism"):
        rng = np.random.default_rng(8)
        n = 40
        lines = ["id,time,event,risk"]
        for i in range(n):
            lines.append(
                f"s{i},{float(np.round(rng.exponential(5.0), 2))!r},"
                f"{int(rng.random() < 0.7)},{float(np.round(rng.normal(), 3))!r}"
            )
        subjects = tmp_path / "subjects.csv"
        subjects.write_text("\n".join(lines) + "\n")
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "event": {"shape": 1.1, "scale": 0.05, "coefficients": [0.8]},
            "censoring": {"shape": 1.1, "scale": 0.05},
        }))

        def run_all(tag, threads):
            outputs = {}
            r = _run_cli([
                "cindex", "--subjects", "subjects.csv", "--risk-col", "risk",
                "--profiles", "hmisc,pec,survival_n_g2,sksurv_censored",
                "--bootstrap", "15:30:0.9", "--seed", "17",
                "--out", f"report_{tag}",
            ], tmp_path, threads)
            assert r.returncode == 0, r.stderr
            outputs["json"] = (tmp_path / f"report_{tag}.json").read_bytes()
            outputs["csv"] = (tmp_path / f"report_{tag}.csv").read_bytes()
            r = _run_cli([
                "simulate", "--params", "params.json", "--n", "30",
                "--datasets", "2", "--epsilon-list", "0,1", "--seed", "23",
                "--out-dir", f"sim_{tag}",
            ], tmp_path, threads)
            assert r.returncode == 0, r.stderr
            sim_dir = tmp_path / f"sim_{tag}"
            for p in sorted(sim_dir.rglob("*")):
                if p.is_file():
                    outputs[str(p.relative_to(sim_dir))] = p.read_bytes()
            r = _run_cli(["km", "--subjects", "subjects.csv",
                          "--target", "censoring"], tmp_path, threads)
            assert r.returncode == 0, r.stderr
            outputs["km"] = r.stdout.encode()
            return outputs

        first = run_all("a", threads="1")
        second = run_all("b", threads="1")
        threaded = run_all("c", threads="4")
        assert first == second == threaded
        print("  cindex/simulate/km byte-identical across reruns and thread counts")
