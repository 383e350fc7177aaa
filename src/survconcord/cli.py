"""Command-line interface.

Three subcommands:

``cindex``    read a subjects file (and optionally a survival-matrix file),
              apply a risk transform, evaluate the requested profiles and
              write a JSON report plus a CSV table.
``simulate``  generate semi-synthetic datasets under a censoring mechanism
              and an epsilon sweep, with ground-truth concordance values
              alongside.
``km``        emit the fitted event or censoring survivor function as CSV.

All commands are deterministic given ``--seed``: outputs carry no timestamps
and numbers are written in shortest round-trip form, so repeated runs are
byte-identical.

Exit codes: 0 success (individual profiles may still carry error cells),
2 input error, 3 computation error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io as sio
from .data import (
    ComputationError,
    InputError,
    SurvivalDataset,
    TimeGrid,
    _reject_unknown_keys,
    as_float,
)
from .engine import TRUNC_MAX_UNCENSORED, TRUNC_NONE, TRUNC_VALUE, Truncation, km_fit
from .profiles import (_TRANSFORM_NUMBERS, BootstrapSpec, TransformSpec, get_profiles,
                       run_multiverse)
from .synthetic import (
    UniformQuantileCensoring,
    WeibullCensoring,
    WeibullPHParams,
    assemble,
    generate_censoring,
    generate_event_times,
    oracle_cindex,
    subseed,
)
from .transforms import DEFAULT_HORIZON, interpolate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _parse_transform(text: str) -> TransformSpec:
    kind, _, arg = text.partition(":")
    if kind not in _TRANSFORM_NUMBERS:
        raise InputError(
            f"unknown transform {text!r}; expected at-time:<t>, expected-mortality "
            f"or neg-rmst[:<horizon>]"
        )
    if not _TRANSFORM_NUMBERS[kind]:
        if arg:
            raise InputError(f"{kind} transform takes no argument, got {arg!r}")
        return TransformSpec(kind=kind)
    (name,) = _TRANSFORM_NUMBERS[kind]
    if arg:
        value = sio._parse_float(arg, "--transform", name)
    elif name == "horizon":
        value = DEFAULT_HORIZON
    else:
        raise InputError(f"{kind} transform needs a {name}, e.g. {kind}:120")
    return TransformSpec(kind, **{name: value})


def _parse_tau(text: str) -> Truncation:
    if text == "none":
        return Truncation(mode=TRUNC_NONE)
    if text == "max-uncensored":
        return Truncation(mode=TRUNC_MAX_UNCENSORED)
    try:
        value = sio._decimal(text)
    except ValueError:
        raise InputError(
            f"invalid --tau {text!r}; expected none, max-uncensored or a number"
        ) from None
    return Truncation(mode=TRUNC_VALUE, value=value)


def _parse_grid(text: str) -> TimeGrid:
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise InputError("grid must be start:stop[:step] or a comma list")
        start, stop = (sio._parse_float(v, "--grid", "grid bound") for v in parts[:2])
        step = sio._parse_float(parts[2], "--grid", "step") if len(parts) == 3 else 1.0
        return TimeGrid.regular(stop, step=step, start=start)
    times = [sio._parse_float(v, "--grid", "grid time") for v in text.split(",")]
    return TimeGrid(np.array(times))


def _parse_bootstrap(text: str) -> BootstrapSpec:
    parts = text.split(":")
    if len(parts) > 3:
        raise InputError("bootstrap spec is B[:size[:level]]")
    try:  # only the parts given: BootstrapSpec defaults the rest
        given = {"n_resamples": int(parts[0])}
        if len(parts) > 1 and parts[1]:
            given["sample_size"] = int(parts[1])
        if len(parts) > 2:
            given["level"] = sio._decimal(parts[2])
    except ValueError:
        raise InputError(f"invalid --bootstrap {text!r}") from None
    return BootstrapSpec(**given)


def _select_profiles(names: str | None, profile_file: str | None):
    """``--profiles`` names resolve against the builtins and the file's profiles
    (all builtins without names); every file profile is scored after them."""
    extra = sio.load_profiles_file(profile_file) if profile_file else []
    try:
        every = get_profiles(None, extra)
    except InputError as exc:  # without names, only a file profile's name can fail
        raise InputError(f"{profile_file}: {exc}") from None
    if names is None:
        return every
    chosen = get_profiles([n.strip() for n in names.split(",")], extra)
    named = {p.name for p in chosen}
    return chosen + [p for p in extra if p.name not in named]


def cmd_cindex(args: argparse.Namespace) -> int:
    # Every option is checked before the data files are read.
    profiles = _select_profiles(args.profiles, args.profile_file)
    grid = _parse_grid(args.grid) if args.grid else None
    transform = _parse_transform(args.transform) if args.transform else None
    tau = _parse_tau(args.tau) if args.tau else None
    bootstrap = _parse_bootstrap(args.bootstrap) if args.bootstrap else None

    ds, risks = sio.read_subjects_csv(args.subjects, risk_col=args.risk_col)
    matrix = None
    if args.matrix:
        matrix = sio.read_matrix_csv(args.matrix, ds.subject_ids)
        if grid is not None:
            matrix = interpolate(matrix, grid)

    report = run_multiverse(
        ds,
        risks=risks,
        matrix=matrix,
        profiles=profiles,
        transform=transform,
        tau=tau,
        bootstrap=bootstrap,
        seed=args.seed,
    )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    json_path = Path(str(out) + ".json")
    csv_path = Path(str(out) + ".csv")
    sio.write_json(json_path, report.to_dict())
    sio.write_report_csv(csv_path, report)
    for r in report.results:
        status = f"{r.estimate!r}" if r.error is None else f"error: {r.error}"
        print(f"{r.name}: {status}")
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_OK


#: The params file's censoring defaults; beta_age defaults in WeibullCensoring.
_CENSORING_DEFAULTS = {"shape": 1.0, "scale": 1.0, "age_column": 0}
#: Every WeibullCensoring field but epsilon, which --epsilon-list sets.
_CENSORING_KEYS = [f.name for f in fields(WeibullCensoring) if f.name != "epsilon"]


def _load_params(path: str) -> tuple[dict, WeibullPHParams, dict]:
    """The params file as read, its event model and its censoring settings;
    every number in the file must be a number, not a string or a boolean,
    and every key one that the event model or the censoring takes."""
    raw = sio.read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("event"), dict):
        raise InputError(f"{path}: missing 'event' parameter block")
    event, cens = raw["event"], raw.get("censoring", {})
    if not isinstance(cens, dict):
        raise InputError(f"{path}: 'censoring' must be an object")
    try:
        _reject_unknown_keys(raw, ("event", "censoring"), "parameter")
        _reject_unknown_keys(event, WeibullPHParams, "event")
        _reject_unknown_keys(cens, _CENSORING_KEYS, "censoring")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    coefficients = event.get("coefficients", [])
    try:
        if not isinstance(coefficients, list):
            raise InputError(f"coefficients must be a JSON array, got {coefficients!r}")
        params = WeibullPHParams(event["shape"], event["scale"], coefficients)
        settings = {k: v if k == "age_column" else as_float(v, f"censoring {k}")
                    for k, v in {**_CENSORING_DEFAULTS, **cens}.items()}
    except KeyError as exc:
        raise InputError(f"{path}: event block missing {exc}") from None
    except InputError as exc:
        raise InputError(f"{path}: invalid parameter ({exc})") from None
    return raw, params, settings


def _censoring_mechanism(name: str, cens: dict, epsilon: float):
    if name == "weibull_scaled":
        return WeibullCensoring(cens["shape"], cens["scale"], epsilon)
    if name == "age_informed":
        if cens["age_column"] is None:
            raise InputError("age_informed censoring needs an integer age_column")
        return WeibullCensoring(epsilon=epsilon, **cens)
    if name == "uniform_quantile":
        return UniformQuantileCensoring(epsilon=epsilon)
    raise InputError(
        f"unknown mechanism {name!r}; expected weibull_scaled, age_informed "
        f"or uniform_quantile"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    raw, params, cens_block = _load_params(args.params)
    mechanism_name = args.mechanism.replace("-", "_")
    epsilons = [
        sio._parse_float(v, "--epsilon-list", "epsilon")
        for v in args.epsilon_list.split(",")
    ]
    # Each epsilon names a directory by its "g" tag, so tags must not repeat.
    eps_tags = {eps: format(eps, "g") for eps in epsilons}
    if len(set(eps_tags.values())) < len(epsilons):
        raise InputError(f"--epsilon-list: repeated epsilon in {args.epsilon_list!r}")
    # Instantiating every mechanism up front validates epsilon ranges early.
    mechanisms = {
        eps: _censoring_mechanism(mechanism_name, cens_block, eps) for eps in epsilons
    }

    pool = sio.read_covariate_pool(args.covariates) if args.covariates else None
    p = params.coefficients.size
    for mechanism in mechanisms.values():
        mechanism.check_covariates(p)
    if pool is not None and pool.shape[1] != p:
        raise InputError(
            f"covariate pool has {pool.shape[1]} columns but the model has "
            f"{p} coefficients"
        )
    if pool is not None and pool.shape[0] < args.n:
        raise InputError(
            f"covariate pool has {pool.shape[0]} rows, need at least {args.n}"
        )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(3, len(str(args.datasets - 1)))
    for eps in epsilons:
        (out_dir / f"eps_{eps_tags[eps]}").mkdir(exist_ok=True)
    (out_dir / "uncensored").mkdir(exist_ok=True)

    oracle_rows = []
    summary_rows = []
    for k in range(args.datasets):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(subseed(args.seed, 2, k)))
        )
        if pool is not None:
            covariates = pool[rng.choice(pool.shape[0], size=args.n, replace=False)]
        else:
            covariates = rng.standard_normal((args.n, p))
        event_times = generate_event_times(params, covariates, subseed(args.seed, 0, k))
        name = f"dataset_{k:0{width}d}.csv"
        uncensored = SurvivalDataset(
            times=event_times,
            events=np.ones(args.n, dtype=np.int8),
            covariates=covariates,
        )
        sio.write_subjects_csv(out_dir / "uncensored" / name, uncensored)
        try:
            oracle = oracle_cindex(params, covariates, event_times)
        except ComputationError:
            oracle = None  # e.g. zero-effect model: every true curve ties
        oracle_rows.append((k, float(event_times.max()), oracle))

        for e_idx, eps in enumerate(epsilons):
            censor_times = generate_censoring(
                mechanisms[eps], event_times, covariates,
                subseed(args.seed, 1, k, e_idx),
            )
            ds = assemble(event_times, censor_times, covariates=covariates)
            sio.write_subjects_csv(out_dir / f"eps_{eps_tags[eps]}" / name, ds)
            summary_rows.append(
                (eps_tags[eps], k, ds.n_events, (ds.n - ds.n_events) / ds.n)
            )

    sio.write_csv(out_dir / "oracle.csv", ["dataset", "t_star", "oracle_cindex"],
                  oracle_rows)
    sio.write_csv(out_dir / "summary.csv",
                  ["epsilon", "dataset", "n_events", "censoring_rate"], summary_rows)
    manifest = {
        "datasets": args.datasets,
        "epsilons": epsilons,
        "mechanism": mechanism_name,
        "n": args.n,
        "parameters": raw,
        "seed": args.seed,
        "covariates": "pool" if pool is not None else "standard_normal",
    }
    sio.write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {args.datasets} datasets x {len(epsilons)} censoring levels "
          f"to {out_dir}")
    return EXIT_OK


def cmd_km(args: argparse.Namespace) -> int:
    ds, _ = sio.read_subjects_csv(args.subjects)
    sf = km_fit(ds, target=args.target)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    sio.write_step_function_csv(args.out or sys.stdout, sf)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survconcord",
        description="Concordance-index estimation for right-censored predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cindex", help="evaluate concordance profiles on a dataset")
    p.add_argument("--subjects", required=True, help="subjects CSV (id,time,event,...)")
    p.add_argument("--matrix", help="survival matrix CSV aligned with the subjects")
    p.add_argument("--risk-col", help="name of the risk column in the subjects file")
    p.add_argument("--transform",
                   help="at-time:<t> | expected-mortality | neg-rmst[:<horizon>]")
    p.add_argument("--grid", help="interpolate the matrix onto start:stop[:step] "
                                  "or a comma-separated grid")
    p.add_argument("--profiles", help="comma-separated profile names (default: all)")
    p.add_argument("--profile-file", help="JSON file with additional profile definitions")
    p.add_argument("--tau", help="none | max-uncensored | <number>; overrides "
                                 "every profile's truncation default")
    p.add_argument("--bootstrap", help="B[:size[:level]] percentile bootstrap CIs")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output path prefix (.json and .csv)")
    p.set_defaults(func=cmd_cindex)

    p = sub.add_parser("simulate", help="generate semi-synthetic datasets")
    p.add_argument("--params", required=True, help="JSON file with event/censoring "
                                                   "model parameters")
    p.add_argument("--n", type=_int_at_least(1), default=1000,
                   help="subjects per dataset")
    p.add_argument("--datasets", type=_int_at_least(1), default=100,
                   help="datasets per epsilon")
    p.add_argument("--mechanism", default="weibull_scaled",
                   help="weibull_scaled | age_informed | uniform_quantile")
    p.add_argument("--epsilon-list", default="0,0.5,1,3,7,13",
                   help="comma-separated censoring scale factors")
    p.add_argument("--covariates", help="CSV pool of covariate rows to subsample "
                                        "(default: standard normal)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("km", help="fit and print a product-limit survivor function")
    p.add_argument("--subjects", required=True)
    p.add_argument("--target", choices=["event", "censoring"], default="event")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_km)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
