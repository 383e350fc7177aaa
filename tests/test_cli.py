import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from survconcord import io as sio
from survconcord.cli import main
from survconcord.data import ComputationError


def _write_subjects(path: Path, rows, header="id,time,event,risk"):
    path.write_text("\n".join([header] + rows) + "\n")


@pytest.fixture
def subjects_file(tmp_path):
    path = tmp_path / "subjects.csv"
    _write_subjects(
        path,
        ["a,1,1,0.9", "b,2,1,0.5", "c,3,0,0.7", "d,3,1,0.2"],
    )
    return path


def test_cindex_basic_report(subjects_file, tmp_path, capsys):
    out = tmp_path / "report"
    code = main([
        "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
        "--profiles", "hmisc,survival_n", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["hmisc"]["estimate"] == pytest.approx(4 / 6)
    assert by_name["survival_n"]["estimate"] == pytest.approx(4 / 6)
    table = (tmp_path / "report.csv").read_text().splitlines()
    assert len(table) == 3


def test_cindex_incompatible_profile_is_error_cell_not_failure(
    subjects_file, tmp_path
):
    out = tmp_path / "r"
    code = main([
        "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
        "--profiles", "pycox_ant,hmisc", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["pycox_ant"]["error"] == "requires a survival matrix"
    assert by_name["hmisc"]["error"] is None


def test_cindex_schema_violation_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    _write_subjects(bad, ["a,-1,1,0.5"])
    code = main(["cindex", "--subjects", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2


def test_cindex_matrix_transform_and_td(tmp_path):
    subjects = tmp_path / "s.csv"
    _write_subjects(subjects, ["a,2,1", "b,5,1", "c,9,1"], header="id,time,event")
    grid = np.arange(0.0, 12.0)
    hazards = [0.5, 0.25, 0.1]
    matrix = tmp_path / "m.csv"
    lines = ["id," + ",".join(repr(float(t)) for t in grid)]
    for sid, h in zip("abc", hazards):
        lines.append(sid + "," + ",".join(repr(float(np.exp(-h * t))) for t in grid))
    matrix.write_text("\n".join(lines) + "\n")
    out = tmp_path / "td"
    code = main([
        "cindex", "--subjects", str(subjects), "--matrix", str(matrix),
        "--transform", "neg-rmst:11", "--profiles", "pec,pycox_ant,pycox_adj_ant",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "td.json").read_text())
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["pycox_ant"]["estimate"] == 1.0
    assert by_name["pec"]["estimate"] == 1.0
    # Without --tau, pec falls back to its own default: the largest
    # uncensored time of the evaluated data.
    assert by_name["pec"]["tau_used"] == 9.0


def test_cindex_with_bootstrap_and_custom_profiles(subjects_file, tmp_path):
    profile_file = tmp_path / "custom.json"
    profile_file.write_text(json.dumps([{
        "name": "strict_custom",
        "family": "C",
        "policy": {
            "case_table": {"1A": [1.0, 1.0], "1B": [1.0, 0.0],
                           "2A": [1.0, 1.0], "2B": [1.0, 0.0]},
            "weight_scheme": "uniform",
        },
    }]))
    out = tmp_path / "boot"
    code = main([
        "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
        "--profiles", "hmisc", "--profile-file", str(profile_file),
        "--bootstrap", "20:4:0.9", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "boot.json").read_text())
    by_name = {r["name"]: r for r in report["results"]}
    assert "strict_custom" in by_name
    hm = by_name["hmisc"]
    assert hm["ci_lower"] is not None and hm["ci_lower"] <= hm["estimate"] + 1e-12


def _strict_profile(name):
    return {"name": name, "family": "C",
            "policy": {"case_table": {"1A": [1.0, 1.0], "1B": [1.0, 0.0]}}}


def test_cindex_profiles_can_name_a_profile_file_entry(subjects_file, tmp_path):
    profile_file = tmp_path / "mine.json"
    profile_file.write_text(json.dumps([_strict_profile("mine"), _strict_profile("other")]))
    out = tmp_path / "r"
    code = main([
        "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
        "--profiles", "mine,hmisc", "--profile-file", str(profile_file), "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert [r["name"] for r in report["results"]] == ["mine", "hmisc", "other"]
    assert all(r["error"] is None for r in report["results"])


@pytest.mark.parametrize(
    "entries, taken",
    [([_strict_profile("hmisc")], "hmisc"),
     ([_strict_profile("mine"), _strict_profile("mine")], "mine")],
    ids=["builtin", "file"],
)
def test_cindex_profile_file_name_clash_exits_2(
    entries, taken, subjects_file, tmp_path, capsys
):
    profile_file = tmp_path / "clash.json"
    profile_file.write_text(json.dumps(entries))
    out = tmp_path / "r"
    code = main([
        "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
        "--profile-file", str(profile_file), "--out", str(out),
    ])
    assert code == 2
    assert f"{profile_file}: profile name {taken!r} is already taken" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cindex_whole_report_as_profile_file_exits_2(subjects_file, tmp_path, capsys):
    first = tmp_path / "first"
    assert main([
        "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
        "--profiles", "hmisc", "--out", str(first),
    ]) == 0
    capsys.readouterr()
    report = tmp_path / "first.json"
    before = sorted(p.name for p in tmp_path.iterdir())
    code = main([
        "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
        "--profile-file", str(report), "--out", str(tmp_path / "second"),
    ])
    assert code == 2
    assert (f"error: {report}: unknown profile file key(s): 'provenance', 'results'"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_cindex_runs_build_the_builtin_profiles_once(
    profile_builds, subjects_file, tmp_path
):
    for selection in (["--profiles", "hmisc,pec"], []):
        assert main([
            "cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
            *selection, "--out", str(tmp_path / "r"),
        ]) == 0
    assert len(profile_builds) == 14


def test_km_outputs(subjects_file, tmp_path, capsys):
    code = main(["km", "--subjects", str(subjects_file), "--target", "event"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "time,value"
    assert lines[1] == "0.0,1.0"

    empty = tmp_path / "empty.csv"
    empty.write_text("id,time,event\n")
    code = main(["km", "--subjects", str(empty)])
    assert code == 2

    # --out creates its directory, as cindex --out and simulate --out-dir do.
    out = tmp_path / "new" / "dir" / "km.csv"
    assert main(["km", "--subjects", str(subjects_file), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[:2] == lines[:2]


def test_simulate_outputs_and_zero_epsilon(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "event": {"shape": 1.2, "scale": 0.01, "coefficients": [0.8, -0.4]},
        "censoring": {"shape": 1.2, "scale": 0.01},
    }))
    out_dir = tmp_path / "sim"
    code = main([
        "simulate", "--params", str(params), "--n", "40", "--datasets", "2",
        "--mechanism", "weibull_scaled", "--epsilon-list", "0,1",
        "--seed", "9", "--out-dir", str(out_dir),
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["epsilons"] == [0.0, 1.0]
    eps0 = (out_dir / "eps_0" / "dataset_000.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[2] == "1" for line in eps0)  # no censoring
    oracle_rows = (out_dir / "oracle.csv").read_text().splitlines()
    assert len(oracle_rows) == 3  # header + one row per dataset
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2 * 2


def test_simulate_zero_effect_model_leaves_oracle_cell_empty(tmp_path):
    # All true curves tie, so the ground-truth concordance is undefined;
    # the dataset is still emitted and the run succeeds.
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "event": {"shape": 1.0, "scale": 0.05, "coefficients": [0.0]},
    }))
    out_dir = tmp_path / "sim"
    code = main([
        "simulate", "--params", str(params), "--n", "12", "--datasets", "1",
        "--epsilon-list", "0", "--out-dir", str(out_dir),
    ])
    assert code == 0
    rows = (out_dir / "oracle.csv").read_text().splitlines()
    assert rows[1].endswith(",")  # empty oracle field
    assert (out_dir / "eps_0" / "dataset_000.csv").exists()


def test_simulate_heavy_tail_oracle_cost_follows_n(tmp_path):
    # Event shape 0.5 draws a largest time near 10^7; a unit-step grid oracle
    # would ask for a 1000 x 10^7 survival matrix.  Do not run this against one.
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "event": {"shape": 0.5, "scale": 0.01, "coefficients": [0.5, -0.5]},
    }))
    out_dir = tmp_path / "sim"
    start = time.perf_counter()
    code = main([
        "simulate", "--params", str(params), "--n", "1000", "--datasets", "1",
        "--epsilon-list", "0", "--out-dir", str(out_dir),
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    _, t_star, oracle = (out_dir / "oracle.csv").read_text().splitlines()[1].split(",")
    assert float(t_star) > 1e6 and 0.5 < float(oracle) < 1.0
    assert elapsed < 1.0


def test_simulate_rejects_bad_mechanism(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"event": {"shape": 1.0, "scale": 1.0,
                                            "coefficients": [0.0]}}))
    code = main([
        "simulate", "--params", str(params), "--n", "10", "--datasets", "1",
        "--mechanism", "nope", "--epsilon-list", "0",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 2


@pytest.mark.parametrize(
    "mechanism, epsilons",
    [("weibull_scaled", "0,3"), ("age_informed", "0,3"), ("uniform_quantile", "0,0.5")],
    ids=["weibull_scaled", "age_informed", "uniform_quantile"],
)
def test_simulate_deterministic_across_runs(mechanism, epsilons, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "event": {"shape": 1.0, "scale": 0.02, "coefficients": [0.5]},
        "censoring": {"shape": 1.0, "scale": 0.02, "beta_age": 0.8},
    }))

    def run(d):
        assert main([
            "simulate", "--params", str(params), "--n", "25", "--datasets", "2",
            "--mechanism", mechanism, "--epsilon-list", epsilons, "--seed", "11",
            "--out-dir", str(d),
        ]) == 0
        return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

    assert run(tmp_path / "one") == run(tmp_path / "two")


def test_simulate_writes_every_subjects_file_through_io(tmp_path, monkeypatch):
    # The benchmark's tracer wraps io.write_subjects_csv and sizes args[0].
    written = []
    write = sio.write_subjects_csv

    def traced(*args, **kwargs):
        write(*args, **kwargs)
        assert Path(args[0]).is_file()
        written.append(Path(args[0]))

    monkeypatch.setattr(sio, "write_subjects_csv", traced)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"event": {"shape": 1.0, "scale": 0.02,
                                            "coefficients": [0.5, -0.3]}}))
    out_dir = tmp_path / "sim"
    assert main([
        "simulate", "--params", str(params), "--n", "30", "--datasets", "2",
        "--epsilon-list", "0,1,3", "--out-dir", str(out_dir),
    ]) == 0
    assert len(written) == (1 + 3) * 2
    assert sorted(written) == sorted(out_dir.rglob("dataset_*.csv"))


def _simulate_from_pool(tmp_path, pool_rows):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "event": {"shape": 1.0, "scale": 0.02, "coefficients": [0.5, -0.3]},
    }))
    pool = tmp_path / "pool.csv"
    pool.write_text("age,dose\n" + "".join(row + "\n" for row in pool_rows))
    out_dir = tmp_path / "sim"
    code = main([
        "simulate", "--params", str(params), "--n", "6", "--datasets", "1",
        "--epsilon-list", "0", "--covariates", str(pool), "--out-dir", str(out_dir),
    ])
    return code, out_dir


def test_simulate_samples_covariates_from_pool(tmp_path):
    rows = [f"{k}.5,{k % 3}" for k in range(8)]
    code, out_dir = _simulate_from_pool(tmp_path, rows)
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["covariates"] == "pool"
    subjects = (out_dir / "eps_0" / "dataset_000.csv").read_text().splitlines()
    pool = {tuple(float(v) for v in row.split(",")) for row in rows}
    drawn = {tuple(float(v) for v in line.split(",")[3:]) for line in subjects[1:]}
    assert len(drawn) == 6 and drawn <= pool


def test_simulate_rejects_non_finite_pool_before_writing(tmp_path, capsys):
    rows = ["1.0,0", "nan,1"] + [f"{k}.0,1" for k in range(2, 8)]
    code, out_dir = _simulate_from_pool(tmp_path, rows)
    assert code == 2
    assert "pool.csv:3" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cindex_field_over_the_csv_reader_limit_exits_2(tmp_path, capsys):
    limit = csv.field_size_limit()
    subjects = tmp_path / "long.csv"
    subjects.write_text(f'id,time,event,risk\na,1,1,0.5\n"{"x" * 200_000}",2,1,0.3\n')
    code = main(["cindex", "--subjects", str(subjects), "--risk-col", "risk",
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert f"error: {subjects}:3: field larger than field limit" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["long.csv"]
    assert csv.field_size_limit() == limit


def test_cindex_rejects_bad_bootstrap_spec_before_scoring(subjects_file, tmp_path, capsys):
    # Without risks no profile scores, so only the spec itself can reject B = 0.
    out = tmp_path / "b0"
    code = main([
        "cindex", "--subjects", str(subjects_file), "--profiles", "hmisc",
        "--bootstrap", "0", "--out", str(out),
    ])
    assert code == 2
    assert "need at least one bootstrap resample" in capsys.readouterr().err
    assert not (tmp_path / "b0.json").exists()


@pytest.mark.parametrize(
    "command, flag, value, least",
    [
        ("simulate", "--n", "0", 1),
        ("simulate", "--datasets", "0", 1),
        ("simulate", "--seed", "-1", 0),
        ("cindex", "--seed", "-1", 0),
    ],
)
def test_bad_integer_arguments_exit_2_before_writing(
    command, flag, value, least, subjects_file, tmp_path, capsys
):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"event": {"shape": 1.0, "scale": 0.02,
                                            "coefficients": [0.5]}}))
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--params", str(params), "--n", "5",
                     "--datasets", "2", "--epsilon-list", "0,1", "--out-dir", str(out)],
        "cindex": ["cindex", "--subjects", str(subjects_file), "--risk-col", "risk",
                   "--profiles", "hmisc", "--bootstrap", "5", "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {least}, got {value}" in (
        capsys.readouterr().err
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json", "subjects.csv"]


_EVENT = {"shape": 1.0, "scale": 0.02, "coefficients": [0.5]}
_NOT_UTF8 = b"id,time,event\n\xff,1,1\n"


def _cindex_argv(*extra):
    return ["cindex", "--subjects", "subjects.csv", "--matrix", "matrix.csv",
            "--profiles", "hmisc", *extra, "--out", "out/report"]


def _simulate_argv(*extra):
    return ["simulate", "--params", "params.json", "--n", "5", "--datasets", "2",
            "--epsilon-list", "0,1", *extra, "--out-dir", "out"]


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (_cindex_argv("--transform", "at-time:abc"), {},
         "--transform: time is not a number: 'abc'"),
        (_cindex_argv("--transform", "at-time:inf"), {},
         "--transform: time must be finite, got 'inf'"),
        (_cindex_argv("--transform", "neg-rmst:abc"), {},
         "--transform: horizon is not a number: 'abc'"),
        (_cindex_argv("--grid", "0:x"), {}, "--grid: grid bound is not a number: 'x'"),
        (_cindex_argv("--grid", "1,y"), {}, "--grid: grid time is not a number: 'y'"),
        (_simulate_argv("--epsilon-list", "0,abc"), {},
         "--epsilon-list: epsilon is not a number: 'abc'"),
        (_simulate_argv("--epsilon-list", "0,-1"), {}, "epsilon must be nonnegative"),
        (_simulate_argv("--mechanism", "nope"), {}, "unknown mechanism 'nope'"),
        (_simulate_argv(), {"params.json": {"event": {**_EVENT, "shape": "x"}}},
         "params.json: invalid parameter"),
        (_simulate_argv(), {"params.json": {"event": {**_EVENT, "coefficients": ["a"]}}},
         "params.json: invalid parameter"),
        (_simulate_argv(), {"params.json": {"event": _EVENT, "censoring": {"shape": "q"}}},
         "params.json: invalid parameter"),
        (_simulate_argv(), {"params.json": {"event": _EVENT, "censoring": [1.0]}},
         "params.json: 'censoring' must be an object"),
        (["km", "--subjects", "bad.csv", "--out", "km.csv"], {"bad.csv": _NOT_UTF8},
         "bad.csv: not UTF-8 text"),
        (_cindex_argv("--matrix", "bad.csv"), {"bad.csv": _NOT_UTF8},
         "bad.csv: not UTF-8 text"),
        (_cindex_argv("--profile-file", "bad.json"), {"bad.json": b"[\xff]"},
         "bad.json: not UTF-8 text"),
        (_simulate_argv("--covariates", "bad.csv"), {"bad.csv": b"x\n\xff\n"},
         "bad.csv: not UTF-8 text"),
        (_simulate_argv(), {"params.json": b'{"event": "\xff"}'},
         "params.json: not UTF-8 text"),
        (_cindex_argv("--transform", "at-time:-1"), {},
         "at-time transform needs a finite time >= 0, got -1.0"),
        (_cindex_argv("--transform", "neg-rmst:0"), {},
         "neg-rmst transform needs a finite horizon > 0, got 0.0"),
        (_cindex_argv("--tau", "-5"), {}, "truncation value must be positive, got -5.0"),
        (_simulate_argv("--mechanism", "age_informed"),
         {"params.json": {"event": _EVENT, "censoring": {"age_column": 1}}},
         "age column out of range"),
        (_simulate_argv(),
         {"params.json": {"event": _EVENT,
                          "censoring": {"shape": math.nan, "scale": 0.02}}},
         "censoring shape and scale must be positive and finite"),
        (_simulate_argv("--epsilon-list", "0.5,0.50"), {},
         "--epsilon-list: repeated epsilon in '0.5,0.50'"),
        (_cindex_argv("--profiles", "hmisc,hmisc"), {},
         "profile 'hmisc' is named more than once"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": [{"name": "x", "policy": {"tie_tolerance": math.nan}}]},
         "p.json: profile #0: tie tolerance must be finite and nonnegative"),
        (_cindex_argv("--profile-file", "p.json"), {"p.json": [{"name": "x", "policy": []}]},
         "p.json: profile #0: policy must be an object, got list"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": {"profiles": [], "profils": []}},
         "p.json: unknown profile file key(s): 'profils'"),
        (_simulate_argv("--mechanism", "age_informed"),
         {"params.json": {"event": _EVENT, "censoring": {"age_column": 1.5}}},
         "age_column must be an integer or None, got 1.5"),
        (_simulate_argv("--mechanism", "age_informed"),
         {"params.json": {"event": _EVENT, "censoring": {"age_column": None}}},
         "age_informed censoring needs an integer age_column"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": [{"name": "x", "requires_tau": "false"}]},
         "p.json: profile #0: requires_tau must be a boolean, got 'false'"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": [{"name": "x", "policy": {"tie_tolerance": True}}]},
         "p.json: profile #0: tie tolerance must be a number, got True"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": [{"name": "x", "policy": {"tie_tolerance": "0.25"}}]},
         "p.json: profile #0: tie tolerance must be a number, got '0.25'"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": [{"name": "x",
                      "policy": {"truncation": {"mode": "value", "value": True}}}]},
         "p.json: profile #0: truncation value must be a number, got True"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": [{"name": "x", "policy": {"case_table": {"1A": [True, True]}}}]},
         "p.json: profile #0: case 1A weight must be a number, got True"),
        (_cindex_argv("--profile-file", "p.json"), {"p.json": [{"name": ["a"]}]},
         "p.json: profile #0: name must be a string, got ['a']"),
        (_cindex_argv("--profile-file", "p.json"), {"p.json": [{"notes": "x"}]},
         "p.json: profile #0: missing 'name'"),
        (_cindex_argv("--profile-file", "p.json"),
         {"p.json": b'[{"name": "x", "policy": {"tie_tolerance": 1' + b"0" * 400 + b"}}]"},
         "p.json: profile #0: tie tolerance is beyond the float range"),
        (_simulate_argv(), {"params.json": {"event": {**_EVENT, "shape": True}}},
         "params.json: invalid parameter (shape must be a number, got True)"),
        (_simulate_argv(), {"params.json": {"event": {**_EVENT, "scale": "0.01"}}},
         "params.json: invalid parameter (scale must be a number, got '0.01')"),
        (_simulate_argv(),
         {"params.json": {"event": {**_EVENT, "coefficients": [True, False]}}},
         "params.json: invalid parameter (coefficient must be a number, got True)"),
        (_simulate_argv(), {"params.json": {"event": {**_EVENT, "coefficients": "12"}}},
         "params.json: invalid parameter (coefficients must be a JSON array, got '12')"),
        (_simulate_argv("--mechanism", "age_informed"),
         {"params.json": {"event": _EVENT, "censoring": {"beta_age": "0.5"}}},
         "params.json: invalid parameter (censoring beta_age must be a number, got '0.5')"),
        (_cindex_argv("--grid", "0:1e30:1"), {},
         "grid from 0.0 to 1e+30 by 1.0 has more points than an array can hold"),
        (_cindex_argv("--grid", "0:1:1e-300"), {},
         "grid from 0.0 to 1.0 by 1e-300 has more points than an array can hold"),
        (["cindex", "--subjects", "subjects.csv", "--grid", "0:1e30:1", "--out", "out/r"],
         {}, "grid from 0.0 to 1e+30 by 1.0 has more points than an array can hold"),
        (_cindex_argv("--transform", "expected-mortality:banana"), {},
         "expected-mortality transform takes no argument, got 'banana'"),
        (_cindex_argv("--tau", "soon"), {},
         "invalid --tau 'soon'; expected none, max-uncensored or a number"),
        (_cindex_argv("--grid", "1:2:3:4"), {},
         "grid must be start:stop[:step] or a comma list"),
        (_cindex_argv("--transform", "at-time"), {},
         "at-time transform needs a time, e.g. at-time:120"),
        (_cindex_argv("--transform", "median"), {},
         "unknown transform 'median'; expected at-time:<t>, expected-mortality "
         "or neg-rmst[:<horizon>]"),
        (_cindex_argv("--bootstrap", "1:2:3:4"), {}, "bootstrap spec is B[:size[:level]]"),
        (_cindex_argv("--bootstrap", "x"), {}, "invalid --bootstrap 'x'"),
        (_simulate_argv(), {"params.json": {"censoring": {}}},
         "params.json: missing 'event' parameter block"),
        (_simulate_argv(), {"params.json": {"event": {"scale": 0.02, "coefficients": [0.5]}}},
         "params.json: event block missing 'shape'"),
        (_simulate_argv("--covariates", "pool.csv"), {"pool.csv": b"a,b\n" + b"1,2\n" * 6},
         "covariate pool has 2 columns but the model has 1 coefficients"),
        (_simulate_argv("--covariates", "pool.csv"), {"pool.csv": b"a\n1\n2\n3\n"},
         "covariate pool has 3 rows, need at least 5"),
        (_simulate_argv(),
         {"params.json": {"event": {**_EVENT, "coeficients": [0.7, -0.4]},
                          "censoring": {"shape": 1.0, "beta_agee": 3}, "censorship": {}}},
         "params.json: unknown parameter key(s): 'censorship'"),
        (_simulate_argv(),
         {"params.json": {"event": {"shape": 1.0, "scale": 0.02, "coeficients": [0.7]}}},
         "params.json: unknown event key(s): 'coeficients'"),
        (_simulate_argv("--mechanism", "age_informed"),
         {"params.json": {"event": _EVENT, "censoring": {"beta_agee": 3}}},
         "params.json: unknown censoring key(s): 'beta_agee'"),
        (_simulate_argv(), {"params.json": {"event": _EVENT, "censoring": {"epsilon": 1.0}}},
         "params.json: unknown censoring key(s): 'epsilon'"),
        (_cindex_argv("--grid", "0:1_0"), {}, "--grid: grid bound is not a number: '1_0'"),
        (_cindex_argv("--transform", "at-time:\u0663"), {},
         "--transform: time is not a number: '\u0663'"),
        (_simulate_argv("--epsilon-list", "0,\uff11"), {},
         "--epsilon-list: epsilon is not a number: '\uff11'"),
        (["cindex", "--subjects", "subjects.csv", "--profiles", "", "--out", "out/r"], {},
         "unknown profile ''"),
        (_cindex_argv("--tau", "2_5"), {},
         "invalid --tau '2_5'; expected none, max-uncensored or a number"),
        (_cindex_argv("--tau", "\u0663"), {},
         "invalid --tau '\u0663'; expected none, max-uncensored or a number"),
        (_cindex_argv("--bootstrap", "20::0.9_5"), {}, "invalid --bootstrap '20::0.9_5'"),
    ],
    ids=["at-time", "at-time-inf", "neg-rmst", "grid-range", "grid-list", "epsilon",
         "epsilon-range", "mechanism", "event-shape", "coefficients", "censoring-shape", "censoring-list",
         "subjects-utf8", "matrix-utf8", "profiles-utf8", "pool-utf8", "params-utf8",
         "at-time-negative", "neg-rmst-zero", "tau-negative", "age-column",
         "censoring-nan-shape", "epsilon-repeated", "profiles-repeated",
         "profile-nan-tolerance", "profile-policy-list", "profile-file-unknown-key",
         "age-column-float",
         "age-column-null", "profile-requires-tau-string", "profile-tolerance-bool",
         "profile-tolerance-string", "profile-tau-bool", "profile-case-rule-bool",
         "profile-name-list", "profile-name-missing", "profile-tolerance-huge-int",
         "event-shape-bool",
         "event-scale-string", "coefficients-bool", "coefficients-string",
         "beta-age-string", "grid-too-many-points", "grid-tiny-step",
         "grid-without-matrix", "expected-mortality-argument", "tau-word",
         "grid-four-parts", "at-time-without-time", "transform-unknown",
         "bootstrap-four-parts", "bootstrap-word", "params-without-event",
         "event-without-shape", "pool-columns", "pool-rows", "params-unknown-block",
         "event-unknown-key", "censoring-unknown-key", "censoring-epsilon-key",
         "grid-underscore", "at-time-arabic-digit", "epsilon-fullwidth-digit",
         "profiles-empty", "tau-underscore", "tau-arabic-digit", "bootstrap-level-underscore"],
)
def test_bad_input_values_exit_2_before_writing(
    argv, files, message, subjects_file, tmp_path, monkeypatch, capsys
):
    grid = [0.0, 1.0, 2.0, 3.0]
    lines = ["id," + ",".join(map(repr, grid))]
    lines += [f"{sid},1.0,0.9,0.6,{p}" for sid, p in zip("abcd", [0.1, 0.2, 0.3, 0.4])]
    (tmp_path / "matrix.csv").write_text("\n".join(lines) + "\n")
    inputs = {"params.json": {"event": _EVENT}, **files}
    for name, content in inputs.items():
        if not isinstance(content, bytes):
            content = json.dumps(content).encode()
        (tmp_path / name).write_bytes(content)
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "option, value, key, written",
    [
        ("--tau", "none", "tau", {"mode": "none", "value": None}),
        ("--tau", "max-uncensored", "tau", {"mode": "max_uncensored", "value": None}),
        ("--grid", "0,2.5,5,10", "grid", [0.0, 2.5, 5.0, 10.0]),
        ("--transform", "expected-mortality", "transform",
         {"kind": "expected-mortality", "time": None, "horizon": None}),
        ("--transform", "neg-rmst", "transform",
         {"kind": "neg-rmst", "time": None, "horizon": 355.0}),
    ],
    ids=["tau-none", "tau-max-uncensored", "grid-list", "expected-mortality",
         "neg-rmst-default-horizon"],
)
def test_cindex_option_specs_reach_the_report(option, value, key, written, tmp_path):
    subjects = tmp_path / "s.csv"
    _write_subjects(subjects, ["a,2,1", "b,5,1", "c,9,1"], header="id,time,event")
    grid = np.arange(0.0, 12.0)
    matrix = tmp_path / "m.csv"
    lines = ["id," + ",".join(repr(float(t)) for t in grid)]
    for sid, h in zip("abc", [0.5, 0.25, 0.1]):
        lines.append(sid + "," + ",".join(repr(float(np.exp(-h * t))) for t in grid))
    matrix.write_text("\n".join(lines) + "\n")
    options = {"--transform": "neg-rmst:11", option: value}
    code = main([
        "cindex", "--subjects", str(subjects), "--matrix", str(matrix),
        *[part for pair in options.items() for part in pair],
        "--profiles", "hmisc,pec", "--out", str(tmp_path / "r"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["provenance"][key] == written
    assert [(r["estimate"], r["error"]) for r in report["results"]] == [(1.0, None)] * 2


def test_computation_error_exits_3(subjects_file, monkeypatch, capsys):
    def fail(ds, target):
        raise ComputationError("no records")

    monkeypatch.setattr("survconcord.cli.km_fit", fail)
    assert main(["km", "--subjects", str(subjects_file)]) == 3
    assert "error: no records" in capsys.readouterr().err
