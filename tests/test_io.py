import json
import re

import numpy as np
import pytest

from survconcord import InputError, SurvivalDataset, SurvivalMatrix, TimeGrid, km_fit
from survconcord.io import (
    canonical_json,
    load_profiles_file,
    read_covariate_pool,
    read_matrix_csv,
    read_subjects_csv,
    write_matrix_csv,
    write_report_csv,
    write_step_function_csv,
    write_subjects_csv,
)
from survconcord.profiles import builtin_profiles, profile_to_dict, run_multiverse


def test_subjects_round_trip(tmp_path):
    ds = SurvivalDataset(
        times=[1.5, 2.0, 3.25],
        events=[1, 0, 1],
        subject_ids=("a", "b", "c"),
        covariates=[[0.1, -2.0], [0.3, 4.5], [0.0, 0.0]],
    )
    risks = np.array([0.123456789, -1.5, 3.0])
    path = tmp_path / "subjects.csv"
    write_subjects_csv(path, ds, risks=risks)
    back, back_risks = read_subjects_csv(path, risk_col="risk")
    assert back.subject_ids == ds.subject_ids
    assert np.array_equal(back.times, ds.times)
    assert np.array_equal(back.events, ds.events)
    assert np.array_equal(back.covariates, ds.covariates)
    assert np.array_equal(back_risks, risks)


def test_subjects_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,time,event\na,1,1\nb,-2,1\n")
    with pytest.raises(InputError, match=r"bad\.csv:3: negative time"):
        read_subjects_csv(path)
    path.write_text("id,time,event\na,1,2\n")
    with pytest.raises(InputError, match=r"bad\.csv:2: event must be 0 or 1"):
        read_subjects_csv(path)
    path.write_text("id,time,event,extra\na,1,1,9\n")
    with pytest.raises(InputError, match="unexpected column"):
        read_subjects_csv(path)
    path.write_text("id,time,event\n")
    with pytest.raises(InputError, match="no records"):
        read_subjects_csv(path)


@pytest.mark.parametrize(
    "read, header, row",
    [
        (read_subjects_csv, "id,time,event", "a,1,1"),
        (lambda path: read_matrix_csv(path, ["a"]), "id,0,1", "a,1,0.5"),
        (read_covariate_pool, "age,dose,stage", "61.5,2,3"),
    ],
    ids=["subjects", "matrix", "pool"],
)
def test_readers_share_row_rules(tmp_path, read, header, row):
    path = tmp_path / "in.csv"
    path.write_text("")
    with pytest.raises(InputError, match=r"in\.csv:1: empty file$"):
        read(path)
    path.write_text(f"{header}\n\n{row}\n\n")  # blank lines are skipped
    read(path)
    short = row.rsplit(",", 1)[0]
    path.write_text(f"{header}\n{row}\n\n{short}\n{row}\n")
    with pytest.raises(InputError, match=r"in\.csv:4: expected 3 fields, got 2$"):
        read(path)


def test_subjects_writer_rejects_risks_of_the_wrong_length(tmp_path):
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 0])
    for risks in ([0.5], [0.5, 0.25, 0.125]):
        with pytest.raises(InputError, match=f"{len(risks)} risks for 2 subjects"):
            write_subjects_csv(tmp_path / "s.csv", ds, risks=np.array(risks))
    assert not (tmp_path / "s.csv").exists()


def test_matrix_writer_rejects_ids_of_the_wrong_length(tmp_path):
    sm = SurvivalMatrix(grid=TimeGrid([0.0, 1.0]), probs=[[1.0, 0.5], [1.0, 0.4]])
    for ids in (["a"], ["a", "b", "c"]):
        with pytest.raises(InputError, match=f"{len(ids)} ids for 2 matrix rows"):
            write_matrix_csv(tmp_path / "m.csv", ids, sm)
    assert not (tmp_path / "m.csv").exists()


def test_matrix_round_trip_and_alignment(tmp_path):
    grid = TimeGrid([0.0, 1.0, 2.0])
    sm = SurvivalMatrix(grid=grid, probs=[[1.0, 0.8, 0.5], [1.0, 0.4, 0.5 - 0.2]])
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, ["a", "b"], sm)
    back = read_matrix_csv(path, ["a", "b"])
    assert np.array_equal(back.probs, sm.probs)
    with pytest.raises(InputError, match="row order"):
        read_matrix_csv(path, ["b", "a"])


def test_step_function_csv(tmp_path):
    import io as stdio

    ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 1, 1])
    buf = stdio.StringIO()
    write_step_function_csv(buf, km_fit(ds, "event"))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,value"
    assert lines[1] == "0.0,1.0"
    assert len(lines) == 5  # anchor + three jumps

    buf = stdio.StringIO()
    write_step_function_csv(buf, km_fit(ds, "censoring"))
    assert buf.getvalue().splitlines()[1:] == ["0.0,1.0"]  # constant G = 1


def test_report_json_round_trips_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    ds = SurvivalDataset(times=rng.exponential(5, 25), events=rng.integers(0, 2, 25))
    report = run_multiverse(ds, risks=rng.normal(size=25))
    text = canonical_json(report.to_dict())
    assert canonical_json(json.loads(text)) == text
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    rows = path.read_text().splitlines()
    assert len(rows) == 1 + len(report.results)


def test_profiles_file_round_trip(tmp_path):
    path = tmp_path / "profiles.json"
    payload = [profile_to_dict(p) for p in builtin_profiles()[:3]]
    path.write_text(canonical_json(payload))
    loaded = load_profiles_file(path)
    assert [p.name for p in loaded] == [p["name"] for p in payload]
    path.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        load_profiles_file(path)
    path.write_text('{"profiles": [{"name": "x", "family": "bogus"}]}')
    with pytest.raises(InputError, match="family"):
        load_profiles_file(path)


def test_profiles_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "profiles.json"
    payload = [profile_to_dict(p) for p in builtin_profiles()]
    path.write_text(canonical_json(payload))
    assert [profile_to_dict(p) for p in load_profiles_file(path)] == payload

    def entry(**changes):
        d = json.loads(canonical_json(payload[0]))
        d.update(changes)
        return d

    misspelt_policy = entry()
    misspelt_policy["policy"]["tie_tolerence"] = 0.1
    misspelt_truncation = entry()
    misspelt_truncation["policy"]["truncation"]["valeu"] = 3.0
    cases = [
        (misspelt_policy, "policy key(s): 'tie_tolerence'"),
        (entry(requires_tua=True), "profile key(s): 'requires_tua'"),
        (entry(td_variant="antolini"), "profile key(s): 'td_variant'"),
        (misspelt_truncation, "truncation key(s): 'valeu'"),
    ]
    for bad, message in cases:
        path.write_text(canonical_json({"profiles": [payload[1], bad]}))
        expected = re.escape(f"profile #1: unknown {message}")
        with pytest.raises(InputError, match=expected):
            load_profiles_file(path)
