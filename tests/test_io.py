import json
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survconcord import (
    BootstrapSpec,
    ConcordancePolicy,
    InputError,
    Profile,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    Truncation,
    km_fit,
    tie_weighted_policy,
)
from survconcord.data import PairCase
from survconcord.engine import STRICT_PAIRS
from survconcord.io import (
    canonical_json,
    load_profiles_file,
    read_covariate_pool,
    read_json,
    read_matrix_csv,
    read_subjects_csv,
    write_csv,
    write_report_csv,
    write_step_function_csv,
)
from survconcord import io as sio
from survconcord.profiles import (
    PROVENANCE_KEYS,
    TransformSpec,
    get_profiles,
    profile_to_dict,
    run_multiverse,
)

from oracle import (
    read_matrix_reference,
    read_pool_reference,
    read_subjects_reference,
    write_subjects_reference,
)


def test_subjects_round_trip(tmp_path):
    ds = SurvivalDataset(
        times=[1.5, 2.0, 3.25],
        events=[1, 0, 1],
        subject_ids=("a", "b", "c"),
        covariates=[[0.1, -2.0], [0.3, 4.5], [0.0, 0.0]],
    )
    risks = np.array([0.123456789, -1.5, 3.0])
    path = tmp_path / "subjects.csv"
    columns = [ds.subject_ids, ds.times.tolist(), ds.events.tolist(), risks.tolist(),
               *ds.covariates.T.tolist()]
    write_csv(path, ["id", "time", "event", "risk", "cov_1", "cov_2"], zip(*columns))
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
    path.write_text("id,time,event,risk,risk\na,1,1,0.5,0.7\n")
    with pytest.raises(InputError, match=r"bad\.csv:1: risk column 'risk' is named twice"):
        read_subjects_csv(path, risk_col="risk")


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


_READERS = {
    "subjects": read_subjects_csv,
    "subjects-risk": lambda path: read_subjects_csv(path, risk_col="score"),
    "matrix": lambda path: read_matrix_csv(path, ["a", "b"]),
    "pool": read_covariate_pool,
}


@pytest.mark.parametrize(
    "reader, text, error",
    [
        ("subjects", "id,time,event\na,inf,1\nb,1\n", "2: time must be finite, got 'inf'"),
        ("subjects", "id,time,event,cov_1,cov_2\na,1,1,inf,x\n",
         "2: cov_1 must be finite, got 'inf'"),
        ("subjects", "id,time,event\na,1,1\nb,-1,2\n", "3: negative time '-1'"),
        ("subjects", "id,time,event\na,1,1\n\nb,1,2\n", "4: event must be 0 or 1, got '2'"),
        ("subjects", "id,time,event,cov_1\na,1,1,0.5\nb,2,0,nan\n",
         "3: cov_1 must be finite, got 'nan'"),
        ("subjects-risk", "id,time,event,score,cov_1\na,1,1,nan,x\n",
         "2: risk must be finite, got 'nan'"),
        ("subjects-risk", "id,time,event,score\na,1,1,0.5\nb,1,1,x\n",
         "3: risk is not a number: 'x'"),
        ("matrix", "id,0,1\na,1,inf\nb,1\n", "2: survival value must be finite, got 'inf'"),
        ("matrix", "id,0,1\na,inf,x\n", "2: survival value must be finite, got 'inf'"),
        ("matrix", "id,0,1\nb,1,0.5\na,1,x\n", "3: survival value is not a number: 'x'"),
        ("matrix", "id,0,1\na,1,0.5\nb,1,nan\n",
         "3: survival value must be finite, got 'nan'"),
        ("pool", "age,dose\ninf,1\n2\n", "2: age must be finite, got 'inf'"),
        ("pool", "age,dose\ninf,x\n", "2: age must be finite, got 'inf'"),
        ("pool", "age,dose\n1,2\n3,nan\n", "3: dose must be finite, got 'nan'"),
        # Whole-file rejections name the header line, or the file alone.
        ("subjects", "time,id,event\n1,a,1\n",
         "1: header must start with id,time,event (got time,id,event)"),
        ("subjects-risk", "id,time,event\na,1,1\n", "1: risk column 'score' not found"),
        ("matrix", "subject,0,1\na,1,0.5\n", "1: first column must be 'id'"),
        ("matrix", "id,1,0\na,1,0.5\nb,1,0.5\n", "1: grid must be strictly increasing"),
        ("matrix", "id,0,1\na,1,1.5\nb,1,0.5\n", " survival probabilities outside [0, 1]"),
        ("pool", "age,dose\n", " no covariate rows"),
        ("pool", "\n", " no covariate rows"),
        ("pool", "\r\n\r\n", " no covariate rows"),
        # Numbers are ASCII decimal literals: float() alone reads all of these.
        ("subjects", "id,time,event\na,1,1\nb,1_0,1\n", "3: time is not a number: '1_0'"),
        ("subjects", "id,time,event,cov_1\na,1,1,\u0662\n",
         "2: cov_1 is not a number: '\u0662'"),
        ("subjects-risk", "id,time,event,score\na,1,1,\uff10.9\n",
         "2: risk is not a number: '\uff10.9'"),
        ("matrix", "id,0,1\na,1,0.5\nb,1,\xa00.5\n",
         "3: survival value is not a number: '\\xa00.5'"),
        ("matrix", "id,0,1\na,1,0.5\nb,1,0.5\u2003\n",
         "3: survival value is not a number: '0.5\\u2003'"),
        ("pool", "age,dose\n1,2\n1_0,2\n", "3: age is not a number: '1_0'"),
        ("pool", "age,dose\n1,\x1c2\n", "2: dose is not a number: '\\x1c2'"),
        # Plain files: only "\n" ends a line, "#" starts no comment and an event
        # is the text 0 or 1, whatever its value.
        ("pool", "age,dose\n1,2\x1c3,4\n", "2: expected 2 fields, got 3"),
        ("subjects", "id,time,event\na,1,1\x0bb,2,0\n", "2: expected 3 fields, got 5"),
        ("pool", "age,dose\n1,2#x\n", "2: dose is not a number: '2#x'"),
        ("subjects", "id,time,event\na,1,1\nb,1,1.0\n", "3: event must be 0 or 1, got '1.0'"),
        ("subjects", "id,time,event\na,1,01\n", "2: event must be 0 or 1, got '01'"),
        # Row order: the first line whose id differs, or both row counts.
        ("matrix", "id,0,1\na,1,0.5\nc,1,0.5\n",
         "3: subject id 'c' does not follow the subjects file row order, "
         "which has 'b' there"),
        ("matrix", "id,0,1\r\n\r\nb,1,0.5\r\n\r\na,1,0.5\r\n",
         "3: subject id 'b' does not follow the subjects file row order, "
         "which has 'a' there"),
        ("matrix", 'id,0,1\na,1,0.5\n\n"c",1,0.5\n',
         "4: subject id 'c' does not follow the subjects file row order, "
         "which has 'b' there"),
        ("matrix", "id,0,1\na,1,0.5\n",
         " 1 rows, but 2 in the subjects file; rows must follow the subjects file row order"),
        ("matrix", "id,0,1\na,1,0.5\nb,1,0.5\nc,1,0.5\n",
         " 3 rows, but 2 in the subjects file; rows must follow the subjects file row order"),
    ],
)
def test_readers_report_the_first_bad_field_in_file_order(tmp_path, reader, text, error):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(InputError) as info:
        _READERS[reader](path)
    assert str(info.value) == f"{path}:{error}"


def test_readers_accept_the_largest_finite_values(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("id,time,event,cov_1\na,1e308,1,1e308\nb,1.7e308,0,1.7e308\n")
    ds, _ = read_subjects_csv(path)
    assert ds.times.tolist() == [1e308, 1.7e308]
    assert ds.covariates.tolist() == [[1e308], [1.7e308]]
    path.write_text("a,b\n1e308,1e308\n")
    assert read_covariate_pool(path).tolist() == [[1e308, 1e308]]
    path.write_text("id,0,1e308\na,1,0.5\n")
    assert read_matrix_csv(path, ["a"]).grid.points.tolist() == [0.0, 1e308]


_PLAIN_FILES = {
    "subjects": ("id,time,event,risk,cov_1\r\n#a,1.5,1,0.25,-2\r\nb#,0,0,1e-300,3\r\n",
                 lambda path: read_subjects_csv(path, risk_col="risk")),
    "matrix": ("id,0,2.5\r\n#a,1,0.5\r\nb,0.75,-0.0\r\n",
               lambda path: read_matrix_csv(path, ["#a", "b"])),
    "pool": ("age,dose\r\n61.5,2\r\n70,0.5\r\n", read_covariate_pool),
}


@pytest.mark.parametrize("kind", list(_PLAIN_FILES))
def test_plain_files_are_parsed_without_the_row_reader(tmp_path, monkeypatch, kind):
    text, read = _PLAIN_FILES[kind]
    path = tmp_path / "in.csv"
    path.write_bytes(_BOM + text.encode())
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('"' + text.replace(",", '",', 1))
    expected = repr(read(quoted))  # the row reader: the header has a quoted field
    with monkeypatch.context() as patch:
        def refuse(*args):
            raise AssertionError("csv.reader called on a plain file")
        patch.setattr(sio.csv, "reader", refuse)
        assert repr(read(path)) == expected
        with pytest.raises(AssertionError, match="plain file"):
            read(quoted)


_IDS = ["a", "b", "c", "#a", "a#b", "a\x00b", "\xe9", "s 1", "1", "x,y", 'q"t']
_EVENTS = ["0", "1", "1.0", "01", " 1", "2"]
_GOOD_NUMBERS = ["1", "0.5", "0.125", "-0.0", "1e-3", ".5", "+1", " 0.5", "0.75 ", "\t1",
                 "0.25\x0b", "0", "1e-320", "1e5"]
_ODD_NUMBERS = ["-1", "1e309", "inf", "nan", "-inf", "Infinity", "\xa01", "1\u2003",
                "\x1c1", "1\x1f", "1_0", "\u0663", "\uff11", "0x10", "x", "", " ",
                "1.5\x00", "1e", "\u2028"]
_HEADERS = {
    "subjects": "id,time,event,cov_1",
    "subjects-risk": "id,time,event,score,cov_1",
    "matrix": "id,0,1",
    "pool": "age,dose",
}


@st.composite
def _csv_files(draw):
    """A reader name, the bytes of a file for it and the ids its rows hold.

    Most files are plain and valid; the rest carry one or more of quoted
    fields, lone ``\\r`` line ends, short or long rows, blank or
    whitespace-only lines and numbers or events that a reader refuses.
    """
    def rarely(odds=8):
        return draw(st.integers(0, odds)) == 0

    kind = draw(st.sampled_from(list(_HEADERS)))
    header = _HEADERS[kind].split(",")
    quote_some, mixed_ends = rarely(3), rarely(3)

    def value(name):
        if name == "id":
            return draw(st.sampled_from(_IDS[:-2] if not rarely(6) else _IDS))
        if name == "event":
            return draw(st.sampled_from(_EVENTS[:2] if not rarely() else _EVENTS))
        return draw(st.sampled_from(_GOOD_NUMBERS if not rarely(12) else _ODD_NUMBERS))

    def field(text):
        if any(c in text for c in ',"') or quote_some and draw(st.booleans()):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines, ids = [",".join(header) if not rarely(30) else ""], []
    for _ in range(draw(st.integers(0, 5))):
        row = [value(name) for name in header]
        ids.append(row[0])
        if rarely(20):
            row = row[:-1] if draw(st.booleans()) else row + ["9"]
        lines.append(",".join(map(field, row)))
        if rarely(5):
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])))
    if rarely(20):
        lines.insert(0, "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"] if mixed_ends else ["\n", "\r\n"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if mixed_ends else end
            for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    bom = _BOM if draw(st.booleans()) else b""
    return kind, bom + text.encode(), ids


def _hex(values):
    return None if values is None else (values.shape, [v.hex() for v in values.flat])


def _outcome(read, path):
    """What a reader makes of a file: its values spelt exactly, or its error."""
    try:
        out = read(path)
    except InputError as exc:
        return "error", str(exc)
    if isinstance(out, SurvivalMatrix):
        return _hex(out.grid.points), _hex(out.probs)
    if isinstance(out, np.ndarray):
        return _hex(out)
    ds, risks = out
    return (ds.subject_ids, ds.events.tolist(), _hex(ds.times), _hex(ds.covariates),
            _hex(risks))


_EQUIVALENT = {
    "subjects": (read_subjects_csv, read_subjects_reference),
    "subjects-risk": (partial(read_subjects_csv, risk_col="score"),
                      partial(read_subjects_reference, risk_col="score")),
    "matrix": (read_matrix_csv, read_matrix_reference),
    "pool": (read_covariate_pool, read_pool_reference),
}


@settings(max_examples=400, deadline=None)
@given(_csv_files(), st.sampled_from(["same"] * 4 + ["reversed", "one more"]))
def test_readers_match_the_row_by_row_reference(tmp_path_factory, case, order):
    kind, data, ids = case
    read, reference = _EQUIVALENT[kind]
    if kind == "matrix":
        ids = ids[::-1] if order == "reversed" else ids + ["z"] if order == "one more" else ids
        read, reference = partial(read, expected_ids=ids), partial(reference, expected_ids=ids)
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(data)
    assert _outcome(read, path) == _outcome(reference, path)


_WRITTEN_IDS = st.one_of(
    st.sampled_from(["", ",", '"', "a,b", 'say "hi"', "\r", "\n", "a\r\nb", " ", " s ",
                     "é", "日本", "x"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
_WRITTEN_TIMES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1.0, 0.1]),
                           st.floats(0, 1e300))
_WRITTEN_COVARIATES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.5]),
                                st.floats(allow_nan=False, allow_infinity=False))
_COVARIATE_COLUMNS = [None, 0, 1, 2, 3, 4]


@st.composite
def _written_dataset(draw, n, p):
    def column(values, size):
        return draw(st.lists(values, min_size=size, max_size=size))

    ids = tuple(column(_WRITTEN_IDS, n)) if draw(st.booleans()) else ()
    covariates = None
    if p is not None:
        covariates = np.array(column(_WRITTEN_COVARIATES, n * p), float).reshape(n, p)
    return SurvivalDataset(times=np.array(column(_WRITTEN_TIMES, n), float),
                           events=np.array(column(st.integers(0, 1), n), float),
                           subject_ids=ids, covariates=covariates)


@st.composite
def _replicate(draw):
    """Datasets written in turn with one ``shared`` dict: most share the
    first's shape and take each time, covariate row and the ids either from
    it or fresh (``-0.0`` where it has ``0.0``, say); some have another."""
    n, p = draw(st.integers(0, 5)), draw(st.sampled_from(_COVARIATE_COLUMNS))
    first = draw(_written_dataset(n, p))
    datasets = [first]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            shape = draw(st.integers(0, 5)), draw(st.sampled_from(_COVARIATE_COLUMNS))
            datasets.append(draw(_written_dataset(*shape)))
            continue
        fresh = draw(_written_dataset(n, p))
        keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        covariates = None
        if p is not None:
            rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
            covariates = np.where(rows[:, None], first.covariates, fresh.covariates)
        datasets.append(SurvivalDataset(
            times=np.where(keep, first.times, fresh.times), events=fresh.events,
            subject_ids=first.subject_ids if draw(st.booleans()) else fresh.subject_ids,
            covariates=covariates))
    return datasets


@settings(max_examples=300, deadline=None)
@given(_replicate())
@example([SurvivalDataset(times=[0.0, 1.0], events=[1, 1], covariates=[[0.0], [2.0]]),
          SurvivalDataset(times=[-0.0, 1.0], events=[0, 1], covariates=[[-0.0], [2.0]])])
def test_subjects_files_written_with_a_shared_cache_match_csv_writer(tmp_path_factory,
                                                                     datasets):
    out = tmp_path_factory.mktemp("subjects")
    shared = {}
    for k, ds in enumerate(datasets):
        sio.write_subjects_csv(out / f"{k}.csv", ds, shared)
        write_subjects_reference(out / f"{k}.ref", ds)
        assert (out / f"{k}.csv").read_bytes() == (out / f"{k}.ref").read_bytes()


def test_subjects_file_layout(tmp_path):
    ds = SurvivalDataset(times=[-0.0, 1.5, 5e-324], events=[1, 0, 1],
                         subject_ids=("", "a,b", 'q"'), covariates=[[0.1], [-0.0], [2.0]])
    sio.write_subjects_csv(tmp_path / "s.csv", ds)
    assert (tmp_path / "s.csv").read_bytes() == (
        b'id,time,event,cov_1\r\n,-0.0,1,0.1\r\n"a,b",1.5,0,-0.0\r\n'
        b'"q""",5e-324,1,2.0\r\n')
    back, _ = read_subjects_csv(tmp_path / "s.csv")
    assert back.subject_ids == ds.subject_ids
    assert _hex(back.times) == _hex(ds.times) and _hex(back.covariates) == _hex(ds.covariates)


def test_csv_field_over_the_reader_limit_names_its_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(f'id,time,event\na,1,1\n"{"x" * 200_000}",2,1\n')
    with pytest.raises(InputError, match=r"long\.csv:3: field larger than field limit"):
        read_subjects_csv(path)
    path.write_text(f'"{"x" * 200_000}",time,event\na,1,1\n')
    with pytest.raises(InputError, match=r"long\.csv:1: field larger than field limit"):
        read_subjects_csv(path)


def test_matrix_round_trip_and_alignment(tmp_path):
    grid = TimeGrid([0.0, 1.0, 2.0])
    sm = SurvivalMatrix(grid=grid, probs=[[1.0, 0.8, 0.5], [1.0, 0.4, 0.5 - 0.2]])
    path = tmp_path / "matrix.csv"
    write_csv(path, ["id", *grid.points.tolist()],
              ([sid, *row] for sid, row in zip("ab", sm.probs.tolist())))
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
    payload = [profile_to_dict(p) for p in get_profiles()[:3]]
    path.write_text(canonical_json(payload))
    loaded = load_profiles_file(path)
    assert [p.name for p in loaded] == [p["name"] for p in payload]
    path.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        load_profiles_file(path)
    path.write_text('{"profiles": [{"name": "x", "family": "bogus"}]}')
    with pytest.raises(InputError, match="family"):
        load_profiles_file(path)


def _c1a(rule):
    return ConcordancePolicy({PairCase.C1A: rule}).case_table[PairCase.C1A]


#: Each numeric knob, built from x, read back as stored.
_KNOBS = {
    "tie tolerance": lambda x: tie_weighted_policy(0, 0, tie_tolerance=x).tie_tolerance,
    "case weight": lambda x: _c1a((x, 1.0)).comparable_weight,
    "case credit": lambda x: _c1a((1.0, x)).credit,
    "truncation value": lambda x: Truncation("value", x).value,
    "transform time": lambda x: TransformSpec("at-time", time=x).time,
    "transform horizon": lambda x: TransformSpec("neg-rmst", horizon=x).horizon,
}


@pytest.mark.parametrize("knob", list(_KNOBS))
def test_numeric_knobs_are_plain_floats_and_reject_booleans(knob):
    build = _KNOBS[knob]
    for value in (1, np.int64(1), np.float32(1.0), 1.0):
        stored = build(value)
        assert type(stored) is float and stored == 1.0
        canonical_json(stored)  # a numpy scalar is not JSON serializable
    for value in (True, np.True_):
        with pytest.raises(InputError, match="must be a number"):
            build(value)


def test_report_with_integer_and_numpy_knobs_reloads_as_profiles(tmp_path):
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0, 4.0], events=[1, 0, 1, 1])
    policy = tie_weighted_policy(
        np.int64(1), 0.5, tie_tolerance=np.float32(0),
        truncation=Truncation("value", np.int64(3)),
    )
    profile = Profile("custom", "C_tau", policy)
    report = run_multiverse(ds, risks=[4.0, 3.0, 2.0, 1.0], profiles=[profile])
    path = tmp_path / "provenance.json"
    path.write_text(canonical_json(report.to_dict()["provenance"]))
    assert '"value": 3.0' in path.read_text()
    [loaded] = load_profiles_file(path)
    assert loaded == profile


def test_provenance_of_a_run_with_every_input_reloads_as_profiles(tmp_path):
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0, 4.0, 5.0], events=[1, 0, 1, 1, 0])
    probs = np.exp(-np.outer([0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 2.5, 4.5]))
    matrix = SurvivalMatrix(TimeGrid([0.5, 2.5, 4.5]), probs)
    profiles = get_profiles()
    report = run_multiverse(ds, matrix=matrix, profiles=profiles,
                            transform=TransformSpec("neg-rmst", horizon=4.0),
                            tau=Truncation("value", 4.0), bootstrap=BootstrapSpec(3), seed=1)
    provenance = report.to_dict()["provenance"]
    assert list(provenance) == list(PROVENANCE_KEYS)
    assert None not in provenance.values()
    path = tmp_path / "provenance.json"
    path.write_text(canonical_json(provenance))
    assert load_profiles_file(path) == list(profiles)


def test_profiles_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "profiles.json"
    payload = [profile_to_dict(p) for p in get_profiles()]
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
        (misspelt_policy, "unknown policy key(s): 'tie_tolerence'"),
        (entry(requires_tua=True), "unknown profile key(s): 'requires_tua'"),
        (entry(td_variant="antolini"), "unknown profile key(s): 'td_variant'"),
        (misspelt_truncation, "unknown truncation key(s): 'valeu'"),
        (entry(policy=[]), "policy must be an object, got list"),
        (entry(policy={"case_table": []}), "case_table must be an object, got list"),
        (entry(policy={"truncation": []}), "truncation must be an object, got list"),
    ]
    for bad, message in cases:
        path.write_text(canonical_json({"profiles": [payload[1], bad]}))
        expected = re.escape(f"profile #1: {message}")
        with pytest.raises(InputError, match=expected):
            load_profiles_file(path)
    # A file whose profiles are not a list.
    path.write_text(canonical_json({"profiles": payload[0]}))
    with pytest.raises(InputError, match=re.escape(
            f"{path}: expected a list of profile objects")):
        load_profiles_file(path)
    # A misspelt key of the file object itself.
    path.write_text(canonical_json({"profiles": payload, "profils": []}))
    with pytest.raises(InputError, match=re.escape(
            f"{path}: unknown profile file key(s): 'profils'")):
        load_profiles_file(path)


_BOM = "\ufeff".encode()


@pytest.mark.parametrize("name, text, read", [
    ("subjects.csv", "id,time,event,risk\na,1.0,1,0.5\nb,2.0,0,0.25\n",
     lambda path: read_subjects_csv(path, risk_col="risk")),
    ("matrix.csv", "id,1.0,2.0\na,0.9,0.5\nb,0.8,0.8\n",
     lambda path: read_matrix_csv(path, ["a", "b"])),
    ("params.json", '{"event": {"shape": 1.0, "scale": 0.02}}', read_json),
    ("profiles.json", canonical_json({"profiles": [profile_to_dict(get_profiles()[0])]}),
     load_profiles_file),
], ids=["subjects", "matrix", "params", "profiles"])
def test_inputs_with_a_byte_order_mark_read_as_without(tmp_path, name, text, read):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(_BOM + text.encode())
    assert repr(read(marked)) == repr(read(plain))
    # A mark does not make other bytes UTF-8.
    marked.write_bytes(_BOM + b"\xff" + text.encode())
    with pytest.raises(InputError, match="not UTF-8 text"):
        read(marked)


@pytest.mark.parametrize("table, message", [
    ({"1A": (1.0, 1.0), PairCase.C1B: (1.0, 0.0)},
     "case table key '1A' is not a PairCase; write e.g. PairCase('1A')"),
    ({**STRICT_PAIRS, "6A": (1.0, 1.0)}, "case table key '6A' is not a PairCase"),
    ({PairCase.C1A: (1.0, 1.0, 5)}, "case 1A must be (weight, credit), got (1.0, 1.0, 5)"),
    ({PairCase.C1A: 1.0}, "case 1A must be (weight, credit), got 1.0"),
    ([(PairCase.C1A, (1.0, 1.0))], "case table must be a mapping, got list"),
])
def test_policy_rejects_case_tables_it_cannot_read(table, message):
    with pytest.raises(InputError, match=re.escape(message)):
        ConcordancePolicy(table)
