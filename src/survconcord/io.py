"""CSV schemas and canonical JSON serialization.

Every CSV file is UTF-8 and comma separated: a header row, then one row per
record with one field per header column.  Blank lines after the header are
skipped.  Numbers are ASCII decimal literals, as ``float`` reads them but
without ``_`` separators, and must be finite.  Errors name the place as
``path:line``.

A file is read once.  When it is plain (no ``"``, no ``\r`` but in ``\r\n``
line ends, every line as many fields as the header) ``np.loadtxt`` parses its
numbers in one C pass.  Any other file goes through the row reader:
``csv.reader``, then C-level ``float`` over all its numbers at once.  When
the values fail a check, the rows are checked one number at a time, so that
an error names the first bad field or row in file order.

Subjects file: header ``id,time,event`` followed optionally by a risk column
and covariate columns named ``cov_1..cov_p``; events are 0/1.  Matrix file:
first column ``id``, the other headers are grid times; row order must match
the subjects file.  Covariate pool file: a header naming the columns, then one
row per subject.

Written CSV files have ``\r\n`` line ends, numbers as their ``repr``
(shortest round-trip form) and a text field quoted, with ``"`` doubled,
only when it holds ``,``, ``"``, ``\r`` or ``\n``.  ``write_subjects_csv``
joins a subjects file's lines itself; every other CSV goes through
``write_csv``.  JSON is written with sorted keys, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import re
from io import StringIO
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .data import InputError, SurvivalDataset, SurvivalMatrix, TimeGrid
from .data import _reject_unknown_keys
from .engine import StepFunction
from .profiles import PROVENANCE_KEYS, MultiverseReport, Profile, profile_from_dict


def _decimal(raw: str) -> float:
    """``float(raw)`` for an ASCII decimal literal; a ``ValueError`` otherwise."""
    if "_" in raw or not raw.isascii():  # float() would read 1_0, ٣ and ０.5
        raise ValueError(f"not a decimal literal: {raw!r}")
    return float(raw)


def _parse_float(raw: str, where: str, what: str) -> float:
    try:
        value = _decimal(raw)
    except ValueError:
        raise InputError(f"{where}: {what} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{where}: {what} must be finite, got {raw!r}")
    return value


def _not_utf8(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def _csv_rows(path: Path, text: str) -> Iterator:
    """Parse a CSV text: the header, then ``(line number, fields)`` per row.

    Blank lines are skipped.  An empty text, a row whose field count
    differs from the header's, or a row ``csv.reader`` refuses (a field over
    its ``field_size_limit``) raises :class:`InputError`.
    """
    reader = csv.reader(StringIO(text, newline=""))
    lineno = 0  # the last row read
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}:1: empty file")
        yield header
        lineno = 1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} "
                                 f"fields, got {len(row)}")
            yield lineno, row
    except csv.Error as exc:
        raise InputError(f"{path}:{lineno + 1}: {exc}") from None


def _read_csv(path: Path) -> tuple[str, list[str], list[str] | None]:
    """Read a CSV file once: its text, its header and, when the file is
    plain, its non-empty lines after the header.

    A leading UTF-8 byte-order mark is dropped and ``\\r\\n`` line ends
    become ``\\n``.  A file is plain when it then holds no ``"`` and no
    ``\\r``, its first line is not empty and every non-empty line has as
    many fields as the header: splitting its lines at commas gives the
    fields ``csv.reader`` would.  Text that is not UTF-8 raises
    :class:`InputError`.
    """
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    if '"' not in text:
        plain = text.replace("\r\n", "\n")
        if "\r" not in plain:
            head, *lines = plain.split("\n")
            header = head.split(",")
            lines = [line for line in lines if line]
            if head and all(line.count(",") == len(header) - 1 for line in lines):
                return plain, header, lines
    return text, next(_csv_rows(path, text)), None


def _read_columns(path: Path, text: str, lines: list[str] | None,
                  numbers: Sequence[int], strings: Sequence[int],
                  check_row: Callable, valid: Callable | None = None,
                  ) -> tuple[np.ndarray, list[list[str]]]:
    """The columns ``numbers`` of every row as an (n, len(numbers)) float
    array, and the columns ``strings`` as lists of fields.

    A plain file's lines go through ``np.loadtxt`` in one C pass.  The row
    reader parses every other file, and a plain file whose C pass fails:
    ``csv.reader`` splits the rows and C-level ``float`` converts all their
    numbers at once.  The values must be finite and pass
    ``valid(values, fields)``.  When a pass fails, ``check_row(where, row)``
    runs on each row: it returns a row's numbers or raises the error of its
    first bad field, so an error names the first bad field or row in file
    order.
    """
    def checked(values, found):
        return np.isfinite(values).all() and (valid is None or valid(values, found))

    def decimal(s):  # free of what _parse_float refuses before float()
        return "_" not in s and s.isascii()

    if lines:  # np.loadtxt warns on no lines
        parsed = lines
        if not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
            # np.loadtxt skips these around a number, float() refuses them
            parsed = [re.sub("[^\x00-\x1b\x20-\x7f]", "x", line) for line in lines]
        try:
            values = np.loadtxt(parsed, delimiter=",", usecols=numbers,
                                comments=None, quotechar=None, ndmin=2)
        except ValueError:
            pass
        else:
            found = [[line.split(",", c + 1)[c] for line in lines] for c in strings]
            if checked(values, found):
                return values, found
    rows, error = [], None
    try:
        rows.extend(islice(_csv_rows(path, text), 1, None))
    except InputError as exc:  # raised after the rows before it are checked
        error = exc
    found = [[row[c] for _, row in rows] for c in strings]
    fields = [row[c] for _, row in rows for c in numbers]
    if error is None and (decimal(text) or decimal("".join(fields))):
        try:
            values = np.fromiter(map(float, fields), float, len(fields))
        except ValueError:
            pass
        else:
            values = values.reshape(len(rows), len(numbers))
            if checked(values, found):
                return values, found
    values = [check_row(f"{path}:{lineno}", row) for lineno, row in rows]
    if error is not None:
        raise error
    return np.array(values, float).reshape(len(rows), len(numbers)), found


def write_csv(out: str | Path | TextIO, header: list, rows: Iterable) -> None:
    """Write a header and rows to a path or an open text stream with
    ``csv.writer``; subjects files go through ``write_subjects_csv`` instead.

    Cells are strings or plain Python numbers (``.tolist()`` values): csv
    writes a float as its ``repr``, the shortest round-trip form, and
    ``None`` as an empty field.
    """
    if isinstance(out, (str, Path)):
        with Path(out).open("w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def read_json(path: str | Path):
    """Decode a JSON file, a leading UTF-8 byte-order mark dropped; malformed
    or non-UTF-8 text raises :class:`InputError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def read_subjects_csv(
    path: str | Path, risk_col: str | None = None
) -> tuple[SurvivalDataset, np.ndarray | None]:
    """Parse a subjects file; returns the dataset and the risk column if requested.

    Schema violations raise :class:`InputError` with ``path:line`` positions.
    """
    path = Path(path)
    text, header, lines = _read_csv(path)
    if header[:3] != ["id", "time", "event"]:
        raise InputError(
            f"{path}:1: header must start with id,time,event "
            f"(got {','.join(header[:3])})"
        )
    extra = header[3:]
    cov_cols: list[int] = []
    risk_idx: int | None = None
    for pos, name in enumerate(extra, start=3):
        if risk_col is not None and name == risk_col:
            if risk_idx is not None:
                raise InputError(f"{path}:1: risk column {risk_col!r} is named twice")
            risk_idx = pos
        elif name == "risk":
            pass  # part of the standard schema; ignored unless requested
        elif name == f"cov_{len(cov_cols) + 1}":
            cov_cols.append(pos)
        else:
            raise InputError(
                f"{path}:1: unexpected column {name!r} "
                f"(expected cov_{len(cov_cols) + 1}"
                + (f" or {risk_col!r}" if risk_col else "")
                + ")"
            )
    if risk_col is not None and risk_idx is None:
        raise InputError(f"{path}:1: risk column {risk_col!r} not found")

    columns = [1] + cov_cols if risk_idx is None else [1, risk_idx, *cov_cols]

    def check_row(where, row):
        time = _parse_float(row[1], where, "time")
        if time < 0:
            raise InputError(f"{where}: negative time {row[1]!r}")
        if row[2] not in ("0", "1"):
            raise InputError(f"{where}: event must be 0 or 1, got {row[2]!r}")
        return [time, *(_parse_float(row[c], where, "risk" if c == risk_idx else header[c])
                        for c in columns[1:])]

    values, (ids, events) = _read_columns(
        path, text, lines, columns, (0, 2), check_row,
        lambda values, found: (values[:, 0] >= 0).all() and set(found[1]) <= {"0", "1"},
    )
    if not ids:
        raise InputError(f"{path}: no records")
    ds = SurvivalDataset(
        times=values[:, 0],
        events=np.array(events) == "1",
        subject_ids=tuple(ids),
        covariates=values[:, -len(cov_cols):] if cov_cols else None,
    )
    return ds, (values[:, 1].copy() if risk_idx is not None else None)


_QUOTED = re.compile('[,"\r\n]')


def _quoted(ids: tuple[str, ...]) -> Sequence[str]:
    """Ids as ``csv.writer``'s minimal quoting writes them: quoted, with
    ``"`` doubled, only when they hold ``,``, ``"``, ``\\r`` or ``\\n``."""
    if not _QUOTED.search("".join(ids)):
        return ids
    return ['"' + s.replace('"', '""') + '"' if _QUOTED.search(s) else s for s in ids]


def _row_text(shared: dict, key: str, values: np.ndarray, fmt: Callable) -> list[str]:
    """``fmt(values)``, one string per row, reusing the text of the first
    dataset written with ``shared`` wherever a row's float64 bits equal that
    dataset's row at the same position.  Bits, not values: ``-0.0 == 0.0``
    but their ``repr`` differ."""
    bits = values.view(np.uint64)
    if bits.ndim == 1:
        bits = bits[:, None]
    if key not in shared:
        text = fmt(values)
        shared[key] = bits, text
        return text
    first_bits, first_text = shared[key]
    if first_bits.shape != bits.shape:
        return fmt(values)
    fresh = np.flatnonzero((first_bits != bits).any(axis=1))
    if not fresh.size:
        return first_text
    text = first_text.copy()
    for k, row in zip(fresh.tolist(), fmt(values[fresh])):
        text[k] = row
    return text


def _reprs(times: np.ndarray) -> list[str]:
    return list(map(repr, times.tolist()))


def _tails(covariates: np.ndarray) -> list[str]:
    return ["," + ",".join(map(repr, row)) for row in covariates.tolist()]


def write_subjects_csv(path: str | Path, ds: SurvivalDataset,
                       shared: dict | None = None) -> None:
    """Write a subjects file: ``id,time,event[,cov_1..cov_p]``.

    The bytes are those ``csv.writer`` writes: ``\\r\\n`` line ends, numbers
    as their ``repr`` and ids quoted only when they hold ``,``, ``"``,
    ``\\r`` or ``\\n``.  Each line is one f-string and the file one join.
    Datasets written with the same ``shared`` dict (say, one replicate's
    uncensored and censored files) reuse the first one's text of the ids,
    and of each time and covariate row whose float64 bits are unchanged; the
    bytes written never depend on it.
    """
    if shared is None:
        shared = {}
    if "ids" not in shared:
        shared["ids"] = ds.subject_ids, _quoted(ds.subject_ids)
    first_ids, quoted = shared["ids"]
    if first_ids != ds.subject_ids:
        quoted = _quoted(ds.subject_ids)
    times = _row_text(shared, "times", ds.times, _reprs)
    header = "id,time,event"
    if ds.covariates is None or not ds.covariates.shape[1]:
        tails = repeat("")
    else:
        header += "".join(f",cov_{j + 1}" for j in range(ds.covariates.shape[1]))
        tails = _row_text(shared, "covariates", ds.covariates, _tails)
    lines = [f"{i},{t},{e}{c}\r\n"
             for i, t, e, c in zip(quoted, times, ds.events.tolist(), tails)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n" + "".join(lines))


def read_matrix_csv(path: str | Path, expected_ids: Sequence[str]) -> SurvivalMatrix:
    """Parse per-subject survival curves; rows must match the subjects file order."""
    path = Path(path)
    text, header, lines = _read_csv(path)
    if not header or header[0] != "id":
        raise InputError(f"{path}:1: first column must be 'id'")
    grid_points = [
        _parse_float(h, f"{path}:1", f"grid time {h!r}") for h in header[1:]
    ]
    try:
        grid = TimeGrid(np.array(grid_points))
    except InputError as exc:
        raise InputError(f"{path}:1: {exc}") from None

    def check_row(where, row):
        return [_parse_float(v, where, "survival value") for v in row[1:]]

    probs, (ids,) = _read_columns(
        path, text, lines, range(1, len(header)), (0,), check_row)
    expected = list(expected_ids)
    if len(ids) != len(expected):
        raise InputError(f"{path}: {len(ids)} rows, but {len(expected)} in the subjects "
                         f"file; rows must follow the subjects file row order")
    if ids != expected:
        k = next(k for k, (got, want) in enumerate(zip(ids, expected)) if got != want)
        lineno, _ = next(islice(_csv_rows(path, text), k + 1, None))
        raise InputError(f"{path}:{lineno}: subject id {ids[k]!r} does not follow the "
                         f"subjects file row order, which has {expected[k]!r} there")
    try:
        return SurvivalMatrix(grid=grid, probs=probs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_covariate_pool(path: str | Path) -> np.ndarray:
    """Parse a covariate pool into an (n, p) array of finite values."""
    path = Path(path)
    text, header, lines = _read_csv(path)

    def check_row(where, row):
        return [_parse_float(v, where, name) for v, name in zip(row, header)]

    pool, _ = _read_columns(path, text, lines, range(len(header)), (), check_row)
    if not len(pool):
        raise InputError(f"{path}: no covariate rows")
    return pool


def write_step_function_csv(out: str | Path | TextIO, sf: StepFunction) -> None:
    """Emit a step function as time,value rows, anchored at (0, 1)."""
    rows = list(zip(sf.jump_times.tolist(), sf.values.tolist()))
    if not rows or rows[0][0] > 0:
        rows.insert(0, (0.0, 1.0))
    write_csv(out, ["time", "value"], rows)


def canonical_json(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


REPORT_CSV_COLUMNS = [
    "profile", "family", "estimate", "ci_lower", "ci_upper", "numerator",
    "denominator", "dropped_pairs", "tau_used", "weight_scheme", "g_used",
    "failed_resamples", "error",
]


def write_report_csv(path: str | Path, report: MultiverseReport) -> None:
    fields = ["name", *REPORT_CSV_COLUMNS[1:]]
    rows = ([getattr(r, f) for f in fields] for r in report.results)
    write_csv(path, REPORT_CSV_COLUMNS, rows)


def load_profiles_file(path: str | Path) -> list[Profile]:
    """Read profile definitions from JSON (a list, or {"profiles": [...]})."""
    path = Path(path)
    entries = read_json(path)
    if isinstance(entries, dict):
        try:  # a report's provenance block is a profile file, so its keys are known
            _reject_unknown_keys(entries, PROVENANCE_KEYS, "profile file")
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
        entries = entries.get("profiles")
    if not isinstance(entries, list):
        raise InputError(f"{path}: expected a list of profile objects")
    out = []
    for k, entry in enumerate(entries):
        try:
            out.append(profile_from_dict(entry))
        except (InputError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: profile #{k}: {exc}") from None
    return out
