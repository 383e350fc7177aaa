"""CSV schemas and canonical JSON serialization.

Every CSV file is UTF-8 and comma separated: a header row, then one row per
record with one field per header column.  Blank lines after the header are
skipped.  Numbers are decimal literals and must be finite.  Errors name the
place as ``path:line``.

Subjects file: header ``id,time,event`` followed optionally by a risk column
and covariate columns named ``cov_1..cov_p``; events are 0/1.  Matrix file:
first column ``id``, the other headers are grid times; row order must match
the subjects file.  Covariate pool file: a header naming the columns, then one
row per subject.

All numeric output uses ``repr`` (shortest round-trip form) and JSON is
written with sorted keys, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import closing
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .data import InputError, SurvivalDataset, SurvivalMatrix, TimeGrid
from .data import _reject_unknown_keys
from .km import StepFunction
from .profiles import PROVENANCE_KEYS, MultiverseReport, Profile, profile_from_dict


def _parse_float(raw: str, where: str, what: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"{where}: {what} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{where}: {what} must be finite, got {raw!r}")
    return value


def _not_utf8(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def _csv_rows(path: Path) -> Iterator:
    """Stream a CSV file: the header, then ``(line number, fields)`` per row.

    A leading UTF-8 byte-order mark is dropped and blank lines are skipped.
    An empty file, text that is not UTF-8, or a row whose field count
    differs from the header's, raises :class:`InputError`.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
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
            raise _not_utf8(path, exc) from None


def _float_rows(path: Path, rows: Iterator, numbers: Callable, width: int,
                check_row: Callable, valid: Callable | None = None) -> np.ndarray:
    """The fields ``numbers(row)`` of every row left in ``rows``, converted by
    C-level ``float`` in one pass into an (n, width) array.

    The values must be finite and pass ``valid(values)``.  When they do not,
    or a field is not a number or a row has the wrong field count, the file is
    read again from the top with ``check_row(where, row)`` on each row, which
    raises the error of the first bad field in file order.
    """
    try:
        fields = chain.from_iterable(numbers(row) for _, row in rows)
        values = np.fromiter(map(float, fields), float).reshape(-1, width)
        if np.isfinite(values).all() and (valid is None or valid(values)):
            return values
    except ValueError:  # InputError included
        pass
    with closing(_csv_rows(path)) as rows:
        next(rows)
        for lineno, row in rows:
            check_row(f"{path}:{lineno}", row)
    raise InputError(f"{path}: changed while it was read")


def write_csv(out: str | Path | TextIO, header: list, rows: Iterable) -> None:
    """Write a header and rows to a path or an open text stream.

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
    with closing(_csv_rows(path)) as rows:
        header = next(rows)
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
        ids: list[str] = []
        events: list[str] = []

        def numbers(row):
            ids.append(row[0])
            events.append(row[2])
            return [row[c] for c in columns]

        def check_row(where, row):
            if _parse_float(row[1], where, "time") < 0:
                raise InputError(f"{where}: negative time {row[1]!r}")
            if row[2] not in ("0", "1"):
                raise InputError(f"{where}: event must be 0 or 1, got {row[2]!r}")
            if risk_idx is not None:
                _parse_float(row[risk_idx], where, "risk")
            for c in cov_cols:
                _parse_float(row[c], where, header[c])

        values = _float_rows(
            path, rows, numbers, len(columns), check_row,
            lambda values: (values[:, 0] >= 0).all() and set(events) <= {"0", "1"},
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


def write_subjects_csv(path: str | Path, ds: SurvivalDataset) -> None:
    header = ["id", "time", "event"]
    columns = [ds.subject_ids, ds.times.tolist(), ds.events.tolist()]
    if ds.covariates is not None:
        header += [f"cov_{j + 1}" for j in range(ds.covariates.shape[1])]
        columns += ds.covariates.T.tolist()
    write_csv(path, header, zip(*columns))


def read_matrix_csv(path: str | Path, expected_ids: Sequence[str]) -> SurvivalMatrix:
    """Parse per-subject survival curves; rows must match the subjects file order."""
    path = Path(path)
    with closing(_csv_rows(path)) as rows:
        header = next(rows)
        if not header or header[0] != "id":
            raise InputError(f"{path}:1: first column must be 'id'")
        grid_points = [
            _parse_float(h, f"{path}:1", f"grid time {h!r}") for h in header[1:]
        ]
        try:
            grid = TimeGrid(np.array(grid_points))
        except InputError as exc:
            raise InputError(f"{path}:1: {exc}") from None

        ids: list[str] = []

        def numbers(row):
            ids.append(row[0])
            return row[1:]

        def check_row(where, row):
            for v in row[1:]:
                _parse_float(v, where, "survival value")

        probs = _float_rows(path, rows, numbers, len(grid), check_row)
    if list(expected_ids) != ids:
        raise InputError(
            f"{path}: subject ids do not match the subjects file row order"
        )
    try:
        return SurvivalMatrix(grid=grid, probs=probs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_covariate_pool(path: str | Path) -> np.ndarray:
    """Parse a covariate pool into an (n, p) array of finite values."""
    path = Path(path)
    with closing(_csv_rows(path)) as rows:
        header = next(rows)

        def check_row(where, row):
            for v, name in zip(row, header):
                _parse_float(v, where, name)

        pool = _float_rows(path, rows, lambda row: row, len(header), check_row)
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
