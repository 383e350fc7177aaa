"""CSV schemas and canonical JSON serialization.

Subjects file: header ``id,time,event`` followed optionally by a risk column
and covariate columns named ``cov_1..cov_p``; events are 0/1, decimal point,
UTF-8, comma separated.  Matrix file: first column ``id``, remaining headers
are grid times as decimal literals; row order must match the subjects file.
Covariate pool file: a header naming the columns, then one finite numeric row
per subject.

All numeric output uses ``repr`` (shortest round-trip form) and JSON is
written with sorted keys, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .data import InputError, SurvivalDataset, SurvivalMatrix, TimeGrid
from .km import StepFunction
from .profiles import MultiverseReport, Profile, profile_from_dict


def _parse_float(raw: str, where: str, what: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"{where}: {what} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{where}: {what} must be finite, got {raw!r}")
    return value


def _fmt(value) -> str:
    """CSV text of a value: empty for None, shortest round-trip for floats."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def read_subjects_csv(
    path: str | Path, risk_col: str | None = None
) -> tuple[SurvivalDataset, np.ndarray | None]:
    """Parse a subjects file; returns the dataset and the risk column if requested.

    Schema violations raise :class:`InputError` with ``path:line`` positions.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}:1: empty file") from None
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

        ids: list[str] = []
        times: list[float] = []
        events: list[int] = []
        risks: list[float] = []
        covs: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise InputError(
                    f"{where}: expected {len(header)} fields, got {len(row)}"
                )
            ids.append(row[0])
            t = _parse_float(row[1], where, "time")
            if t < 0:
                raise InputError(f"{where}: negative time {row[1]!r}")
            times.append(t)
            if row[2] not in ("0", "1"):
                raise InputError(f"{where}: event must be 0 or 1, got {row[2]!r}")
            events.append(int(row[2]))
            if risk_idx is not None:
                risks.append(_parse_float(row[risk_idx], where, "risk"))
            if cov_cols:
                covs.append(
                    [_parse_float(row[c], where, header[c]) for c in cov_cols]
                )
    if not ids:
        raise InputError(f"{path}: no records")
    ds = SurvivalDataset(
        times=np.array(times),
        events=np.array(events, dtype=np.int8),
        subject_ids=tuple(ids),
        covariates=np.array(covs) if covs else None,
    )
    return ds, (np.array(risks) if risk_idx is not None else None)


def write_subjects_csv(
    path: str | Path,
    ds: SurvivalDataset,
    risks: np.ndarray | None = None,
    risk_col: str = "risk",
) -> None:
    path = Path(path)
    p = 0 if ds.covariates is None else ds.covariates.shape[1]
    header = ["id", "time", "event"]
    if risks is not None:
        header.append(risk_col)
    header += [f"cov_{j + 1}" for j in range(p)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [ds.subject_ids[i], _fmt(ds.times[i]), str(int(ds.events[i]))]
            if risks is not None:
                row.append(_fmt(risks[i]))
            if p:
                row += [_fmt(v) for v in ds.covariates[i]]
            writer.writerow(row)


def read_matrix_csv(path: str | Path, expected_ids: Sequence[str]) -> SurvivalMatrix:
    """Parse per-subject survival curves; rows must match the subjects file order."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}:1: empty file") from None
        if not header or header[0] != "id":
            raise InputError(f"{path}:1: first column must be 'id'")
        grid_points = [
            _parse_float(h, f"{path}:1", f"grid time {h!r}") for h in header[1:]
        ]
        try:
            grid = TimeGrid(np.array(grid_points))
        except InputError as exc:
            raise InputError(f"{path}:1: {exc}") from None

        rows: list[list[float]] = []
        ids: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise InputError(
                    f"{where}: expected {len(header)} fields, got {len(row)}"
                )
            ids.append(row[0])
            rows.append([_parse_float(v, where, "survival value") for v in row[1:]])
    if list(expected_ids) != ids:
        raise InputError(
            f"{path}: subject ids do not match the subjects file row order"
        )
    try:
        return SurvivalMatrix(grid=grid, probs=np.array(rows))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_covariate_pool(path: str | Path) -> np.ndarray:
    """Parse a covariate pool into an (n, p) array of finite values."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}:1: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise InputError(
                    f"{where}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append([_parse_float(v, where, name) for v, name in zip(row, header)])
    if not rows:
        raise InputError(f"{path}: no covariate rows")
    return np.array(rows)


def write_matrix_csv(path: str | Path, ids: Sequence[str], sm: SurvivalMatrix) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [_fmt(t) for t in sm.grid.points])
        for sid, row in zip(ids, sm.probs):
            writer.writerow([sid] + [_fmt(v) for v in row])


def write_step_function_csv(out: TextIO, sf: StepFunction) -> None:
    """Emit a step function as time,value rows, anchored at (0, 1)."""
    writer = csv.writer(out)
    writer.writerow(["time", "value"])
    if sf.jump_times.size == 0 or sf.jump_times[0] > 0:
        writer.writerow([_fmt(0.0), _fmt(1.0)])
    for t, v in zip(sf.jump_times, sf.values):
        writer.writerow([_fmt(t), _fmt(v)])


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
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_COLUMNS)
        for r in report.results:
            cell = r.to_dict()
            writer.writerow(
                _fmt(cell["name" if col == "profile" else col])
                for col in REPORT_CSV_COLUMNS
            )


def load_profiles_file(path: str | Path) -> list[Profile]:
    """Read profile definitions from JSON (a list, or {"profiles": [...]})."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    entries = raw.get("profiles") if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise InputError(f"{path}: expected a list of profile objects")
    out = []
    for k, entry in enumerate(entries):
        try:
            out.append(profile_from_dict(entry))
        except (InputError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: profile #{k}: {exc}") from None
    return out
