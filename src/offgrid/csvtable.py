"""The one CSV table format shared by every input file (weather, house
temperature, simulation traces).

A table is a header row naming its columns (case-insensitive, any order,
extra columns ignored) followed by one record per row. Blank rows are
skipped; a row with fewer cells than the header is rejected. Each needed
cell goes through its column's parser, and a `ValueError` from a parser
becomes a `DataError`. The `timestamp` column must strictly increase and
the table must hold at least one record. Every row error names the file and
the line (the header is line 1), and a bad value also its column.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterator
from datetime import datetime
from pathlib import Path
from typing import Any

from .errors import DataError


def parse_timestamp(text: str) -> datetime:
    """ISO-8601 timestamp; surrounding whitespace is allowed."""
    return datetime.fromisoformat(text.strip())


def parse_finite(text: str) -> float:
    """A float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


def read_table(path: str | Path,
               parsers: dict[str, Callable[[str], Any]]) -> Iterator[tuple[int, list]]:
    """Yield each record as (line number, list of its parsed values in
    `parsers` order), so that checks made after reading can name the line.

    `parsers` maps column names (lower case) to parsers and must include
    `timestamp`, whose parser returns a datetime.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = [h.strip().lower() for h in next(reader, [])]
        if not names:
            raise DataError(f"{path}: no records")
        missing = [c for c in parsers if c not in names]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}; found {names}")
        columns = [(names.index(c), parse) for c, parse in parsers.items()]
        ts_pos = list(parsers).index("timestamp")
        width = len(names)
        prev = None
        for line_no, row in enumerate(reader, start=2):
            # Blank rows are rare, so the blank test runs only on rows that
            # would otherwise fail: short rows and rows a parser rejects.
            if len(row) < width:
                if not any(cell.strip() for cell in row):
                    continue
                raise DataError(f"{path}: short row at line {line_no}")
            try:
                values = [parse(row[i]) for i, parse in columns]
            except ValueError:
                if not any(cell.strip() for cell in row):
                    continue
                raise _bad_value(path, line_no, row, names, columns) from None
            ts = values[ts_pos]
            if prev is not None and ts <= prev:
                raise DataError(f"{path}: non-monotonic timestamp at line {line_no}")
            prev = ts
            yield line_no, values
    if prev is None:
        raise DataError(f"{path}: no records")


def _bad_value(path: Path, line_no: int, row: list[str], names: list[str],
               columns: list[tuple[int, Callable[[str], Any]]]) -> DataError:
    """The error for the first cell of `row` that its parser rejects."""
    for i, parse in columns:
        try:
            parse(row[i])
        except ValueError as exc:
            return DataError(f"{path}: {exc} at line {line_no}, column {names[i]}")
    raise AssertionError("no parser rejected the row")
