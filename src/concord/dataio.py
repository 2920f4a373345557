"""Loading stratified risks or counts from CSV and JSON files.

CSV schemas (header row required, data rows in this exact order:
P/control, P/exposed, Q/control, Q/exposed):

    stratum,group,risk                  -> StratifiedRisks
    stratum,group,events,total          -> CountTable

JSON schemas (one top-level key):

    {"strata": {"P": {"control": r, "exposed": r}, "Q": {...}}}
    {"counts": {"P": {"control": {"events": n, "total": n}, ...}, "Q": {...}}}

Structural problems raise ParseError with line/column context; values
that parse but violate a domain invariant (risk outside [0, 1], events
beyond total) raise InputValidationError from the domain constructors.
"""

from __future__ import annotations

import codecs
import csv
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError, InputValidationError, ParseError
from .agreement import StratifiedRisks
from .inference import CellCount, CountTable
from .report import _json_loads

__all__ = ["load_strata", "parse_strata_text"]

_ROW_ORDER = (("P", "control"), ("P", "exposed"), ("Q", "control"), ("Q", "exposed"))
_RISK_HEADER = ["stratum", "group", "risk"]
_COUNT_HEADER = ["stratum", "group", "events", "total"]


def load_strata(
    path: Union[str, Path], format: Optional[str] = None
) -> Union[StratifiedRisks, CountTable]:
    """Parse a risks or counts file; the schema decides the return type.

    format is "csv" or "json"; when omitted it is inferred from the file
    suffix. The file is UTF-8, optionally after a byte-order mark; another
    encoding (such as the UTF-16 of Windows PowerShell 5's Out-File) raises
    ParseError naming the first bad byte's offset. OSError propagates if
    the file cannot be read.
    """
    file_path = Path(path)
    if format is None:
        suffix = file_path.suffix.lower().lstrip(".")
        if suffix not in ("csv", "json"):
            raise ConfigError(
                f"cannot infer format from suffix {file_path.suffix!r}; "
                "pass format='csv' or format='json'"
            )
        format = suffix
    elif format not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {format!r}")
    data = file_path.read_bytes()
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = len(data) - len(body) + exc.start
        raise ParseError(f"byte {at}: 0x{data[at]:02x} is not UTF-8") from None
    return parse_strata_text(text, format)


def parse_strata_text(
    text: str, format: str
) -> Union[StratifiedRisks, CountTable]:
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json(text)
    raise ConfigError(f"format must be 'csv' or 'json', got {format!r}")


def _strip_row(row: list[str]) -> list[str]:
    return [cell.strip() for cell in row]


def _parse_csv(text: str) -> Union[StratifiedRisks, CountTable]:
    rows = [
        (line_no, _strip_row(row))
        for line_no, row in enumerate(csv.reader(text.splitlines()), start=1)
        if any(cell.strip() for cell in row)
    ]
    if not rows:
        raise ParseError("line 1: empty file, expected a header row")
    header_line, header = rows[0]
    lowered = [cell.lower() for cell in header]
    if lowered == _RISK_HEADER:
        is_counts = False
    elif lowered == _COUNT_HEADER:
        is_counts = True
    else:
        raise ParseError(
            f"line {header_line}: unrecognized header {','.join(header)!r}; "
            f"expected {','.join(_RISK_HEADER)!r} or {','.join(_COUNT_HEADER)!r}"
        )
    data = rows[1:]
    if len(data) != 4:
        raise ParseError(
            f"expected exactly 4 data rows "
            f"({', '.join('/'.join(r) for r in _ROW_ORDER)}), got {len(data)}"
        )
    width = len(header)
    values: list[Union[float, tuple[int, int]]] = []
    for (line_no, row), (stratum, group) in zip(data, _ROW_ORDER):
        if len(row) != width:
            raise ParseError(
                f"line {line_no}: expected {width} columns, got {len(row)}"
            )
        if row[0].upper() != stratum or row[1].lower() != group:
            raise ParseError(
                f"line {line_no}: expected row for {stratum}/{group}, "
                f"got {row[0]}/{row[1]}"
            )
        if is_counts:
            values.append(
                (
                    _int_cell(row[2], line_no, 3, "events"),
                    _int_cell(row[3], line_no, 4, "total"),
                )
            )
        else:
            values.append(_float_cell(row[2], line_no, 3, "risk"))
    if is_counts:
        return CountTable.from_ints(values)  # type: ignore[arg-type]
    return StratifiedRisks.from_probs(*values)  # type: ignore[arg-type]


def _float_cell(cell: str, line_no: int, column: int, name: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(
            f"line {line_no}, column {column}: {name} must be a number, got {cell!r}"
        ) from None


def _int_cell(cell: str, line_no: int, column: int, name: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(
            f"line {line_no}, column {column}: {name} must be an integer, got {cell!r}"
        ) from None


def _parse_json(text: str) -> Union[StratifiedRisks, CountTable]:
    payload = _json_loads(text)
    if not isinstance(payload, dict):
        raise ParseError('top level must be an object with "strata" or "counts"')
    has_strata = "strata" in payload
    has_counts = "counts" in payload
    if has_strata == has_counts:
        raise ParseError('top level needs exactly one of "strata" or "counts"')
    if has_strata:
        cells = _json_cells(payload["strata"], "strata")
        risks = [_json_number(value, where) for value, where in cells]
        return StratifiedRisks.from_probs(*risks)
    cells = _json_cells(payload["counts"], "counts")
    made = []
    for value, where in cells:
        if not isinstance(value, dict):
            raise ParseError(f"{where} must be an object with events and total")
        extra = value.keys() - {"events", "total"}
        if extra:
            raise ParseError(f"{where} has unexpected keys: {', '.join(sorted(extra))}")
        try:
            events, total = value["events"], value["total"]
        except KeyError as exc:
            raise ParseError(f"{where} is missing {exc.args[0]!r}") from None
        made.append(
            CellCount(_json_integer(events, f"{where}.events"),
                      _json_integer(total, f"{where}.total"))
        )
    return CountTable(*made)


def _json_cells(section: object, label: str) -> list[tuple[object, str]]:
    """The four cell values in row order, with their JSON paths."""
    if not isinstance(section, dict):
        raise ParseError(f'"{label}" must be an object with strata P and Q')
    extra = section.keys() - {"P", "Q"}
    if extra:
        raise ParseError(f'"{label}" has unexpected keys: {", ".join(sorted(extra))}')
    cells = []
    for stratum, group in _ROW_ORDER:
        where = f"{label}.{stratum}.{group}"
        try:
            stratum_obj = section[stratum]
        except KeyError:
            raise ParseError(f'"{label}" is missing stratum {stratum!r}') from None
        if not isinstance(stratum_obj, dict):
            raise ParseError(f"{label}.{stratum} must be an object")
        try:
            cells.append((stratum_obj[group], where))
        except KeyError:
            raise ParseError(f"{label}.{stratum} is missing {group!r}") from None
    return cells


def _json_number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {value!r}")
    return float(value)


def _json_integer(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value
