"""Tests for CSV/JSON ingestion of risks and counts."""

import json

import pytest

from concord.dataio import load_strata, parse_strata_text
from concord.errors import ConfigError, InputValidationError, ParseError
from concord.inference import CountTable
from concord.agreement import StratifiedRisks

RISKS_CSV = """\
stratum,group,risk
P,control,0.009
P,exposed,0.075
Q,control,0.106
Q,exposed,0.253
"""

COUNTS_CSV = """\
stratum,group,events,total
P,control,7,100
P,exposed,15,100
Q,control,20,100
Q,exposed,35,100
"""

RISKS_JSON = json.dumps(
    {
        "strata": {
            "P": {"control": 0.009, "exposed": 0.075},
            "Q": {"control": 0.106, "exposed": 0.253},
        }
    }
)

COUNTS_JSON = json.dumps(
    {
        "counts": {
            "P": {
                "control": {"events": 7, "total": 100},
                "exposed": {"events": 15, "total": 100},
            },
            "Q": {
                "control": {"events": 20, "total": 100},
                "exposed": {"events": 35, "total": 100},
            },
        }
    }
)


# ---------------------------------------------------------------------------
# CSV


def test_csv_risks():
    strata = parse_strata_text(RISKS_CSV, "csv")
    assert isinstance(strata, StratifiedRisks)
    assert (strata.p1, strata.p2, strata.p3, strata.p4) == (
        0.009,
        0.075,
        0.106,
        0.253,
    )


def test_csv_counts():
    table = parse_strata_text(COUNTS_CSV, "csv")
    assert isinstance(table, CountTable)
    assert table.risks() == (0.07, 0.15, 0.20, 0.35)


def test_csv_tolerates_whitespace_and_case():
    text = (
        "Stratum, Group, Risk\n"
        " p , Control , 0.1 \n"
        "P,EXPOSED,0.2\n"
        "q,control,0.3\n"
        "Q , exposed , 0.4\n"
    )
    strata = parse_strata_text(text, "csv")
    assert (strata.p1, strata.p2, strata.p3, strata.p4) == (0.1, 0.2, 0.3, 0.4)


def test_csv_skips_blank_lines():
    text = RISKS_CSV.replace("P,exposed", "\nP,exposed")
    strata = parse_strata_text(text, "csv")
    assert strata.p2 == 0.075


def test_csv_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_strata_text("stratum,arm,risk\nP,control,0.1\n", "csv")


def test_csv_wrong_row_order():
    text = RISKS_CSV.replace("P,exposed,0.075\nQ,control,0.106", "Q,control,0.106\nP,exposed,0.075")
    with pytest.raises(ParseError, match="line 3"):
        parse_strata_text(text, "csv")


def test_csv_non_numeric_risk():
    text = RISKS_CSV.replace("0.075", "high")
    with pytest.raises(ParseError, match="line 3, column 3"):
        parse_strata_text(text, "csv")


def test_csv_float_events():
    text = COUNTS_CSV.replace("15,100", "15.5,100")
    with pytest.raises(ParseError, match="integer"):
        parse_strata_text(text, "csv")


def test_csv_wrong_column_count():
    text = RISKS_CSV.replace("P,exposed,0.075", "P,exposed")
    with pytest.raises(ParseError, match="columns"):
        parse_strata_text(text, "csv")


def test_csv_wrong_row_count():
    with pytest.raises(ParseError, match="exactly 4 data rows"):
        parse_strata_text(RISKS_CSV + "Q,exposed,0.5\n", "csv")
    with pytest.raises(ParseError, match="exactly 4 data rows"):
        parse_strata_text("stratum,group,risk\nP,control,0.1\n", "csv")


def test_csv_empty_file():
    with pytest.raises(ParseError, match="empty"):
        parse_strata_text("", "csv")


def test_csv_range_violations_are_validation_errors():
    # the file parses fine; the domain layer rejects the values
    with pytest.raises(InputValidationError):
        parse_strata_text(RISKS_CSV.replace("0.253", "1.5"), "csv")
    with pytest.raises(InputValidationError):
        parse_strata_text(COUNTS_CSV.replace("35,100", "135,100"), "csv")


# ---------------------------------------------------------------------------
# JSON


def test_json_risks():
    strata = parse_strata_text(RISKS_JSON, "json")
    assert isinstance(strata, StratifiedRisks)
    assert strata.p4 == 0.253


def test_json_counts():
    table = parse_strata_text(COUNTS_JSON, "json")
    assert isinstance(table, CountTable)
    assert table.cells[3].events == 35


def test_json_syntax_error_carries_position():
    with pytest.raises(ParseError, match="line 1, column"):
        parse_strata_text("{not json", "json")


def test_json_top_level_shape():
    with pytest.raises(ParseError, match="exactly one"):
        parse_strata_text(json.dumps({}), "json")
    both = json.loads(RISKS_JSON)
    both["counts"] = json.loads(COUNTS_JSON)["counts"]
    with pytest.raises(ParseError, match="exactly one"):
        parse_strata_text(json.dumps(both), "json")
    with pytest.raises(ParseError, match="object"):
        parse_strata_text(json.dumps([1, 2, 3]), "json")


def test_json_missing_pieces():
    payload = json.loads(RISKS_JSON)
    del payload["strata"]["Q"]
    with pytest.raises(ParseError, match="missing stratum 'Q'"):
        parse_strata_text(json.dumps(payload), "json")

    payload = json.loads(RISKS_JSON)
    del payload["strata"]["P"]["exposed"]
    with pytest.raises(ParseError, match="missing 'exposed'"):
        parse_strata_text(json.dumps(payload), "json")


def test_json_unexpected_keys():
    payload = json.loads(RISKS_JSON)
    payload["strata"]["R"] = {"control": 0.1, "exposed": 0.2}
    with pytest.raises(ParseError, match="unexpected keys: R"):
        parse_strata_text(json.dumps(payload), "json")

    payload = json.loads(COUNTS_JSON)
    payload["counts"]["P"]["control"]["weight"] = 2
    with pytest.raises(ParseError, match="unexpected keys: weight"):
        parse_strata_text(json.dumps(payload), "json")


def test_json_type_checks():
    payload = json.loads(RISKS_JSON)
    payload["strata"]["P"]["control"] = True
    with pytest.raises(ParseError, match="must be a number"):
        parse_strata_text(json.dumps(payload), "json")

    payload = json.loads(COUNTS_JSON)
    payload["counts"]["P"]["control"]["events"] = 7.5
    with pytest.raises(ParseError, match="must be an integer"):
        parse_strata_text(json.dumps(payload), "json")


@pytest.mark.parametrize(
    "keys, value, message",
    [
        ((), [7, 100], '"counts" must be an object'),
        (("P",), 7, "counts.P must be an object"),
        (("P", "control"), 7, "counts.P.control must be an object"),
        (("P", "control"), {"total": 100}, "counts.P.control is missing 'events'"),
    ],
    ids=["counts", "stratum", "cell", "events"],
)
def test_json_counts_shape_errors(keys, value, message):
    payload = json.loads(COUNTS_JSON)
    *parents, last = ("counts", *keys)
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ParseError, match=message):
        parse_strata_text(json.dumps(payload), "json")


def test_parse_strata_text_rejects_an_unknown_format():
    with pytest.raises(ConfigError, match="format must be 'csv' or 'json'"):
        parse_strata_text(RISKS_CSV, "xml")


# ---------------------------------------------------------------------------
# files and format inference


def test_load_strata_infers_format(tmp_path):
    csv_path = tmp_path / "risks.csv"
    csv_path.write_text(RISKS_CSV)
    assert isinstance(load_strata(csv_path), StratifiedRisks)

    json_path = tmp_path / "counts.JSON"  # suffix match is case-insensitive
    json_path.write_text(COUNTS_JSON)
    assert isinstance(load_strata(json_path), CountTable)


def test_load_strata_explicit_format_overrides_suffix(tmp_path):
    path = tmp_path / "risks.txt"
    path.write_text(RISKS_CSV)
    with pytest.raises(ConfigError, match="cannot infer format"):
        load_strata(path)
    assert isinstance(load_strata(path, format="csv"), StratifiedRisks)
    with pytest.raises(ConfigError, match="format must be"):
        load_strata(path, format="yaml")


@pytest.mark.parametrize(
    "format, text, kind",
    [("csv", RISKS_CSV, StratifiedRisks), ("json", COUNTS_JSON, CountTable)],
    ids=["csv", "json"],
)
def test_load_strata_skips_a_utf8_byte_order_mark(tmp_path, format, text, kind):
    # Excel's "CSV UTF-8" and PowerShell's -Encoding UTF8 start their files with one
    path = tmp_path / f"bom.{format}"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    loaded = load_strata(path)
    assert isinstance(loaded, kind)
    assert loaded == parse_strata_text(text, format)


@pytest.mark.parametrize(
    "data, bad",
    [
        (RISKS_CSV.replace("0.075", "0.075\u00e9").encode("latin-1"), 0xE9),
        (b"\xef\xbb\xbf" + RISKS_CSV.encode() + b"\xe9", 0xE9),
        (RISKS_CSV.encode("utf-16"), 0xFF),  # Windows PowerShell 5's default
    ],
    ids=["latin-1", "after-a-byte-order-mark", "utf-16"],
)
def test_load_strata_rejects_bytes_that_are_not_utf8(tmp_path, data, bad):
    # the message gives the first bad byte's offset in the file
    path = tmp_path / "risks.csv"
    path.write_bytes(data)
    where = f"byte {data.index(bad)}: 0x{bad:02x}"
    with pytest.raises(ParseError, match=f"^{where} is not UTF-8"):
        load_strata(path)


def test_load_strata_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_strata(tmp_path / "absent.csv")
