"""Tests for the JSON report envelope."""

import json
import math

import pytest

import concord
import numpy as np

from concord.errors import ConcordError, InputValidationError, ParseError
from concord.report import VERSION, ReportEnvelope


def make_envelope(**overrides):
    fields = dict(
        command="measures",
        inputs={"p1": 0.2, "p2": 0.3},
        results={"RR": 1.5, "window": (0.1, 0.4)},
        seed=7,
    )
    fields.update(overrides)
    return ReportEnvelope(**fields)


def test_payload_shape():
    payload = make_envelope().to_payload()
    assert payload["command"] == "measures"
    assert payload["version"] == VERSION == concord.__version__
    assert payload["seed"] == 7
    assert payload["results"]["RR"] == 1.5


def test_tuples_normalize_to_lists():
    payload = make_envelope().to_payload()
    assert payload["results"]["window"] == [0.1, 0.4]
    assert json.loads(make_envelope().to_json())["results"]["window"] == [0.1, 0.4]


def test_round_trip():
    env = make_envelope()
    again = ReportEnvelope.from_json(env.to_json())
    assert again.to_payload() == env.to_payload()


def test_provenance_round_trips_only_at_full_precision():
    env = make_envelope(provenance={"stream_layout": 2})
    again = ReportEnvelope.from_json(env.to_json())
    assert again.provenance == {"stream_layout": 2}
    assert again.to_payload() == env.to_payload()
    assert "provenance" not in json.loads(env.to_json(digits=4))
    assert "provenance" not in make_envelope().to_payload()
    assert ReportEnvelope.from_json(make_envelope().to_json()).provenance is None


def test_seed_defaults_to_none():
    env = ReportEnvelope(command="exact", inputs={}, results={})
    assert env.seed is None
    assert json.loads(env.to_json())["seed"] is None
    assert ReportEnvelope.from_json(env.to_json()).seed is None


def test_digit_rounding_is_display_only():
    env = make_envelope(results={"value": 1.23456789})
    rounded = json.loads(env.to_json(digits=4))
    assert rounded["results"]["value"] == 1.2346
    full = json.loads(env.to_json())
    assert full["results"]["value"] == 1.23456789


def test_infinity_round_trips():
    env = make_envelope(results={"RR": math.inf, "OR": -math.inf})
    text = env.to_json(digits=4)
    assert "Infinity" in text  # JSON extension, accepted by json.loads
    again = ReportEnvelope.from_json(text)
    assert again.results["RR"] == math.inf
    assert again.results["OR"] == -math.inf


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"results": {"v": math.nan}}, "results.v"),
        ({"inputs": {"p": [0.1, (0.2, np.float64("nan"))]}}, r"inputs.p\[1\]\[1\]"),
        ({"results": {"rows": [{"freq": -math.nan}]}}, r"results.rows\[0\].freq"),
    ],
)
def test_nan_is_rejected_anywhere(fields, path):
    with pytest.raises(InputValidationError, match=f"{path} is NaN") as raised:
        make_envelope(**fields)
    assert isinstance(raised.value, ConcordError)


def test_nan_in_parsed_json_is_rejected():
    text = make_envelope().to_json().replace("1.5", "NaN")
    with pytest.raises(ConcordError, match="results.RR is NaN"):
        ReportEnvelope.from_json(text)


def test_from_json_errors():
    with pytest.raises(ParseError, match="line 1"):
        ReportEnvelope.from_json("{oops")
    with pytest.raises(ParseError, match="missing keys"):
        ReportEnvelope.from_json(json.dumps({"command": "x"}))
    with pytest.raises(ParseError, match="object"):
        ReportEnvelope.from_json(json.dumps([1]))
    # json.loads raises a plain ValueError past Python's int-string limit,
    # and RecursionError for deep nesting
    with pytest.raises(ParseError, match="digits"):
        ReportEnvelope.from_json('{"command": "x", "seed": ' + "9" * 5001 + "}")
    with pytest.raises(ParseError, match="recursion"):
        ReportEnvelope.from_json("[" * 100_000)
