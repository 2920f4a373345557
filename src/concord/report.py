"""JSON report envelope shared by all CLI subcommands.

An envelope records the command that ran, its effective inputs, the
results, the tool version, and the seed when randomness was involved.
A command may add provenance, facts about how the results were made (for
simulate, the stream_layout that maps a seed to its draws); only the
full-precision serialization carries it.
Serialization is plain JSON with one extension: IEEE infinities are
written as the bare literals `Infinity` / `-Infinity` (the json module's
default), which parse back exactly, so a full-precision envelope
round-trips losslessly. NaN never appears: computations raise instead of
propagating NaN, and an envelope holding a NaN anywhere in its inputs or
results raises InputValidationError at construction.

Payload values must be JSON-native (dict/list/str/float/int/bool/None);
tuples are normalized to lists at construction so that equality survives
a round trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .errors import InputValidationError, ParseError

__all__ = ["VERSION", "ReportEnvelope"]

VERSION = "0.1.0"


def _json_loads(text: str) -> Any:
    """json.loads, with every way it rejects the text raised as ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # too many digits, or too deep
        raise ParseError(str(exc).partition(";")[0]) from None


def _normalize(value: Any, path: str) -> Any:
    """Tuples become lists and keys strings; a NaN raises, naming its path."""
    if isinstance(value, dict):
        return {str(key): _normalize(inner, f"{path}.{key}") for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(inner, f"{path}[{i}]") for i, inner in enumerate(value)]
    if isinstance(value, float) and math.isnan(value):
        raise InputValidationError(f"report value {path} is NaN")
    return value


def _round_floats(value: Any, digits: int) -> Any:
    if isinstance(value, dict):
        return {key: _round_floats(inner, digits) for key, inner in value.items()}
    if isinstance(value, list):
        return [_round_floats(inner, digits) for inner in value]
    if isinstance(value, float):
        return round(value, digits)  # round(inf) stays inf
    return value


@dataclass(frozen=True)
class ReportEnvelope:
    command: str
    inputs: dict
    results: dict
    version: str = VERSION
    seed: Optional[int] = None
    provenance: Optional[dict] = None

    def __post_init__(self) -> None:
        for name in ("inputs", "results", "provenance"):
            object.__setattr__(self, name, _normalize(getattr(self, name), name))

    def to_payload(self) -> dict:
        payload = {
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "inputs": self.inputs,
            "results": self.results,
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance
        return payload

    def to_json(self, digits: Optional[int] = None) -> str:
        """Serialize with indent 2.

        digits rounds floats for reading and leaves the provenance out; None
        keeps full precision and the provenance.
        """
        payload = self.to_payload()
        if digits is not None:
            payload.pop("provenance", None)
            payload = _round_floats(payload, digits)
        return json.dumps(payload, indent=2, allow_nan=True)

    @classmethod
    def from_json(cls, text: str) -> "ReportEnvelope":
        payload = _json_loads(text)
        if not isinstance(payload, dict):
            raise ParseError("envelope must be a JSON object")
        missing = {"command", "inputs", "results", "version"} - payload.keys()
        if missing:
            raise ParseError(f"envelope missing keys: {', '.join(sorted(missing))}")
        return cls(
            command=payload["command"],
            inputs=payload["inputs"],
            results=payload["results"],
            version=payload["version"],
            seed=payload.get("seed"),
            provenance=payload.get("provenance"),
        )
