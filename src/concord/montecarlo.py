"""Monte Carlo estimation of agreement probabilities for measure subsets.

Each trial draws four risks (p1, p2) and (p3, p4), computes the direction
of modification for all six measures, and records for each of the 64
measure subsets whether the subset agreed (no internal pair pointing in
opposite directions). Frequencies over many trials estimate the
agreement probabilities.

Risk distributions:

    UNIFORM_UNIT    all four risks iid uniform on (0, 1)
    UNIFORM_RARE    all four risks iid uniform on (0, 0.1)
    TENT_DEPENDENT  control risks p1, p3 uniform on (L, U); exposed risks
                    drawn from asymmetric tent (triangular) densities
                    peaking at the stratum's control risk, so exposed and
                    control risks are positively correlated

The tent CDF on (L, U) with peak m is
    F(x) = (x-L)^2 / ((m-L)(U-L))          for x <= m
    F(x) = 1 - (U-x)^2 / ((U-m)(U-L))      for x > m
(the unique piecewise-linear density that is 0 at both bounds and maximal
at m). One published variant of the second branch fails to reach 1 at
x = U and is treated here as an erratum.

Reproducibility: all trials come from one generator, seeded with the
first child that SeedSequence(seed) spawns, and are drawn in blocks of a
fixed size. The counts are therefore a function of (seed, trials,
distribution, bounds) alone, bit-identical from run to run.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .measures import MeasureKind, mask_members, subset_agrees, subset_mask

__all__ = [
    "Distribution",
    "SimulationConfig",
    "SimulationResult",
    "VennRow",
    "run",
    "tent_inverse_cdf",
    "tent_cdf",
    "tent_pdf",
    "quadruple_density",
    "venn_table",
    "venn_csv",
    "venn_json_rows",
    "subset_mask",
]

_BLOCK = 1 << 18  # trials per vectorized block, bounds peak memory
_N_SUBSETS = 64
_FULL_MASK = 63


class Distribution(enum.Enum):
    UNIFORM_UNIT = "uniform"
    UNIFORM_RARE = "rare"
    TENT_DEPENDENT = "tent"


@dataclass(frozen=True)
class SimulationConfig:
    trials: int = 1_000_000
    seed: int = 0
    distribution: Distribution = Distribution.UNIFORM_UNIT
    bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        lower, upper = self.bounds
        if not (0.0 <= lower < upper <= 1.0):
            raise ConfigError(
                f"bounds must satisfy 0 <= lower < upper <= 1, got {self.bounds}"
            )
        if not isinstance(self.distribution, Distribution):
            raise ConfigError(f"unknown distribution {self.distribution!r}")


@dataclass(frozen=True)
class SimulationResult:
    """Agreement counts per subset bitmask, plus the generating config."""

    config: SimulationConfig
    trials: int
    counts: tuple[int, ...]  # counts[mask] = trials in which subset agreed

    def frequency(self, kinds: Iterable[MeasureKind]) -> float:
        return self.counts[subset_mask(kinds)] / self.trials

    def frequency_of_mask(self, mask: int) -> float:
        return self.counts[mask] / self.trials

    @property
    def all_six_frequency(self) -> float:
        return self.counts[_FULL_MASK] / self.trials


# --- tent distribution -------------------------------------------------------


def _check_tent_args(peak: float, bounds: tuple[float, float]) -> tuple[float, float]:
    lower, upper = bounds
    if not lower < upper:
        raise DomainError(f"bounds must satisfy lower < upper, got {bounds}")
    if not lower < peak < upper:
        raise DomainError(
            f"tent peak must lie strictly inside bounds, got peak={peak}, bounds={bounds}"
        )
    return lower, upper


def tent_inverse_cdf(
    u: float, peak: float, bounds: tuple[float, float] = (0.0, 1.0)
) -> float:
    """Quantile function of the tent density on bounds peaking at `peak`."""
    lower, upper = _check_tent_args(peak, bounds)
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    span = upper - lower
    threshold = (peak - lower) / span
    if u <= threshold:
        return lower + math.sqrt(u * (peak - lower) * span)
    return upper - math.sqrt((1.0 - u) * (upper - peak) * span)


def tent_cdf(x: float, peak: float, bounds: tuple[float, float] = (0.0, 1.0)) -> float:
    lower, upper = _check_tent_args(peak, bounds)
    if x <= lower:
        return 0.0
    if x >= upper:
        return 1.0
    span = upper - lower
    if x <= peak:
        return (x - lower) ** 2 / ((peak - lower) * span)
    return 1.0 - (upper - x) ** 2 / ((upper - peak) * span)


def tent_pdf(x: float, peak: float, bounds: tuple[float, float] = (0.0, 1.0)) -> float:
    lower, upper = _check_tent_args(peak, bounds)
    if x < lower or x > upper:
        return 0.0
    span = upper - lower
    if x <= peak:
        return 2.0 * (x - lower) / ((peak - lower) * span)
    return 2.0 * (upper - x) / ((upper - peak) * span)


def quadruple_density(
    p1: float,
    p2: float,
    p3: float,
    p4: float,
    bounds: tuple[float, float] = (0.0, 1.0),
) -> float:
    """Joint density of one trial's four risks under TENT_DEPENDENT."""
    lower, upper = bounds
    if not (lower < p1 < upper and lower < p3 < upper):
        return 0.0
    uniform_density = 1.0 / (upper - lower)
    return (
        uniform_density
        * uniform_density
        * tent_pdf(p2, p1, bounds)
        * tent_pdf(p4, p3, bounds)
    )


# --- sampling ----------------------------------------------------------------


def _open_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draws on the open interval (0, 1); exact zeros are redrawn."""
    u = rng.random(n)
    mask = u == 0.0
    while mask.any():
        u[mask] = rng.random(int(mask.sum()))
        mask = u == 0.0
    return u


def _tent_ppf_array(
    u: np.ndarray, peak: np.ndarray, lower: float, upper: float
) -> np.ndarray:
    span = upper - lower
    left = lower + np.sqrt(u * (peak - lower) * span)
    right = upper - np.sqrt((1.0 - u) * (upper - peak) * span)
    return np.where(u * span <= peak - lower, left, right)


def _draw_block(
    rng: np.random.Generator, n: int, config: SimulationConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    dist = config.distribution
    if dist is Distribution.UNIFORM_UNIT:
        return tuple(_open_uniform(rng, n) for _ in range(4))  # type: ignore[return-value]
    if dist is Distribution.UNIFORM_RARE:
        return tuple(0.1 * _open_uniform(rng, n) for _ in range(4))  # type: ignore[return-value]
    lower, upper = config.bounds
    span = upper - lower
    p1 = lower + span * _open_uniform(rng, n)
    p3 = lower + span * _open_uniform(rng, n)
    p2 = _tent_ppf_array(_open_uniform(rng, n), p1, lower, upper)
    p4 = _tent_ppf_array(_open_uniform(rng, n), p3, lower, upper)
    # Floating rounding can park a draw exactly on 0 or 1, where measures
    # lose their limits; redraw those trials' exposed risks.
    for exposed, peak in ((p2, p1), (p4, p3)):
        bad = (exposed <= 0.0) | (exposed >= 1.0)
        while bad.any():
            exposed[bad] = _tent_ppf_array(
                _open_uniform(rng, int(bad.sum())), peak[bad], lower, upper
            )
            bad = (exposed <= 0.0) | (exposed >= 1.0)
    return p1, p2, p3, p4


def _direction_masks(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray
) -> np.ndarray:
    """Per-trial key (toward_p_bits << 6) | toward_q_bits over the six kinds."""
    log_1m_p1 = np.log1p(-p1)
    log_1m_p2 = np.log1p(-p2)
    log_1m_p3 = np.log1p(-p3)
    log_1m_p4 = np.log1p(-p4)
    log_p1 = np.log(p1)
    log_p2 = np.log(p2)
    log_p3 = np.log(p3)
    log_p4 = np.log(p4)

    em_p = (
        p2 / p1,                     # RR
        (1.0 - p1) / (1.0 - p2),     # RR*
        log_1m_p2 / log_1m_p1,       # HR
        log_p1 / log_p2,             # HR*
        p2 - p1,                     # RD
        (p2 * (1.0 - p1)) / (p1 * (1.0 - p2)),  # OR
    )
    em_q = (
        p4 / p3,
        (1.0 - p3) / (1.0 - p4),
        log_1m_p4 / log_1m_p3,
        log_p3 / log_p4,
        p4 - p3,
        (p4 * (1.0 - p3)) / (p3 * (1.0 - p4)),
    )
    toward_p = np.zeros(p1.shape, dtype=np.uint16)
    toward_q = np.zeros(p1.shape, dtype=np.uint16)
    for bit, (vp, vq) in enumerate(zip(em_p, em_q)):
        toward_p |= (vq < vp).astype(np.uint16) << bit
        toward_q |= (vq > vp).astype(np.uint16) << bit
    return (toward_p.astype(np.uint32) << 6) | toward_q


def _counts_from_histogram(hist: np.ndarray) -> tuple[int, ...]:
    keys = np.arange(4096)
    key_toward_p = keys >> 6
    key_toward_q = keys & 63
    return tuple(
        int(hist[subset_agrees(key_toward_p, key_toward_q, mask)].sum())
        for mask in range(_N_SUBSETS)
    )


def run(config: SimulationConfig) -> SimulationResult:
    """Run the simulation; deterministic for a fixed seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    hist = np.zeros(4096, dtype=np.int64)
    remaining = config.trials
    while remaining > 0:
        block = min(_BLOCK, remaining)
        p1, p2, p3, p4 = _draw_block(rng, block, config)
        keys = _direction_masks(p1, p2, p3, p4)
        hist += np.bincount(keys, minlength=4096)
        remaining -= block
    return SimulationResult(
        config=config, trials=config.trials, counts=_counts_from_histogram(hist)
    )


# --- Venn table --------------------------------------------------------------


@dataclass(frozen=True)
class VennRow:
    bitmask: int
    members: tuple[MeasureKind, ...]
    count: int
    frequency: float


def venn_table(result: SimulationResult) -> tuple[VennRow, ...]:
    """All 64 subset rows in bitmask order."""
    return tuple(
        VennRow(
            bitmask=mask,
            members=mask_members(mask),
            count=result.counts[mask],
            frequency=result.counts[mask] / result.trials,
        )
        for mask in range(_N_SUBSETS)
    )


def venn_csv(result: SimulationResult) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bitmask", "members", "count", "frequency"])
    for row in venn_table(result):
        writer.writerow(
            [
                row.bitmask,
                "+".join(kind.value for kind in row.members),
                row.count,
                repr(row.frequency),
            ]
        )
    return buffer.getvalue()


def venn_json_rows(result: SimulationResult) -> list[dict]:
    return [
        {
            "bitmask": row.bitmask,
            "members": [kind.value for kind in row.members],
            "count": row.count,
            "frequency": row.frequency,
        }
        for row in venn_table(result)
    ]
