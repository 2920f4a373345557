"""Do six effect measures agree on the direction of modification?

Two strata, each a (control, exposed) risk pair, can rank an exposure's
effect differently depending on the effect measure: the relative risk may
call stratum P the harder hit while the risk difference calls stratum Q.
This package computes the six classic measures (RR, RR*, HR, HR*, RD, OR),
classifies the direction of modification per measure, checks agreement
for any subset, and quantifies how often disagreement happens:

- exact critical values of p4 and pairwise disagreement windows,
- Monte Carlo agreement frequencies over random risk quadruples,
- deterministic quadrature of the RR/RR* disagreement probability,
- a delta-method test for common-direction modification from counts,
- bundled case studies with golden verification of published values.

The headline facts: the two relative risks RR and RR* form a gate (when
they do not conflict, all six measures agree), and under iid uniform
risks all six agree with probability exactly 5/6.
"""

from .errors import (
    ConcordError,
    ConfigError,
    DegenerateCell,
    DomainError,
    InputValidationError,
    ParseError,
    ResolutionError,
    UndefinedMeasure,
    UnknownCase,
)
from .measures import (
    ALL_KINDS,
    DerivedMeasures,
    MeasureKind,
    MeasureVector,
    Orientation,
    RiskPair,
    derived_measures,
    grrr,
    measure,
    measure_vector,
    subset_mask,
)
from .agreement import (
    DEFAULT_TOLERANCE,
    AgreementReport,
    CriticalValues,
    Direction,
    FiredCondition,
    StratifiedRisks,
    Tolerance,
    Window,
    agree,
    critical_p4,
    critical_values,
    disagreement_window,
    modification_direction,
    rr_gate,
    sufficient_conditions,
)
from .montecarlo import (
    Distribution,
    SimulationConfig,
    SimulationResult,
    VennRow,
    quadruple_density,
    run,
    tent_cdf,
    tent_inverse_cdf,
    tent_pdf,
    venn_csv,
    venn_json_rows,
    venn_table,
)
from .quadrature import (
    QuadratureEstimate,
    QuadratureSpec,
    Region,
    integrand,
    region_a_parts,
    region_probability,
    sum_estimates,
    total_probability,
)
from .inference import (
    CellCount,
    CountTable,
    RRREstimate,
    TestDirection,
    TestVerdict,
    estimate_rrr,
    from_counts,
    modification_test,
)
from .casestudies import CASE_NAMES, CaseStudy, ExpectedValue, case_study
from .dataio import load_strata, parse_strata_text
from .report import VERSION, ReportEnvelope

__version__ = VERSION

__all__ = [
    "__version__",
    "VERSION",
    # errors
    "ConcordError",
    "ConfigError",
    "DegenerateCell",
    "DomainError",
    "InputValidationError",
    "ParseError",
    "ResolutionError",
    "UndefinedMeasure",
    "UnknownCase",
    # measures
    "ALL_KINDS",
    "DerivedMeasures",
    "MeasureKind",
    "MeasureVector",
    "Orientation",
    "RiskPair",
    "derived_measures",
    "grrr",
    "measure",
    "measure_vector",
    "subset_mask",
    # agreement
    "DEFAULT_TOLERANCE",
    "AgreementReport",
    "CriticalValues",
    "Direction",
    "FiredCondition",
    "StratifiedRisks",
    "Tolerance",
    "Window",
    "agree",
    "critical_p4",
    "critical_values",
    "disagreement_window",
    "modification_direction",
    "rr_gate",
    "sufficient_conditions",
    # montecarlo
    "Distribution",
    "SimulationConfig",
    "SimulationResult",
    "VennRow",
    "quadruple_density",
    "run",
    "tent_cdf",
    "tent_inverse_cdf",
    "tent_pdf",
    "venn_csv",
    "venn_json_rows",
    "venn_table",
    # quadrature
    "QuadratureEstimate",
    "QuadratureSpec",
    "Region",
    "integrand",
    "region_a_parts",
    "region_probability",
    "sum_estimates",
    "total_probability",
    # inference
    "CellCount",
    "CountTable",
    "RRREstimate",
    "TestDirection",
    "TestVerdict",
    "estimate_rrr",
    "from_counts",
    "modification_test",
    # case studies
    "CASE_NAMES",
    "CaseStudy",
    "ExpectedValue",
    "case_study",
    # io
    "load_strata",
    "parse_strata_text",
    "ReportEnvelope",
]
