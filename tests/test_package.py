"""Tests for the package surface: concord re-exports each module's __all__.

montecarlo and quadrature load lazily, so __init__ and cli write their
names out; the last two tests pin those literals to the modules.
"""

import importlib

import concord

MODULES = (
    "errors",
    "measures",
    "agreement",
    "montecarlo",
    "quadrature",
    "inference",
    "casestudies",
    "dataio",
    "report",
)

# concord.__all__ before the surface was declared once per module
PUBLISHED = (
    "__version__", "VERSION",
    "ConcordError", "ConfigError", "DegenerateCell", "DomainError",
    "InputValidationError", "ParseError", "ResolutionError", "UndefinedMeasure",
    "UnknownCase",
    "ALL_KINDS", "DerivedMeasures", "MeasureKind", "MeasureVector", "Orientation",
    "RiskPair", "derived_measures", "grrr", "measure", "measure_vector",
    "subset_mask",
    "AgreementReport", "CriticalValues", "Direction", "FiredCondition",
    "StratifiedRisks", "Window", "agree", "critical_p4", "critical_values",
    "disagreement_window", "modification_direction", "rr_gate",
    "sufficient_conditions",
    "Distribution", "SimulationConfig", "SimulationResult", "VennRow",
    "quadruple_density", "run", "tent_cdf", "tent_inverse_cdf", "tent_pdf",
    "venn_csv", "venn_json_rows", "venn_table",
    "QuadratureEstimate", "Region", "integrand", "region_a_parts",
    "region_probability", "sum_estimates", "total_probability",
    "CellCount", "CountTable", "RRREstimate", "TestDirection", "TestVerdict",
    "estimate_rrr", "from_counts", "modification_test",
    "CASE_NAMES", "CaseStudy", "ExpectedValue", "case_study",
    "load_strata", "parse_strata_text",
    "ReportEnvelope",
)  # fmt: skip


def module_exports():
    """(module, name) for every name in the nine module __all__ lists."""
    for module_name in MODULES:
        module = importlib.import_module(f"concord.{module_name}")
        for name in module.__all__:
            yield module, name


def test_package_all_has_no_duplicates():
    assert len(concord.__all__) == len(set(concord.__all__))


def test_package_all_is_the_union_of_the_module_lists():
    exported = [name for _, name in module_exports()]
    assert len(exported) == len(set(exported)), "a name is public in two modules"
    assert sorted(concord.__all__) == sorted(["__version__", *exported])


def test_package_entries_are_the_module_objects():
    for module, name in module_exports():
        assert getattr(concord, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from concord import *", namespace)
    for name in concord.__all__:
        assert namespace[name] is getattr(concord, name)


def test_published_names_are_still_exported():
    assert set(PUBLISHED) - set(concord.__all__) == set()


def test_lazy_name_lists_are_the_module_lists():
    from concord import montecarlo, quadrature

    assert concord._LAZY == {
        "montecarlo": tuple(montecarlo.__all__),
        "quadrature": tuple(quadrature.__all__),
    }


def test_dist_choices_are_the_distribution_values():
    from concord import cli
    from concord.montecarlo import Distribution

    assert list(cli._DIST_CHOICES) == [d.value for d in Distribution]
    parser = cli.build_parser()
    for value in cli._DIST_CHOICES:
        assert parser.parse_args(["simulate", "--dist", value]).dist == value
