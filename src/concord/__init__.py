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

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them. ``montecarlo`` and ``quadrature``, the two modules
that need numpy, load on first use, so ``concord agree`` and the rest of
the scalar path start without importing numpy.
"""

import importlib

from . import errors, measures, agreement, inference, casestudies, dataio, report
from .errors import *
from .measures import *
from .agreement import *
from .inference import *
from .casestudies import *
from .dataio import *
from .report import *

__version__ = VERSION

# The two modules that need numpy, and their __all__ lists. They load on
# first use (PEP 562), so that the scalar path starts without numpy.
_LAZY = {
    "montecarlo": (
        "Distribution", "SimulationConfig", "SimulationResult", "VennRow", "run",
        "tent_inverse_cdf", "tent_cdf", "tent_pdf", "quadruple_density",
        "venn_table", "venn_csv", "venn_json_rows",
    ),
    "quadrature": (
        "Region", "QuadratureEstimate", "integrand", "region_probability",
        "region_a_parts", "total_probability", "sum_estimates",
    ),
}  # fmt: skip

__all__ = [
    "__version__",
    *errors.__all__,
    *measures.__all__,
    *agreement.__all__,
    *_LAZY["montecarlo"],
    *_LAZY["quadrature"],
    *inference.__all__,
    *casestudies.__all__,
    *dataio.__all__,
    *report.__all__,
]


def __getattr__(name: str):
    """Load montecarlo or quadrature when it, or one of its names, is first read."""
    for module_name, names in _LAZY.items():
        if name == module_name or name in names:
            module = importlib.import_module(f".{module_name}", __name__)
            return module if name == module_name else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
