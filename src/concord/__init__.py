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
re-exports all of them.
"""

# Each module after the ones it imports. Keep this order: imported
# alphabetically, the heap is laid out differently and `concord exact` ran
# about 45% slower.
from . import (
    errors,
    measures,
    agreement,
    montecarlo,
    quadrature,
    inference,
    casestudies,
    dataio,
    report,
)
from .errors import *
from .measures import *
from .agreement import *
from .montecarlo import *
from .quadrature import *
from .inference import *
from .casestudies import *
from .dataio import *
from .report import *

__version__ = VERSION

__all__ = [
    "__version__",
    *errors.__all__,
    *measures.__all__,
    *agreement.__all__,
    *montecarlo.__all__,
    *quadrature.__all__,
    *inference.__all__,
    *casestudies.__all__,
    *dataio.__all__,
    *report.__all__,
]
