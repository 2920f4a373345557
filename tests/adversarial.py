"""One adversarial input strategy for the agreement contracts.

Each risk comes from one of four sources: the whole unit interval, tiny
values below 1e-30, values within 1e-12 of 1, or a few constants (the
bounds, the smallest subnormal, a subnormal near the normal range, and
0.5). Half the time p4 is then moved to one of the six critical values of
(p1, p2, p3), give or take up to 4 ulps, where directions are closest to a
tie. Contract tests import `quadruples` and `strict_triples` from here.
"""

import math

from hypothesis import strategies as st

from concord.agreement import critical_values
from concord.errors import ConcordError
from concord.measures import ALL_KINDS

SPECIAL_RISKS = (0.0, 1.0, 5e-324, 2.225073858507e-311, 0.5)

risks = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-30),
    st.floats(1.0 - 1e-12, 1.0),
    st.sampled_from(SPECIAL_RISKS),
)

strict_triples = st.tuples(*[risks.filter(lambda r: 0.0 < r < 1.0)] * 3)


def _step_ulps(value: float, ulps: int) -> float:
    toward = math.copysign(math.inf, ulps)
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


@st.composite
def quadruples(draw) -> tuple[float, float, float, float]:
    """(p1, p2, p3, p4), with p4 near a critical value half the time."""
    p1, p2, p3, p4 = (draw(risks) for _ in range(4))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(ALL_KINDS))
        ulps = draw(st.integers(-4, 4))
        try:
            critical = critical_values(p1, p2, p3).value(kind)
        except ConcordError:
            pass  # a risk on 0 or 1: the triple has no critical values
        else:
            p4 = min(1.0, max(0.0, _step_ulps(critical, ulps)))
    return p1, p2, p3, p4
