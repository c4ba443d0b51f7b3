"""Size guards for the exhaustive routines.

Each guarded search takes an optional ``limit_n`` (``count_cliques_peeling``
has no guard); None applies the default below. A negative limit is a
ValueError, not a guard that every input exceeds. Nothing else moves a guard.

``MAX_PARSE_N`` and ``MAX_CONSTRUCT_N`` are no guards: the first caps the
vertex count an edge-list header may announce, the second the vertex count
``construct`` builds, each before any allocation, and no option changes them.
"""

from .errors import GuardExceeded

ORACLE_MAX_N = 40
SIGMA_MAX_N = 14
IMMERSION_MAX_N = 12
SUBSET_MAX_N = 24

MAX_PARSE_N = 1_000_000
MAX_CONSTRUCT_N = 2_000


def effective_guard(default: int, override: int | None = None) -> int:
    if override is None:
        return default
    if override < 0:
        raise ValueError(f"limit_n must be non-negative, got {override}")
    return override


def check_guard(name: str, n: int, default: int, override: int | None = None) -> None:
    cap = effective_guard(default, override)
    if n > cap:
        raise GuardExceeded(f"{name} is limited to n <= {cap}, got n = {n}")
