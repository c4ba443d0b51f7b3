"""Size guards for the exhaustive routines.

Every exact search takes an optional ``limit_n`` argument; when it is left as
None the default below applies, unless the CLIQUE_EXTREMAL_MAX_N environment
variable overrides all defaults at once. A negative limit from either source
is a ValueError, not a guard that every input exceeds.

``MAX_PARSE_N`` is no guard: it caps the vertex count an edge-list header may
announce, before any allocation, and no option or variable changes it.
"""

import os

from .errors import GuardExceeded

ORACLE_MAX_N = 40
SIGMA_MAX_N = 14
IMMERSION_MAX_N = 12
SUBSET_MAX_N = 24

MAX_PARSE_N = 1_000_000

_ENV_VAR = "CLIQUE_EXTREMAL_MAX_N"


def effective_guard(default: int, override: int | None = None) -> int:
    if override is not None:
        if override < 0:
            raise ValueError(f"limit_n must be non-negative, got {override}")
        return override
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
        if cap < 0:
            raise ValueError(f"{_ENV_VAR} must be non-negative, got {raw!r}")
        return cap
    return default


def check_guard(name: str, n: int, default: int, override: int | None = None) -> None:
    cap = effective_guard(default, override)
    if n > cap:
        raise GuardExceeded(f"{name} is limited to n <= {cap}, got n = {n}")
