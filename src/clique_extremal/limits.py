"""Size guards, each applied once by one CLI command, and two caps.

A guard bounds the vertex count given to a search whose cost is exponential
in it. The searches take any size; the CLI refuses (exit code 3), and
``--limit-n`` moves the guard for that call alone:

* ``ORACLE_MAX_N``: ``count`` in front of ``count_cliques_oracle`` (exponential);
* ``SIGMA_MAX_N``: ``sigma`` in front of ``sigma_exhaustive`` (exponential);
* ``SUBSET_MAX_N``: ``params`` in front of ``t_param`` and ``min_tset_missing``
  (exponential); beyond it ``params --approx`` reports averaging bounds.

``count --method peeling`` has no guard, though its work grows with the
number of cliques, exponential in n on dense graphs.

``MAX_PARSE_N`` and ``MAX_CONSTRUCT_N`` are caps, not guards, applied before
any allocation: the first on the vertex count an edge-list header announces,
the second on the vertex count ``construct`` builds. No option moves them.
"""

from .errors import GuardExceeded

ORACLE_MAX_N = 40
SIGMA_MAX_N = 14
SUBSET_MAX_N = 24

MAX_PARSE_N = 1_000_000
MAX_CONSTRUCT_N = 2_000


def check_guard(name: str, n: int, default: int, override: int | None = None) -> None:
    cap = default if override is None else override
    if n > cap:
        raise GuardExceeded(f"{name} is limited to n <= {cap}, got n = {n}")
