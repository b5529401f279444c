"""Enumeration budgets.

The exhaustive kernels refuse oversized inputs instead of silently
truncating.  Budgets resolve in this order: explicit call argument, the
``BF_BUDGET`` environment variable, then the built-in default.
"""

from __future__ import annotations

import os

# Subset scans over one vertex set: toughness, completeness, Y-toughness.
DEFAULT_VERTEX_BUDGET = 20
# Disjoint-pair scans over V(G) in the factor criterion.  The same
# budget b also caps the pairs such a scan may enumerate (see
# check_pairs).
DEFAULT_CRITERION_BUDGET = 18

ENV_VAR = "BF_BUDGET"


class BudgetExceededError(Exception):
    """An exhaustive scan would exceed its enumeration budget."""


def resolve(explicit: int | None, default: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return default


def check(kind: str, size: int, limit: int) -> None:
    if size > limit:
        raise BudgetExceededError(
            f"{kind}: instance size {size} exceeds enumeration budget {limit}"
            f" (pass a larger budget or set {ENV_VAR})")


def check_pairs(kind: str, x: int, y: int, limit: int) -> None:
    """Refuse a scan of 2^x * 3^y disjoint pairs above 2^ceil(b/2) *
    3^floor(b/2), the pair count of a host of b = `limit` vertices split
    evenly between X and Y (about 1.0e7 at b = 18)."""
    pairs = 2 ** x * 3 ** y
    cap = 2 ** ((limit + 1) // 2) * 3 ** (limit // 2)
    if pairs > cap:
        raise BudgetExceededError(
            f"{kind}: 2^{x}*3^{y} = {pairs} pairs exceed pair budget {cap}"
            f" of vertex budget {limit}"
            f" (pass a larger budget or set {ENV_VAR})")
