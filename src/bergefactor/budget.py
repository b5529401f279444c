"""Enumeration budgets.

The exhaustive kernels refuse oversized inputs instead of silently
truncating.  A scan's budget is its call's ``budget=`` argument (the
CLI's ``--enum-budget``), or else that scan's default below.
"""

from __future__ import annotations

# Subset scans over one vertex set: toughness (so Y-toughness too) and
# clause (iv) of the barrier structure check.
DEFAULT_VERTEX_BUDGET = 20
# Disjoint-pair scans over V(G) in the factor criterion.  The same
# budget b also caps the pairs such a scan may enumerate (see
# check_pairs).
DEFAULT_CRITERION_BUDGET = 18


class BudgetExceededError(Exception):
    """An exhaustive scan would exceed its enumeration budget."""


def check(kind: str, size: int, limit: int) -> None:
    if size > limit:
        raise BudgetExceededError(
            f"{kind}: instance size {size} exceeds enumeration budget {limit}"
            " (pass a larger budget)")


def check_pairs(kind: str, x: int, y: int, limit: int) -> None:
    """Refuse a scan of 2^x * 3^y disjoint pairs above 2^ceil(b/2) *
    3^floor(b/2), the pair count of a host of b = `limit` vertices split
    evenly between X and Y (about 1.0e7 at b = 18).  The cap is built
    from b clamped to 2(x + y), where it is already 6^(x+y) >= 2^x * 3^y,
    so a large budget builds no huge cap and changes no verdict."""
    pairs = 2 ** x * 3 ** y
    b = min(limit, 2 * (x + y))
    cap = 2 ** ((b + 1) // 2) * 3 ** (b // 2)
    if pairs > cap:
        raise BudgetExceededError(
            f"{kind}: 2^{x}*3^{y} = {pairs} pairs exceed pair budget {cap}"
            f" of vertex budget {limit} (pass a larger budget)")
