"""Log-depth carry circuit plan for shared-MSB extraction.

To compare two shared values we need only the carry into the top bit of
d1 + d2, where d_i is party i's share of the difference.  The circuit is a
Kogge-Stone-shaped prefix reduction over bit positions 0..l-2:

    leaves:   g_i = a_i AND b_i  (one AND each),  p_i = a_i XOR b_i (free)
    combine:  (g, p) of [lo..hi] = (g_hi XOR (p_hi AND g_lo), p_hi AND p_lo)

Adjacent segments are paired left to right per level, odd tail carried, so
the depth over L = l-1 leaves is ceil(log2(L)).  Only the carry into bit
l-1 is materialized: the final combine skips its P output (the sole pruning
we apply; uniform two-AND combines otherwise keep the accounting simple).
AND totals: (l-1) + 2*(l-2) - 1 = 3l - 6 for l >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


def pair_levels(count: int) -> tuple[int, ...]:
    """Pairs per level when count entries are halved pairwise, odd tail carried."""
    pairs = []
    while count > 1:
        pairs.append(count // 2)
        count = count // 2 + count % 2
    return tuple(pairs)


@dataclass(frozen=True)
class CarryPlan:
    width: int
    # Number of adjacent-segment combines at each reduction level.
    level_pairs: tuple = field(init=False)

    def __post_init__(self):
        if self.width < 2:
            raise ValueError("carry plan needs width >= 2")
        object.__setattr__(self, "level_pairs", pair_levels(self.width - 1))

    @property
    def leaves(self) -> int:
        return self.width - 1

    @property
    def combine_levels(self) -> int:
        return len(self.level_pairs)

    @property
    def and_rounds(self) -> int:
        # One batched AND flight for the leaf layer plus one per combine level.
        return 1 + self.combine_levels

    def level_and_rows(self, level: int) -> int:
        """AND rows (independent lanes) issued at a combine level.

        Two per combine (new G, new P), except the final combine which only
        needs G: the carry itself.
        """
        rows = 2 * self.level_pairs[level]
        if level == self.combine_levels - 1:
            rows -= 1
        return rows

    @property
    def total_and_rows(self) -> int:
        return self.leaves + sum(self.level_and_rows(d) for d in range(self.combine_levels))


_PLANS: dict[int, CarryPlan] = {}


def carry_plan(width: int) -> CarryPlan:
    plan = _PLANS.get(width)
    if plan is None:
        plan = _PLANS[width] = CarryPlan(width)
    return plan


def msb_rounds(l: int) -> int:
    """Communication rounds of one batched shared-comparison."""
    return carry_plan(l).and_rounds
