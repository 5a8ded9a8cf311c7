"""Fixed-width ring arithmetic mod 2**l with two's-complement signed reading.

Every value that flows through the sharing layer and the online protocol is
an element of Z_{2^l}.  The width l is a session-wide constant: by default
the narrowest one the data bound admits (protocol.ring_width), 8 (or 4) for
exhaustive-domain tests.  Vectorized code keeps values in numpy uint64
arrays and lets them wrap mod 2^64, which maps onto Z_{2^l}; values are
masked (reduce) only where they leave or are reconstructed.  For l = 64 the
mask is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_WIDTH = 64

# the low-l-bit mask of every width l, as 0-d arrays: numpy dispatches one
# about twice as fast as a numpy scalar, and building either costs more than
# masking a small array
MASKS = tuple(np.array((1 << l) - 1, dtype=np.uint64) for l in range(MAX_WIDTH + 1))


@dataclass(frozen=True)
class Ring:
    """Arithmetic context for Z_{2^l}."""

    l: int

    def __post_init__(self):
        if not 2 <= self.l <= MAX_WIDTH:
            raise ValueError(f"ring width must be in [2, {MAX_WIDTH}], got {self.l}")

    @property
    def mask(self) -> int:
        return (1 << self.l) - 1

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        """Mask a uint64 array back into the ring."""
        if self.l == MAX_WIDTH:
            return arr
        return arr & MASKS[self.l]


def default_vmax(l: int) -> int:
    """The filtering sentinel, strictly above any admissible attribute sum:
    its one definition.  It is public (both servers know l), so each server
    holds it as a public sharing and nothing deals, stores or sends it.

    Every compared operand lies in [0, vmax], so every compared difference
    lies in [-vmax, vmax]; 2^(l-1) - 1 is the largest vmax that keeps that
    inside the signed-comparison validity window (-2^(l-1), 2^(l-1)).
    """
    return (1 << (l - 1)) - 1
