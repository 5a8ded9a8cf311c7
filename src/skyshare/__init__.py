"""Secret-shared skyline queries over two non-colluding servers."""

from .ring import Ring, default_vmax
from .metering import (
    MODE_DABIT,
    RandomnessBudget,
    SessionMetrics,
    budget_for_query,
    msb_invocations,
    query_bytes,
    query_rounds,
)
from .plaintext import brute_force_skyline, dominates, plaintext_skyline, same_rows
from .runtime import LocalEngine, Server, tcp_query

__all__ = [
    "Ring",
    "default_vmax",
    "MODE_DABIT",
    "RandomnessBudget",
    "SessionMetrics",
    "budget_for_query",
    "msb_invocations",
    "query_bytes",
    "query_rounds",
    "LocalEngine",
    "Server",
    "tcp_query",
    "brute_force_skyline",
    "dominates",
    "plaintext_skyline",
    "same_rows",
]

__version__ = "0.1.0"
