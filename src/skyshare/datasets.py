"""Synthetic dataset generators and CSV ingestion.

Three synthetic families at a chosen integer bound B:

    inde  attributes i.i.d. uniform on [0, B]
    corr  a uniform per-row base value plus small independent jitter
          (uniform on [-B/20, B/20]), clamped
    anti  rows near the anti-diagonal: attribute sums concentrated around
          m*B/2 (jittered), split across attributes by stick-breaking, so
          one large attribute trades off against the others

Correlated rows produce few undominated tuples, anti-correlated rows many;
only that ordering matters downstream, the jitter constants are fixed here.
Generation is deterministic per (kind, n, m, seed, bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("inde", "corr", "anti", "csv")
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    n: int
    m: int
    seed: int = 0
    bound: int = 1000
    scale: int = 1
    path: str | None = None  # for kind == "csv"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind != "csv" and (self.n < 1 or self.m < 1 or self.bound < 1):
            raise ValueError("need n >= 1, m >= 1, bound >= 1")


def generate(spec: DatasetSpec) -> np.ndarray:
    """Produce an n x m int64 array of attributes in [0, bound]."""
    if spec.kind == "csv":
        if not spec.path:
            raise ValueError("csv spec needs a path")
        data, _ = load_csv(spec.path, scale=spec.scale)
        return data
    rng = np.random.default_rng(spec.seed)
    n, m, b = spec.n, spec.m, spec.bound
    if spec.kind == "inde":
        return rng.integers(0, b + 1, size=(n, m), dtype=np.int64)
    if spec.kind == "corr":
        base = rng.integers(0, b + 1, size=(n, 1), dtype=np.int64)
        jitter = rng.integers(-(b // 20), b // 20 + 1, size=(n, m), dtype=np.int64)
        return np.clip(base + jitter, 0, b)
    # anti: jittered target sum, stick-breaking split
    target = m * b // 2 + rng.integers(-(b // 20), b // 20 + 1, size=n, dtype=np.int64)
    cuts = np.sort(rng.random(size=(n, m - 1)), axis=1) if m > 1 else np.zeros((n, 0))
    edges = np.hstack([np.zeros((n, 1)), cuts, np.ones((n, 1))])
    weights = np.diff(edges, axis=1)
    rows = np.rint(weights * target[:, None]).astype(np.int64)
    return np.clip(rows, 0, b)


def dataset_bound(data: np.ndarray) -> int:
    return int(data.max(initial=0))


def save_csv(path: str, data: np.ndarray):
    """Write data with the header a1, ..., am."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(f"a{j + 1}" for j in range(data.shape[1])) + "\n")
        for row in data:
            f.write(",".join(str(int(x)) for x in row) + "\n")


def load_csv(path: str, columns: list[str] | None = None, scale: int = 1
             ) -> tuple[np.ndarray, list[str]]:
    """Read a headered numeric CSV; values are scaled then rounded to ints.

    Raises with the offending row/column on any malformed cell.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if columns:
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}, have {header}")
        take = [header.index(c) for c in columns]
        names = list(columns)
    else:
        take = list(range(len(header)))
        names = header
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        row = []
        for j in take:
            cell = cells[j]
            try:
                value = float(cell) * scale
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: column {header[j]!r}: non-numeric cell {cell!r}"
                ) from None
            if not (math.isfinite(value) and _INT64.min <= round(value) <= _INT64.max):
                raise ValueError(
                    f"{path}:{lineno}: column {header[j]!r}: cell {cell!r} scaled by {scale} "
                    f"is not a finite int64"
                )
            row.append(round(value))
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.int64)
    if (data < 0).any():
        bad = np.argwhere(data < 0)[0]
        raise ValueError(
            f"{path}: negative attribute at row {int(bad[0]) + 2}, column {names[int(bad[1])]!r}; "
            f"attributes must be non-negative"
        )
    return data, names


def parse_config(path: str) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, ln in enumerate(f, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = ln.partition("=")
            out[key.strip()] = value.strip()
    return out
