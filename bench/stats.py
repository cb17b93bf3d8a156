"""Order statistics and output digests used by the benchmark."""

from __future__ import annotations

import hashlib
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating linearly between the
    two nearest ranks, as NumPy's default method does."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


class Digest:
    """SHA-256 over a sequence of byte strings.

    Each part is framed by its length, so ``["ab", "c"]`` and ``["a", "bc"]``
    hash differently.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        self._h.update(len(data).to_bytes(8, "big"))
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()
