"""Canonical representation of a knapsack with few distinct weights.

Items keep their original order everywhere; weight classes remember original
indices so that emitted inequalities always refer to the caller's variables.
All integer arithmetic is checked against the signed 64-bit range: going past
it raises :class:`~sparseknap.errors.Overflow` instead of silently degrading.
Indices are 0-based inside the library and 1-based in every file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    InvalidFractionalPoint,
    KnapsackError,
    NonPositiveWeight,
    Overflow,
    OverlappingGroups,
    TrivialKnapsack,
    UncoveredIndex,
    WeightExceedsCapacity,
)

INT64_MAX = 2**63 - 1

#: Tolerance with which point entries may stick out of [0, 1].
POINT_TOLERANCE = Fraction(1, 10**9)


def checked_add(a: int, b: int) -> int:
    total = a + b
    if total > INT64_MAX or total < -INT64_MAX:
        raise Overflow(f"integer sum {total} leaves the 64-bit range")
    return total


def checked_mul(a: int, b: int) -> int:
    product = a * b
    if product > INT64_MAX or product < -INT64_MAX:
        raise Overflow(f"integer product {product} leaves the 64-bit range")
    return product


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise KnapsackError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Knapsack:
    """A validated constraint ``sum(weights[i] * x[i]) <= capacity``.

    Guarantees ``0 < weights[i] <= capacity`` for every item and
    ``sum(weights) > capacity``; see :func:`normalize`.
    """

    weights: tuple[int, ...]
    capacity: int

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        total = 0
        for w in self.weights:
            total = checked_add(total, w)
        return total

    def classes(self) -> WeightClasses:
        return class_profile(self)


@dataclass(frozen=True)
class WeightClasses:
    """Partition of item indices by weight value.

    ``class_weights`` is strictly increasing; ``members[j]`` lists the
    0-based item indices of weight ``class_weights[j]``, ascending.
    """

    class_weights: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def sigma(self) -> int:
        return len(self.class_weights)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.members)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def total_weight(self) -> int:
        total = 0
        for w, group in zip(self.class_weights, self.members):
            total = checked_add(total, checked_mul(w, len(group)))
        return total

    @staticmethod
    def from_weights(weights: Sequence[int]) -> "WeightClasses":
        """Group an arbitrary positive-weight vector, skipping the knapsack
        validity checks (useful for driving the lifting machinery on raw
        class data)."""
        if not weights:
            raise KnapsackError("empty weight vector")
        by_value: dict[int, list[int]] = {}
        for i, w in enumerate(weights):
            _require_int(w, f"weight #{i + 1}")
            if w <= 0:
                raise NonPositiveWeight(f"weight #{i + 1} is {w}")
            by_value.setdefault(w, []).append(i)
        values = sorted(by_value)
        return WeightClasses(
            class_weights=tuple(values),
            members=tuple(tuple(by_value[v]) for v in values),
        )


def normalize(weights: Iterable[int], capacity: int) -> Knapsack:
    """Validate raw data into a :class:`Knapsack`.

    Items are never reordered.  Raises :class:`NonPositiveWeight`,
    :class:`WeightExceedsCapacity`, :class:`TrivialKnapsack` or
    :class:`Overflow` when the data is unusable.
    """
    ws = tuple(_require_int(w, f"weight #{i + 1}") for i, w in enumerate(weights))
    _require_int(capacity, "capacity")
    if not ws:
        raise KnapsackError("empty weight vector")
    if capacity <= 0:
        raise KnapsackError(f"capacity must be positive, got {capacity}")
    if capacity > INT64_MAX:
        raise Overflow(f"capacity {capacity} leaves the 64-bit range")
    total = 0
    for i, w in enumerate(ws):
        if w <= 0:
            raise NonPositiveWeight(f"weight #{i + 1} is {w}")
        if w > INT64_MAX:
            raise Overflow(f"weight #{i + 1} leaves the 64-bit range")
        if w > capacity:
            raise WeightExceedsCapacity(
                f"weight #{i + 1} ({w}) exceeds capacity {capacity}"
            )
        total = checked_add(total, w)
    if total <= capacity:
        raise TrivialKnapsack(
            f"all items together weigh {total} <= capacity {capacity}"
        )
    return Knapsack(weights=ws, capacity=capacity)


def class_profile(k: Knapsack) -> WeightClasses:
    """Group the items of a validated knapsack by weight."""
    return WeightClasses.from_weights(k.weights)


def tuple_weight(counts: Sequence[int], wc: WeightClasses) -> int:
    """Exact weight of a class tuple: ``sum(counts[j] * class_weights[j])``."""
    if len(counts) != wc.sigma:
        raise DimensionMismatch(
            f"tuple has {len(counts)} entries for {wc.sigma} classes"
        )
    total = 0
    for c, w in zip(counts, wc.class_weights):
        total = checked_add(total, checked_mul(c, w))
    return total


def check_tuple_bounds(counts: Sequence[int], wc: WeightClasses) -> None:
    """Raise :class:`TupleExceedsClass` when a count exceeds its class size."""
    if len(counts) != wc.sigma:
        raise DimensionMismatch(
            f"tuple has {len(counts)} entries for {wc.sigma} classes"
        )
    for j, (c, size) in enumerate(zip(counts, wc.sizes)):
        if c < 0 or c > size:
            from .errors import TupleExceedsClass

            raise TupleExceedsClass(
                f"class {j + 1} holds {size} items, tuple requests {c}"
            )


def validate_gubs(groups: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Check that 0-based index groups partition ``range(n)``.

    Returns the groups as sorted tuples.  Singleton groups are allowed.
    """
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for group in groups:
        members = tuple(sorted(group))
        for i in members:
            if i in seen:
                raise OverlappingGroups(f"index {i + 1} appears in two groups")
            if not 0 <= i < n:
                raise UncoveredIndex(f"index {i + 1} outside 1..{n}")
            seen.add(i)
        out.append(members)
    if len(seen) != n:
        missing = min(set(range(n)) - seen)
        raise UncoveredIndex(f"index {missing + 1} is in no group")
    return tuple(out)


def promote_point(values: Sequence, n: int | None = None) -> tuple[Fraction, ...]:
    """Promote a fractional point to exact rationals, clamped into [0, 1].

    Entries must be numbers, not booleans or strings.  They may stick out of
    [0, 1] by at most ``POINT_TOLERANCE`` (solver round-off); anything worse
    raises :class:`InvalidFractionalPoint`.
    """
    out = []
    for i, v in enumerate(values):
        try:
            if isinstance(v, (bool, str)):
                raise TypeError(f"{type(v).__name__} entries are not point values")
            f = Fraction(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidFractionalPoint(f"entry #{i + 1} is not a number: {v!r}") from exc
        if f < -POINT_TOLERANCE or f > 1 + POINT_TOLERANCE:
            raise InvalidFractionalPoint(
                f"entry #{i + 1} = {float(f)} is outside [0, 1]"
            )
        out.append(min(max(f, Fraction(0)), Fraction(1)))
    if n is not None and len(out) != n:
        raise DimensionMismatch(f"point has {len(out)} entries, expected {n}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Instance files.  All indices in files are 1-based.
# ---------------------------------------------------------------------------


def load_instance(path: str) -> tuple[Knapsack, tuple[tuple[int, ...], ...] | None]:
    """Read ``{"weights": [...], "capacity": ..., "gubs": [[...], ...]?}``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_instance(data)


def parse_instance(data) -> tuple[Knapsack, tuple[tuple[int, ...], ...] | None]:
    if not isinstance(data, dict):
        raise KnapsackError("instance file must hold a JSON object")
    try:
        weights = data["weights"]
        capacity = data["capacity"]
    except KeyError as exc:
        raise KnapsackError(f"instance file misses key {exc}") from exc
    k = normalize(weights, capacity)
    gubs = None
    if data.get("gubs") is not None:
        raw = data["gubs"]
        if not isinstance(raw, list):
            raise KnapsackError("gubs must be a list of index lists")
        zero_based = [[_require_int(i, "gub index") - 1 for i in group] for group in raw]
        gubs = validate_gubs(zero_based, k.n)
    return k, gubs


def load_point(path: str, n: int | None = None) -> tuple[Fraction, ...]:
    """Read a JSON array of numbers as a fractional point."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise InvalidFractionalPoint("point file must hold a JSON array")
    return promote_point(data, n)
