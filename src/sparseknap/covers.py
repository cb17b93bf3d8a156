"""Enumeration of minimal-cover classes and their lifting data.

Two subsets of items are equivalent when they take the same number of items
from every weight class, so a class of covers is just a count tuple
``(c_1, ..., c_sigma)``.  The enumerator walks these tuples with the first
count changing fastest and skips whole stretches that provably contain no
minimal cover:

* once a stretch (fixed ``c_2..c_sigma``) contains a cover, every later tuple
  of the stretch is a cover with a removable item, hence not minimal;
* if even ``c_1 = |W_1|`` does not cover, the whole stretch is dead;
* otherwise one division yields the unique candidate of the stretch.

When the items altogether weigh at most twice the capacity, covers are large
and it pays off to walk the tuples in the opposite direction; the cursor does
that automatically unless told otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .knapsack import WeightClasses, check_tuple_bounds, checked_add, checked_mul, tuple_weight


@dataclass(frozen=True)
class CoverClass:
    """Equivalence class of covers: ``counts[j]`` items from class ``j``."""

    counts: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        return sum(self.counts)

    @property
    def rhs(self) -> int:
        return self.cardinality - 1

    def weight(self, wc: WeightClasses) -> int:
        return tuple_weight(self.counts, wc)


@dataclass(frozen=True)
class LiftingData:
    """Per-cover data needed to lift the cover inequality.

    ``heavy_sums[h]`` is the total weight of the ``h`` heaviest cover items
    (constant once ``h`` exceeds the cover size), ``surplus`` is the cover
    weight minus the capacity, and ``base_coeffs[j]`` is the largest ``h``
    with ``class_weights[j] >= heavy_sums[h]`` -- the lifting coefficient a
    class-``j`` item gets before any increment.
    """

    cover: tuple[int, ...]
    heavy_sums: tuple[int, ...]
    surplus: int
    base_coeffs: tuple[int, ...]

    def heavy_sum_at(self, h: int) -> int:
        if h < 0:
            raise ValueError(f"negative argument {h}")
        return self.heavy_sums[min(h, len(self.heavy_sums) - 1)]


def is_cover(counts, wc: WeightClasses, capacity: int) -> bool:
    """A class tuple covers iff its weight exceeds the capacity."""
    return tuple_weight(counts, wc) > capacity


def is_minimal_cover(counts, wc: WeightClasses, capacity: int) -> bool:
    """Cover whose weight drops to at most the capacity when one item of the
    lightest occupied class is removed."""
    weight = tuple_weight(counts, wc)
    if weight <= capacity:
        return False
    for c, w in zip(counts, wc.class_weights):
        if c > 0:
            return weight - w <= capacity
    return False  # all-zero tuple is no cover


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _first_forward(wc: WeightClasses, capacity: int) -> tuple[int, ...] | None:
    """Candidate of the first stretch reached in the forward walk.

    Working from the heaviest class down, take the least count that still
    allows a cover when every lighter class is full; one division each.
    """
    sizes = wc.sizes
    weights = wc.class_weights
    lighter_full = [0] * (wc.sigma + 1)
    for j in range(wc.sigma):
        lighter_full[j + 1] = checked_add(
            lighter_full[j], checked_mul(weights[j], sizes[j])
        )
    counts = [0] * wc.sigma
    heavier = 0  # weight already fixed in classes above j
    for j in range(wc.sigma - 1, -1, -1):
        need = capacity + 1 - lighter_full[j] - heavier
        c = max(0, _ceil_div(need, weights[j]))
        if c > sizes[j]:
            return None  # not a cover even with everything selected
        counts[j] = c
        heavier = checked_add(heavier, checked_mul(c, weights[j]))
    return tuple(counts)


def _first_reverse(wc: WeightClasses, capacity: int) -> tuple[int, ...] | None:
    """Candidate of the first stretch reached in the reversed walk.

    Fill greedily from the heaviest class until the weight exceeds the
    capacity; one division each.
    """
    sizes = wc.sizes
    weights = wc.class_weights
    counts = [0] * wc.sigma
    need = capacity + 1
    for j in range(wc.sigma - 1, -1, -1):
        if need <= 0:
            break
        c = min(sizes[j], _ceil_div(need, weights[j]))
        counts[j] = c
        need -= checked_mul(c, weights[j])
    if need > 0:
        return None
    return tuple(counts)


def first_minimal_cover(
    wc: WeightClasses, capacity: int, reverse: bool | None = None
) -> CoverClass | None:
    """First minimal-cover class of the enumeration, in O(sigma) divisions.

    ``reverse=None`` picks the direction the cursor would pick.  Returns
    ``None`` only when no cover exists at all (impossible for a validated
    knapsack).
    """
    if reverse is None:
        reverse = wc.total_weight() <= 2 * capacity
    builder = _first_reverse if reverse else _first_forward
    counts = builder(wc, capacity)
    # both builders stop at the least count of the lightest occupied class
    # that covers, so dropping one of its items fits: the tuple is minimal
    return None if counts is None else CoverClass(counts)


class CoverCursor:
    """Resumable enumeration of all minimal-cover classes, each exactly once.

    Single-owner mutable state; distinct cursors over the same classes may
    run concurrently.
    """

    def __init__(
        self,
        wc: WeightClasses,
        capacity: int,
        reverse: bool | None = None,
    ):
        if reverse is None:
            reverse = wc.total_weight() <= 2 * capacity
        self.wc = wc
        self.capacity = capacity
        self.reverse = reverse
        self._sizes = wc.sizes
        self._weights = wc.class_weights
        # rest = counts of classes 2..sigma, walked as an odometer
        if wc.sigma == 1:
            self._rest: list[int] | None = []
        elif reverse:
            self._rest = list(self._sizes[1:])
        else:
            self._rest = [0] * (wc.sigma - 1)
        self._exhausted = False

    def _advance_rest(self) -> bool:
        """Odometer step over the rest tuple; False when done."""
        rest = self._rest
        assert rest is not None
        if not rest:
            return False
        if self.reverse:
            for i in range(len(rest)):
                if rest[i] > 0:
                    rest[i] -= 1
                    for p in range(i):
                        rest[p] = self._sizes[p + 1]
                    return True
            return False
        for i in range(len(rest)):
            if rest[i] < self._sizes[i + 1]:
                rest[i] += 1
                for p in range(i):
                    rest[p] = 0
                return True
        return False

    def _stretch_candidate(self) -> tuple[int, ...] | None:
        """Unique minimal-cover candidate of the current stretch, if any."""
        rest = self._rest
        assert rest is not None
        rest_weight = 0
        for c, w in zip(rest, self._weights[1:]):
            rest_weight = checked_add(rest_weight, checked_mul(c, w))
        need = self.capacity + 1 - rest_weight
        c1 = max(0, _ceil_div(need, self._weights[0]))
        if c1 > self._sizes[0]:
            return None  # even the full first class does not cover
        return (c1, *rest)

    def __iter__(self) -> Iterator[CoverClass]:
        return self

    def __next__(self) -> CoverClass:
        while not self._exhausted:
            candidate = self._stretch_candidate()
            if not self._advance_rest():
                self._exhausted = True
            if candidate is None:
                continue
            if is_minimal_cover(candidate, self.wc, self.capacity):
                return CoverClass(candidate)
        raise StopIteration


def iter_minimal_cover_classes(
    wc: WeightClasses, capacity: int, reverse: bool | None = None
) -> Iterator[CoverClass]:
    return CoverCursor(wc, capacity, reverse=reverse)


def compute_lifting(cover: CoverClass, wc: WeightClasses, capacity: int) -> LiftingData:
    """Lifting data of a minimal cover class, built in one pass.

    The heaviest-prefix sums are accumulated over the cover's multiset from
    the heaviest class down; each class coefficient is then the number of
    prefix items its weight still dominates.
    """
    check_tuple_bounds(cover.counts, wc)
    n = wc.n
    sums = [0] * (n + 1)
    h = 0
    for j in range(wc.sigma - 1, -1, -1):
        w = wc.class_weights[j]
        for _ in range(cover.counts[j]):
            sums[h + 1] = checked_add(sums[h], w)
            h += 1
    for i in range(h + 1, n + 1):
        sums[i] = sums[h]
    weight = sums[h]
    surplus = weight - capacity
    base = []
    for w in wc.class_weights:
        # largest h with w >= sums[h]; sums is non-decreasing and ends > w
        # because the cover outweighs the capacity >= every single weight
        # of a valid knapsack.  Guard anyway for raw class views.
        coeff = 0
        while coeff + 1 <= n and w >= sums[coeff + 1]:
            coeff += 1
        base.append(coeff)
    return LiftingData(
        cover=cover.counts,
        heavy_sums=tuple(sums),
        surplus=surplus,
        base_coeffs=tuple(base),
    )
