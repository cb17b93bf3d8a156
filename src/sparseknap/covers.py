"""Enumeration of minimal-cover classes and their lifting data.

Two subsets of items are equivalent when they take the same number of items
from every weight class, so a class of covers is just a count tuple
``(c_1, ..., c_sigma)``.  The enumerator is an odometer over these tuples
with the heaviest class slowest.  At class ``j``, with ``O`` the weight of
the heavier counts already fixed and ``L_j`` the weight of every item
lighter than class ``j``, it opens only the counts that lead to a minimal
cover:

* if ``O`` exceeds the capacity, lighter items would be removable, so
  ``c_j = 0``;
* otherwise ``c_j`` runs from the least count that can still cover with all
  lighter items, ``ceil((capacity + 1 - O - L_j) / w_j)``, to the largest
  that does not cover with one item less, ``(capacity - O) // w_j + 1``.

Every opened branch holds a minimal cover, and the lightest class takes a
single count, so each class costs O(sigma) steps, the first one included.
The cursor walks the counts upwards, or downwards when the items altogether
weigh at most twice the capacity; both directions visit the same branches,
so the direction only fixes the output order.
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


def first_minimal_cover(
    wc: WeightClasses, capacity: int, reverse: bool | None = None
) -> CoverClass | None:
    """First minimal-cover class of the enumeration, in O(sigma) steps.

    ``reverse=None`` picks the direction the cursor would pick.  Returns
    ``None`` only when no cover exists at all (impossible for a validated
    knapsack).
    """
    return next(CoverCursor(wc, capacity, reverse), None)


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
        self._walk = self._classes()

    def _classes(self) -> Iterator[CoverClass]:
        """The odometer over the counts, heaviest class slowest, opening at
        each level only the counts that still lead to a minimal cover."""
        capacity = self.capacity
        if capacity < 0:
            return  # the empty tuple already covers, so no cover is minimal
        weights = self.wc.class_weights
        sizes = self.wc.sizes
        sigma = len(weights)
        lighter = [0] * sigma  # weight of all items of the classes below j
        for j in range(1, sigma):
            lighter[j] = checked_add(lighter[j - 1], checked_mul(weights[j - 1], sizes[j - 1]))
        step = -1 if self.reverse else 1
        counts = [0] * sigma
        last = [0] * sigma  # where the open range of each level ends
        heavier = [0] * sigma  # weight of the counts above level j
        j = sigma - 1
        while True:
            above = heavier[j]
            if above > capacity:
                lo = hi = 0  # already covered: lighter items are removable
            else:
                w = weights[j]
                lo = max(0, _ceil_div(capacity + 1 - above - lighter[j], w))
                hi = min(sizes[j], (capacity - above) // w + 1)
                if lo > hi:
                    return  # only at the top: all items together do not cover
            # at level 0 nothing is lighter, so lo == hi: one count per branch
            counts[j], last[j] = (hi, lo) if self.reverse else (lo, hi)
            while j == 0:
                # hand out the tuple, then step the lowest level whose
                # range is not used up; the levels below it reopen
                yield CoverClass(tuple(counts))
                j = 1
                while j < sigma and counts[j] == last[j]:
                    j += 1
                if j == sigma:
                    return
                counts[j] += step
            heavier[j - 1] = checked_add(heavier[j], checked_mul(counts[j], weights[j]))
            j -= 1

    def __iter__(self) -> Iterator[CoverClass]:
        return self

    def __next__(self) -> CoverClass:
        return next(self._walk)


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
