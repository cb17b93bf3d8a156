"""Depth-first search for the increment sets of a lifted cover inequality.

Adding one item of class ``j`` to a candidate increment set moves a point in
a 2D (coefficient mass, weight) plane by the fixed jump
``(base_coeffs[j] + 1, class_weights[j])``.  A set is independent exactly
when every partial selection keeps its point strictly above the frontier
``y = heavy_sums(x) - surplus``.  The search adds jumps in order of
non-decreasing steepness, so each branch traces a convex path, and it prunes
a branch as soon as one jump segment touches or crosses the frontier at any
integral abscissa.  That pruning is sound (everything reported is
independent) but can drop sets whose long jumps dive under the frontier and
come back up; ``exact`` reports whether such a rejection happened, in which
case maximality claims for this cover must be downgraded to validity only.
For such covers :func:`exact_maximal_tuples` lists the maximal classes
exactly, deciding each tuple by the same endpoint test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .covers import CoverClass, LiftingData
from .knapsack import WeightClasses


@dataclass(frozen=True)
class JumpGeometry:
    """Static data of the search: jump vectors, slope order, availability.

    ``order`` lists class indices by non-decreasing slope
    ``weight / (coeff + 1)``; ties prefer the longer jump (larger coeff),
    then the smaller class index.
    """

    order: tuple[int, ...]
    jumps: tuple[tuple[int, int], ...]  # per class: (x-advance, y-advance)
    avail: tuple[int, ...]  # items of each class outside the cover


@dataclass(frozen=True)
class IndepLeaf:
    """One search leaf: a candidate increment-set class.

    ``maximal`` is the search-local verdict (not contained in the last
    maximal leaf); it matches true maximality whenever the run is exact.
    """

    counts: tuple[int, ...]
    maximal: bool


def jump_geometry(cover: CoverClass, lift: LiftingData, wc: WeightClasses) -> JumpGeometry:
    jumps = tuple(
        (coeff + 1, w) for coeff, w in zip(lift.base_coeffs, wc.class_weights)
    )
    avail = tuple(size - c for size, c in zip(wc.sizes, cover.counts))
    # slope dy/dx ascending, compared exactly by cross products; ties prefer
    # the longer jump, then the smaller class index
    order = sorted(range(wc.sigma), key=lambda j: (_SlopeKey(jumps[j]), -jumps[j][0], j))
    return JumpGeometry(order=tuple(order), jumps=jumps, avail=avail)


class _SlopeKey:
    """Exact comparison of dy/dx slopes by cross-multiplication."""

    __slots__ = ("dx", "dy")

    def __init__(self, jump: tuple[int, int]):
        self.dx, self.dy = jump

    def __lt__(self, other: "_SlopeKey") -> bool:
        return self.dy * other.dx < other.dy * self.dx

    def __eq__(self, other) -> bool:
        return self.dy * other.dx == other.dy * self.dx


def segment_above_frontier(
    x: int, y: int, j: int, lift: LiftingData, jumps: tuple[tuple[int, int], ...]
) -> bool:
    """Conservative jump test from integer point ``(x, y)`` with class ``j``.

    True iff the straight segment to ``(x + dx, y + dy)`` stays strictly
    above the frontier at every abscissa ``x + 1 .. x + dx``; all in integer
    arithmetic (cross-multiplied by ``dx``).
    """
    dx, dy = jumps[j]
    for t in range(1, dx + 1):
        if dx * (y - lift.heavy_sum_at(x + t) + lift.surplus) + t * dy <= 0:
            return False
    return True


def clears_frontier(x: int, y: int, lift: LiftingData) -> bool:
    """Subset criterion at one selection: its point ``(x, y)`` (coefficient
    mass, weight) lies strictly above the frontier."""
    return y > lift.heavy_sum_at(x) - lift.surplus


def _greedy(s: list[int], m: int, geom: JumpGeometry, lift: LiftingData) -> bool:
    """Fill positions ``m+1 .. sigma`` of the slope order greedily, in place.

    Positions ``1..m`` (in slope order) are kept as given; every later class
    takes jumps while the conservative test passes and items remain.
    Returns False when a jump was pruned whose endpoint test would pass.
    """
    exact = True
    jumps = geom.jumps
    x = y = 0
    for pos in range(m):
        j = geom.order[pos]
        dx, dy = jumps[j]
        x += s[j] * dx
        y += s[j] * dy
    for pos in range(m, len(geom.order)):
        j = geom.order[pos]
        s[j] = 0
        dx, dy = jumps[j]
        for _ in range(geom.avail[j]):
            if segment_above_frontier(x, y, j, lift, jumps):
                x += dx
                y += dy
                s[j] += 1
            else:
                if clears_frontier(x + dx, y + dy, lift):
                    # pruned although the extended selection itself passes:
                    # the enumeration may now miss independent sets
                    exact = False
                break
    return exact


class IndepSearch:
    """Stream of all search leaves for one cover, with maximality flags.

    ``exact`` starts True and is cleared as soon as one jump is pruned whose
    endpoint test would have passed; once the stream is exhausted it is the
    per-cover exactness verdict.  Single-owner state; distinct covers may be
    searched concurrently over shared lifting data.
    """

    def __init__(self, cover: CoverClass, lift: LiftingData, wc: WeightClasses):
        self.geometry = jump_geometry(cover, lift, wc)
        self.lift = lift
        self.exact = True

    def __iter__(self) -> Iterator[IndepLeaf]:
        geom = self.geometry
        sigma = len(geom.order)
        cur = [0] * sigma
        if not _greedy(cur, 0, geom, self.lift):
            self.exact = False
        last_maximal = tuple(cur)
        yield IndepLeaf(tuple(cur), True)
        while True:
            star = None
            for pos in range(sigma - 2, -1, -1):
                if cur[geom.order[pos]] > 0:
                    star = pos
                    break
            if star is None:
                return
            cur[geom.order[star]] -= 1
            if not _greedy(cur, star + 1, geom, self.lift):
                self.exact = False
            leaf = tuple(cur)
            maximal = not all(a <= b for a, b in zip(leaf, last_maximal))
            if maximal:
                last_maximal = leaf
            yield IndepLeaf(leaf, maximal)


def exact_maximal_tuples(
    lift: LiftingData, wc: WeightClasses, cover_counts: Sequence[int]
) -> list[tuple[int, ...]]:
    """All maximal increment-set classes of one cover, sorted.

    Independent tuples form a down-set: a tuple is independent when it
    clears the frontier and every one-unit-smaller tuple is independent.
    Each prefix of the first ``sigma - 1`` counts therefore owns a height,
    the largest last-class count it stays independent up to (or -1); that
    height is capped by the heights of the one-smaller prefixes and found by
    climbing from zero.  A prefix gives a maximal tuple when no one-larger
    prefix reaches its height.  Used in place of the jump search when that
    search pruned lossily.
    """
    geom = jump_geometry(CoverClass(tuple(cover_counts)), lift, wc)
    *head, last = geom.avail
    (dx, dy), head_jumps = geom.jumps[-1], geom.jumps[:-1]
    # position of a prefix in product order, as a mixed-radix number
    strides = [1] * len(head)
    for j in range(len(head) - 2, -1, -1):
        strides[j] = strides[j + 1] * (head[j + 1] + 1)
    prefixes = list(product(*(range(a + 1) for a in head)))
    height: list[int] = []
    for idx, prefix in enumerate(prefixes):
        cap = last
        x = y = 0
        for q, stride, (jx, jy) in zip(prefix, strides, head_jumps):
            if q:
                cap = min(cap, height[idx - stride])
                x += q * jx
                y += q * jy
        top = -1
        # the empty tuple is independent without a test
        if cap >= 0 and (x == 0 or clears_frontier(x, y, lift)):
            top = 0
            while top < cap and clears_frontier(x + (top + 1) * dx, y + (top + 1) * dy, lift):
                top += 1
        height.append(top)
    return [
        prefix + (top,)
        for idx, (prefix, top) in enumerate(zip(prefixes, height))
        if top >= 0
        and all(
            q == a or height[idx + stride] < top
            for q, a, stride in zip(prefix, head, strides)
        )
    ]
