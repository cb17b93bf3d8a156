"""Exact separation of lifted cover inequalities at a fractional point.

For every cover class and every increment-set class the most violated member
inequality is found by per-class sorting alone: the increment set grabs the
largest point values of its class, the cover grabs the smallest remaining
ones unless its class coefficient is zero (then the largest, since zeros
make small values irrelevant).  Rank coefficients turn that choice into a
dot product with the class-sorted point, so each class pair costs O(sigma)
after one O(n log n) sort.  All point arithmetic is exact: input floats are
promoted to rationals once and never rounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

from .covers import CoverClass, LiftingData, compute_lifting, iter_minimal_cover_classes
from .errors import DimensionMismatch
from .indep import IndepSearch, exact_maximal_tuples
from .knapsack import (
    Knapsack,
    WeightClasses,
    check_tuple_bounds,
    promote_point,
    validate_gubs,
)

DEFAULT_TOLERANCE = Fraction(1, 10**9)


@dataclass(frozen=True)
class LiftedCut:
    """Dense lifted cover inequality ``coeffs . x <= rhs`` with provenance."""

    coeffs: tuple[int, ...]
    rhs: int
    cover: tuple[int, ...]
    indep: tuple[int, ...]
    gub_strengthened: bool = False
    exact_lifting: bool = True
    violation: Fraction | None = None


@dataclass(frozen=True)
class SeparateOptions:
    tolerance: Fraction = DEFAULT_TOLERANCE
    max_cuts: int | None = None
    deadline_s: float | None = None


@dataclass
class SeparationResult:
    """Violated cuts sorted by violation (descending), plus run stats."""

    cuts: list[LiftedCut]
    classes_scanned: int = 0
    truncated: bool = False
    elapsed_s: float = 0.0


def violation(cut: LiftedCut, xhat: Sequence) -> Fraction:
    """Exact slack of the point against the cut: ``coeffs . x - rhs``."""
    xs = promote_point(xhat)
    if len(xs) != len(cut.coeffs):
        raise DimensionMismatch(
            f"point has {len(xs)} entries, cut has {len(cut.coeffs)}"
        )
    return sum((c * x for c, x in zip(cut.coeffs, xs)), Fraction(0)) - cut.rhs


def class_ladder(c: int, s: int, size: int, base: int) -> tuple[tuple[int, int], ...]:
    """Rank ladder of one weight class as runs ``(coefficient, ranks)``,
    from the lowest rank up.

    Rank ``r`` applies to the item holding the ``r``-th smallest point value
    of the class.  With a positive base coefficient the ladder is 1 on the
    cover ranks (bottom), the base in the middle and base+1 on the increment
    ranks (top); with base zero it is 0 below and 1 on the top ``c + s``
    ranks.  This is the single definition behind pair scoring, the
    representative choice and the model's cut row.
    """
    if base >= 1:
        return ((1, c), (base, size - c - s), (base + 1, s))
    return ((0, size - c - s), (1, c + s))


def rank_coefficients(
    cover: Sequence[int], indep: Sequence[int], lift: LiftingData, wc: WeightClasses
) -> list[list[int]]:
    """Per-class ladders expanded to one coefficient per rank."""
    return [
        [
            coeff
            for coeff, ranks in class_ladder(cover[j], indep[j], size, lift.base_coeffs[j])
            for _ in range(ranks)
        ]
        for j, size in enumerate(wc.sizes)
    ]


def ladder_value(
    cover: Sequence[int],
    indep: Sequence[int],
    lift: LiftingData,
    prefix: Sequence[Sequence[Fraction]],
) -> Fraction:
    """Ladders of a class pair dotted with the class-sorted point.

    ``prefix[j]`` holds the ascending prefix sums of class ``j``'s point
    values (see :class:`PointOrder`); the value is the largest left side
    that any member inequality of the pair reaches at the point.
    """
    total = Fraction(0)
    for j, acc in enumerate(prefix):
        rank = 0
        runs = class_ladder(cover[j], indep[j], len(acc) - 1, lift.base_coeffs[j])
        for coeff, ranks in runs:
            if coeff and ranks:
                total += coeff * (acc[rank + ranks] - acc[rank])
            rank += ranks
    return total


@dataclass(frozen=True)
class PointOrder:
    """A promoted point sorted within each weight class, built once per point.

    ``ascending[j]`` lists class ``j``'s items by ``(x, index)``,
    ``descending[j]`` by ``(-x, index)``; ``prefix[j]`` holds the ascending
    prefix sums of the class's values, starting at 0.
    """

    xs: tuple[Fraction, ...]
    ascending: tuple[tuple[int, ...], ...]
    descending: tuple[tuple[int, ...], ...]
    prefix: tuple[tuple[Fraction, ...], ...]


def point_order(xhat: Sequence, wc: WeightClasses) -> PointOrder:
    """Promote the point and sort it within every weight class."""
    xs = promote_point(xhat, wc.n)
    ascending = []
    descending = []
    prefix = []
    for group in wc.members:
        # group is index-ascending and sorting is stable, so ties keep the
        # smaller index first in both directions
        asc = tuple(sorted(group, key=xs.__getitem__))
        acc = [Fraction(0)]
        for i in asc:
            acc.append(acc[-1] + xs[i])
        ascending.append(asc)
        descending.append(tuple(sorted(group, key=lambda i: -xs[i])))
        prefix.append(tuple(acc))
    return PointOrder(xs, tuple(ascending), tuple(descending), tuple(prefix))


def max_representative(
    cover: Sequence[int],
    indep: Sequence[int],
    lift: LiftingData,
    order: PointOrder,
    wc: WeightClasses,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Concrete index sets of the class member with the largest left side.

    Per class: the increment set takes the ``s`` largest point values; the
    cover then takes the ``c`` smallest remaining values, or the largest when
    the class base coefficient is zero.  Ties go to the smaller index.  The
    member's left side equals :func:`ladder_value`.  Indices come grouped by
    weight class, in the order they were picked.
    """
    check_tuple_bounds([c + s for c, s in zip(cover, indep)], wc)
    cover_idx: list[int] = []
    indep_idx: list[int] = []
    for j, (c, s) in enumerate(zip(cover, indep)):
        desc = order.descending[j]
        indep_idx.extend(desc[:s])
        if lift.base_coeffs[j] >= 1:
            taken = set(desc[:s])
            cover_idx.extend([i for i in order.ascending[j] if i not in taken][:c])
        else:
            cover_idx.extend(desc[s : s + c])
    return tuple(cover_idx), tuple(indep_idx)


def assemble_cut(
    cover_idx: Sequence[int],
    indep_idx: Sequence[int],
    lift: LiftingData,
    wc: WeightClasses,
    exact_lifting: bool = True,
) -> LiftedCut:
    """Dense inequality for explicit index sets: 1 on the cover, base+1 on
    the increment set, the base elsewhere; right side is cover size - 1."""
    cover_set = set(cover_idx)
    indep_set = set(indep_idx)
    if cover_set & indep_set:
        raise ValueError("cover and increment set overlap")
    coeffs = [0] * wc.n
    cover_counts = [0] * wc.sigma
    indep_counts = [0] * wc.sigma
    for j, group in enumerate(wc.members):
        base = lift.base_coeffs[j]
        for i in group:
            if i in cover_set:
                coeffs[i] = 1
                cover_counts[j] += 1
            elif i in indep_set:
                coeffs[i] = base + 1
                indep_counts[j] += 1
            else:
                coeffs[i] = base
    if sum(cover_counts) + sum(indep_counts) != len(cover_set) + len(indep_set):
        raise DimensionMismatch(f"index sets reach outside items 0..{wc.n - 1}")
    return LiftedCut(
        coeffs=tuple(coeffs),
        rhs=len(cover_set) - 1,
        cover=tuple(cover_counts),
        indep=tuple(indep_counts),
        exact_lifting=exact_lifting,
    )


def item_groups(gubs: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """Group index of every item, after checking that the 0-based groups
    partition the items (see :func:`validate_gubs`)."""
    group_of = [0] * n
    for g, group in enumerate(validate_gubs(gubs, n)):
        for i in group:
            group_of[i] = g
    return tuple(group_of)


def gub_strengthen(
    cut: LiftedCut,
    group_of: Sequence[int],
    cover_idx: Sequence[int],
    indep_idx: Sequence[int],
    lift: LiftingData,
    wc: WeightClasses,
) -> LiftedCut:
    """Raise zero coefficients justified by shared bound groups.

    In a class with base coefficient zero, an item outside the cut that
    shares a group with a used item of the same class can never join it in a
    feasible point, so its coefficient lifts from 0 to 1.  Classes with a
    positive base are untouched.  ``group_of[i]`` is the group of item ``i``
    (see :func:`item_groups`); the cut itself comes back when nothing rises.
    """
    used = set(cover_idx) | set(indep_idx)
    coeffs = list(cut.coeffs)
    raised = False
    for j, group in enumerate(wc.members):
        if lift.base_coeffs[j] != 0:
            continue
        used_groups = {group_of[i] for i in group if i in used}
        for i in group:
            if i not in used and group_of[i] in used_groups:
                if coeffs[i] == 0:
                    coeffs[i] = 1
                    raised = True
    if not raised:
        return cut
    return replace(cut, coeffs=tuple(coeffs), gub_strengthened=True)


def class_pairs(
    wc: WeightClasses, capacity: int
) -> Iterator[tuple[CoverClass, LiftingData, list[tuple[int, ...]], bool]]:
    """Every minimal cover class with its maximal increment-set classes.

    Covers come in the cursor's automatic direction.  Each yields
    ``(cover, lift, tuples, exact)``: ``tuples`` lists the jump search's
    maximal leaves in search order, unless that search pruned lossily
    (``exact`` False); then it is the exact staircase walk's sorted list.
    This is the one source of class pairs for :func:`separate` and the
    ``cuts`` command.
    """
    for cover in iter_minimal_cover_classes(wc, capacity):
        lift = compute_lifting(cover, wc, capacity)
        search = IndepSearch(cover, lift, wc)
        tuples = [leaf.counts for leaf in search if leaf.maximal]
        if not search.exact:
            # the jump search pruned lossily for this cover; recover the
            # missed classes with the exact staircase walk
            tuples = exact_maximal_tuples(lift, wc, cover.counts)
        yield cover, lift, tuples, search.exact


def separate(
    k: Knapsack,
    xhat: Sequence,
    gubs: Sequence[Sequence[int]] | None = None,
    opts: SeparateOptions | None = None,
) -> SeparationResult:
    """All violated lifted cover inequalities at a fractional point.

    Scores every pair of :func:`class_pairs`; a pair whose strongest
    member beats the tolerance is materialized through its representative
    index sets, optionally strengthened with bound-group information, and
    reported.  Identical inequalities from different provenances are reported
    once.  The result is deterministic: sorted by violation, then
    lexicographically by coefficients.
    """
    opts = opts or SeparateOptions()
    if opts.max_cuts is not None and opts.max_cuts < 0:
        raise ValueError(f"max_cuts must be non-negative, got {opts.max_cuts}")
    started = time.perf_counter()
    wc = k.classes()
    order = point_order(xhat, wc)
    group_of = item_groups(gubs, k.n) if gubs is not None else None
    found: dict[tuple[tuple[int, ...], int], LiftedCut] = {}
    scanned = 0
    truncated = False
    deadline = (
        started + opts.deadline_s if opts.deadline_s is not None else None
    )
    for cover, lift, candidates, exact in class_pairs(wc, k.capacity):
        if deadline is not None and time.perf_counter() > deadline:
            truncated = True
            break
        for indep_counts in candidates:
            scanned += 1
            excess = ladder_value(cover.counts, indep_counts, lift, order.prefix) - cover.rhs
            if excess <= opts.tolerance:
                continue
            cover_idx, indep_idx = max_representative(
                cover.counts, indep_counts, lift, order, wc
            )
            # the representative attains the ladder value, so its violation
            # is the pair's excess
            cut = assemble_cut(cover_idx, indep_idx, lift, wc, exact_lifting=exact)
            if group_of is not None:
                raised = gub_strengthen(cut, group_of, cover_idx, indep_idx, lift, wc)
                # bound groups only raise coefficients from 0 to 1
                excess += sum(
                    x for x, old, new in zip(order.xs, cut.coeffs, raised.coeffs) if new != old
                )
                cut = raised
            cut = replace(cut, violation=excess)
            key = (cut.coeffs, cut.rhs)
            kept = found.get(key)
            if kept is None or cut.violation > kept.violation:
                found[key] = cut
    cuts = sorted(found.values(), key=lambda c: (-c.violation, c.coeffs))
    if opts.max_cuts is not None and len(cuts) > opts.max_cuts:
        cuts = cuts[: opts.max_cuts]
        truncated = True
    return SeparationResult(
        cuts=cuts,
        classes_scanned=scanned,
        truncated=truncated,
        elapsed_s=time.perf_counter() - started,
    )
