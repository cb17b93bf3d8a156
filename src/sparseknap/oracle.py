"""Exhaustive ground truth at desk scale.

Everything here recomputes its answers from first principles over explicit
subsets (bitmasks): covers by scanning all subsets, lifting coefficients from
sorted cover weights, increment sets by the strict subset criterion, cut
validity and facet rank over all feasible binary points.  This keeps the
module an independent check on the class-level machinery.  Hard size guards
raise :class:`~sparseknap.errors.TooLarge` instead of truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from typing import Sequence

from .errors import InvalidCut, TooLarge
from .knapsack import WeightClasses

FEASIBLE_GUARD = 25
COVER_GUARD = 20
INDEP_GUARD = 10**6


def _mask_weight(weights: Sequence[int], n: int) -> list[int]:
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    return table


def feasible_points(weights: Sequence[int], capacity: int) -> list[int]:
    """All bitmasks of binary points satisfying the constraint."""
    n = len(weights)
    if n > FEASIBLE_GUARD:
        raise TooLarge(f"{n} items exceed the feasibility guard {FEASIBLE_GUARD}")
    wt = _mask_weight(weights, n)
    return [m for m in range(1 << n) if wt[m] <= capacity]


def minimal_cover_sets(weights: Sequence[int], capacity: int) -> list[int]:
    """Bitmasks of all minimal covers, by scanning every subset."""
    n = len(weights)
    if n > COVER_GUARD:
        raise TooLarge(f"{n} items exceed the cover guard {COVER_GUARD}")
    wt = _mask_weight(weights, n)
    out = []
    for mask in range(1, 1 << n):
        if wt[mask] <= capacity:
            continue
        minimal = True
        m = mask
        while m:
            low = m & -m
            if wt[mask ^ low] > capacity:
                minimal = False
                break
            m ^= low
        if minimal:
            out.append(mask)
    return out


def class_tuple_of_mask(mask: int, wc: WeightClasses) -> tuple[int, ...]:
    counts = [0] * wc.sigma
    for j, group in enumerate(wc.members):
        for i in group:
            if mask >> i & 1:
                counts[j] += 1
    return tuple(counts)


def minimal_covers_bruteforce(
    weights: Sequence[int], capacity: int, wc: WeightClasses | None = None
) -> set[tuple[int, ...]]:
    """Class tuples of all minimal covers."""
    if wc is None:
        wc = WeightClasses.from_weights(weights)
    return {
        class_tuple_of_mask(mask, wc)
        for mask in minimal_cover_sets(weights, capacity)
    }


# ---------------------------------------------------------------------------
# Lifting data recomputed from an explicit cover set.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetLifting:
    """Per-item lifting data derived from one explicit cover set."""

    cover_mask: int
    heavy_sums: tuple[int, ...]  # padded to n+1 entries
    surplus: int
    item_coeffs: tuple[int, ...]  # base coefficient of every item

    def heavy_sum_at(self, h: int) -> int:
        return self.heavy_sums[min(h, len(self.heavy_sums) - 1)]


def set_lifting(cover_mask: int, weights: Sequence[int], capacity: int) -> SetLifting:
    n = len(weights)
    cover_weights = sorted(
        (weights[i] for i in range(n) if cover_mask >> i & 1), reverse=True
    )
    sums = [0]
    for w in cover_weights:
        sums.append(sums[-1] + w)
    cover_weight = sums[-1]
    while len(sums) < n + 1:
        sums.append(sums[-1])
    coeffs = []
    for i in range(n):
        h = 0
        while h + 1 <= n and weights[i] >= sums[h + 1]:
            h += 1
        coeffs.append(h)
    return SetLifting(
        cover_mask=cover_mask,
        heavy_sums=tuple(sums),
        surplus=cover_weight - capacity,
        item_coeffs=tuple(coeffs),
    )


def is_independent_exact(
    counts: Sequence[int], lift, wc: WeightClasses, avail: Sequence[int] | None = None
) -> bool:
    """Class-tuple form of the subset criterion, checked on every sub-tuple.

    ``lift`` is the class-level lifting data (``heavy_sum_at``, ``surplus``,
    ``base_coeffs``); the empty tuple is vacuously independent.
    """
    if avail is not None and any(c > a for c, a in zip(counts, avail)):
        return False
    for sub in product(*(range(c + 1) for c in counts)):
        if sum(sub) == 0:
            continue
        weight = sum(q * w for q, w in zip(sub, wc.class_weights))
        advance = sum(q * (lift.base_coeffs[j] + 1) for j, q in enumerate(sub))
        if not weight > lift.heavy_sum_at(advance) - lift.surplus:
            return False
    return True


def maximal_indep_bruteforce(
    cover_counts: Sequence[int], lift, wc: WeightClasses
) -> set[tuple[int, ...]]:
    """Maximal independent class tuples for one cover class.

    Enumerates every tuple within availability by increasing cardinality,
    memoizes verdicts, then filters out tuples strictly contained in another
    independent one.
    """
    avail = tuple(size - c for size, c in zip(wc.sizes, cover_counts))
    space = 1
    for a in avail:
        space *= a + 1
    if space > INDEP_GUARD:
        raise TooLarge(f"{space} candidate tuples exceed guard {INDEP_GUARD}")
    ok: dict[tuple[int, ...], bool] = {}
    independent = []
    for t in sorted(product(*(range(a + 1) for a in avail)), key=sum):
        if sum(t) == 0:
            ok[t] = True
            independent.append(t)
            continue
        weight = sum(q * w for q, w in zip(t, wc.class_weights))
        advance = sum(q * (lift.base_coeffs[j] + 1) for j, q in enumerate(t))
        verdict = weight > lift.heavy_sum_at(advance) - lift.surplus
        if verdict:
            for j in range(len(t)):
                if t[j] > 0:
                    child = t[:j] + (t[j] - 1,) + t[j + 1 :]
                    if not ok[child]:
                        verdict = False
                        break
        ok[t] = verdict
        if verdict:
            independent.append(t)
    return {
        t
        for t in independent
        if not any(t != u and all(a <= b for a, b in zip(t, u)) for u in independent)
    }


def independent_set_masks(
    cover_mask: int, weights: Sequence[int], capacity: int
) -> tuple[list[int], list[int], SetLifting]:
    """Independent and maximal independent subsets of a cover's complement.

    Returns ``(independent, maximal, lifting)``; verdicts are memoized over
    masks, a set qualifying when the criterion holds for it and all its
    one-item-removed subsets.
    """
    n = len(weights)
    lift = set_lifting(cover_mask, weights, capacity)
    free = [i for i in range(n) if not cover_mask >> i & 1]
    if len(free) > 22:
        raise TooLarge(f"{len(free)} free items exceed the subset guard")
    ok: dict[int, bool] = {0: True}
    good = [0]
    # combinations come out by increasing size, so every one-item-removed
    # subset is decided before the set itself
    bits = [1 << i for i in free]
    by_card = [sum(combo) for r in range(1, len(free) + 1) for combo in combinations(bits, r)]
    wt = {0: 0}
    adv = {0: 0}
    for mask in by_card:
        low = mask & -mask
        i = low.bit_length() - 1
        wt[mask] = wt[mask ^ low] + weights[i]
        adv[mask] = adv[mask ^ low] + lift.item_coeffs[i] + 1
        verdict = wt[mask] > lift.heavy_sum_at(adv[mask]) - lift.surplus
        if verdict:
            m = mask
            while m:
                bit = m & -m
                if not ok[mask ^ bit]:
                    verdict = False
                    break
                m ^= bit
        ok[mask] = verdict
        if verdict:
            good.append(mask)
    maximal = [
        s
        for s in good
        if all(s >> i & 1 or not ok.get(s | (1 << i), False) for i in free)
    ]
    return good, maximal, lift


def lifted_cut_of_sets(
    cover_mask: int, indep_mask: int, lift: SetLifting, n: int
) -> tuple[tuple[int, ...], int]:
    """Dense inequality of one explicit cover/increment-set pair."""
    coeffs = []
    for i in range(n):
        if cover_mask >> i & 1:
            coeffs.append(1)
        elif indep_mask >> i & 1:
            coeffs.append(lift.item_coeffs[i] + 1)
        else:
            coeffs.append(lift.item_coeffs[i])
    rhs = bin(cover_mask).count("1") - 1
    return tuple(coeffs), rhs


def cut_valid(
    coeffs: Sequence[int],
    rhs: int,
    weights: Sequence[int],
    capacity: int,
    gubs: Sequence[Sequence[int]] | None = None,
) -> bool:
    """True iff every feasible binary point (also satisfying the bound
    groups, when given) satisfies the inequality."""
    n = len(weights)
    if len(coeffs) != n:
        raise InvalidCut(f"cut has {len(coeffs)} coefficients for {n} items")
    gub_masks = None
    if gubs is not None:
        gub_masks = [sum(1 << i for i in group) for group in gubs]
    for mask in feasible_points(weights, capacity):
        if gub_masks is not None and any(
            bin(mask & gm).count("1") > 1 for gm in gub_masks
        ):
            continue
        value = sum(coeffs[i] for i in range(n) if mask >> i & 1)
        if value > rhs:
            return False
    return True


def _affine_rank(points: list[tuple[int, ...]]) -> int:
    """Affine rank (max number of affinely independent points) by exact
    rational elimination."""
    if not points:
        return 0
    base = points[0]
    rows = [
        [Fraction(x - b) for x, b in zip(p, base)] for p in points[1:]
    ]
    cols = len(base)
    rank = 0
    row_idx = 0
    for col in range(cols):
        pivot = None
        for r in range(row_idx, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row_idx], rows[pivot] = rows[pivot], rows[row_idx]
        head = rows[row_idx][col]
        for r in range(row_idx + 1, len(rows)):
            factor = rows[r][col] / head
            if factor:
                for c in range(col, cols):
                    rows[r][c] -= factor * rows[row_idx][c]
        row_idx += 1
        rank += 1
        if row_idx == len(rows):
            break
    return rank + 1


def facet_rank(
    coeffs: Sequence[int], rhs: int, weights: Sequence[int], capacity: int
) -> int:
    """Affine rank of the feasible points tight at the inequality.

    The inequality must be valid (otherwise :class:`InvalidCut` is raised);
    with the knapsack polytope full-dimensional, the cut defines a facet iff
    the returned rank equals the item count.
    """
    n = len(weights)
    if n > COVER_GUARD:
        raise TooLarge(f"{n} items exceed the rank guard {COVER_GUARD}")
    if not cut_valid(coeffs, rhs, weights, capacity):
        raise InvalidCut("facet rank is only defined for valid inequalities")
    tight = []
    for mask in feasible_points(weights, capacity):
        value = sum(coeffs[i] for i in range(n) if mask >> i & 1)
        if value == rhs:
            tight.append(tuple(mask >> i & 1 for i in range(n)))
    return _affine_rank(tight)


@lru_cache(maxsize=8)
def _separation_table(weights: tuple[int, ...], capacity: int) -> tuple:
    """Point-independent part of :func:`separate_bruteforce`: per minimal
    cover set its mask, right side, nonzero base coefficients outside the
    cover as ``(item, coeff)`` pairs, maximal increment masks and lifting."""
    rows = []
    for cover_mask in minimal_cover_sets(weights, capacity):
        _, maximal, lift = independent_set_masks(cover_mask, weights, capacity)
        base = tuple(
            (i, c)
            for i, c in enumerate(lift.item_coeffs)
            if c and not cover_mask >> i & 1
        )
        rows.append((cover_mask, bin(cover_mask).count("1") - 1, base, tuple(maximal), lift))
    return tuple(rows)


def separate_bruteforce(
    weights: Sequence[int], capacity: int, xhat: Sequence[Fraction]
) -> tuple[Fraction, tuple[tuple[int, ...], int] | None]:
    """Most violated lifted cover inequality over explicit enumeration.

    Walks every minimal cover set and every maximal increment set, forms the
    lifted inequality and returns the best violation with its cut (or a
    non-positive violation and ``None`` when nothing is violated).  The
    point is summed in integers, scaled by the common denominator of its
    entries.
    """
    n = len(weights)
    if n > 12:
        raise TooLarge(f"{n} items exceed the exhaustive separation guard 12")
    xs = [Fraction(v) for v in xhat]
    scale = lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (scale // x.denominator) for x in xs]
    xsum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        xsum[mask] = xsum[mask ^ low] + ints[low.bit_length() - 1]
    best = 0
    best_pair = None
    for cover_mask, rhs, base_coeffs, maximal, lift in _separation_table(
        tuple(weights), capacity
    ):
        base = xsum[cover_mask] + sum(c * ints[i] for i, c in base_coeffs) - rhs * scale
        for s_mask in maximal:
            value = base + xsum[s_mask]
            if value > best:
                best, best_pair = value, (cover_mask, s_mask, lift)
    best_cut = None if best_pair is None else lifted_cut_of_sets(*best_pair, n)
    return Fraction(best, scale), best_cut


def class_members(
    wc: WeightClasses, cover_counts: Sequence[int], indep_counts: Sequence[int]
):
    """Explicit (cover set, increment set) pairs of one equivalence class."""
    per_class = []
    for group, c, s in zip(wc.members, cover_counts, indep_counts):
        choices = []
        for c_sel in combinations(group, c):
            rest = [i for i in group if i not in c_sel]
            for s_sel in combinations(rest, s):
                choices.append((c_sel, s_sel))
        per_class.append(choices)
    for combo in product(*per_class):
        cover = frozenset(i for c_sel, _ in combo for i in c_sel)
        indep = frozenset(i for _, s_sel in combo for i in s_sel)
        yield cover, indep
