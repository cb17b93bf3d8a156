import random
from fractions import Fraction

import pytest

from sparseknap import (
    CoverClass,
    LiftedCut,
    SeparateOptions,
    assemble_cut,
    class_profile,
    compute_lifting,
    ef_membership,
    gub_strengthen,
    iter_minimal_cover_classes,
    ladder_value,
    max_representative,
    normalize,
    point_order,
    promote_point,
    rank_coefficients,
    separate,
    violation,
)
from sparseknap.errors import OverlappingGroups, TupleExceedsClass, UncoveredIndex
from sparseknap.oracle import (
    class_members,
    cut_valid,
    maximal_indep_bruteforce,
    separate_bruteforce,
)
from sparseknap.separation import item_groups

from conftest import random_fraction_point, random_valid_instance

K35 = normalize([3, 3, 5, 5], 8)
W35 = class_profile(K35)
XHAT = [0.9, 0.4, 0.8, 0.7]
ORDER = point_order(XHAT, W35)


def lift_for(counts, wc=W35, capacity=8):
    return compute_lifting(CoverClass(counts), wc, capacity)


def random_groups(rng, n):
    """Random partition of the items into bound groups of 1-3 items."""
    items = list(range(n))
    rng.shuffle(items)
    groups = []
    while items:
        size = min(len(items), rng.randint(1, 3))
        groups.append(tuple(sorted(items[:size])))
        items = items[size:]
    return tuple(groups)


def test_max_representative_prefers_small_values_for_positive_base():
    lift = lift_for((2, 1))
    cover_idx, indep_idx = max_representative((2, 1), (0, 0), lift, ORDER, W35)
    assert indep_idx == ()
    # heavy class has base coefficient 1: the cover picks the smaller 0.7
    assert 3 in cover_idx and 2 not in cover_idx


def test_max_representative_full_class():
    lift = lift_for((2, 1))
    _, indep_idx = max_representative((0, 1), (2, 0), lift, ORDER, W35)
    assert set(indep_idx) == {0, 1}


def test_max_representative_bounds():
    lift = lift_for((2, 1))
    with pytest.raises(TupleExceedsClass):
        max_representative((2, 1), (1, 2), lift, ORDER, W35)


def test_max_representative_dominates_all_members():
    rng = random.Random(3)
    for _ in range(40):
        k = random_valid_instance(rng, n_max=9, sigma_max=3)
        wc = class_profile(k)
        xs = promote_point(random_fraction_point(rng, k.n))
        for cover in iter_minimal_cover_classes(wc, k.capacity):
            lift = compute_lifting(cover, wc, k.capacity)
            tuples = sorted(maximal_indep_bruteforce(cover.counts, lift, wc))
            indep = tuples[rng.randrange(len(tuples))]
            space = 1
            for size, c, s in zip(wc.sizes, cover.counts, indep):
                from math import comb

                space *= comb(size, c) * comb(size - c, s)
            if space > 3000:
                continue
            order = point_order(xs, wc)
            cover_idx, indep_idx = max_representative(cover.counts, indep, lift, order, wc)
            rep = assemble_cut(cover_idx, indep_idx, lift, wc)
            rep_lhs = violation(rep, xs) + rep.rhs
            for c_set, s_set in class_members(wc, cover.counts, indep):
                member = assemble_cut(sorted(c_set), sorted(s_set), lift, wc)
                assert violation(member, xs) + member.rhs <= rep_lhs
            break


def test_rank_coefficients_branches():
    lift = lift_for((2, 1))
    ladders = rank_coefficients((2, 1), (0, 0), lift, W35)
    assert ladders[0] == [0, 1, 1][1:] or ladders[0] == [1, 1]  # zero-base class saturated by the cover
    assert ladders[1] == [1, 1]

    # zero base, single cover pick among three items
    k = normalize([1, 1, 1, 2], 2)
    wc = class_profile(k)
    lift2 = compute_lifting(CoverClass((1, 1)), wc, 2)
    assert lift2.base_coeffs[0] == 0
    ladders2 = rank_coefficients((1, 0), (0, 0), lift2, wc)
    assert ladders2[0] == [0, 0, 1]

    # saturated class with positive base keeps all-ones
    lift3 = compute_lifting(CoverClass((0, 2)), W35, 8)
    ladders3 = rank_coefficients((0, 2), (0, 0), lift3, W35)
    assert ladders3[1] == [1, 1]


def test_rank_coefficients_are_non_decreasing():
    rng = random.Random(7)
    for _ in range(30):
        k = random_valid_instance(rng)
        wc = class_profile(k)
        for cover in iter_minimal_cover_classes(wc, k.capacity):
            lift = compute_lifting(cover, wc, k.capacity)
            for indep in sorted(maximal_indep_bruteforce(cover.counts, lift, wc)):
                for ladder in rank_coefficients(cover.counts, indep, lift, wc):
                    assert all(a <= b for a, b in zip(ladder, ladder[1:]))
            break


def test_assemble_cut_examples():
    k = normalize([1, 1, 1, 2], 2)
    wc = class_profile(k)
    lift = compute_lifting(CoverClass((3, 0)), wc, 2)
    cut = assemble_cut((0, 1, 2), (), lift, wc)
    assert cut.coeffs == (1, 1, 1, 2) and cut.rhs == 2

    lift35 = lift_for((2, 1))
    cut35 = assemble_cut((0, 1, 3), (), lift35, W35)
    assert cut35.coeffs == (1, 1, 1, 1) and cut35.rhs == 2

    # all-zero base and no increment set: plain cover inequality
    lift02 = lift_for((0, 2))
    cut02 = assemble_cut((2, 3), (), lift02, W35)
    assert cut02.coeffs == (0, 0, 1, 1) and cut02.rhs == 1


def test_gub_strengthen_raises_sharing_items():
    k = normalize([1, 1, 1, 2], 2)
    wc = class_profile(k)
    lift = compute_lifting(CoverClass((1, 1)), wc, 2)
    cut = assemble_cut((0, 3), (), lift, wc)
    assert cut.coeffs == (1, 0, 0, 1)
    gubs = ((0, 1), (2,), (3,))
    stronger = gub_strengthen(cut, item_groups(gubs, k.n), (0, 3), (), lift, wc)
    assert stronger.coeffs == (1, 1, 0, 1)
    assert stronger.gub_strengthened
    assert cut_valid(stronger.coeffs, stronger.rhs, k.weights, k.capacity, gubs)
    assert not cut_valid(stronger.coeffs, stronger.rhs, k.weights, k.capacity)


def test_gub_strengthen_no_ops():
    k = normalize([1, 1, 1, 2], 2)
    wc = class_profile(k)
    lift = compute_lifting(CoverClass((1, 1)), wc, 2)
    cut = assemble_cut((0, 3), (), lift, wc)
    singletons = ((0,), (1,), (2,), (3,))
    # nothing rises: the very same cut object comes back
    assert gub_strengthen(cut, item_groups(singletons, k.n), (0, 3), (), lift, wc) is cut

    # positive-base class untouched even when groups overlap it
    lift35 = lift_for((2, 1))
    cut35 = assemble_cut((0, 1, 3), (), lift35, W35)
    grouped = ((0,), (1,), (2, 3))
    assert gub_strengthen(cut35, item_groups(grouped, 4), (0, 1, 3), (), lift35, W35) is cut35


K_GROUPS = normalize([2, 2, 2, 2, 5, 5, 5, 9, 9], 12)


@pytest.mark.parametrize(
    "gubs,error",
    [
        ([[0, 1]], UncoveredIndex),  # items 2..8 in no group
        ([[0, 1, 2, 3], [3, 4], [5, 6, 7, 8]], OverlappingGroups),
        ([[0, 1, 2, 3], [4, 5, 6], [7, 8, 12]], UncoveredIndex),  # no item 12
    ],
)
def test_separate_rejects_bad_bound_groups(gubs, error):
    point = random_fraction_point(random.Random(71), K_GROUPS.n)
    with pytest.raises(error):
        separate(K_GROUPS, point, gubs=gubs)


def test_violation_examples():
    cut = LiftedCut(coeffs=(1, 1, 1, 1), rhs=2, cover=(2, 1), indep=(0, 0))
    assert violation(cut, XHAT) == sum(promote_point(XHAT), Fraction(0)) - 2
    assert violation(cut, [0, 0, 0, 0]) == -2
    assert violation(cut, [1, 1, 0, 0]) == 0


def test_separate_w35():
    res = separate(K35, XHAT)
    assert res.cuts, "expected a violated cut"
    top = res.cuts[0]
    assert top.coeffs == (1, 1, 1, 1) and top.rhs == 2
    assert abs(float(top.violation) - 0.8) < 1e-12
    assert top.cover == (2, 1) and top.indep == (0, 0)


def test_separate_zero_and_binary_points():
    assert separate(K35, [0, 0, 0, 0]).cuts == []
    assert separate(K35, [1, 0, 1, 0]).cuts == []  # feasible binary point


def test_separate_matches_bruteforce_exactly():
    rng = random.Random(19)
    for _ in range(60):
        k = random_valid_instance(rng, n_max=10)
        xs = promote_point(random_fraction_point(rng, k.n))
        res = separate(k, xs, opts=SeparateOptions(tolerance=Fraction(0)))
        mine = res.cuts[0].violation if res.cuts else Fraction(0)
        truth, _ = separate_bruteforce(k.weights, k.capacity, xs)
        assert mine == truth
        assert bool(res.cuts) == (truth > 0)


def test_separate_is_deterministic_and_deduplicated():
    res1 = separate(K35, XHAT)
    res2 = separate(K35, XHAT)
    assert [(c.coeffs, c.rhs, c.violation) for c in res1.cuts] == [
        (c.coeffs, c.rhs, c.violation) for c in res2.cuts
    ]
    keys = [(c.coeffs, c.rhs) for c in res1.cuts]
    assert len(keys) == len(set(keys))
    violations = [c.violation for c in res1.cuts]
    assert violations == sorted(violations, reverse=True)


def test_separate_max_cuts_marks_truncated():
    res = separate(K35, XHAT, opts=SeparateOptions(max_cuts=1))
    assert len(res.cuts) == 1 and res.truncated
    with pytest.raises(ValueError):
        separate(K35, XHAT, opts=SeparateOptions(max_cuts=-1))


def test_separate_deadline_never_wrong():
    res = separate(K35, XHAT, opts=SeparateOptions(deadline_s=0.0))
    assert res.truncated
    for cut in res.cuts:
        assert cut_valid(cut.coeffs, cut.rhs, K35.weights, K35.capacity)


def test_separate_permutation_equivariance_within_class():
    rng = random.Random(37)
    for _ in range(20):
        k = random_valid_instance(rng, n_max=9)
        wc = class_profile(k)
        xs = list(random_fraction_point(rng, k.n))
        base = separate(k, xs, opts=SeparateOptions(tolerance=Fraction(0)))
        permuted = xs[:]
        for group in wc.members:
            order = list(group)
            rng.shuffle(order)
            values = [xs[i] for i in group]
            for slot, value in zip(order, values):
                permuted[slot] = value
        shuffled = separate(k, permuted, opts=SeparateOptions(tolerance=Fraction(0)))
        mine = base.cuts[0].violation if base.cuts else Fraction(0)
        theirs = shuffled.cuts[0].violation if shuffled.cuts else Fraction(0)
        assert mine == theirs


def test_emitted_cuts_are_valid_with_and_without_groups():
    rng = random.Random(53)
    for _ in range(25):
        k = random_valid_instance(rng, n_max=9)
        xs = random_fraction_point(rng, k.n)
        plain = separate(k, xs, opts=SeparateOptions(tolerance=Fraction(0)))
        for cut in plain.cuts:
            assert cut_valid(cut.coeffs, cut.rhs, k.weights, k.capacity)
        groups = random_groups(rng, k.n)
        grouped = separate(k, xs, gubs=groups, opts=SeparateOptions(tolerance=Fraction(0)))
        for cut in grouped.cuts:
            assert cut_valid(cut.coeffs, cut.rhs, k.weights, k.capacity, groups)


def test_reported_violation_is_the_cuts_slack():
    # plain cuts report the pair's ladder excess, group-raised cuts add the
    # raised items' values; both must equal coeffs . x - rhs
    rng = random.Random(61)
    raised = plain = 0
    for _ in range(60):
        k = random_valid_instance(rng, n_max=10)
        point = random_fraction_point(rng, k.n)
        xs = promote_point(point)
        groups = random_groups(rng, k.n)
        for gubs in (None, groups):
            res = separate(k, point, gubs=gubs, opts=SeparateOptions(tolerance=Fraction(0)))
            for cut in res.cuts:
                slack = sum((c * x for c, x in zip(cut.coeffs, xs)), Fraction(0)) - cut.rhs
                assert cut.violation == slack, (k.weights, k.capacity, point, gubs, cut)
                if cut.gub_strengthened:
                    raised += 1
                else:
                    plain += 1
    assert raised > 0 and plain > 0


def test_rank_ladder_agrees_across_scoring_rows_and_membership():
    # the model's cut row (expanded ladders dotted with the class-sorted
    # point), pair scoring and the membership decision read one ladder
    rng = random.Random(67)
    pairs = 0
    for _ in range(40):
        k = random_valid_instance(rng, n_max=10)
        wc = class_profile(k)
        xs = promote_point(random_fraction_point(rng, k.n))
        order = point_order(xs, wc)
        for cover in iter_minimal_cover_classes(wc, k.capacity):
            lift = compute_lifting(cover, wc, k.capacity)
            tuples = sorted(maximal_indep_bruteforce(cover.counts, lift, wc))
            indep = tuples[rng.randrange(len(tuples))]
            ladders = rank_coefficients(cover.counts, indep, lift, wc)
            row = sum(
                (
                    coeff * value
                    for ladder, group in zip(ladders, wc.members)
                    for coeff, value in zip(ladder, sorted(xs[i] for i in group))
                ),
                Fraction(0),
            )
            score = ladder_value(cover.counts, indep, lift, order.prefix)
            assert row == score
            assert ef_membership(k, cover, indep, xs) == (score <= cover.rhs)
            # the representative attains the score
            rep = assemble_cut(*max_representative(cover.counts, indep, lift, order, wc), lift, wc)
            assert violation(rep, xs) + rep.rhs == score
            pairs += 1
    assert pairs > 40
