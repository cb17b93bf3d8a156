import random
import time

from sparseknap import (
    CoverClass,
    class_profile,
    compute_lifting,
    first_minimal_cover,
    is_cover,
    is_minimal_cover,
    iter_minimal_cover_classes,
    normalize,
)
from sparseknap.covers import CoverCursor
from sparseknap.oracle import minimal_covers_bruteforce

from conftest import random_valid_instance

W12 = class_profile(normalize([1, 1, 1, 1, 1, 2, 2, 2, 2, 2], 10))
W35 = class_profile(normalize([3, 3, 5, 5], 8))


def test_is_cover_examples():
    assert is_cover((3, 4), W12, 10)
    assert not is_cover((0, 0), W12, 10)
    assert not is_cover((2, 0), W35, 8)


def test_is_minimal_cover_examples():
    assert is_minimal_cover((3, 4), W12, 10)
    assert not is_minimal_cover((1, 2), W35, 8)
    assert is_minimal_cover((0, 2), W35, 8)


def test_first_minimal_cover_small_cases():
    first = first_minimal_cover(W12, 10)
    assert first is not None and is_minimal_cover(first.counts, W12, 10)
    # heavy items cover quickly in the reversed direction of this instance
    assert first.counts == (1, 5)

    single = class_profile(normalize([4, 4, 4], 8))
    assert first_minimal_cover(single, 8).counts == (8 // 4 + 1,)

    first35 = first_minimal_cover(W35, 8)
    assert first35.counts in {(2, 1), (0, 2)}
    assert is_minimal_cover(first35.counts, W35, 8)


def test_first_matches_cursor_in_both_directions():
    rng = random.Random(17)
    for _ in range(60):
        k = random_valid_instance(rng)
        wc = class_profile(k)
        for reverse in (False, True):
            cursor_first = next(iter(CoverCursor(wc, k.capacity, reverse=reverse)), None)
            assert first_minimal_cover(wc, k.capacity, reverse=reverse) == cursor_first


def test_enumeration_w35_sequence():
    seq = [c.counts for c in iter_minimal_cover_classes(W35, 8)]
    assert seq == [(0, 2), (2, 1)]  # auto-reversed: items weigh at most twice the capacity


def test_enumeration_ones_plus_double():
    k = normalize([1, 1, 1, 1, 1, 2], 3)
    wc = class_profile(k)
    classes = {c.counts for c in iter_minimal_cover_classes(wc, 3)}
    assert classes == {(4, 0), (2, 1)}
    # same family at another capacity: k+1 ones, or k-1 ones plus the two
    for cap in (2, 4, 5):
        big = normalize([1] * (cap + 4) + [2], cap)
        found = {c.counts for c in iter_minimal_cover_classes(class_profile(big), cap)}
        assert found == {(cap + 1, 0), (cap - 1, 1)}


def test_enumeration_single_class():
    wc = class_profile(normalize([4, 4, 4], 8))
    assert [c.counts for c in iter_minimal_cover_classes(wc, 8)] == [(3,)]


def test_enumeration_direction_yields_same_set():
    rng = random.Random(23)
    for _ in range(40):
        k = random_valid_instance(rng)
        wc = class_profile(k)
        fwd = [c.counts for c in iter_minimal_cover_classes(wc, k.capacity, reverse=False)]
        rev = [c.counts for c in iter_minimal_cover_classes(wc, k.capacity, reverse=True)]
        assert sorted(fwd) == sorted(rev)
        # the heaviest class changes slowest; the golden digests depend on it
        assert fwd == sorted(fwd, key=lambda t: t[::-1])
        assert len(fwd) == len(set(fwd)), "classes must not repeat"
        assert fwd == list(reversed(rev))


def test_enumeration_work_is_bounded_per_class():
    # 21^5 rest tuples hold only 271 minimal covers; a walk over all of
    # them takes minutes, one that opens only fruitful branches milliseconds
    wc = class_profile(normalize([w for w in range(10, 16) for _ in range(20)], 60))
    start = time.perf_counter()
    fwd = [c.counts for c in iter_minimal_cover_classes(wc, 60, reverse=False)]
    rev = [c.counts for c in iter_minimal_cover_classes(wc, 60, reverse=True)]
    assert len(fwd) == len(rev) == 271
    assert fwd == list(reversed(rev))
    assert all(is_minimal_cover(counts, wc, 60) for counts in fwd)
    assert time.perf_counter() - start < 2.0


def test_first_class_with_many_weight_classes():
    weights = list(range(1000, 2500))
    k = normalize(weights, sum(weights) // 2)
    wc = class_profile(k)
    for reverse in (False, True):
        first = first_minimal_cover(wc, k.capacity, reverse=reverse)
        assert is_minimal_cover(first.counts, wc, k.capacity)
        assert first == next(CoverCursor(wc, k.capacity, reverse=reverse))


def test_enumeration_matches_oracle_on_random_instances():
    rng = random.Random(31)
    for _ in range(120):
        k = random_valid_instance(rng, n_max=14, sigma_max=4)
        if k.n > 14:
            continue
        wc = class_profile(k)
        mine = {c.counts for c in iter_minimal_cover_classes(wc, k.capacity)}
        truth = minimal_covers_bruteforce(k.weights, k.capacity, wc)
        assert mine == truth, (k.weights, k.capacity)
        for counts in mine:
            assert is_minimal_cover(counts, wc, k.capacity)


def test_cover_class_rhs():
    c = CoverClass((3, 4))
    assert c.cardinality == 7 and c.rhs == 6


def test_lifting_fig5(fig5_view):
    wc, capacity = fig5_view
    lift = compute_lifting(CoverClass((0, 2, 0)), wc, capacity)
    assert lift.heavy_sums[:4] == (0, 3, 6, 6)
    assert lift.surplus == 3
    assert lift.base_coeffs[0] == 0  # weight 1 below the heaviest cover item
    assert lift.base_coeffs[2] == 1  # weight 4 dominates one cover item, not two


def test_lifting_w35():
    lift = compute_lifting(CoverClass((2, 1)), W35, 8)
    assert lift.heavy_sums[:5] == (0, 5, 8, 11, 11)
    assert lift.surplus == 3
    assert lift.base_coeffs == (0, 1)


def test_lifting_zero_prefix():
    rng = random.Random(47)
    for _ in range(30):
        k = random_valid_instance(rng)
        wc = class_profile(k)
        for cover in iter_minimal_cover_classes(wc, k.capacity):
            lift = compute_lifting(cover, wc, k.capacity)
            assert lift.heavy_sums[0] == 0
            assert lift.surplus >= 1
            diffs = [
                lift.heavy_sums[h + 1] - lift.heavy_sums[h]
                for h in range(len(lift.heavy_sums) - 1)
            ]
            assert all(d >= 0 for d in diffs)
            assert all(diffs[h + 1] <= diffs[h] for h in range(len(diffs) - 1)), \
                "prefix sums of a descending sort must be concave"
            coeffs = lift.base_coeffs
            for ja in range(wc.sigma):
                for jb in range(ja + 1, wc.sigma):
                    assert coeffs[ja] <= coeffs[jb], "coefficients follow weight order"
            break  # one cover per instance keeps this quick


def test_lifting_on_raw_view_with_oversized_weight(fig5_view):
    # the raw class view accepts data that normalize() would refuse
    wc, capacity = fig5_view
    assert wc.sizes == (1, 3, 1)
    lift = compute_lifting(CoverClass((0, 2, 0)), wc, capacity)
    assert lift.base_coeffs == (0, 1, 1)
