import json
import random

import pytest

from sparseknap import (
    InvalidFractionalPoint,
    Knapsack,
    NonPositiveWeight,
    Overflow,
    OverlappingGroups,
    TrivialKnapsack,
    TupleExceedsClass,
    UncoveredIndex,
    WeightExceedsCapacity,
    class_profile,
    normalize,
    promote_point,
    tuple_weight,
    validate_gubs,
)
from sparseknap.knapsack import INT64_MAX, WeightClasses, load_instance, parse_instance

from conftest import random_valid_instance


def test_normalize_accepts_ten_item_two_weight_instance():
    k = normalize([1, 1, 1, 1, 1, 2, 2, 2, 2, 2], 10)
    assert k.n == 10
    assert k.capacity == 10


def test_normalize_rejects_trivial():
    with pytest.raises(TrivialKnapsack):
        normalize([1], 1)


def test_normalize_accepts_two_weight_instance():
    k = normalize([3, 3, 5, 5], 8)
    assert k.weights == (3, 3, 5, 5)


def test_normalize_error_cases():
    with pytest.raises(NonPositiveWeight):
        normalize([3, 0, 5], 8)
    with pytest.raises(WeightExceedsCapacity):
        normalize([3, 9], 8)
    with pytest.raises(Overflow):
        normalize([INT64_MAX, INT64_MAX], INT64_MAX)


def test_normalize_is_idempotent():
    k = normalize([3, 3, 5, 5], 8)
    again = normalize(k.weights, k.capacity)
    assert again == k


def test_class_profile_two_classes():
    k = normalize([1, 1, 1, 1, 1, 2, 2, 2, 2, 2], 10)
    wc = class_profile(k)
    assert wc.sigma == 2
    assert wc.class_weights == (1, 2)
    assert wc.members == (tuple(range(5)), tuple(range(5, 10)))


def test_class_profile_single_class():
    wc = class_profile(normalize([4, 4, 4], 8))
    assert wc.sigma == 1
    assert wc.members == ((0, 1, 2),)


def test_class_profile_grouping():
    wc = class_profile(normalize([3, 3, 5, 5], 8))
    assert wc.class_weights == (3, 5)
    assert wc.members == ((0, 1), (2, 3))


def test_class_profile_partitions_items():
    rng = random.Random(99)
    for _ in range(25):
        k = random_valid_instance(rng)
        wc = class_profile(k)
        flat = sorted(i for group in wc.members for i in group)
        assert flat == list(range(k.n))
        for w, group in zip(wc.class_weights, wc.members):
            assert all(k.weights[i] == w for i in group)


def test_tuple_weight_examples():
    wc = class_profile(normalize([1, 1, 1, 1, 1, 2, 2, 2, 2, 2], 10))
    assert tuple_weight((3, 4), wc) == 11
    assert tuple_weight((0, 0), wc) == 0
    wc2 = class_profile(normalize([3, 3, 5, 5], 8))
    assert tuple_weight((0, 2), wc2) == 10


def test_tuple_weight_is_linear():
    rng = random.Random(5)
    for _ in range(20):
        k = random_valid_instance(rng)
        wc = class_profile(k)
        t1 = tuple(rng.randint(0, s) for s in wc.sizes)
        t2 = tuple(rng.randint(0, s) for s in wc.sizes)
        total = tuple(a + b for a, b in zip(t1, t2))
        assert tuple_weight(total, wc) == tuple_weight(t1, wc) + tuple_weight(t2, wc)


def test_tuple_weight_overflow():
    wc = WeightClasses(class_weights=(INT64_MAX - 1,), members=((0, 1, 2),))
    with pytest.raises(Overflow):
        tuple_weight((3,), wc)


def test_validate_gubs_examples():
    validate_gubs([[0, 1], [2], [3]], 4)
    with pytest.raises(OverlappingGroups):
        validate_gubs([[0, 1], [1, 2], [3]], 4)
    with pytest.raises(UncoveredIndex):
        validate_gubs([[0], [1]], 3)


def test_promote_point_tolerance():
    xs = promote_point([0.0, 1.0, 1.0000000001, -0.0000000001])
    assert xs[2] == 1 and xs[3] == 0
    with pytest.raises(InvalidFractionalPoint):
        promote_point([1.01])
    with pytest.raises(InvalidFractionalPoint):
        promote_point([-0.01])


@pytest.mark.parametrize(
    "entry", [float("inf"), float("-inf"), float("nan"), True, False, None, "x", "0.5", "1/2"]
)
def test_promote_point_rejects_non_numbers(entry):
    with pytest.raises(InvalidFractionalPoint):
        promote_point([0.5, entry])


def test_instance_files_are_one_based(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"weights": [1, 1, 2], "capacity": 2, "gubs": [[1, 2], [3]]}))
    k, gubs = load_instance(str(path))
    assert isinstance(k, Knapsack)
    assert gubs == ((0, 1), (2,))


def test_parse_instance_requires_keys():
    with pytest.raises(Exception):
        parse_instance({"weights": [1, 2]})


def test_check_tuple_bounds():
    from sparseknap.knapsack import check_tuple_bounds

    wc = class_profile(normalize([3, 3, 5, 5], 8))
    check_tuple_bounds((2, 2), wc)
    with pytest.raises(TupleExceedsClass):
        check_tuple_bounds((3, 0), wc)
