import random

import pytest

from sparseknap import WeightClasses, normalize


def random_valid_instance(rng: random.Random, n_max=12, sigma_max=3, weight_max=30, n_min=3):
    """Seeded random knapsack within the desk-scale envelope."""
    while True:
        n = rng.randint(n_min, n_max)
        sigma = rng.randint(1, sigma_max)
        values = rng.sample(range(1, weight_max + 1), sigma)
        weights = [rng.choice(values) for _ in range(n)]
        lo, hi = max(weights), sum(weights) - 1
        if lo > hi:
            continue
        capacity = rng.randint(lo, hi)
        try:
            return normalize(weights, capacity)
        except Exception:
            continue


# instances found by randomized search where the conservative jump pruning
# genuinely misses increment-set classes, so separation takes its fallback
LOSSY_INSTANCES = (
    ((19, 16, 16, 19, 19, 26, 26, 16), 41),
    ((26, 22, 26, 22, 22, 18, 26, 22, 22, 18), 41),
)


def random_fraction_point(rng: random.Random, n: int):
    return [rng.random() for _ in range(n)]


@pytest.fixture
def fig5_view():
    """Raw class view of the hard-boundary example: weights {1, 3, 4} with
    capacity 3 and multiplicities (1, 3, 1); weight 4 exceeds the capacity,
    so this data never passes normalize()."""
    return WeightClasses.from_weights([1, 3, 3, 3, 4]), 3
