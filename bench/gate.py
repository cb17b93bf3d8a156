"""Oracle gate: exhaustive ground truth on small instances, never timed.

Separation is checked at tolerance 0 against ``oracle.separate_bruteforce``
(the top violation must match exactly) and every reported cut against
``oracle.cut_valid``, with the bound groups where an instance has them.
Class-model membership is checked against the explicit member inequalities
of ``oracle.class_members``, each built by the oracle's own lifting.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sparseknap as sk
from sparseknap import oracle

# instances on which the conservative jump pruning misses increment-set
# classes, so the exact fallback must run (the pair in the test suite's
# cross-checks)
LOSSY_INSTANCES = (
    ((19, 16, 16, 19, 19, 26, 26, 16), 41),
    ((26, 22, 26, 22, 22, 18, 26, 22, 22, 18), 41),
)
SMALL_INSTANCES = 8
POINTS_PER_INSTANCE = 3
MEMBERSHIP_CASES = 60


def _small_instance(rng: random.Random, n_max: int):
    """A valid knapsack with 2-3 weight classes and random bound groups."""
    while True:
        n = rng.randint(6, n_max)
        values = rng.sample(range(5, 40), rng.randint(2, 3))
        weights = [rng.choice(values) for _ in range(n)]
        if len(set(weights)) < 2:
            continue
        capacity = rng.randint(max(weights), sum(weights) - 1)
        k = sk.normalize(weights, capacity)
        items = list(range(n))
        rng.shuffle(items)
        groups = []
        while items:
            size = rng.randint(1, 3)
            groups.append(tuple(sorted(items[:size])))
            items = items[size:]
        return k, tuple(groups)


def separation_cases(seed: int):
    """(knapsack, groups or None, point) tuples for the gate."""
    rng = random.Random(f"gate-separation-{seed}")
    instances = [(sk.normalize(list(w), c), None) for w, c in LOSSY_INSTANCES]
    instances += [_small_instance(rng, 12) for _ in range(SMALL_INSTANCES)]
    for k, groups in instances:
        for _ in range(POINTS_PER_INSTANCE):
            yield k, groups, [rng.random() for _ in range(k.n)]


def check_separation(k, groups, point) -> str | None:
    """None when the library agrees with the oracle, else what differs."""
    xs = [Fraction(v) for v in point]
    exact = sk.SeparateOptions(tolerance=Fraction(0))
    result = sk.separate(k, xs, opts=exact)
    top = result.cuts[0].violation if result.cuts else Fraction(0)
    truth, _ = oracle.separate_bruteforce(list(k.weights), k.capacity, xs)
    if top != truth:
        return f"top violation {top} != oracle {truth} on {k}"
    for cut in result.cuts:
        if not oracle.cut_valid(cut.coeffs, cut.rhs, k.weights, k.capacity):
            return f"invalid cut {cut.coeffs} <= {cut.rhs} on {k}"
    if groups is not None:
        for cut in sk.separate(k, xs, gubs=groups, opts=exact).cuts:
            if not oracle.cut_valid(cut.coeffs, cut.rhs, k.weights, k.capacity, groups):
                return f"invalid group cut {cut.coeffs} <= {cut.rhs} on {k}, {groups}"
    return None


def membership_cases(seed: int):
    """(knapsack, cover counts, increment counts, point) tuples on classes
    small enough to list every member."""
    rng = random.Random(f"gate-membership-{seed}")
    for _ in range(MEMBERSHIP_CASES):
        k, _ = _small_instance(rng, 8)
        wc = k.classes()
        covers = sorted(oracle.minimal_covers_bruteforce(k.weights, k.capacity, wc))
        cover = sk.CoverClass(covers[rng.randrange(len(covers))])
        lift = sk.compute_lifting(cover, wc, k.capacity)
        tuples = sorted(oracle.maximal_indep_bruteforce(cover.counts, lift, wc))
        indep = tuples[rng.randrange(len(tuples))]
        # scale the point so that both verdicts occur
        scale = rng.choice((0.3, 0.6, 1.0))
        yield k, cover, indep, [scale * rng.random() for _ in range(k.n)]


def check_membership(k, cover, indep, point) -> str | None:
    wc = k.classes()
    xs = [Fraction(v) for v in point]
    n = k.n
    explicit = True
    for cover_set, indep_set in oracle.class_members(wc, cover.counts, indep):
        cover_mask = sum(1 << i for i in cover_set)
        indep_mask = sum(1 << i for i in indep_set)
        lift = oracle.set_lifting(cover_mask, k.weights, k.capacity)
        coeffs, rhs = oracle.lifted_cut_of_sets(cover_mask, indep_mask, lift, n)
        if sum(c * x for c, x in zip(coeffs, xs)) > rhs:
            explicit = False
            break
    mine = sk.ef_membership(k, cover, indep, xs)
    if mine != explicit:
        return f"membership {mine} != explicit {explicit} for {cover.counts}/{indep} on {k}"
    return None


def run_gate(workload: str, seed: int) -> tuple[int, list[str]]:
    """Number of cases checked and the failures found."""
    if workload == "models":
        cases, check = membership_cases(seed), check_membership
    else:
        cases, check = separation_cases(seed), check_separation
    attempted = 0
    failures = []
    for case in cases:
        attempted += 1
        try:
            problem = check(*case)
        except Exception as exc:  # a raising library call fails the case
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(problem)
    return attempted, failures
