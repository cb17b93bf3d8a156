"""Independent cross-validation beyond the built-in oracle.

The LP checks here hand the emitted models to an external simplex solver
(scipy, skipped when unavailable) and compare pure-combinatorial answers
against actual LP feasibility, closing the loop on the model semantics.
"""

import random
import time
from fractions import Fraction

import pytest

from sparseknap import (
    CoverClass,
    OrbisackSpec,
    SeparateOptions,
    class_ef,
    class_profile,
    compute_lifting,
    ef_membership,
    iter_minimal_cover_classes,
    normalize,
    orbisack_ef,
    orbisack_point_check,
    promote_point,
    separate,
    violation,
)
from sparseknap.covers import CoverCursor
from sparseknap.oracle import maximal_indep_bruteforce, separate_bruteforce

from conftest import LOSSY_INSTANCES, random_fraction_point, random_valid_instance

scipy_linprog = pytest.importorskip("scipy.optimize", reason="LP cross-check needs scipy").linprog


def _model_feasible_with_pins(model, pins: dict[str, float]) -> bool:
    """LP feasibility of the model with some variables fixed, via scipy."""
    names = [v.name for v in model.variables]
    index = {name: i for i, name in enumerate(names)}
    bounds = []
    for v in model.variables:
        if v.name in pins:
            bounds.append((pins[v.name], pins[v.name]))
        else:
            bounds.append((float(v.lb), float(v.ub)))
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in model.constraints:
        dense = [0.0] * len(names)
        for name, coeff in row.terms:
            dense[index[name]] += float(coeff)
        if row.sense == "<=":
            a_ub.append(dense)
            b_ub.append(float(row.rhs))
        elif row.sense == ">=":
            a_ub.append([-c for c in dense])
            b_ub.append(-float(row.rhs))
        else:
            a_eq.append(dense)
            b_eq.append(float(row.rhs))
    res = scipy_linprog(
        c=[0.0] * len(names),
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=bounds,
        method="highs",
    )
    return bool(res.success)


def test_membership_matches_lp_feasibility():
    rng = random.Random(77)
    done = 0
    while done < 30:
        k = random_valid_instance(rng, n_max=7)
        wc = class_profile(k)
        covers = list(iter_minimal_cover_classes(wc, k.capacity))
        cover = covers[rng.randrange(len(covers))]
        lift = compute_lifting(cover, wc, k.capacity)
        tuples = sorted(maximal_indep_bruteforce(cover.counts, lift, wc))
        indep = tuples[rng.randrange(len(tuples))]
        # mix in near-threshold points so both verdicts occur
        xs = [min(1.0, rng.random() * 1.4) for _ in range(k.n)]
        model = class_ef(k, cover, indep)
        pins = {f"x0_{i + 1}": xs[i] for i in range(k.n)}
        lp = _model_feasible_with_pins(model, pins)
        assert lp == ef_membership(k, cover, indep, xs), (k.weights, k.capacity, cover.counts, indep, xs)
        done += 1


def test_orbisack_point_check_matches_lp_feasibility():
    rng = random.Random(78)
    n = 5
    spec = OrbisackSpec(n=n, max_rows=n)
    model = orbisack_ef(spec)
    for _ in range(60):
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        matrix = [[a >> (n - 1 - i) & 1, b >> (n - 1 - i) & 1] for i in range(n)]
        pins = {}
        for i in range(n):
            pins[f"x{i + 1}_1"] = float(matrix[i][0])
            pins[f"x{i + 1}_2"] = float(matrix[i][1])
        assert _model_feasible_with_pins(model, pins) == orbisack_point_check(spec, matrix)


def test_orbisack_truncated_model_accepts_prefix_ordered_points():
    rng = random.Random(79)
    n, limit = 6, 3
    spec = OrbisackSpec(n=n, max_rows=limit)
    model = orbisack_ef(spec)
    for _ in range(40):
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        matrix = [[a >> (n - 1 - i) & 1, b >> (n - 1 - i) & 1] for i in range(n)]
        lp = _model_feasible_with_pins(
            model,
            {
                f"x{i + 1}_{j + 1}": float(matrix[i][j])
                for i in range(n)
                for j in range(2)
            },
        )
        assert lp == orbisack_point_check(spec, matrix)
        # truncation only relaxes: full acceptance implies truncated acceptance
        if orbisack_point_check(OrbisackSpec(n=n, max_rows=n), matrix):
            assert lp



@pytest.mark.parametrize("weights,capacity", LOSSY_INSTANCES)
def test_separation_stays_exact_on_lossy_instances(weights, capacity):
    # the separation fallback must keep the reported optimum exact
    k = normalize(list(weights), capacity)
    wc = class_profile(k)
    saw_inexact = False
    for cover in iter_minimal_cover_classes(wc, k.capacity):
        from sparseknap import IndepSearch

        lift = compute_lifting(cover, wc, k.capacity)
        search = IndepSearch(cover, lift, wc)
        list(search)
        saw_inexact = saw_inexact or not search.exact
    assert saw_inexact, "these instances must exercise the fallback"
    rng = random.Random(4242)
    for _ in range(40):
        xs = promote_point(random_fraction_point(rng, k.n))
        mine = separate(k, xs, opts=SeparateOptions(tolerance=Fraction(0)))
        top = mine.cuts[0].violation if mine.cuts else Fraction(0)
        truth, _ = separate_bruteforce(list(weights), capacity, xs)
        assert top == truth


def test_cover_cursors_are_independent():
    k = normalize([1, 1, 1, 1, 1, 2, 2, 2, 2, 2], 10)
    wc = class_profile(k)
    one = CoverCursor(wc, k.capacity)
    two = CoverCursor(wc, k.capacity)
    first_one = next(one, None)
    # interleaving a second cursor does not disturb the first
    all_two = list(two)
    rest_one = list(one)
    assert [first_one] + rest_one == all_two


def test_large_instance_scales_polynomially():
    rng = random.Random(404)
    weights = [rng.choice((7, 19, 23, 40)) for _ in range(200)]
    capacity = sum(weights) // 3
    k = normalize(weights, capacity)
    wc = class_profile(k)
    t0 = time.perf_counter()
    classes = list(iter_minimal_cover_classes(wc, k.capacity))
    enum_elapsed = time.perf_counter() - t0
    assert classes
    seen = {c.counts for c in classes}
    assert len(seen) == len(classes)
    t0 = time.perf_counter()
    xs = [rng.random() for _ in range(k.n)]
    result = separate(k, xs)
    sep_elapsed = time.perf_counter() - t0
    for cut in result.cuts[:5]:
        assert violation(cut, xs) == cut.violation
        assert cut.violation > 0
    assert enum_elapsed < 5 and sep_elapsed < 60, (enum_elapsed, sep_elapsed)
