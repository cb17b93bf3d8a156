"""Acceptance battery.

Each test covers one numbered criterion, enforces its stated tolerance and
time budget, and prints one PASS line (run with ``pytest -s`` to see them;
``-v`` lists one line per criterion either way).
"""

import random
import time
from fractions import Fraction
from math import comb

from sparseknap import (
    CoverClass,
    IndepSearch,
    OrbisackSpec,
    SeparateOptions,
    WeightClasses,
    apply,
    assemble_cut,
    class_profile,
    compute_lifting,
    ef_membership,
    enumerate_orbisack_lcis,
    insertion_network,
    is_minimal_cover,
    is_sorting_network,
    iter_minimal_cover_classes,
    network_from_1based,
    normalize,
    oddeven_network,
    orbisack_point_check,
    promote_point,
    dual_certificate,
    separate,
    violation,
)
from sparseknap.oracle import (
    class_members,
    cut_valid,
    facet_rank,
    is_independent_exact,
    maximal_indep_bruteforce,
    minimal_covers_bruteforce,
    separate_bruteforce,
)

from conftest import random_fraction_point, random_valid_instance


def report(num: int, detail: str) -> None:
    print(f"PASS criterion {num}: {detail}")


def best_of(runs: int, fn):
    best = float("inf")
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_criterion_1_network_replay():
    net = network_from_1based(4, [(1, 2), (3, 4), (1, 3), (2, 4), (2, 3)])
    elapsed, (out, phi) = best_of(5, lambda: apply(net, [4, 2, 1, 3]))
    assert out == [1, 2, 3, 4]
    assert [p + 1 for p in phi[1]] == [2, 1, 1, 3, 3, 2]
    assert elapsed < 0.001, f"replay took {elapsed * 1e3:.3f} ms"
    report(1, f"replay exact, {elapsed * 1e6:.0f} us")


def test_criterion_2_two_weight_classes():
    k = normalize([1, 1, 1, 1, 1, 2], 3)
    wc = class_profile(k)

    def run():
        mine = {c.counts for c in iter_minimal_cover_classes(wc, k.capacity)}
        truth = minimal_covers_bruteforce(k.weights, k.capacity, wc)
        return mine, truth

    elapsed, (mine, truth) = best_of(3, run)
    assert mine == truth == {(4, 0), (2, 1)}
    assert elapsed < 0.010, f"enumeration took {elapsed * 1e3:.3f} ms"
    report(2, f"classes {{(4,0),(2,1)}} confirmed both ways, {elapsed * 1e3:.2f} ms")


def test_criterion_3_accepts_documented_class():
    k = normalize([1, 1, 1, 1, 1, 2, 2, 2, 2, 2], 10)
    wc = class_profile(k)
    elapsed, ok = best_of(5, lambda: is_minimal_cover((3, 4), wc, k.capacity))
    assert ok
    assert elapsed < 0.001, f"check took {elapsed * 1e3:.3f} ms"
    report(3, f"(3,4) accepted as minimal cover class, {elapsed * 1e6:.0f} us")


def test_criterion_4_conservative_boundary_edge_case():
    wc = WeightClasses.from_weights([1, 3, 3, 3, 4])
    capacity = 3
    cover = CoverClass((0, 2, 0))

    def run():
        lift = compute_lifting(cover, wc, capacity)
        search = IndepSearch(cover, lift, wc)
        leaves = [leaf.counts for leaf in search]
        return lift, leaves, search.exact

    t0 = time.perf_counter()
    lift, leaves, exact = run()
    dep = is_independent_exact((1, 1, 0), lift, wc)
    indep = is_independent_exact((1, 0, 1), lift, wc)
    elapsed = time.perf_counter() - t0
    assert (1, 1, 0) not in leaves, "the lossy candidate must be rejected"
    assert (1, 0, 1) not in leaves, "the conservative run must miss this set"
    assert dep is False and indep is True
    assert exact is False, "the per-cover flag must record the lossy pruning"
    assert elapsed < 0.010, f"edge case took {elapsed * 1e3:.3f} ms"
    report(4, f"both documented behaviours reproduced, flag cleared, {elapsed * 1e3:.2f} ms")


def test_criterion_5_separation_equivalence():
    rng = random.Random(20240501)
    t0 = time.perf_counter()
    instances = 0
    points = 0
    while instances < 500:
        k = random_valid_instance(rng, n_max=12, sigma_max=3, weight_max=30)
        instances += 1
        for _ in range(5):
            xs = promote_point(random_fraction_point(rng, k.n))
            mine = separate(k, xs, opts=SeparateOptions(tolerance=Fraction(0)))
            top = mine.cuts[0].violation if mine.cuts else Fraction(0)
            truth, _ = separate_bruteforce(k.weights, k.capacity, xs)
            assert abs(top - truth) <= Fraction(1, 10**9), (k.weights, k.capacity)
            assert bool(mine.cuts) == (truth > 0)
            points += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"suite took {elapsed:.1f} s"
    report(5, f"{instances} instances / {points} points agree exactly, {elapsed:.1f} s")


def test_criterion_6_validity_and_facets():
    rng = random.Random(20240502)
    t0 = time.perf_counter()
    instances = 0
    cuts_checked = 0
    facets_checked = 0
    while instances < 200:
        k = random_valid_instance(rng, n_max=10, sigma_max=3, weight_max=30)
        instances += 1
        for _ in range(2):
            # bias upward so most points violate something
            xs = [rng.random() ** 0.4 for _ in range(k.n)]
            result = separate(k, xs, opts=SeparateOptions(tolerance=Fraction(0)))
            for cut in result.cuts:
                assert cut_valid(cut.coeffs, cut.rhs, k.weights, k.capacity), (
                    k.weights,
                    k.capacity,
                    cut,
                )
                cuts_checked += 1
            for cut in result.cuts[:3]:
                if cut.exact_lifting:
                    assert facet_rank(cut.coeffs, cut.rhs, k.weights, k.capacity) == k.n, (
                        k.weights,
                        k.capacity,
                        cut,
                    )
                    facets_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"suite took {elapsed:.1f} s"
    report(
        6,
        f"{cuts_checked} cuts valid, {facets_checked} facet ranks equal n, {elapsed:.1f} s",
    )


def test_criterion_7_certificates():
    rng = random.Random(20240503)
    t0 = time.perf_counter()
    for trial in range(1000):
        m = rng.randint(1, 16)
        net = oddeven_network(m) if trial % 2 else insertion_network(m)
        xs = [Fraction(rng.randint(0, 64), 64) for _ in range(m)]
        vs = []
        acc = 0
        for _ in range(m):
            acc += rng.randint(0, 5)
            vs.append(acc)
        cert = dual_certificate(net, xs, vs)  # verification happens inside
        assert cert.objective == sum(v * x for v, x in zip(vs, sorted(xs)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"suite took {elapsed:.1f} s"
    report(7, f"1000 certificates verified exactly, {elapsed:.1f} s")


def test_criterion_8_membership_equivalence():
    rng = random.Random(20240504)
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        k = random_valid_instance(rng, n_max=12, sigma_max=3, weight_max=30)
        wc = class_profile(k)
        covers = list(iter_minimal_cover_classes(wc, k.capacity))
        cover = covers[rng.randrange(len(covers))]
        lift = compute_lifting(cover, wc, k.capacity)
        tuples = sorted(maximal_indep_bruteforce(cover.counts, lift, wc))
        indep = tuples[rng.randrange(len(tuples))]
        space = 1
        for size, c, s in zip(wc.sizes, cover.counts, indep):
            space *= comb(size, c) * comb(size - c, s)
        if space > 4000:
            continue
        xs = promote_point(random_fraction_point(rng, k.n))
        explicit = all(
            violation(assemble_cut(sorted(c_set), sorted(s_set), lift, wc), xs) <= 0
            for c_set, s_set in class_members(wc, cover.counts, indep)
        )
        assert ef_membership(k, cover, indep, xs) == explicit
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"suite took {elapsed:.1f} s"
    report(8, f"{done} membership decisions match explicit enumeration, {elapsed:.1f} s")


def test_criterion_9_orbisack_counts_and_points():
    t0 = time.perf_counter()
    for n in range(1, 11):
        assert len(enumerate_orbisack_lcis(n)) == 2 ** (n - 1)
    for n in range(1, 9):
        cuts = enumerate_orbisack_lcis(n)
        spec = OrbisackSpec(n=n, max_rows=n)
        accepted = 0
        for a in range(1 << n):
            for b in range(1 << n):
                matrix = [[a >> (n - 1 - i) & 1, b >> (n - 1 - i) & 1] for i in range(n)]
                check = orbisack_point_check(spec, matrix)
                lex = a >= b
                assert check == lex
                assert all(c.lhs(matrix) <= c.rhs for c in cuts) == lex
                accepted += check
        assert accepted == (1 << n) * ((1 << n) + 1) // 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"suite took {elapsed:.1f} s"
    report(9, f"counts and pointwise agreement up to 8 rows, {elapsed:.1f} s")


def test_criterion_10_zero_one_sorting():
    t0 = time.perf_counter()
    for m in range(1, 13):
        insert = insertion_network(m)
        assert insert.size == m * (m - 1) // 2
        assert is_sorting_network(insert)
        assert is_sorting_network(oddeven_network(m))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"suite took {elapsed:.1f} s"
    report(10, f"both constructions sort all binary inputs up to 12 wires, {elapsed:.1f} s")
