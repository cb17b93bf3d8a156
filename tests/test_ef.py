import random
from pathlib import Path

import pytest

from sparseknap import (
    CoverClass,
    OrbisackSpec,
    apply,
    assemble_cut,
    class_ef,
    class_profile,
    compute_lifting,
    ef_membership,
    enumerate_orbisack_lcis,
    insertion_network,
    iter_minimal_cover_classes,
    membership_certificates,
    normalize,
    oddeven_network,
    orbisack_ef,
    orbisack_point_check,
    parse_lp,
    promote_point,
    satisfies,
    violation,
    write_lp,
)
from sparseknap.errors import TooLarge
from sparseknap.oracle import class_members, maximal_indep_bruteforce

from conftest import random_fraction_point, random_valid_instance

GOLDEN = Path(__file__).parent / "data" / "class_ef_pair.lp"


def test_class_ef_two_item_single_class():
    k = normalize([4, 4], 5)
    model = class_ef(k, CoverClass((2,)), (0,))
    assert model.var_count() == 4  # two copies of two items
    names = [row.name for row in model.constraints]
    assert names[-1] == "lifted_cover"
    assert len(names) == 6  # five comparator rows plus the cut
    cut = model.constraints[-1]
    assert dict(cut.terms) == {"x1_1": 1, "x1_2": 1}
    assert cut.rhs == 1


def test_class_ef_singleton_class_copies_only():
    k = normalize([2, 5, 5], 7)
    model = class_ef(k, CoverClass((0, 2)), (1, 0))
    # depth 1: the singleton class contributes one copy row per step
    copies = [row for row in model.constraints if row.name.startswith("s1_cp")]
    assert [row.name for row in copies] == ["s1_cp1"]


def test_class_ef_w35_cut_row_all_ones():
    k = normalize([3, 3, 5, 5], 8)
    model = class_ef(k, CoverClass((2, 1)), (0, 0))
    cut = model.constraints[-1]
    assert sorted(cut.terms) == [(f"x1_{i}", 1) for i in range(1, 5)]
    assert cut.rhs == 2


def test_class_ef_golden_file():
    k = normalize([3, 3, 5, 5], 8)
    model = class_ef(k, CoverClass((2, 1)), (0, 0))
    text = write_lp(model)
    assert text == GOLDEN.read_text()
    assert write_lp(parse_lp(text)) == text


def test_class_ef_size_matches_comparator_count():
    rng = random.Random(6)
    for network, builder in (("oddeven", oddeven_network), ("insertion", insertion_network)):
        for _ in range(10):
            k = random_valid_instance(rng, n_max=12)
            wc = class_profile(k)
            cover = next(iter(iter_minimal_cover_classes(wc, k.capacity)))
            model = class_ef(k, cover, (0,) * wc.sigma, network=network)
            nets = [builder(size) for size in wc.sizes]
            depth = max(net.size for net in nets)
            assert model.var_count() == k.n * (depth + 1)
            comparator_rows = 5 * sum(min(net.size, depth) for net in nets)
            copy_rows = sum(
                (depth - net.size) * len(group) + net.size * (len(group) - 2)
                for net, group in zip(nets, wc.members)
            )
            assert model.row_count() == comparator_rows + copy_rows + 1
    # odd-even comparator totals stay within the known c * m * log^2 m bound
    import math

    for m in range(2, 200):
        size = oddeven_network(m).size
        bound = math.ceil(m * (math.log2(m) + 1) ** 2 / 2)
        assert size <= bound


def test_trace_point_is_feasible_in_class_model():
    rng = random.Random(15)
    for _ in range(15):
        k = random_valid_instance(rng, n_max=8)
        wc = class_profile(k)
        cover = next(iter(iter_minimal_cover_classes(wc, k.capacity)))
        lift = compute_lifting(cover, wc, k.capacity)
        indep = sorted(maximal_indep_bruteforce(cover.counts, lift, wc))[0]
        model = class_ef(k, cover, indep)
        xs = promote_point(random_fraction_point(rng, k.n))
        depth = max(
            (len(model.variables) // k.n) - 1, 0
        )
        assignment = {}
        for j, group in enumerate(wc.members):
            net = oddeven_network(len(group))
            out, phi = apply(net, [xs[i] for i in group])
            for local, item in enumerate(group):
                for step in range(depth + 1):
                    wire = phi[local][min(step, net.size)]
                    assignment[f"x{step}_{item + 1}"] = None  # filled below
            for local, item in enumerate(group):
                value = xs[item]
                for step in range(depth + 1):
                    wire = phi[local][min(step, net.size)]
                    target = group[wire]
                    assignment[f"x{step}_{target + 1}"] = value
        # drop the cut row: the trace point must satisfy the sorting rows
        rows = model.constraints[:-1]
        from sparseknap.linmodel import LinearModel

        sorting_only = LinearModel(name="check")
        for var in model.variables:
            sorting_only.add_var(var.name, var.lb, var.ub)
        for row in rows:
            sorting_only.add_constraint(row.name, row.terms, row.sense, row.rhs)
        assert satisfies(sorting_only, assignment)
        # and it satisfies the cut row exactly when membership holds
        cut = model.constraints[-1]
        value = sum(coeff * assignment[name] for name, coeff in cut.terms)
        assert (value <= cut.rhs) == ef_membership(k, cover, indep, xs)


def test_ef_membership_examples():
    k = normalize([3, 3, 5, 5], 8)
    assert not ef_membership(k, CoverClass((2, 1)), (0, 0), [0.9, 0.4, 0.8, 0.7])
    assert ef_membership(k, CoverClass((2, 1)), (0, 0), [0, 0, 0, 0])
    assert ef_membership(k, CoverClass((2, 1)), (0, 0), [1, 0, 1, 0])


def test_ef_membership_matches_explicit_members():
    rng = random.Random(21)
    done = 0
    while done < 40:
        k = random_valid_instance(rng, n_max=9)
        wc = class_profile(k)
        covers = list(iter_minimal_cover_classes(wc, k.capacity))
        cover = covers[rng.randrange(len(covers))]
        lift = compute_lifting(cover, wc, k.capacity)
        tuples = sorted(maximal_indep_bruteforce(cover.counts, lift, wc))
        indep = tuples[rng.randrange(len(tuples))]
        if rng.random() < 0.5 and sum(indep) > 0:
            # sub-tuples stay independent; membership must hold for them too
            j = rng.choice([j for j, s in enumerate(indep) if s > 0])
            indep = indep[:j] + (indep[j] - 1,) + indep[j + 1 :]
        from math import comb

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


def test_membership_certificates_verify():
    k = normalize([3, 3, 5, 5], 8)
    certs = membership_certificates(k, CoverClass((2, 1)), (0, 0), [0.9, 0.4, 0.8, 0.7])
    assert len(certs) == 2
    xs = promote_point([0.9, 0.4, 0.8, 0.7])
    total = sum(c.objective for c in certs)
    # per-class minima sum to the membership left side, here 2.8 > rhs 2
    assert total == sum(xs)


def test_orbisack_ef_counts_n3():
    model = orbisack_ef(OrbisackSpec(n=3, max_rows=3))
    x_vars = [v for v in model.variables if v.name.startswith("x")]
    y_vars = [v for v in model.variables if v.name.startswith("y")]
    assert len(x_vars) == 6 and len(y_vars) == 1
    by_kind = {}
    for row in model.constraints:
        by_kind.setdefault(row.name[:3], []).append(row)
    assert len(by_kind["ylb"]) == 1 and len(by_kind["yub"]) == 1
    lex_rows = [row for row in model.constraints if row.name.startswith("lex")]
    assert len(lex_rows) == 3  # head row plus pivots 2 and 3


def test_orbisack_ef_n2_and_truncation():
    model = orbisack_ef(OrbisackSpec(n=2, max_rows=2))
    assert not any(v.name.startswith("y") for v in model.variables)
    names = [row.name for row in model.constraints]
    assert names == ["lex1", "lex2"]

    floor = orbisack_ef(OrbisackSpec(n=5, max_rows=1))
    assert [row.name for row in floor.constraints] == ["lex1"]
    assert not any(v.name.startswith("y") for v in floor.variables)
    assert floor.notes  # truncation recorded in the emitted comments


def test_orbisack_point_check_examples():
    spec = OrbisackSpec(n=3, max_rows=3)
    assert orbisack_point_check(spec, [[1, 0], [0, 1], [0, 1]])
    assert orbisack_point_check(spec, [[1, 1], [0, 0], [1, 1]])
    assert not orbisack_point_check(spec, [[0, 0], [0, 1], [0, 0]])


def test_orbisack_counts():
    for n in range(1, 11):
        assert len(enumerate_orbisack_lcis(n)) == 2 ** (n - 1)
    with pytest.raises(TooLarge):
        enumerate_orbisack_lcis(21)


def test_orbisack_cuts_match_lex_order_n4():
    n = 4
    cuts = enumerate_orbisack_lcis(n)
    spec = OrbisackSpec(n=n, max_rows=n)
    for a in range(1 << n):
        for b in range(1 << n):
            matrix = [[a >> (n - 1 - i) & 1, b >> (n - 1 - i) & 1] for i in range(n)]
            lex = a >= b
            assert orbisack_point_check(spec, matrix) == lex
            assert all(c.lhs(matrix) <= c.rhs for c in cuts) == lex


def test_orbisack_lp_round_trip():
    model = orbisack_ef(OrbisackSpec(n=4, max_rows=3))
    text = write_lp(model)
    assert write_lp(parse_lp(text)) == text
