"""Extended formulations whose projections enforce whole families of cuts.

For one cover/increment class pair, the emitted model carries a copy of the
variable vector per comparison step; each step constrains the two compared
entries of one weight class so that the sorted copy is always feasible, and
a single rank-coefficient row on the last copy then dominates every member
inequality of the class (the input copy stays free, so the system can be
added to any formulation).  Membership of a fixed point is decided without
the model: sort per class, evaluate the rank row, and certify optimality of
the sorted run with the network's dual certificate.

The two-column lexicographic-order polytope gets its own tailored system:
one auxiliary variable per middle row replaces the per-row choice of which
column entry witnesses the order, giving linearly many rows instead of the
2^(n-1) explicit cuts that the enumerator below can still produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .covers import CoverClass, LiftingData, compute_lifting
from .errors import TooLarge
from .knapsack import Knapsack, WeightClasses, check_tuple_bounds, promote_point
from .linmodel import LinearModel
from .networks import ComparisonNetwork, DualCertificate, dual_certificate, insertion_network, oddeven_network
from .separation import ladder_value, point_order, rank_coefficients

NETWORK_BUILDERS: dict[str, Callable[[int], ComparisonNetwork]] = {
    "oddeven": oddeven_network,
    "insertion": insertion_network,
}


def _resolve_lift(
    k: Knapsack, cover: CoverClass, indep: Sequence[int]
) -> tuple[WeightClasses, LiftingData]:
    wc = k.classes()
    check_tuple_bounds(cover.counts, wc)
    check_tuple_bounds(
        [c + s for c, s in zip(cover.counts, indep)], wc
    )
    return wc, compute_lifting(cover, wc, k.capacity)


def class_ef(
    k: Knapsack,
    cover: CoverClass,
    indep: Sequence[int],
    network: str = "oddeven",
) -> LinearModel:
    """Model enforcing every member inequality of one equivalence class.

    Variables ``x{step}_{item}`` (1-based items) in [0, 1] for steps
    ``0..K``; per step, sorting constraints of the step's comparator in each
    weight class (classes whose network is shorter just copy), and one final
    rank-coefficient row bounding the last copy.
    """
    wc, lift = _resolve_lift(k, cover, indep)
    builder = NETWORK_BUILDERS[network]
    nets = [builder(size) for size in wc.sizes]
    depth = max((net.size for net in nets), default=0)
    n = k.n

    model = LinearModel(name=f"class_ef_{network}")
    model.notes.append(
        "cover counts " + ",".join(map(str, cover.counts))
        + "; increment counts " + ",".join(map(str, indep))
    )
    for step in range(depth + 1):
        for item in range(n):
            model.add_var(f"x{step}_{item + 1}", 0, 1)

    def var(step: int, item: int) -> str:
        return f"x{step}_{item + 1}"

    for step in range(1, depth + 1):
        for j, net in enumerate(nets):
            group = wc.members[j]
            if step <= net.size:
                a, b = net.comparators[step - 1]
                p, q = group[a], group[b]
                tag = f"s{step}_c{j + 1}"
                model.add_constraint(
                    f"{tag}_keepu", [(var(step - 1, p), 1), (var(step, p), -1)], ">=", 0
                )
                model.add_constraint(
                    f"{tag}_swapu", [(var(step - 1, q), 1), (var(step, p), -1)], ">=", 0
                )
                model.add_constraint(
                    f"{tag}_swapl", [(var(step - 1, p), -1), (var(step, q), 1)], ">=", 0
                )
                model.add_constraint(
                    f"{tag}_keepl", [(var(step - 1, q), -1), (var(step, q), 1)], ">=", 0
                )
                model.add_constraint(
                    f"{tag}_mass",
                    [
                        (var(step - 1, p), -1),
                        (var(step - 1, q), -1),
                        (var(step, p), 1),
                        (var(step, q), 1),
                    ],
                    "=",
                    0,
                )
                copied = {p, q}
            else:
                copied = set()
            for item in group:
                if item not in copied:
                    model.add_constraint(
                        f"s{step}_cp{item + 1}",
                        [(var(step, item), 1), (var(step - 1, item), -1)],
                        "=",
                        0,
                    )

    ladders = rank_coefficients(cover.counts, indep, lift, wc)
    terms = []
    for j, group in enumerate(wc.members):
        for rank, item in enumerate(group):
            coeff = ladders[j][rank]
            if coeff:
                terms.append((var(depth, item), coeff))
    model.add_constraint("lifted_cover", terms, "<=", cover.rhs)
    return model


def ef_membership(
    k: Knapsack, cover: CoverClass, indep: Sequence[int], xhat: Sequence
) -> bool:
    """Does the point satisfy every member inequality of the class?

    Decided by sorting each weight class and evaluating the rank row: the
    sorted run minimizes the row over the model anchored at the point, so
    the answer matches feasibility of the model with the input copy pinned.
    """
    wc, lift = _resolve_lift(k, cover, indep)
    prefix = point_order(xhat, wc).prefix
    return ladder_value(cover.counts, indep, lift, prefix) <= cover.rhs


def membership_certificates(
    k: Knapsack,
    cover: CoverClass,
    indep: Sequence[int],
    xhat: Sequence,
    network: str = "oddeven",
) -> list[DualCertificate]:
    """Per-class optimality certificates backing :func:`ef_membership`."""
    wc, lift = _resolve_lift(k, cover, indep)
    xs = promote_point(xhat, k.n)
    ladders = rank_coefficients(cover.counts, indep, lift, wc)
    builder = NETWORK_BUILDERS[network]
    out = []
    for j, group in enumerate(wc.members):
        net = builder(len(group))
        out.append(
            dual_certificate(net, [xs[i] for i in group], ladders[j])
        )
    return out


# ---------------------------------------------------------------------------
# Two-column lexicographic order (orbisack) systems.
# ---------------------------------------------------------------------------

ORBISACK_ENUM_GUARD = 20


@dataclass(frozen=True)
class OrbisackSpec:
    """Row count and the row limit up to which order cuts are emitted."""

    n: int
    max_rows: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one row")
        if self.max_rows < 1:
            raise ValueError("row limit must be at least 1")


@dataclass(frozen=True)
class OrbisackCut:
    """One lifted order cut over an n x 2 binary matrix.

    ``col1[i] * x[i][0] + col2[i] * x[i][1]`` summed over rows, bounded by
    ``rhs``; ``pattern[r]`` records which column row ``2 + r`` contributes.
    """

    col1: tuple[int, ...]
    col2: tuple[int, ...]
    rhs: int
    istar: int
    pattern: tuple[int, ...]

    def lhs(self, matrix: Sequence[Sequence[int]]) -> int:
        return sum(
            c1 * row[0] + c2 * row[1]
            for c1, c2, row in zip(self.col1, self.col2, matrix)
        )


def orbisack_ef(spec: OrbisackSpec) -> LinearModel:
    """Compact system whose binary points are the lexicographically ordered
    matrices, with order cuts emitted only up to the row limit."""
    n, limit = spec.n, spec.max_rows
    model = LinearModel(name=f"orbisack_ef_{n}")
    if limit < n:
        model.notes.append(
            f"order cuts truncated to the first {limit} rows; keep only for"
            " symmetry handling, not as a model constraint"
        )
    for i in range(1, n + 1):
        model.add_var(f"x{i}_1", 0, 1)
        model.add_var(f"x{i}_2", 0, 1)
    y_top = min(n - 1, limit - 1)
    for i in range(2, y_top + 1):
        model.add_var(f"y{i}", -1, 0)
    for i in range(2, y_top + 1):
        model.add_constraint(f"ylb{i}", [(f"x{i}_1", -1), (f"y{i}", -1)], "<=", 0)
        model.add_constraint(f"yub{i}", [(f"x{i}_2", 1), (f"y{i}", -1)], "<=", 1)
    model.add_constraint("lex1", [("x1_1", -1), ("x1_2", 1)], "<=", 0)
    for istar in range(2, min(n, limit) + 1):
        terms = [
            ("x1_1", -1),
            ("x1_2", 1),
            (f"x{istar}_1", -1),
            (f"x{istar}_2", 1),
        ]
        terms += [(f"y{i}", 1) for i in range(2, istar)]
        model.add_constraint(f"lex{istar}", terms, "<=", 0)
    return model


def orbisack_point_check(spec: OrbisackSpec, matrix: Sequence[Sequence[int]]) -> bool:
    """Can the binary matrix be completed to satisfy the compact system?

    The auxiliaries appear with positive sign in every order row, so setting
    each to its forced lower bound ``max(x[i][1] - 1, -x[i][0])`` is optimal;
    the rows are then checked directly.
    """
    n, limit = spec.n, spec.max_rows
    if len(matrix) != n:
        raise ValueError(f"matrix has {len(matrix)} rows, spec says {n}")
    for row in matrix:
        if len(row) != 2 or any(v not in (0, 1) for v in row):
            raise ValueError("matrix entries must be binary pairs")
    if matrix[0][1] - matrix[0][0] > 0:
        return False
    y = {i: max(matrix[i - 1][1] - 1, -matrix[i - 1][0]) for i in range(2, n + 1)}
    head = matrix[0][1] - matrix[0][0]
    for istar in range(2, min(n, limit) + 1):
        value = head + matrix[istar - 1][1] - matrix[istar - 1][0]
        value += sum(y[i] for i in range(2, istar))
        if value > 0:
            return False
    return True


def enumerate_orbisack_lcis(n: int) -> list[OrbisackCut]:
    """All lifted order cuts of the n-row two-column matrix, explicitly.

    One head cut plus, per pivot row and per pattern of the rows in between,
    a cut whose right side discounts the rows contributing their first
    column; 2^(n-1) cuts in total.
    """
    if n > ORBISACK_ENUM_GUARD:
        raise TooLarge(f"{n} rows mean 2^{n - 1} cuts; guard is {ORBISACK_ENUM_GUARD}")
    cuts = []
    col1 = [0] * n
    col2 = [0] * n
    col1[0], col2[0] = -1, 1
    cuts.append(OrbisackCut(tuple(col1), tuple(col2), 0, 1, ()))
    for istar in range(2, n + 1):
        middle = istar - 2  # rows 2 .. istar-1
        for bits in range(1 << middle):
            pattern = tuple(1 if bits >> r & 1 else 2 for r in range(middle))
            col1 = [0] * n
            col2 = [0] * n
            col1[0], col2[0] = -1, 1
            col1[istar - 1], col2[istar - 1] = -1, 1
            first_count = 0
            for r, col in enumerate(pattern):
                row = 2 + r
                if col == 1:
                    col1[row - 1] = -1
                    first_count += 1
                else:
                    col2[row - 1] = 1
            cuts.append(
                OrbisackCut(
                    tuple(col1), tuple(col2), istar - first_count - 2, istar, pattern
                )
            )
    return cuts
