"""Comparison networks: construction, simulation, and dual certificates.

A network is a fixed list of wire pairs; running a vector through it moves
the smaller value of each compared pair to the upper wire, so a sorting
network leaves every input non-decreasing along wires ``0..n-1``.  The trace
records the wire of every entry after each comparison (ties keep the entry
already on the upper wire there).

``dual_certificate`` proves, without any LP solver, that the traced run
minimizes ``sum(v[p] * x_final[p])`` over the comparison polytope of the
network anchored at the input, for any non-decreasing non-negative ``v``:
it assigns exact rational multipliers to every polytope row and re-checks
all reduced dual constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateInfeasible, DimensionMismatch, TooLarge

ZERO_ONE_GUARD = 22


@dataclass(frozen=True)
class ComparisonNetwork:
    """``n`` wires (0-based) and an ordered tuple of comparators ``(i, j)``
    with ``i < j``; one comparison per step."""

    n: int
    comparators: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a network needs at least one wire")
        for k, (i, j) in enumerate(self.comparators):
            if not 0 <= i < j < self.n:
                raise ValueError(f"comparator #{k + 1} = ({i}, {j}) is malformed")

    @property
    def size(self) -> int:
        return len(self.comparators)

    def layers(self) -> tuple[int, ...]:
        """Earliest parallel layer of each comparator (metadata only)."""
        busy = [0] * self.n
        out = []
        for i, j in self.comparators:
            layer = max(busy[i], busy[j]) + 1
            busy[i] = busy[j] = layer
            out.append(layer)
        return tuple(out)


def network_from_1based(n: int, pairs: Sequence[Sequence[int]]) -> ComparisonNetwork:
    """Build a network from 1-based wire pairs (the file convention)."""
    return ComparisonNetwork(n, tuple((i - 1, j - 1) for i, j in pairs))


def network_to_1based(net: ComparisonNetwork) -> list[list[int]]:
    """1-based wire pairs, ready for JSON fixtures."""
    return [[i + 1, j + 1] for i, j in net.comparators]


def insertion_network(m: int) -> ComparisonNetwork:
    """The m(m-1)/2-comparator network imitating insertion sort."""
    if m < 1:
        raise ValueError("need at least one wire")
    comps = []
    for i in range(1, m):
        for j in range(i, 0, -1):
            comps.append((j - 1, j))
    return ComparisonNetwork(m, tuple(comps))


def oddeven_network(m: int) -> ComparisonNetwork:
    """Batcher's odd-even merging network for any wire count.

    The classic power-of-two construction with comparators touching padded
    top wires dropped; padding behaves like plus infinity and never moves.
    """
    if m < 1:
        raise ValueError("need at least one wire")
    comps = []
    p = 1
    while p < m:
        k = p
        while k >= 1:
            for j in range(k % p, m - k, 2 * k):
                for i in range(min(k, m - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        comps.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return ComparisonNetwork(m, tuple(comps))


def apply(net: ComparisonNetwork, values: Sequence) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """Run a vector through the network.

    Returns the output vector (non-decreasing for sorting networks) and the
    trace ``phi`` with ``phi[l][k]`` = wire of input entry ``l`` after ``k``
    comparisons.  On ties the entry on the upper wire stays there.
    """
    if len(values) != net.n:
        raise DimensionMismatch(f"{len(values)} values on {net.n} wires")
    wire_entry = list(range(net.n))  # wire -> entry index
    vals = list(values)  # wire -> value
    phi = [[l] for l in range(net.n)]
    for i, j in net.comparators:
        if vals[j] < vals[i]:
            vals[i], vals[j] = vals[j], vals[i]
            wire_entry[i], wire_entry[j] = wire_entry[j], wire_entry[i]
        for l in range(net.n):
            phi[l].append(phi[l][-1])
        phi[wire_entry[i]][-1] = i
        phi[wire_entry[j]][-1] = j
    return vals, tuple(tuple(row) for row in phi)


def is_sorting_network(net: ComparisonNetwork) -> bool:
    """Exhaustive binary-input check: a network sorting every 0/1 vector
    sorts every vector."""
    if net.n > ZERO_ONE_GUARD:
        raise TooLarge(f"{net.n} wires exceed the binary-input guard {ZERO_ONE_GUARD}")
    for bits in range(1 << net.n):
        vec = [(bits >> w) & 1 for w in range(net.n)]
        for i, j in net.comparators:
            if vec[j] < vec[i]:
                vec[i], vec[j] = vec[j], vec[i]
        if any(vec[w] > vec[w + 1] for w in range(net.n - 1)):
            return False
    return True


@dataclass(frozen=True)
class DualCertificate:
    """Exact dual multipliers proving the traced run optimal.

    ``delta[k]`` maps untouched wires of step ``k`` (all wires for ``k=0``)
    to their multiplier; ``beta[k-1]`` and ``alphas[k-1]`` belong to
    comparator ``k`` (pair order: keep-upper, swap-upper, swap-lower,
    keep-lower).  The remaining multipliers of the polytope's bound rows are
    identically zero.  ``objective`` equals the certified minimum.
    """

    delta: tuple[dict[int, Fraction], ...]
    beta: tuple[Fraction, ...]
    alphas: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]
    objective: Fraction


def dual_certificate(
    net: ComparisonNetwork, xhat: Sequence, v: Sequence
) -> DualCertificate:
    """Construct and verify the optimality certificate.

    ``v`` must be non-negative and non-decreasing.  Raises
    :class:`CertificateInfeasible` when verification fails, which on a true
    sorting network signals an implementation bug.
    """
    n, big_k = net.n, net.size
    if len(xhat) != n or len(v) != n:
        raise DimensionMismatch("point and coefficient vectors must match the wire count")
    xs = [Fraction(x) for x in xhat]
    vs = [Fraction(c) for c in v]
    if any(c < 0 for c in vs) or any(vs[i] > vs[i + 1] for i in range(n - 1)):
        raise ValueError("coefficients must be non-negative and non-decreasing")

    # compare by (value, entry): no ties remain, so compared entries keep a
    # fixed relative order for the rest of the run
    _, phi = apply(net, list(zip(xs, range(n))))
    vfin = [vs[phi[l][big_k]] for l in range(n)]  # entry -> v of final wire

    entry_at = [[0] * n for _ in range(big_k + 1)]
    for l in range(n):
        for k in range(big_k + 1):
            entry_at[k][phi[l][k]] = l

    delta: list[dict[int, Fraction]] = [dict() for _ in range(big_k + 1)]
    for wire in range(n):
        delta[0][wire] = vfin[entry_at[0][wire]]
    beta: list[Fraction] = []
    alphas: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []
    zero = Fraction(0)
    for k, (i, j) in enumerate(net.comparators, start=1):
        upper, lower = entry_at[k][i], entry_at[k][j]
        v_up, v_low = vfin[upper], vfin[lower]
        mid = (v_up + v_low) / 2
        beta.append(mid)
        if phi[upper][k - 1] == i:  # values kept their wires
            alphas.append((mid - v_up, zero, zero, v_low - mid))
        else:  # values swapped wires
            alphas.append((zero, mid - v_up, v_low - mid, zero))
        for wire in range(n):
            if wire != i and wire != j:
                delta[k][wire] = vfin[entry_at[k][wire]]

    objective = sum((xs[l] * delta[0][l] for l in range(n)), Fraction(0))

    _verify_certificate(net, xs, vs, phi, delta, beta, alphas, objective)
    return DualCertificate(
        delta=tuple(delta),
        beta=tuple(beta),
        alphas=tuple(alphas),
        objective=objective,
    )


def _out_value(k, wire, net, delta, beta, alphas):
    """Dual weight of the wire as an output of step k."""
    if k == 0 or wire not in net.comparators[k - 1]:
        return delta[k][wire]
    i, j = net.comparators[k - 1]
    a_eq1, a_sw1, a_sw2, a_eq2 = alphas[k - 1]
    if wire == i:
        return beta[k - 1] - a_eq1 - a_sw1
    return beta[k - 1] + a_sw2 + a_eq2


def _in_value(k, wire, net, delta, beta, alphas):
    """Dual weight of the wire as an input of step k."""
    if wire not in net.comparators[k - 1]:
        return delta[k][wire]
    i, j = net.comparators[k - 1]
    a_eq1, a_sw1, a_sw2, a_eq2 = alphas[k - 1]
    if wire == i:
        return beta[k - 1] - a_eq1 + a_sw2
    return beta[k - 1] - a_sw1 + a_eq2


def _verify_certificate(net, xs, vs, phi, delta, beta, alphas, objective) -> None:
    n, big_k = net.n, net.size
    for quad in alphas:
        if any(a < 0 for a in quad):
            raise CertificateInfeasible("negative comparator multiplier")
    for l in range(n):
        for k in range(big_k):
            lhs = _out_value(k, phi[l][k], net, delta, beta, alphas)
            rhs = _in_value(k + 1, phi[l][k], net, delta, beta, alphas)
            if lhs - rhs > 0:
                raise CertificateInfeasible(
                    f"propagation fails for entry {l} between steps {k} and {k + 1}"
                )
        terminal = _out_value(big_k, phi[l][big_k], net, delta, beta, alphas)
        if terminal > vs[phi[l][big_k]]:
            raise CertificateInfeasible(f"terminal constraint fails for entry {l}")
    sorted_obj = sum(
        (vs[wire] * xs[entry] for entry, wire in ((l, phi[l][big_k]) for l in range(n))),
        Fraction(0),
    )
    if objective != sorted_obj:
        raise CertificateInfeasible("certificate objective mismatch")
