"""The benchmark's workloads: input generators, the timed call, its checks.

Every workload builds its inputs from the seed and lays its calls out in
rounds; one round holds one call of every kind the workload mixes, and a
run ends on a whole round, so every run sees the same mix.  Where the size
of an input sets most of a call's cost, the size comes from a generator
seeded by the input's place in the run, not by the seed, so that runs with
different seeds do the same amount of work.  ``call`` is the only timed
part.  ``check`` runs after it, outside the timed region, and returns the
bytes that go into the workload's output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import sparseknap as sk
from sparseknap import cli

# seed of the fixed inputs whose output digests are stored in digests.json
GOLDEN_SEED = 0


class CheckFailed(Exception):
    """An output disagrees with what the benchmark computes independently."""


def _shuffled_weights(rng: random.Random, class_weights, sizes) -> list[int]:
    weights = [w for w, size in zip(class_weights, sizes) for _ in range(size)]
    rng.shuffle(weights)
    return weights


def _dantzig_vertex(weights, capacity: int, rng: random.Random) -> list[float]:
    """Optimal vertex of the knapsack LP for random profits: items by profit
    per weight, the first one that no longer fits taken fractionally."""
    profits = [rng.random() for _ in weights]
    order = sorted(range(len(weights)), key=lambda i: -profits[i] / weights[i])
    x = [0.0] * len(weights)
    room = capacity
    for i in order:
        if weights[i] <= room:
            x[i] = 1.0
            room -= weights[i]
        else:
            x[i] = room / weights[i]
            break
    return x


def _check_cut_list(cuts, point: list[Fraction], tolerance: Fraction) -> None:
    """Each cut's violation, recomputed here as ``coeffs . x - rhs`` in exact
    rationals, agrees with the reported one and exceeds the tolerance, and
    the list runs in the documented order: violation descending, then
    coefficients ascending.  ``cuts`` yields ``(coeffs, rhs, agrees)`` with
    ``agrees(exact)`` comparing against the reported value."""
    previous = None
    for coeffs, rhs, agrees in cuts:
        if len(coeffs) != len(point):
            raise CheckFailed(f"cut has {len(coeffs)} coefficients for {len(point)} items")
        exact = sum((c * x for c, x in zip(coeffs, point)), Fraction(0)) - rhs
        if not agrees(exact):
            raise CheckFailed(f"reported violation differs from recomputed {exact}")
        if exact <= tolerance:
            raise CheckFailed(f"reported cut is violated by only {exact}")
        key = (-exact, tuple(coeffs))
        if previous is not None and key < previous:
            raise CheckFailed("cuts are not in descending order of violation")
        previous = key


class Workload:
    """Inputs made from a seed, and the calls that use them.

    ``specs`` lists the inputs of the calls in order, in rounds of
    ``round_size`` calls that mix the same kinds of call.  ``prepare(spec)``
    readies one call outside the timing, ``call(spec)`` is the timed work,
    and ``check(spec, output)`` verifies the output and returns the bytes
    that go into the output digest.
    """

    specs: list
    round_size: int

    def prepare(self, spec) -> None:
        """Nothing to ready unless a workload says otherwise."""


class Cutloop(Workload):
    """A solver's cut loop: a fixed ladder of knapsacks, each separated at
    successive LP-feasible points with ``separate()`` and default options."""

    name = "cutloop"
    # (class weights, class sizes); capacity is half the total weight
    RUNGS = (
        ((17, 21), (200, 200)),
        ((59, 63), (150, 150)),
        ((18, 27, 42), (55, 55, 55)),
        ((15, 59, 63), (60, 60, 60)),
        ((18, 25, 27, 42), (16, 16, 16, 16)),
        ((15, 43, 59, 63), (16, 16, 16, 16)),
        ((17, 20, 21, 31, 56), (7, 7, 7, 7, 7)),
        ((18, 25, 27, 42, 73), (7, 7, 7, 7, 7)),
        ((18, 25, 27, 42, 67, 73), (5, 5, 5, 5, 4, 4)),
    )
    # the capacity-220 family on which the jump search prunes lossily, so the
    # exact fallback runs; visited twice per round so that it sets the tail
    LOSSY_RUNG = ((16, 19, 34, 40), (20, 20, 20, 20), 220)
    LOSSY_VISITS = 2
    ROUNDS = 20

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"cutloop-{seed}")
        rungs = [(w, s, sum(a * b for a, b in zip(w, s)) // 2) for w, s in self.RUNGS]
        rungs.append(self.LOSSY_RUNG)
        visits = [1] * len(self.RUNGS) + [self.LOSSY_VISITS]
        self.knapsacks = []
        points = []
        for (class_weights, sizes, capacity), v in zip(rungs, visits):
            k = sk.normalize(_shuffled_weights(rng, class_weights, sizes), capacity)
            self.knapsacks.append(k)
            points.append(self._points(k, rng, self.ROUNDS * v))
        self.round_size = sum(visits)
        self.specs = [
            (idx, points[idx][r * v + extra])
            for r in range(self.ROUNDS)
            for idx, v in enumerate(visits)
            for extra in range(v)
        ]

    @staticmethod
    def _points(k, rng: random.Random, count: int) -> list[list[float]]:
        """Dantzig vertices, every second one replaced by the midpoint of the
        vertex before it and a fresh one."""
        out = []
        previous = None
        for r in range(count):
            vertex = _dantzig_vertex(k.weights, k.capacity, rng)
            if r % 2:
                vertex = [(a + b) / 2 for a, b in zip(previous, vertex)]
            else:
                previous = vertex
            out.append(vertex)
        return out

    def call(self, spec):
        idx, point = spec
        return sk.separate(self.knapsacks[idx], point)

    def check(self, spec, result) -> bytes:
        xs = [Fraction(v) for v in spec[1]]
        _check_cut_list(
            ((c.coeffs, c.rhs, lambda exact, c=c: exact == c.violation) for c in result.cuts),
            xs,
            sk.separation.DEFAULT_TOLERANCE,
        )
        lines = [
            f"{c.coeffs}|{c.rhs}|{c.cover}|{c.indep}|{c.gub_strengthened}|"
            f"{c.exact_lifting}|{c.violation}"
            for c in result.cuts
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")


class Violated(Workload):
    """One-shot command-line use: many distinct knapsacks, each separated
    once through ``sparseknap.cli.main`` at a uniform random point, which
    violates most of the class pairs it scores."""

    name = "violated"
    # (class weights, item count); items draw their class uniformly, the
    # capacity is a third of the total weight
    TEMPLATES = (
        ((13, 15, 33), 44),
        ((25, 44, 47), 44),
        ((34, 36, 58), 44),
        ((14, 18, 46, 58), 34),
        ((13, 15, 20, 33), 34),
        ((18, 25, 44, 47), 34),
        ((12, 34, 36, 58), 34),
        ((21, 29, 31, 50), 34),
    )
    ROUNDS = 60
    MAX_CUTS = 10

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"violated-{seed}")
        os.makedirs(workdir, exist_ok=True)
        # the files of a call are written just before it, by prepare()
        self.round_size = len(self.TEMPLATES)
        self.specs = []
        for r in range(self.ROUNDS):
            for t, (class_weights, n) in enumerate(self.TEMPLATES):
                # how many items each class has and the sizes of the bound
                # groups come from a generator of their own that the seed
                # does not feed, so every seed separates knapsacks of the
                # same class profiles; the seed orders the items, fills the
                # groups and draws the point
                shape = random.Random(f"violated-shape-{r}-{t}")
                while True:
                    weights = [shape.choice(class_weights) for _ in range(n)]
                    if len(set(weights)) == len(class_weights):
                        break
                rng.shuffle(weights)
                items = list(range(1, n + 1))
                rng.shuffle(items)
                groups = []
                while items:
                    size = shape.randint(1, 3)
                    groups.append(sorted(items[:size]))
                    items = items[size:]
                instance = {"weights": weights, "capacity": sum(weights) // 3, "gubs": groups}
                # uniform in [0, 1) item by item, stratified: one value in
                # each n-th of the interval, so that the count of violated
                # pairs, and with it the call's cost, varies less between
                # seeds than with independent draws
                point = [(k + rng.random()) / n for k in range(n)]
                rng.shuffle(point)
                stem = os.path.join(workdir, f"v{r:03d}_{t}")
                argv = ["separate", stem + ".instance.json", stem + ".point.json"]
                argv += ["-o", stem + ".out.json"]
                # half the calls cap the output; each template gets both
                if (r + t) % 2:
                    argv += ["--max-cuts", str(self.MAX_CUTS)]
                self.specs.append((argv, instance, point))

    def prepare(self, spec) -> None:
        argv, instance, point = spec
        for path, data in ((argv[1], instance), (argv[2], point)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)

    def call(self, spec):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(spec[0])

    def check(self, spec, code) -> bytes:
        argv, _, point = spec
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        with open(argv[argv.index("-o") + 1], "rb") as fh:
            raw = fh.read()
        records = json.loads(raw)
        if "--max-cuts" in argv and len(records) > self.MAX_CUTS:
            raise CheckFailed(f"{len(records)} cuts despite --max-cuts {self.MAX_CUTS}")
        _check_cut_list(
            (
                (rec["coeffs"], rec["rhs"], lambda exact, rec=rec: float(exact) == rec["violation"])
                for rec in records
            ),
            [Fraction(v) for v in point],
            sk.separation.DEFAULT_TOLERANCE,
        )
        return raw


class Models(Workload):
    """Model emission: class models of cutloop-style knapsacks with
    alternating networks, and two-column order models, each written as LP
    text, parsed back and used to decide membership of a point."""

    name = "models"
    # ("class", class weights, class sizes, network) or ("orbisack", rows,
    # rows with order cuts).  Cheap models make up 80% of a round, so the
    # median lies among them; 15% take about three times as long and hold
    # the 90th percentile; 5% have more than 10^4 rows.
    SMALL = (
        ("class", (17, 21), (10, 14), "oddeven"),
        ("class", (17, 21), (10, 14), "insertion"),
        ("class", (18, 27, 42), (8, 12, 10), "oddeven"),
        ("class", (18, 27, 42), (8, 12, 10), "insertion"),
        ("class", (15, 59, 63), (12, 16, 8), "oddeven"),
        ("class", (18, 25, 27, 42), (6, 8, 10, 8), "oddeven"),
        ("class", (18, 25, 27, 42), (6, 8, 10, 8), "insertion"),
        ("orbisack", 100, 100),
    )
    MEDIUM = (
        ("class", (17, 21), (14, 22), "oddeven"),
        ("class", (15, 59, 63), (12, 16, 8), "insertion"),
        ("orbisack", 300, 200),
        ("class", (18, 27, 42), (10, 14, 18), "oddeven"),
        ("class", (17, 21), (10, 18), "insertion"),
        ("orbisack", 1000, 200),
    )
    LARGE = (
        ("class", (17, 21), (20, 32), "oddeven"),
        ("class", (17, 21), (12, 25), "insertion"),
    )
    ROUNDS = 8

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"models-{seed}")
        layout = []
        for half in range(2):
            layout += self.SMALL + self.MEDIUM[3 * half : 3 * half + 3]
            layout += self.SMALL + self.LARGE[half : half + 1]
        self.round_size = len(layout)
        self.specs = []
        for r in range(self.ROUNDS):
            for position, (kind, *params) in enumerate(layout):
                if kind == "class":
                    # the class pair, which sets the model's size, and the
                    # kind of point come from a generator of their own that
                    # the seed does not feed, so every seed emits models of
                    # the same sizes; the seed orders the items and draws
                    # the point
                    shape = random.Random(f"models-shape-{r}-{position}")
                    # the large models keep their sizes, which put them
                    # above 10^4 rows
                    shrink = (kind, *params) not in self.LARGE
                    self.specs.append(self._class_spec(rng, shape, shrink, *params))
                else:
                    self.specs.append(self._orbisack_spec(rng, *params))

    @staticmethod
    def _class_spec(rng: random.Random, shape: random.Random, shrink: bool,
                    class_weights, sizes, network):
        if shrink:
            # each class loses up to a quarter of its items, so that the
            # costs of the models spread evenly instead of clustering by
            # template, and the median does not sit on a gap between two
            # clusters (which moved it by 15% between runs)
            sizes = [size - shape.randint(0, size // 4) for size in sizes]
        weights = _shuffled_weights(rng, class_weights, sizes)
        k = sk.normalize(weights, sum(weights) // 2)
        wc = k.classes()
        # a random minimal cover: add items in random order until they cover,
        # then drop lightest items while the rest still covers
        counts = [0] * wc.sigma
        weight = 0
        for j in shape.sample([j for j, size in enumerate(wc.sizes) for _ in range(size)], k.n):
            if weight > k.capacity:
                break
            counts[j] += 1
            weight += wc.class_weights[j]
        while True:
            j = next(j for j, c in enumerate(counts) if c)
            if weight - wc.class_weights[j] <= k.capacity:
                break
            counts[j] -= 1
            weight -= wc.class_weights[j]
        cover = sk.CoverClass(tuple(counts))
        lift = sk.compute_lifting(cover, wc, k.capacity)
        maximal = [leaf.counts for leaf in sk.IndepSearch(cover, lift, wc) if leaf.maximal]
        indep = maximal[shape.randrange(len(maximal))]
        if shape.random() < 0.5:
            point = _dantzig_vertex(k.weights, k.capacity, rng)
        else:
            point = [rng.random() for _ in range(k.n)]
        return ("class", k, cover, indep, network, point)

    @staticmethod
    def _orbisack_spec(rng: random.Random, n: int, limit: int):
        # equal leading rows push the lexicographic decision deep into the
        # matrix
        same = rng.randrange(limit + 1)
        matrix = []
        for i in range(n):
            a = rng.randrange(2)
            matrix.append([a, a if i < same else rng.randrange(2)])
        return ("orbisack", sk.OrbisackSpec(n=n, max_rows=limit), matrix)

    def call(self, spec):
        if spec[0] == "class":
            _, k, cover, indep, network, point = spec
            model = sk.class_ef(k, cover, indep, network=network)
            text = sk.write_lp(model)
            parsed = sk.parse_lp(text)
            member = sk.ef_membership(k, cover, indep, point)
            certificates = sk.membership_certificates(k, cover, indep, point, network=network)
            return model, text, parsed, member, certificates
        _, ospec, matrix = spec
        model = sk.orbisack_ef(ospec)
        text = sk.write_lp(model)
        parsed = sk.parse_lp(text)
        return model, text, parsed, sk.orbisack_point_check(ospec, matrix), None

    def check(self, spec, output) -> bytes:
        model, text, parsed, member, certificates = output
        if sk.write_lp(parsed) != text:
            raise CheckFailed("write_lp(parse_lp(text)) differs from text")
        if (parsed.var_count(), parsed.row_count()) != (model.var_count(), model.row_count()):
            raise CheckFailed("parsed model has other dimensions")
        if spec[0] == "class":
            cover = spec[2]
            # the certified per-class minima add up to the rank row's value
            certified = sum((c.objective for c in certificates), Fraction(0))
            if (certified <= cover.rhs) != member:
                raise CheckFailed("certificates disagree with the membership verdict")
        else:
            _, ospec, matrix = spec
            rows = matrix[: ospec.max_rows]
            ordered = [r[0] for r in rows] >= [r[1] for r in rows]
            if ordered != member:
                raise CheckFailed("order check disagrees with lexicographic comparison")
        return (text + f"member={member}\n").encode("utf-8")


WORKLOADS = {cls.name: cls for cls in (Cutloop, Violated, Models)}
