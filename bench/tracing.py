"""Span tracing of the library's layers, from outside the library.

The traced run wraps the entry points of each layer (the modules of
``sparseknap``) in place, so every call of the library code goes through a
wrapper that records a span: layer name, start, end and the span that was
open when it began.  Spans are kept in flat arrays in memory during the run;
the arithmetic (self times, per-call means, ratios) happens at the end.  The
untraced run installs nothing, so it pays no tracing cost.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Sequence

ROOT = "bench.call"


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.

    Spans must be listed in order of start time, as a tracer records them;
    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Children of
    one parent therefore arrive in start order, and a single pass that
    remembers how far each parent is already covered merges overlapping
    children and clips them to the parent's interval.
    """
    count = len(starts)
    covered = [0.0] * count
    reach = list(starts)
    for i in range(count):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


class Tracer:
    """Records spans and counters; installs and removes the layer wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # 1 for spans inside a benchmark call; library calls the benchmark
        # makes to check an output are traced but neither timed nor counted
        self.inside = array("b")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        # class profile + capacity -> distinct cover classes seen
        self.covers_seen: dict[tuple, set] = defaultdict(set)
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """``fn`` inside a span called ``name``; ``after(result, args)`` runs
        once the span is closed, to update counters."""
        nid = self.name_id(name)
        is_root = name == ROOT
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        inside = self.inside
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            counted = is_root or (parent >= 0 and inside[parent])
            names.append(nid)
            parents.append(parent)
            inside.append(counted)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None and counted:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def set_attr(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, namespaces: Iterable[dict], original, replacement) -> int:
        """Rebind every entry of the namespaces (module dictionaries or
        tables such as ``ef.NETWORK_BUILDERS``) that refers to ``original``;
        returns how many."""
        hits = 0
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, value))
                    namespace[key] = replacement
                    hits += 1
        return hits

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and span count per layer name."""
        selfs = self_times(self.parent, self.start, self.end)
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for nid, s, counted in zip(self.span_name, selfs, self.inside):
            if not counted:
                continue
            entry = totals[self.names[nid]]
            entry[0] += s
            entry[1] += 1
        return {name: (v[0], v[1]) for name, v in totals.items()}

    def busy_seconds(self) -> float:
        root = self._ids.get(ROOT)
        return sum(
            e - s
            for nid, s, e in zip(self.span_name, self.start, self.end)
            if nid == root
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tlayer\tparent\tstart_s\tend_s\n")
            base = self.start[0] if self.start else 0.0
            for i, (nid, p, s, e) in enumerate(
                zip(self.span_name, self.parent, self.start, self.end)
            ):
                fh.write(f"{i}\t{self.names[nid]}\t{p}\t{s - base:.9f}\t{e - base:.9f}\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the entry points of every layer except ``oracle``, which is used
    only for checking and never timed."""
    import sparseknap
    from sparseknap import cli, covers, ef, indep, knapsack, linmodel, networks, separation

    modules = (sparseknap, cli, covers, ef, indep, knapsack, linmodel, networks, separation)
    namespaces = [vars(module) for module in modules] + [ef.NETWORK_BUILDERS]
    counts = tracer.counts

    def wrap_function(module, attr: str, layer: str, after=None) -> None:
        original = getattr(module, attr)
        tracer.replace_everywhere(namespaces, original, tracer.wrap(original, layer, after))

    # covers: one odometer span per class handed out, one per lifting
    def classes_after(cover, args):
        cursor = args[0]
        counts["covers.classes"] += 1
        key = (cursor.wc.class_weights, cursor.wc.sizes, cursor.capacity)
        tracer.covers_seen[key].add(cover.counts)

    tracer.set_attr(
        covers.CoverCursor,
        "__next__",
        tracer.wrap(covers.CoverCursor.__next__, "covers.odometer", classes_after),
    )
    wrap_function(covers, "compute_lifting", "covers.lifting")

    # indep: the whole search of one cover is one span
    search_cls = indep.IndepSearch

    def search_after(leaves, args):
        counts["indep.leaves"] += len(leaves)
        counts["indep.maximal_leaves"] += sum(1 for leaf in leaves if leaf.maximal)
        if not args[0].exact:
            counts["indep.inexact_covers"] += 1

    run_search = tracer.wrap(
        lambda search: list(search_cls.__iter__(search)), "indep.search", search_after
    )

    class TracedIndepSearch(search_cls):
        def __iter__(self):
            return iter(run_search(self))

    tracer.replace_everywhere(namespaces, search_cls, TracedIndepSearch)

    # separation
    def separate_after(result, args):
        counts["separation.pairs_scored"] += result.classes_scanned
        counts["separation.cuts_returned"] += len(result.cuts)

    def gub_after(cut, args):
        if cut is not args[0]:
            counts["separation.gub_raised"] += 1

    wrap_function(separation, "separate", "separation.score", separate_after)
    wrap_function(separation, "exact_maximal_tuples", "separation.fallback")
    wrap_function(separation, "max_representative", "separation.represent")
    wrap_function(separation, "assemble_cut", "separation.assemble")
    wrap_function(separation, "gub_strengthen", "separation.gub", gub_after)
    wrap_function(separation, "violation", "separation.violation")

    # knapsack
    wrap_function(knapsack, "promote_point", "knapsack.promote_point")
    wrap_function(knapsack, "load_instance", "knapsack.load")
    wrap_function(knapsack, "load_point", "knapsack.load")

    # cli: argument parsing, JSON rendering and output are its self time
    wrap_function(cli, "main", "cli")

    # networks
    def build_after(net, args):
        counts["networks.comparators"] += net.size

    wrap_function(networks, "oddeven_network", "networks.build", build_after)
    wrap_function(networks, "insertion_network", "networks.build", build_after)
    wrap_function(networks, "dual_certificate", "networks.certificate")

    # ef
    def model_after(model, args):
        counts["ef.model_vars"] += model.var_count()
        counts["ef.model_rows"] += model.row_count()

    wrap_function(ef, "class_ef", "ef.class_ef", model_after)
    wrap_function(ef, "ef_membership", "ef.membership")
    wrap_function(ef, "membership_certificates", "ef.membership")
    wrap_function(ef, "orbisack_ef", "ef.orbisack", model_after)

    # linmodel
    def write_after(text, args):
        counts["linmodel.lp_bytes"] += len(text.encode("utf-8"))

    wrap_function(linmodel, "write_lp", "linmodel.write", write_after)
    wrap_function(linmodel, "parse_lp", "linmodel.parse")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, calls: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics: seconds are self seconds per call, counts are per
    call, ratios are taken over the whole traced run.  ``overhead_ratio`` is
    the traced calls' busy time over the same calls' untraced busy time."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def self_s(layer: str) -> float:
        return _ratio(totals.get(layer, (0.0, 0))[0], calls)

    def spans(layer: str) -> int:
        return totals.get(layer, (0.0, 0))[1]

    def per_call(counter: str) -> float:
        return _ratio(counts[counter], calls)

    distinct = sum(len(seen) for seen in tracer.covers_seen.values())
    return {
        "covers.odometer.s": self_s("covers.odometer"),
        "covers.classes": per_call("covers.classes"),
        "covers.repeat_ratio": _ratio(counts["covers.classes"], distinct),
        "covers.lifting.s": self_s("covers.lifting"),
        "indep.search.s": self_s("indep.search"),
        "indep.leaves": per_call("indep.leaves"),
        "indep.maximal_leaves": per_call("indep.maximal_leaves"),
        "indep.inexact_covers": per_call("indep.inexact_covers"),
        "separation.score.self_s": self_s("separation.score"),
        "separation.pairs_scored": per_call("separation.pairs_scored"),
        "separation.pairs_violated": _ratio(spans("separation.represent"), calls),
        "separation.violated_ratio": _ratio(
            spans("separation.represent"), counts["separation.pairs_scored"]
        ),
        "separation.fallback.s": self_s("separation.fallback"),
        "separation.fallback.calls": _ratio(spans("separation.fallback"), calls),
        "separation.represent.s": self_s("separation.represent"),
        "separation.assemble.s": self_s("separation.assemble"),
        "separation.gub.s": self_s("separation.gub"),
        "separation.violation.s": self_s("separation.violation"),
        "separation.cuts_materialised": _ratio(spans("separation.assemble"), calls),
        "separation.cuts_returned": per_call("separation.cuts_returned"),
        "separation.kept_ratio": _ratio(
            counts["separation.cuts_returned"], spans("separation.assemble")
        ),
        "separation.gub_raised": per_call("separation.gub_raised"),
        "knapsack.promote_point.s": self_s("knapsack.promote_point"),
        "knapsack.promote_point.calls": _ratio(spans("knapsack.promote_point"), calls),
        "knapsack.load.s": self_s("knapsack.load"),
        "cli.self_s": self_s("cli"),
        "networks.build.s": self_s("networks.build"),
        "networks.comparators": per_call("networks.comparators"),
        "networks.certificate.s": self_s("networks.certificate"),
        "ef.class_ef.s": self_s("ef.class_ef"),
        "ef.model_vars": per_call("ef.model_vars"),
        "ef.model_rows": per_call("ef.model_rows"),
        "ef.membership.s": self_s("ef.membership"),
        "ef.orbisack.s": self_s("ef.orbisack"),
        "linmodel.write.s": self_s("linmodel.write"),
        "linmodel.parse.s": self_s("linmodel.parse"),
        "linmodel.lp_bytes": per_call("linmodel.lp_bytes"),
        "bench.self_s": self_s(ROOT),
        "trace.calls": float(calls),
        "trace.overhead_ratio": overhead_ratio,
    }


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time as a share of the traced calls' busy time."""
    busy = tracer.busy_seconds()
    totals = tracer.layer_totals()
    return {name: _ratio(s, busy) for name, (s, _) in sorted(totals.items())}
