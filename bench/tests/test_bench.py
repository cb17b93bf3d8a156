"""Tests of the benchmark's own arithmetic: percentiles, self times,
digests, speed scaling and the cut-list check.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import statistics
from fractions import Fraction

import pytest

import calibrate
from stats import Digest, median, percentile, samples_beyond
from tracing import ROOT, Tracer, self_times
from workloads import CheckFailed, _check_cut_list


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
    data = [float(v * v % 97) for v in range(101)]
    assert percentile(data, 25) == statistics.quantiles(data, n=4, method="inclusive")[0]


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_p90_of_one_hundred():
    assert samples_beyond([float(v) for v in range(100)], 90) == 10
    assert samples_beyond([1.0] * 50, 90) == 0


def test_self_time_subtracts_nested_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlap_and_clips_to_parent():
    # children overlap each other and the second runs past its parent's end
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 2.0]
    ends = [5.0, 3.0, 7.0]
    assert self_times(parents, starts, ends)[0] == 1.0


def test_tracer_counts_only_spans_inside_a_call():
    tracer = Tracer()
    calls = []

    def layer(x):
        return x + 1

    traced_layer = tracer.wrap(layer, "layer", lambda result, args: calls.append(result))
    call = tracer.wrap(lambda: traced_layer(1) + traced_layer(2), ROOT)
    assert call() == 5
    traced_layer(10)  # outside any call, like an output check
    assert calls == [2, 3]
    totals = tracer.layer_totals()
    assert totals["layer"][1] == 2
    assert totals[ROOT][1] == 1
    shares = sum(s for s, _ in totals.values())
    assert shares == pytest.approx(tracer.busy_seconds())


def test_tracer_uninstall_restores_attributes():
    class Holder:
        value = 1

    module = {"f": len, "g": abs}
    table = {"f": len}
    tracer = Tracer()
    tracer.set_attr(Holder, "value", 2)
    assert tracer.replace_everywhere([module, table], len, abs) == 2
    assert module["f"] is abs and table["f"] is abs and Holder.value == 2
    tracer.uninstall()
    assert module == {"f": len, "g": abs} and table["f"] is len and Holder.value == 1


def test_digest_frames_parts_and_keeps_order():
    def hexof(parts):
        d = Digest()
        for part in parts:
            d.add(part)
        return d.hexdigest()

    assert hexof(["ab", "c"]) != hexof(["a", "bc"])
    assert hexof(["a", "b"]) != hexof(["b", "a"])
    assert hexof([b"ab", "c"]) == hexof(["ab", b"c"])
    assert hexof([]) == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_cut_list_check_recomputes_violation_and_order():
    point = [Fraction(1, 2), Fraction(1), Fraction(1)]
    tol = Fraction(1, 10**9)

    def cuts(*rows):
        return ((c, r, lambda exact, v=v: exact == v) for c, r, v in rows)

    _check_cut_list(cuts(((1, 1, 1), 1, Fraction(3, 2)), ((0, 1, 1), 1, Fraction(1))), point, tol)
    with pytest.raises(CheckFailed, match="differs"):
        _check_cut_list(cuts(((1, 1, 1), 1, Fraction(1))), point, tol)
    with pytest.raises(CheckFailed, match="order"):
        _check_cut_list(cuts(((0, 1, 1), 1, Fraction(1)), ((1, 1, 1), 1, Fraction(3, 2))), point, tol)
    with pytest.raises(CheckFailed, match="only"):
        _check_cut_list(cuts(((1, 0, 0), 0, Fraction(1, 2)), ((0, 0, 1), 1, Fraction(0))), point, tol)


def test_speed_factor_cancels_machine_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed_factor([ref] * 5) == pytest.approx(1.0)
    # on a machine twice as slow, calls and reference stretch alike
    assert 0.6 * calibrate.speed_factor([2 * ref] * 5) == pytest.approx(0.3)
    # the median ignores a reference disturbed on its own
    assert calibrate.speed_factor([ref, ref, 10 * ref]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        calibrate.speed_factor([])


def test_reference_job_is_fixed_work():
    assert calibrate.reference_job() == calibrate.reference_job()
    assert calibrate.time_reference() > 0
