"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from passes import Pass, ProgramError, Sampler  # noqa: E402

from arbocoh import enumerate_complete_shapes  # noqa: E402
from arbocoh.shapes import classify_shape, star_shape  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)


# -- the reference checker ------------------------------------------------------


def spectrum_op(p, key, shape):
    return p.op(
        f"spectrum {key}",
        key,
        lambda: workloads.run_cli(["spectrum", json.dumps(shape.to_json())]),
        workloads.spectrum_answer,
        workloads.check_spectrum,
    )


def test_checker_accepts_the_reference_answer():
    p = Pass(REFERENCE)
    spectrum_op(p, "q2d6#2", enumerate_complete_shapes(2, 6)[2])
    assert p.failures == []
    assert [label for label, _s, _probe in p.timed] == ["spectrum q2d6#2"]


def test_checker_flags_a_wrong_answer():
    wrong = dict(REFERENCE["q2d6#2"])
    wrong["spectrum"] = [[1, 0]] + wrong["spectrum"]
    p = Pass({"q2d6#2": wrong})
    spectrum_op(p, "q2d6#2", enumerate_complete_shapes(2, 6)[2])
    assert [(label, kind) for label, kind, _error, _msg in p.failures] == [("spectrum q2d6#2", "wrong")]


def test_checker_flags_h2_on_a_non_centipede():
    answer = {"group_order": 48, "spectrum": [[1, 1]]}
    expected = dict(answer, centipede=False)
    assert "not a centipede" in workloads.check_spectrum(answer, expected)
    assert workloads.check_spectrum(answer, dict(answer, centipede=True)) is None


def test_raises_and_exits_are_failures_that_do_not_stop_the_pass():
    def boom():
        raise ValueError("no")

    def exit_1():
        raise ProgramError("InsufficientDepth", "exit 1: InsufficientDepth: deepen the prefix")

    p = Pass({"k": 3})
    p.setup_done()
    p.op("raises", "k", boom)
    p.op("exits", "k", exit_1)
    p.op("fine", "k", lambda: 3)
    p.op("missing reference", "absent", lambda: 3)
    kinds = [(label, kind, error) for label, kind, error, _msg in p.failures]
    assert kinds == [
        ("raises", "raised", "ValueError"),
        ("exits", "exit", "InsufficientDepth"),
        ("missing reference", "wrong", ""),
    ]
    assert p.attempted == 4 and len(p.timed) == 4


def test_nonzero_cli_exit_is_an_exit_failure():
    p = Pass({"x": 0})
    bad = json.dumps({"tag": "spherical", "z": "2.0", "q": 2})
    p.op("classify", "x", lambda: workloads.run_cli(["classify", bad, "-n", "2"]))
    assert p.failures[0][1:3] == ["exit", "InvalidDescriptor"]


def test_classify_row_checked_against_reference_and_spectrum():
    assert workloads.check_row_dim(1, 1, h2=1) is None
    assert "reference" in workloads.check_row_dim(0, 1, h2=0)
    assert "spectrum" in workloads.check_row_dim(1, 1, h2=0)


# -- which failures make "correct" false ----------------------------------------


def fake_pass(labels=("a", "b"), failures=()):
    ref = run.PROBE_REFERENCE_S
    return {
        "traced": False,
        "setup_s": 0.2,
        "setup_speed": ref,
        "attempted": len(labels) + len(failures),
        "timed": [[label, 1.0, ref] for label in list(labels) + [f[0] for f in failures]],
        "failures": [list(f) for f in failures],
        "peak_rss_mb": 40.0,
        "layers": None,
    }


def summary(seed, passes):
    args = argparse.Namespace(seed=seed, trace=0)
    e2e, _layers, info = run.summarize(args, passes)
    info["wall_s"] = e2e["wall_s"]
    return info


def test_only_the_known_failure_at_its_seeds_keeps_correct_true():
    known = ("verify reps", "exit", "InsufficientDepth", "exit 1: ...")
    seed = run.KNOWN_FAILING_VERIFY_SEEDS[0]
    info = summary(seed, [fake_pass(failures=[known]) for _ in range(2)])
    assert info["correct"] and info["failed"] == 2 and info["attempted"] == 6
    assert info["wall_s"] == pytest.approx(3.0)  # the known failure stays timed
    info = summary(0, [fake_pass(failures=[known]) for _ in range(2)])
    assert not info["correct"] and info["wall_s"] == pytest.approx(2.0)
    other = ("verify reps", "raised", "ValueError", "no")
    assert not summary(seed, [fake_pass(failures=[other]) for _ in range(2)])["correct"]
    wrong = ("verify flip", "wrong", "", "False != reference True")
    assert not summary(seed, [fake_pass(failures=[wrong]) for _ in range(2)])["correct"]
    crashed = {"traced": False, "elapsed": 1.0, "crashed": "pass 2 exited 1: boom"}
    info = summary(0, [fake_pass(), fake_pass(), crashed])
    assert not info["correct"] and info["failed"] == 1 and info["attempted"] == 5


def test_passes_that_timed_different_operations_give_no_result():
    failed = ("b", "raised", "ValueError", "no")
    with pytest.raises(run.SetupFailed):
        summary(0, [fake_pass(), fake_pass(labels=("a",), failures=[failed])])
    with pytest.raises(run.SetupFailed):
        summary(0, [fake_pass(), fake_pass(labels=("a", "c"))])


# -- self-time arithmetic ---------------------------------------------------------


def test_self_times_on_synthetic_nested_spans():
    #   A [0, 10]
    #     B [1, 4]
    #       C [2, 3]
    #     D [5, 9]
    #   E [11, 12]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_wrapped_calls_nest_and_count_errors():
    t = tracer.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    wrapped_leaf = t.wrap("leaf", leaf)

    def outer(xs):
        total = 0
        for x in xs:
            try:
                total += wrapped_leaf(x)
            except ValueError:
                pass
        return total

    wrapped_outer = t.wrap("outer", outer)
    assert wrapped_outer([1, -1, 2]) == 3
    assert [t.labels[n] for n in t.name] == ["outer", "leaf", "leaf", "leaf"]
    assert list(t.parent) == [-1, 0, 0, 0]
    assert list(t.error) == [0, 0, 1, 0]
    st = tracer.self_times(t.start, t.end, t.parent)
    assert st[0] == pytest.approx((t.end[0] - t.start[0]) - sum(t.end[i] - t.start[i] for i in (1, 2, 3)))
    assert all(v >= 0 for v in st)


def test_tracer_patches_every_namespace_and_restores_them():
    from arbocoh import chartab, perm, reptheory

    perm.shape_automorphism_group.cache_clear()
    chartab.character_table.cache_clear()
    original = perm.conjugacy_classes
    t = tracer.Tracer().install()
    try:
        assert perm.conjugacy_classes is not original
        assert chartab.conjugacy_classes is perm.conjugacy_classes
        assert reptheory.character_table is chartab.character_table
        workloads.run_cli(["spectrum", json.dumps(star_shape(2).to_json())])
        m = t.metrics()
    finally:
        t.remove()
    assert perm.conjugacy_classes is original and chartab.conjugacy_classes is original
    assert m["cli.main.calls"] == 1
    assert m["chartab.character_table.calls"] >= 1
    assert m["perm.conjugacy_classes.calls"] == 1
    # spectrum builds Aut(S) = S_3 under two cache keys
    assert m["perm.closure.calls"] == 2 and m["perm.elements_enumerated"] == 12
    assert m["perm.aut_builds_per_shape"] == 2.0
    assert m["chartab.classes"] == 3
    assert set(m) == set(tracer.metric_names())


# -- speed scaling ----------------------------------------------------------------


def test_sampler_speed_averages_the_samples_around_an_interval():
    s = Sampler()
    s.at = [0.0, 1.0, 2.0, 3.0, 4.0]
    s.took = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert s.speed(1.5, 2.5) == 3.0  # samples at 1, 2 and 3
    assert s.speed(2.0, 2.0) == 3.0  # the sample taken at that instant
    assert s.speed(-1.0, 0.5) == 1.5  # nothing before: from the first sample
    assert s.speed(3.5, 9.0) == 4.5  # nothing after: to the last sample


def test_scaling_divides_by_the_probe_time():
    ref = run.PROBE_REFERENCE_S
    p = {"timed": [["a", 1.0, ref], ["b", 2.0, 2 * ref]], "setup_s": 0.3, "setup_speed": 3 * ref}
    assert run.op_times(p) == pytest.approx({"a": 1.0, "b": 1.0})
    assert run.op_times(p, scale=False) == {"a": 1.0, "b": 2.0}
    assert run.scaled_setup(p) == pytest.approx(0.1)


def test_pass_seconds_sums_per_operation_medians():
    passes = [{"a": 1.0, "b": 5.0}, {"b": 1.0, "a": 3.0}, {"a": 2.0, "b": 3.0}]
    assert run.pass_seconds(passes) == 2.0 + 3.0


# -- relabelling ------------------------------------------------------------------


def test_relabelling_leaves_reference_answers_unchanged():
    every = enumerate_complete_shapes(2, 6)
    rng = random.Random(0)
    for i in (2, 3, 4, 5):
        key = workloads.catalog_key(2, 6, i)
        for _ in range(3):
            s = workloads.relabel(every[i], rng)
            assert s != every[i]
            p = Pass(REFERENCE)
            spectrum_op(p, key, s)
            assert p.failures == []
            assert classify_shape(s) == classify_shape(every[i])


def test_relabel_keeps_the_tree():
    s = enumerate_complete_shapes(2, 6)[7]
    r = workloads.relabel(s, random.Random(5))
    assert not set(r.vertices) & set(s.vertices)
    assert sorted(r.degree(v) for v in r.vertices) == sorted(s.degree(v) for v in s.vertices)
    assert r.diameter() == s.diameter()


# -- the benchmark's declaration ----------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.RUNNERS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
