"""Tracer: spans, self time, counters, and patching that is fully undone."""

import types

import numpy as np
import pytest

from layers import install_tracer, tail_percentile
from tracer import Spans, Tracer, patch_everywhere, restore


def ticking_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def saved(tracer, tmp_path):
    path = tmp_path / "spans.npz"
    tracer.save(str(path))
    return Spans.load(path)


def test_self_time_is_duration_minus_child_coverage(tmp_path):
    tracer = Tracer(clock=ticking_clock(0.0, 1.0, 2.0, 4.0, 5.5, 9.0))
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()

    tracer.wrap("outer", body)()
    spans = saved(tracer, tmp_path)

    duration = spans.end - spans.start
    np.testing.assert_array_equal(spans.parent, [-1, 0, 0])
    np.testing.assert_allclose(duration, [9.0, 1.0, 1.5])
    np.testing.assert_allclose(spans.self_times(), [9.0 - 1.0 - 1.5, 1.0, 1.5])
    summary = spans.summary()
    assert summary["outer"] == {"calls": 1, "ms": 9000.0, "self_ms": 6500.0}
    assert summary["leaf"] == {"calls": 2, "ms": 2500.0, "self_ms": 2500.0}


def test_counts_are_exact_and_survive_save(tmp_path):
    tracer = Tracer()
    square = tracer.wrap("square", lambda x: x * x,
                         count=lambda args, kwargs, result: {"sum": result})
    for x in range(1, 11):
        square(x)
    spans = saved(tracer, tmp_path)
    assert spans.summary()["square"]["calls"] == 10
    assert spans.counters == {"square.sum": 385.0}
    assert len(spans.durations("square")) == 10
    assert len(spans.durations("absent")) == 0


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap("fail", fail)()
    tracer.wrap("next", lambda: None)()
    assert tracer.span_end[0] >= tracer.span_start[0]
    assert list(tracer.span_parent) == [-1, -1]


def test_patch_everywhere_rebinds_every_alias_and_restore_undoes_it():
    def original():
        return "original"

    home = types.ModuleType("home")
    home.original = original
    alias = types.ModuleType("alias")
    alias.renamed = original
    alias.other = len
    holder = type("Holder", (), {"method": original})

    patched = patch_everywhere([home, alias, holder], original, lambda: "wrapped")
    assert (home.original(), alias.renamed(), holder.method()) == ("wrapped",) * 3
    assert alias.other is len
    restore(patched)
    assert home.original is original and alias.renamed is original
    assert vars(holder)["method"] is original


def test_install_tracer_wraps_every_binding_and_restores_them(tmp_path):
    from fedlora_dp import attacks, cli, linalg, privacy, runner, simulation

    originals = {
        (simulation, "privatize"): privacy.privatize,
        (attacks, "privatize"): privacy.privatize,
        (attacks, "local_train"): simulation.local_train,
        (runner, "generate_task"): simulation.generate_task,
        (cli, "cmd_run"): runner.cmd_run,
        (linalg.RngStream, "generator"): vars(linalg.RngStream)["generator"],
    }
    tracer = Tracer()
    install_tracer(tracer)
    try:
        for (ns, attr), original in originals.items():
            assert vars(ns)[attr] is not original, f"{ns.__name__}.{attr} not wrapped"
        assert simulation.privatize is attacks.privatize is privacy.privatize
        linalg.RngStream(3).generator()
        linalg.sample_gaussian(2, 3, 1.0, linalg.RngStream(3))
    finally:
        tracer.restore()
    for (ns, attr), original in originals.items():
        assert vars(ns)[attr] is original, f"{ns.__name__}.{attr} not restored"
    summary = saved(tracer, tmp_path).summary()
    assert summary["linalg.RngStream.generator"]["calls"] == 2
    assert summary["linalg.sample_gaussian"]["calls"] == 1
    assert tracer.counters["linalg.sample_gaussian.samples"] == 6
    assert "runner.fmt" not in summary


def test_tail_percentile_keeps_ten_samples_beyond():
    values = np.arange(1.0, 101.0)
    assert tail_percentile(values)[0] == 90.0
    assert tail_percentile(np.arange(1.0, 1001.0))[0] == 99.0
    assert tail_percentile(np.arange(1.0, 11.0)) == (50.0, 5.5)
