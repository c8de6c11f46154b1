"""The benchmark's own plumbing: its metric list and its span arithmetic."""

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracing  # noqa: E402


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.METRICS)


def test_self_time_subtracts_children_and_patches_are_undone():
    mod = types.SimpleNamespace()
    mod.inner = lambda: None

    def outer():
        mod.inner()
        mod.inner()
    mod.outer = outer
    original_inner = mod.inner

    tr = tracing.Tracer()
    tr.install([("outer", [(mod, "outer")], None),
                ("inner", [(mod, "inner")], None)])
    mod.outer()
    tr.uninstall()
    assert mod.inner is original_inner and mod.outer is outer
    assert [s[1] for s in tr.spans] == ["outer", "inner", "inner"]
    assert [s[4] for s in tr.spans] == [None, 0, 0]
    assert tr.counts == {"outer.calls": 1, "inner.calls": 2}
    total, own = tr.durations()
    outer_span = tr.spans[0][3] - tr.spans[0][2]
    inner_spans = sum(s[3] - s[2] for s in tr.spans[1:])
    assert abs(own["outer"] - (outer_span - inner_spans)) < 1e-12
    assert total["inner"] == own["inner"] == inner_spans


def test_rescale_removes_sampling_time_and_scales_to_reference_speed():
    import hostspeed
    speed = hostspeed.HostSpeed()
    with speed:
        pass                             # shorter than PERIOD_S: no samples
    assert speed.inside_s == 0.0 and len(speed.samples) == hostspeed.BURST
    speed.samples = [2 * hostspeed.REF_LOOP_S] * 4
    speed.inside_s = sum(speed.samples)
    assert abs(speed.rescale(1.0 + speed.inside_s) - 0.5) < 1e-12
