"""Self-tests of the benchmark: span arithmetic, exact counts, the gate.

    python3 -m pytest bench -q
"""

import json
import sys
import types

import pytest

import run
from gate import check_operation
from spans import (
    SPANS,
    Span,
    TraceIntegrityError,
    Tracer,
    expected_spans,
    layer_metrics,
    self_times,
)

TINY = ["simulate", "--M", "4", "--K", "2", "--waves-per-ue", "3", "--realizations", "100",
        "--seed", "7", "--workers", "1"]
N_CAL = 20_000  # calibration draws per run_simulation call


def test_self_times_subtract_children():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.inner", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_times_count_overlapping_children_once():
    spans = [Span("root", -1, 0.0, 10.0), Span("x", 0, 1.0, 4.0), Span("y", 0, 3.0, 5.0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_inclusive_and_unattributed_time():
    spans = [
        Span("engine.run", -1, 1.0, 5.0),
        Span("engine.run", 0, 2.0, 3.0),  # nested run counts once
        Span("channel.calibrate", -1, 6.0, 7.5),
    ]
    m = layer_metrics(spans, wall_s=10.0)
    assert m["engine.run.total_s"] == pytest.approx(4.0)
    assert m["engine.run.self_s"] == pytest.approx(3.0 + 1.0)
    assert m["channel.calibrate.total_s"] == pytest.approx(1.5)
    assert m["trace.unattributed_s"] == pytest.approx(10.0 - 4.0 - 1.5)


def _fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def outer(n):
        return mod.inner(n) + 1

    def inner(n):
        return n * 2

    class Acc:
        @classmethod
        def build(cls, n):
            return cls()

    mod.outer, mod.inner, mod.Acc = outer, inner, Acc
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_wrappers_record_parents_counts_and_restore(monkeypatch):
    mod = _fake_module(monkeypatch)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install((
        ("outer", "fake_layer", "outer", "n", lambda a, r: a["n"]),
        ("inner", "fake_layer", "inner", None, None),
        ("build", "fake_layer", "Acc.build", None, None),
    ))
    assert mod.outer(3) == 7
    assert isinstance(mod.Acc.build(1), mod.Acc)
    tracer.uninstall()
    mod.outer(3)  # no longer traced
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("build", -1)]
    assert tracer.spans[0].counts == {"n": 3}
    assert self_times(tracer.spans)[:2] == [2.0, 1.0]  # outer 0..3, inner 1..2


def test_missing_call_site_stops_install(monkeypatch):
    mod = _fake_module(monkeypatch)
    with pytest.raises(TraceIntegrityError, match="fake_layer.renamed"):
        Tracer().install((
            ("inner", "fake_layer", "inner", None, None),
            ("gone", "fake_layer", "renamed", None, None),
        ))
    assert not hasattr(mod.inner, "__wrapped__")  # nothing half-installed


def test_span_that_never_fired_is_an_error():
    tracer = Tracer()
    tracer.spans.append(Span("channel.sample", -1, 0.0, 1.0))
    with pytest.raises(TraceIntegrityError, match="channel.field"):
        tracer.check_fired({"channel.sample", "channel.field"})


def test_every_span_site_exists_in_the_program():
    run._import_program()
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert len({s[0] for s in SPANS}) == len(SPANS)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One traced in-process run of a tiny simulate."""
    run._import_program()
    out = tmp_path_factory.mktemp("tiny")
    tracer = Tracer()
    tracer.install()
    try:
        with open(out.parent / "tiny.log", "w") as log:
            code = run._call_main([*TINY, "--out", str(out)], log)
    finally:
        tracer.uninstall()
    return out, code, tracer


def test_exact_counts_on_tiny_traced_run(tiny_run):
    out, code, tracer = tiny_run
    assert code == 0
    tracer.check_fired(expected_spans("simulate"))
    m = layer_metrics(tracer.spans, wall_s=1.0)
    n, k, l, mm = 100, 2, 3, 4
    assert m["channel.sample.streams"] == (N_CAL + n) * k
    assert m["channel.field.phasors"] == (N_CAL + n) * k * l * mm
    assert m["channel.field.bytes_computed"] == 16 * m["channel.field.phasors"]
    assert m["beamform.zf.solves"] == n
    assert m["channel.calibrate.draws"] == N_CAL
    assert (m["engine.runs"], m["engine.blocks"]) == (1, 1)


def test_benchmark_json_names_every_emitted_metric(tiny_run):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    emitted = set(layer_metrics(tiny_run[2].spans, wall_s=1.0)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == emitted


def test_gate_passes_then_counts_a_flipped_byte(tiny_run, tmp_path):
    out, code, _ = tiny_run
    assert check_operation(out, code, "simulate") == []
    target = out / "cdf.csv"
    original = target.read_bytes()
    flipped = bytearray(original)
    flipped[len(flipped) // 2] ^= 0x01
    target.write_bytes(bytes(flipped))
    try:
        tally = run.Tally(tmp_path)
        tally.judge("tiny", out, code, "simulate")
        tally.log.close()
        assert tally.attempted == 1
        assert len(tally.failures) == 1
        assert "cdf.csv" in tally.failures[0]["reasons"][0]
    finally:
        target.write_bytes(original)


def test_gate_rejects_nonzero_exit(tiny_run):
    assert check_operation(tiny_run[0], 3, "simulate") == ["exit code 3"]
