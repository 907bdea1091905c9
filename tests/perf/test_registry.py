"""Unit tests for the span-timer/counter registry."""

import json

import pytest

from repro.obs import span
from repro.perf import PerfRegistry, SpanStat, get_registry, set_registry


@pytest.fixture
def default_registry():
    """A fresh registry installed as the process default for the test."""
    reg = PerfRegistry()
    previous = set_registry(reg)
    yield reg
    set_registry(previous)


class TestCounters:
    def test_starts_at_zero(self):
        assert PerfRegistry().counter("anything") == 0

    def test_count_increments(self):
        reg = PerfRegistry()
        reg.count("evals")
        reg.count("evals")
        reg.count("evals", by=3)
        assert reg.counter("evals") == 5

    def test_counters_are_independent(self):
        reg = PerfRegistry()
        reg.count("a")
        reg.count("b", by=7)
        assert reg.counter("a") == 1
        assert reg.counter("b") == 7


class TestSpans:
    def test_span_times_block(self, default_registry):
        reg = default_registry
        with span("work"):
            sum(range(1000))
        stat = reg.span_stat("work")
        assert stat.count == 1
        assert stat.total_ms >= 0.0
        assert stat.max_ms == stat.total_ms

    def test_record_span_accumulates(self):
        reg = PerfRegistry()
        reg.record_span("w", 2.0)
        reg.record_span("w", 4.0)
        stat = reg.span_stat("w")
        assert stat.count == 2
        assert stat.total_ms == pytest.approx(6.0)
        assert stat.mean_ms == pytest.approx(3.0)
        assert stat.max_ms == pytest.approx(4.0)

    def test_span_records_on_exception(self, default_registry):
        reg = default_registry
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("inner")
        assert reg.span_stat("boom").count == 1

    def test_unknown_span_is_zeros(self):
        stat = PerfRegistry().span_stat("never")
        assert stat.count == 0
        assert stat.mean_ms == 0.0

    def test_spanstat_mean_guards_zero_count(self):
        assert SpanStat().mean_ms == 0.0


class TestDisabled:
    def test_disabled_registry_is_inert(self, default_registry):
        reg = default_registry
        reg.enabled = False
        reg.count("c")
        reg.record_span("s", 5.0)
        reg.observe("h", 5.0)
        with span("s"):
            pass
        assert reg.counter("c") == 0
        assert reg.span_stat("s").count == 0
        assert reg.histogram("h").count == 0
        assert reg.snapshot() == {
            "counters": {},
            "spans": {},
            "histograms": {},
            "windows": {},
        }


class TestExport:
    def test_snapshot_structure(self):
        reg = PerfRegistry()
        reg.count("b")
        reg.count("a", by=2)
        reg.record_span("s", 1.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]  # sorted
        assert snap["counters"]["a"] == 2
        assert snap["spans"]["s"]["count"] == 1
        assert snap["spans"]["s"]["total_ms"] == pytest.approx(1.5)

    def test_to_json_round_trips(self):
        reg = PerfRegistry()
        reg.count("n", by=4)
        assert json.loads(reg.to_json())["counters"]["n"] == 4

    def test_dump_writes_file(self, tmp_path):
        reg = PerfRegistry()
        reg.record_span("s", 2.0)
        path = tmp_path / "perf.json"
        reg.dump(path)
        data = json.loads(path.read_text())
        assert data["spans"]["s"]["max_ms"] == pytest.approx(2.0)

    def test_reset_clears_everything(self):
        reg = PerfRegistry()
        reg.count("c")
        reg.record_span("s", 1.0)
        reg.observe("h", 1.0)
        reg.reset()
        assert reg.snapshot() == {
            "counters": {},
            "spans": {},
            "histograms": {},
            "windows": {},
        }


class TestDefaultRegistry:
    def test_get_returns_registry(self):
        assert isinstance(get_registry(), PerfRegistry)

    def test_set_swaps_and_returns_previous(self):
        mine = PerfRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is previous
