"""Typestate rule goldens: SPAN-LEAK, SINK-FLUSH, BREAKER-PROTOCOL,
SWALLOWED-FAULT — each on leaking AND clean variants.

These run the full engine over one-module sources (the cross-module
SWALLOWED-FAULT evidence resolves through the fault-seed leaves, so a
single module exercises the interprocedural machinery too).
"""

import textwrap

import pytest

from repro.analysis.flowcheck import check_source


def rules(source, path="src/repro/latency/sample.py"):
    return [
        f.rule
        for f in check_source(textwrap.dedent(source), path).sorted_findings()
    ]


class TestSpanLeak:
    def test_manual_span_leaks_on_exception_path(self):
        # do_work() can raise while the span is open: the __exit__ on
        # the straight-line path is not enough.
        src = """
            from repro.obs.trace import get_recorder

            def f():
                span = get_recorder().span("work")
                do_work()
                span.__exit__(None, None, None)
            """
        assert "SPAN-LEAK" in rules(src)

    def test_try_finally_release_is_clean(self):
        src = """
            from repro.obs.trace import get_recorder

            def f():
                span = get_recorder().span("work")
                try:
                    do_work()
                finally:
                    span.__exit__(None, None, None)
            """
        assert "SPAN-LEAK" not in rules(src)

    def test_with_managed_span_is_clean(self):
        src = """
            from repro.obs.trace import get_recorder

            def f():
                with get_recorder().span("work") as span:
                    do_work()
            """
        assert "SPAN-LEAK" not in rules(src)

    def test_read_handle_leaks_when_read_can_raise(self):
        src = """
            def f(path):
                handle = open(path, "r")
                data = handle.read()
                handle.close()
                return data
            """
        assert "SPAN-LEAK" in rules(src)

    def test_read_handle_with_block_is_clean(self):
        src = """
            def f(path):
                with open(path, "r") as handle:
                    return handle.read()
            """
        assert "SPAN-LEAK" not in rules(src)

    def test_escaped_handle_is_callers_problem(self):
        # Handing the resource to another object transfers ownership;
        # flagging it here would be a false positive.
        src = """
            from repro.obs.trace import get_recorder

            def f(sink):
                span = get_recorder().span("work")
                sink.adopt(span)
            """
        assert "SPAN-LEAK" not in rules(src)

    @pytest.mark.parametrize(
        "src, leaks",
        [
            (
                """
                from repro.obs.trace import span

                def f():
                    s = span("work")
                    s.__enter__()
                    raise RuntimeError("boom")
                """,
                True,
            ),
            (
                """
                from repro.obs import span as sp

                def f():
                    s = sp("work")
                    s.__enter__()
                    do_work()
                    s.__exit__(None, None, None)
                """,
                True,
            ),
            (
                """
                from repro.obs import span

                def f():
                    with span("work", index=0) as handle:
                        do_work()
                        handle.add(done=True)
                """,
                False,
            ),
        ],
        ids=["bare-leak", "aliased-leak", "with-clean"],
    )
    def test_span_function_goldens(self, src, leaks):
        # The module-level span API resolves through the import table,
        # so bare and aliased calls are tracked like recorder.span().
        assert ("SPAN-LEAK" in rules(src)) is leaks


class TestSinkFlush:
    def test_worker_bound_writer_unflushed_on_raise_path(self):
        src = """
            from repro.runtime.workers import worker_safe

            @worker_safe
            def evaluate(path, rows):
                handle = open(path, "w")
                for row in rows:
                    handle.write(row)
                handle.close()
            """
        assert "SINK-FLUSH" in rules(src)

    def test_try_finally_close_is_clean(self):
        src = """
            from repro.runtime.workers import worker_safe

            @worker_safe
            def evaluate(path, rows):
                handle = open(path, "w")
                try:
                    for row in rows:
                        handle.write(row)
                finally:
                    handle.close()
            """
        assert "SINK-FLUSH" not in rules(src)

    def test_non_worker_function_not_checked(self):
        # The rule is scoped to worker-bound code: crash-safety of
        # result sinks matters where a worker dies mid-run.
        src = """
            def evaluate(path, rows):
                handle = open(path, "w")
                for row in rows:
                    handle.write(row)
                handle.close()
            """
        assert "SINK-FLUSH" not in rules(src)

    def test_worker_reachability_is_interprocedural(self):
        # evaluate() is not decorated, but the decorated root calls it.
        src = """
            from repro.runtime.workers import worker_safe

            def evaluate(path, rows):
                handle = open(path, "w")
                for row in rows:
                    handle.write(row)
                handle.close()

            @worker_safe
            def run(path, rows):
                evaluate(path, rows)
            """
        assert "SINK-FLUSH" in rules(src)


class TestSinkClassTracking:
    def test_jsonl_sink_leaked_on_raise_path_is_span_leak(self):
        # A sink instance holds the only reference to its file handle;
        # losing it on an exception path is the same defect as a leaked
        # read handle.
        src = """
            from repro.obs.sink import JsonlSink

            def export(path, rows):
                sink = JsonlSink(path)
                for row in rows:
                    sink.write(row)
                sink.close()
            """
        assert "SPAN-LEAK" in rules(src)

    def test_with_managed_sink_is_clean(self):
        src = """
            from repro.obs.sink import JsonlSink

            def export(path, rows):
                with JsonlSink(path) as sink:
                    for row in rows:
                        sink.write(row)
            """
        assert "SPAN-LEAK" not in rules(src)

    def test_try_finally_closed_sink_is_clean(self):
        src = """
            from repro.obs.sink import JsonlSink

            def export(path, rows):
                sink = JsonlSink(path)
                try:
                    for row in rows:
                        sink.write(row)
                finally:
                    sink.close()
            """
        assert "SPAN-LEAK" not in rules(src)

    def test_result_journal_tracked_in_worker_bound_code(self):
        # A worker that exits with its journal handle open races the
        # parent's reopen-on-resume; writes do NOT discharge the handle
        # (the journal flushes per record — only close releases it).
        src = """
            from repro.runtime.pool import ResultJournal
            from repro.runtime.workers import worker_safe

            @worker_safe
            def record(path, task_id, value):
                journal = ResultJournal(path)
                journal.record_ok(task_id, value, 1, 0.0)
                journal.close()
            """
        assert "SINK-FLUSH" in rules(src)

    def test_result_journal_closed_in_finally_is_clean(self):
        src = """
            from repro.runtime.pool import ResultJournal
            from repro.runtime.workers import worker_safe

            @worker_safe
            def record(path, task_id, value):
                journal = ResultJournal(path)
                try:
                    journal.record_ok(task_id, value, 1, 0.0)
                finally:
                    journal.close()
            """
        assert "SINK-FLUSH" not in rules(src)

    def test_aliased_import_still_recognized(self):
        src = """
            from repro.obs.sink import JsonlSink as Journal

            def export(path, rows):
                sink = Journal(path)
                for row in rows:
                    sink.write(row)
                sink.close()
            """
        assert "SPAN-LEAK" in rules(src)

    def test_scenario_trace_accessor_is_not_a_span(self):
        # Regression guard: ``.trace(`` is a common accessor name
        # (bandwidth traces); only ``.span(`` opens a span context.
        src = """
            def measure(scenario):
                trace = scenario.trace(duration_s=10.0)
                return trace
            """
        assert "SPAN-LEAK" not in rules(src)


class TestBreakerProtocol:
    def test_record_without_allow_fires(self):
        src = """
            def offload(breaker, now_ms):
                result = attempt(now_ms)
                if result:
                    breaker.record_success(now_ms)
                return result
            """
        assert "BREAKER-PROTOCOL" in rules(src)

    def test_allow_gated_records_are_clean(self):
        src = """
            def offload(breaker, now_ms):
                if not breaker.allow(now_ms):
                    return None
                result = attempt(now_ms)
                if result:
                    breaker.record_success(now_ms)
                else:
                    breaker.record_failure(now_ms)
                return result
            """
        assert "BREAKER-PROTOCOL" not in rules(src)

    def test_one_allow_gates_one_record(self):
        # The second record_failure happens without a fresh allow():
        # the breaker may have opened on the first record.
        src = """
            def offload(breaker, now_ms):
                if not breaker.allow(now_ms):
                    return None
                breaker.record_failure(now_ms)
                breaker.record_failure(now_ms)
            """
        assert "BREAKER-PROTOCOL" in rules(src)

    def test_locally_constructed_breaker_tracked(self):
        src = """
            from repro.runtime.resilience import CircuitBreaker

            def serve(now_ms):
                breaker = CircuitBreaker()
                breaker.record_success(now_ms)
            """
        assert "BREAKER-PROTOCOL" in rules(src)

    def test_retry_loop_rechecks_each_round(self):
        # The repo's own _resilient_offload shape: allow at entry,
        # record per attempt, re-allow after each failure.
        src = """
            def offload(breaker, now_ms, attempts):
                if not breaker.allow(now_ms):
                    return False
                for _ in range(attempts):
                    if try_once(now_ms):
                        breaker.record_success(now_ms)
                        return True
                    breaker.record_failure(now_ms)
                    if not breaker.allow(now_ms):
                        break
                return False
            """
        assert "BREAKER-PROTOCOL" not in rules(src)


class TestSwallowedFault:
    def test_broad_except_around_fault_reaching_call(self):
        src = """
            def offload(env, payload, clock, rng):
                try:
                    return env.attempt_transfer(payload, clock, rng)
                except Exception:
                    return None
            """
        assert "SWALLOWED-FAULT" in rules(src)

    def test_bare_except_around_fault_reaching_call(self):
        src = """
            def offload(env, payload, clock, rng):
                try:
                    return env.attempt_transfer(payload, clock, rng)
                except:
                    return None
            """
        assert "SWALLOWED-FAULT" in rules(src)

    def test_recording_handler_is_clean(self):
        src = """
            def offload(env, payload, clock, rng, stats):
                try:
                    return env.attempt_transfer(payload, clock, rng)
                except Exception:
                    stats.record_failure(clock)
                    return None
            """
        assert "SWALLOWED-FAULT" not in rules(src)

    def test_reraising_handler_is_clean(self):
        src = """
            def offload(env, payload, clock, rng):
                try:
                    return env.attempt_transfer(payload, clock, rng)
                except Exception:
                    raise
            """
        assert "SWALLOWED-FAULT" not in rules(src)

    def test_counter_bump_counts_as_recording(self):
        src = """
            def offload(env, payload, clock, rng, stats):
                try:
                    return env.attempt_transfer(payload, clock, rng)
                except Exception:
                    stats.dropped += 1
                    return None
            """
        assert "SWALLOWED-FAULT" not in rules(src)

    def test_non_fault_reaching_body_not_flagged(self):
        # A broad except needs *evidence* that faults can flow through
        # the try body; plain parsing code is out of scope.
        src = """
            def parse(blob):
                try:
                    return decode(blob)
                except Exception:
                    return None
            """
        assert "SWALLOWED-FAULT" not in rules(src)

    def test_fault_typed_handler_must_still_record(self):
        src = """
            from repro.runtime.faults import FaultError

            def offload(env, payload, clock, rng):
                try:
                    return env.attempt_transfer(payload, clock, rng)
                except FaultError:
                    return None
            """
        assert "SWALLOWED-FAULT" in rules(src)
