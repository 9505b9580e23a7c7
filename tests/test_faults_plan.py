"""Unit tests for the fault plan, injector and degradation guard."""

from __future__ import annotations

import pickle

import pytest

from repro.faults import (
    FaultPlan,
    InjectedFault,
    InjectedTimeout,
    Quarantine,
    RobustnessConfig,
    TripError,
    guarded_call,
    inject_faults,
    is_transient,
    maybe_inject,
    read_errors_jsonl,
)
from repro.faults.errors import ErrorRateExceeded
from repro.faults import injector
from repro.obs import MetricsRegistry, use_registry


class TestFaultPlan:
    def test_roll_is_deterministic_and_seed_sensitive(self):
        a = FaultPlan(seed=1)
        b = FaultPlan(seed=1)
        c = FaultPlan(seed=2)
        keys = [("clean", i) for i in range(50)]
        assert [a.roll(*k) for k in keys] == [b.roll(*k) for k in keys]
        assert [a.roll(*k) for k in keys] != [c.roll(*k) for k in keys]
        assert all(0.0 <= a.roll(*k) < 1.0 for k in keys)

    def test_picks_fraction_tracks_rate(self):
        plan = FaultPlan(seed=7, clean_error_rate=0.2)
        hits = sum(1 for i in range(2000) if plan.picks("clean", i))
        assert 300 < hits < 500  # ~0.2 of 2000

    def test_zero_rate_never_picks(self):
        plan = FaultPlan(seed=7)
        assert not any(plan.picks("clean", i) for i in range(100))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(clean_error_rate=1.5)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=3, corrupt_row_rate=0.1, truncate_after_rows=9,
            clean_error_rate=0.2, match_error_rate=0.3,
            route_error_rate=0.05, transient_rate=0.5,
            kill_chunk={"match": 1, "stream": 0},
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("kill_chunk, message", [
        ({"mach": 0}, "kill_chunk kind must be one of"),
        ({"clean": 1}, "kill_chunk kind must be one of"),
        ({"extract": 0}, "kill_chunk kind must be one of"),
        ({"match": -1}, "kill_chunk index must be non-negative"),
        ({"stream": -2}, "kill_chunk index must be non-negative"),
    ])
    def test_rejects_kill_chunk_it_cannot_honour(self, kill_chunk, message):
        """Only match chunks and stream checkpoints can be killed; any
        other kind, or a negative index, would never fire and leave the
        chaos run testing nothing."""
        with pytest.raises(ValueError, match=message):
            FaultPlan(kill_chunk=kill_chunk)
        with pytest.raises(ValueError, match=message):
            FaultPlan.from_dict({"kill_chunk": kill_chunk})

    def test_null_kill_chunk_kills_nothing(self):
        assert FaultPlan.from_dict({"kill_chunk": None}) == FaultPlan()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"seed": 1, "explode_rate": 0.5})

    def test_plan_is_picklable(self):
        plan = FaultPlan(seed=5, kill_chunk={"match": 2})
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestInjector:
    def test_no_active_plan_is_a_no_op(self):
        injector.deactivate()
        maybe_inject("clean", 123)  # must not raise

    def test_injects_for_picked_keys_only(self):
        plan = FaultPlan(seed=11, clean_error_rate=0.3)
        picked = next(i for i in range(100) if plan.picks("clean", i))
        spared = next(i for i in range(100) if not plan.picks("clean", i))
        with inject_faults(plan):
            maybe_inject("clean", spared)
            with pytest.raises(InjectedFault):
                maybe_inject("clean", picked)

    def test_routing_faults_are_timeouts_and_guard_scoped(self):
        plan = FaultPlan(seed=11, route_error_rate=1.0)
        with inject_faults(plan):
            # Outside a guard: suppressed (analysis code is not collateral).
            maybe_inject("routing", (1, 2), require_guard=True)
            injector.enter_guard()
            try:
                with pytest.raises(InjectedTimeout):
                    maybe_inject("routing", (1, 2), require_guard=True)
            finally:
                injector.exit_guard()

    def test_transient_fault_clears_on_second_attempt(self):
        plan = FaultPlan(seed=11, match_error_rate=1.0, transient_rate=1.0)
        with inject_faults(plan):
            with pytest.raises(InjectedFault) as info:
                maybe_inject("match", 42)
            assert info.value.transient
            maybe_inject("match", 42)  # second attempt passes

    def test_injection_counters(self):
        plan = FaultPlan(seed=11, clean_error_rate=1.0)
        registry = MetricsRegistry()
        with use_registry(registry), inject_faults(plan):
            with pytest.raises(InjectedFault):
                maybe_inject("clean", 1)
        assert registry.counter("faults.injected").value == 1
        assert registry.counter("faults.injected.clean").value == 1


class TestGuard:
    def test_success_passes_through(self):
        result, error = guarded_call(
            "clean", lambda x: x * 2, 21, robustness=RobustnessConfig()
        )
        assert (result, error) == (42, None)

    def test_nontransient_failure_quarantines_without_retry(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("broken trip")

        result, error = guarded_call(
            "clean", boom, robustness=RobustnessConfig(retries=3), trip_id=9
        )
        assert result is None
        assert error.kind == "ValueError"
        assert error.trip_id == 9
        assert error.fault_tag is None
        assert len(calls) == 1  # deterministic failures are not replayed

    def test_transient_failure_retries_with_backoff(self):
        attempts = []
        delays = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TimeoutError("slow route")
            return "ok"

        registry = MetricsRegistry()
        with use_registry(registry):
            result, error = guarded_call(
                "match", flaky,
                robustness=RobustnessConfig(
                    retries=3, backoff_base_s=0.5, backoff_multiplier=2.0
                ),
                sleep=delays.append,
            )
        assert (result, error) == ("ok", None)
        assert delays == [0.5, 1.0]  # exponential pacing, injectable sleep
        assert registry.counter("faults.retries").value == 2
        assert registry.counter("faults.retry_success").value == 1

    def test_retries_are_bounded(self):
        def always_slow():
            raise TimeoutError("never")

        result, error = guarded_call(
            "match", always_slow,
            robustness=RobustnessConfig(retries=2, backoff_base_s=0.0),
        )
        assert result is None
        assert error.kind == "TimeoutError"

    def test_injected_fault_tag_travels_into_error(self):
        plan = FaultPlan(seed=11, match_error_rate=1.0)
        with inject_faults(plan):
            result, error = guarded_call(
                "match", lambda: maybe_inject("match", 7),
                robustness=RobustnessConfig(retries=0),
                transition_index=7,
            )
        assert error.fault_tag == "injected:match"
        assert error.transition_index == 7

    def test_is_transient(self):
        assert is_transient(TimeoutError())
        assert is_transient(InjectedTimeout("routing", (1, 2)))
        assert is_transient(InjectedFault("clean", 1, transient=True))
        assert not is_transient(InjectedFault("clean", 1))
        assert not is_transient(ValueError())


class TestQuarantine:
    def test_rate_threshold(self):
        quarantine = Quarantine(max_error_rate=0.10)
        for i in range(3):
            quarantine.add(TripError(stage="clean", kind="X", message="", trip_id=i))
        quarantine.check(100)  # 3% — fine
        with pytest.raises(ErrorRateExceeded) as info:
            quarantine.check(10)  # 30% — fails
        assert info.value.errors == quarantine.errors

    def test_advisory_kinds_do_not_count_toward_the_rate(self):
        quarantine = Quarantine(max_error_rate=0.10)
        for i in range(5):
            quarantine.add(TripError(
                stage="io", kind="non_monotonic_ids", message="", trip_id=i,
            ))
        quarantine.check(10)  # 50% advisory records: still passes
        assert quarantine.rate(10) == 0.0
        assert quarantine.dropped() == []
        quarantine.add(TripError(stage="io", kind="parse_error", message="", row=1))
        assert len(quarantine.dropped()) == 1
        with pytest.raises(ErrorRateExceeded):
            quarantine.check(5)  # the dropped row alone is 20%

    def test_no_threshold_never_fails(self):
        quarantine = Quarantine()
        quarantine.add(TripError(stage="io", kind="X", message=""))
        quarantine.check(1)

    def test_jsonl_round_trip(self, tmp_path):
        quarantine = Quarantine()
        quarantine.add(TripError(
            stage="match", kind="InjectedFault", message="boom",
            segment_id=4, transition_index=2, fault_tag="injected:match",
        ))
        quarantine.add(TripError(stage="io", kind="parse_error", message="x", row=7))
        path = tmp_path / "errors.jsonl"
        assert quarantine.write_jsonl(path) == 2
        assert read_errors_jsonl(path) == quarantine.errors

    def test_add_counts_quarantined_units(self):
        registry = MetricsRegistry()
        quarantine = Quarantine()
        with use_registry(registry):
            quarantine.add(TripError(stage="clean", kind="X", message=""))
        assert registry.counter("trips.quarantined").value == 1
