"""Chaos tests at the cleaning-pipeline level.

Property under test (ISSUE acceptance): under a seeded fault plan the
surviving trips' artefacts are **bitwise identical** to a fault-free run
over that same surviving subset, and quarantine accounting matches the
injections exactly.
"""

from __future__ import annotations

import pytest

from repro.cleaning import CleaningPipeline, FilterConfig, SegmentationConfig
from repro.cleaning import pipeline as pipeline_module
from repro.faults import (
    FaultPlan,
    InjectedFault,
    Quarantine,
    RobustnessConfig,
    guarded_call,
    inject_faults,
    maybe_inject,
)
from repro.obs import BufferJournal, MetricsRegistry, use_journal, use_registry
from repro.traces.model import FleetData
from tests.oracles import pertrip

#: Retry config with no real sleeping — chaos tests never wait on clocks.
FAST_RETRY = RobustnessConfig(retries=2, backoff_base_s=0.0)


def test_clean_faults_survivors_bitwise_identical(fleet, chaos_seed):
    plan = FaultPlan(seed=chaos_seed, clean_error_rate=0.1)
    doomed = {t.trip_id for t in fleet.trips if plan.picks("clean", t.trip_id)}
    assert doomed, "seeded plan must hit at least one trip"
    assert len(doomed) < len(fleet.trips), "some trips must survive"

    quarantine = Quarantine()
    pipeline = CleaningPipeline(robustness=FAST_RETRY)
    with inject_faults(plan):
        degraded = pipeline.run(fleet, quarantine=quarantine)

    # Accounting: exactly the picked trips were quarantined, each with
    # the injection tag, and the report mirrors the quarantine.
    assert {e.trip_id for e in quarantine.errors} == doomed
    assert all(e.fault_tag == "injected:clean" for e in quarantine.errors)
    assert all(e.stage == "clean" for e in quarantine.errors)
    assert degraded.report.errors == quarantine.errors
    assert degraded.report.trips_quarantined == len(doomed)

    # Bitwise identity: a fault-free run over the surviving subset.
    survivors = FleetData(
        trips=[t for t in fleet.trips if t.trip_id not in doomed]
    )
    reference = CleaningPipeline().run(survivors)
    assert degraded.segments == reference.segments
    assert degraded.report.segments_out == reference.report.segments_out
    assert degraded.report.points_out == reference.report.points_out


def test_transient_clean_faults_recover_via_retry(fleet, chaos_seed):
    plan = FaultPlan(
        seed=chaos_seed, clean_error_rate=0.3, transient_rate=1.0
    )
    picked = sum(1 for t in fleet.trips if plan.picks("clean", t.trip_id))
    assert picked > 0

    quarantine = Quarantine()
    registry = MetricsRegistry()
    with use_registry(registry), inject_faults(plan):
        degraded = CleaningPipeline(robustness=FAST_RETRY).run(
            fleet, quarantine=quarantine
        )
    reference = CleaningPipeline().run(fleet)

    # Every fault was transient: retries absorb all of them, nothing is
    # quarantined, and the output is the fault-free artefact exactly.
    assert len(quarantine) == 0
    assert degraded.segments == reference.segments
    assert registry.counter("faults.injected.clean").value == picked
    assert registry.counter("faults.retries").value == picked
    assert registry.counter("faults.retry_success").value == picked


def test_without_robustness_faults_fail_fast(fleet, chaos_seed):
    plan = FaultPlan(seed=chaos_seed, clean_error_rate=1.0)
    with inject_faults(plan):
        with pytest.raises(InjectedFault):
            CleaningPipeline().run(fleet)


def test_fault_free_robust_run_equals_legacy(fleet):
    robust = CleaningPipeline(robustness=RobustnessConfig()).run(fleet)
    legacy = CleaningPipeline().run(fleet)
    assert robust.segments == legacy.segments
    assert robust.report.errors == []


def _mixed_fault_batch(fleet, chaos_seed):
    """A plan plus a 12-trip batch in which the plan picks exactly one
    trip permanently and one transiently, and a third trip (neither)
    is left to fail organically."""
    plan = FaultPlan(seed=chaos_seed, clean_error_rate=0.15, transient_rate=0.5)
    permanent = [t for t in fleet.trips if plan.picks("clean", t.trip_id)
                 and not plan.is_transient("clean", t.trip_id)]
    transient = [t for t in fleet.trips if plan.picks("clean", t.trip_id)
                 and plan.is_transient("clean", t.trip_id)]
    clean = [t for t in fleet.trips if not plan.picks("clean", t.trip_id)]
    assert permanent and transient and len(clean) >= 10
    trips = sorted([permanent[0], transient[0], *clean[:10]], key=lambda t: t.trip_id)
    return plan, FleetData(trips=trips), permanent[0].trip_id, clean[4].trip_id


def _run_observed(pipeline, fleet, plan, per_trip_fn=None):
    """Run the pipeline under ``plan``; return (result, faults counters,
    lineage events).  ``per_trip_fn`` computes the per-trip results
    itself (inside the same injection scope) instead of the pipeline."""
    registry = MetricsRegistry()
    events: list[dict] = []
    with use_registry(registry), use_journal(BufferJournal(events)), \
            inject_faults(plan):
        per_trip = per_trip_fn(fleet.trips) if per_trip_fn else None
        result = pipeline.run(fleet, per_trip=per_trip)
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("faults.")
    }
    lineage = [
        {k: v for k, v in e.items() if k != "ts"}
        for e in events if e["kind"] == "lineage"
    ]
    return result, counters, lineage


def test_batch_isolates_injected_and_organic_failures(fleet, chaos_seed, monkeypatch):
    plan, batch, permanent_id, organic_id = _mixed_fault_batch(fleet, chaos_seed)
    real_kernel = pipeline_module.clean_batch

    def organic(trip_id):
        return RuntimeError(f"organic failure in trip {trip_id}")

    def flaky_kernel(trips, *args, **kwargs):
        # Raises for the whole batch whenever the organic trip is in it.
        if any(t.trip_id == organic_id for t in trips):
            raise organic(organic_id)
        return real_kernel(trips, *args, **kwargs)

    def one_trip_at_a_time(trips):
        """The per-trip unit each trip ran before batching: injection,
        then that trip's cleaning, inside one guard."""
        def unit(trip):
            maybe_inject("clean", trip.trip_id)
            if trip.trip_id == organic_id:
                raise organic(organic_id)
            return pertrip.clean_trip(trip, FilterConfig(), SegmentationConfig())

        out = []
        for trip in trips:
            result, error = guarded_call(
                "clean", unit, trip, robustness=FAST_RETRY, trip_id=trip.trip_id
            )
            out.append(error if error is not None else result)
        return out

    pipeline = CleaningPipeline(robustness=FAST_RETRY)
    reference, ref_counters, ref_lineage = _run_observed(
        pipeline, batch, plan, one_trip_at_a_time
    )
    monkeypatch.setattr(pipeline_module, "clean_batch", flaky_kernel)
    degraded, counters, lineage = _run_observed(pipeline, batch, plan)

    assert [e.trip_id for e in degraded.report.errors] == sorted(
        [permanent_id, organic_id]
    )
    assert degraded.report.errors == reference.report.errors
    assert counters == ref_counters
    assert counters["faults.retry_success"] == 1
    assert lineage == ref_lineage
    survivors = FleetData(trips=[
        t for t in batch.trips if t.trip_id not in (permanent_id, organic_id)
    ])
    fault_free = CleaningPipeline().run(survivors)
    assert repr(degraded.segments) == repr(fault_free.segments)
    assert degraded.report.segments_out == fault_free.report.segments_out
