"""End-to-end chaos: the ISSUE's acceptance scenario.

A seeded fault plan that (a) injects match-stage failures and (b) kills
one worker mid-run is applied to a parallel study.  The degraded run
must complete, quarantine exactly the injected units into a
deterministic ``errors.jsonl``, and produce bitwise-identical artefacts
to the fault-free run for every surviving transition.

The plan leaves the cleaning stage untouched, so both runs see the same
segments and transitions — survivor artefacts can then be compared
index-by-index against the fault-free reference.
"""

from __future__ import annotations

import pytest

from repro.experiments import OuluStudy, StudyConfig
from repro.faults import FaultPlan, RobustnessConfig, read_errors_jsonl
from repro.faults.errors import ErrorRateExceeded, Quarantine
from repro.parallel import ExecutorConfig
from repro.traces import FleetSpec

#: Small-but-real study scale: enough transitions to make a ~10% match
#: fault rate meaningful, small enough for the chaos matrix in CI.
FLEET = FleetSpec(n_days=10, seed=7)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference run."""
    return OuluStudy(StudyConfig(fleet=FLEET)).run()


@pytest.fixture(scope="module")
def chaos_run(chaos_seed, baseline):
    plan = FaultPlan(
        seed=chaos_seed, match_error_rate=0.1, kill_chunk={"match": 0}
    )
    config = StudyConfig(
        fleet=FLEET,
        executor=ExecutorConfig(workers=2),
        robustness=RobustnessConfig(retries=2, backoff_base_s=0.0),
        faults=plan,
    )
    n = len(baseline.extraction.transitions)
    doomed = {i for i in range(n) if plan.picks("match", i)}
    assert doomed, "seeded plan must hit at least one transition"
    assert len(doomed) < n, "some transitions must survive"
    return OuluStudy(config).run(), plan, doomed


def test_degraded_study_completes_and_accounts_every_fault(chaos_run, baseline):
    result, plan, doomed = chaos_run
    # Quarantine holds exactly the injected transitions, tagged.
    assert {e.transition_index for e in result.errors} == doomed
    assert all(e.stage == "match" for e in result.errors)
    assert all(e.fault_tag == "injected:match" for e in result.errors)
    assert result.metrics["counters"]["trips.quarantined"] == len(doomed)
    assert result.metrics["counters"]["faults.injected.match"] == len(doomed)
    # The killed worker was replaced exactly once.
    assert result.metrics["counters"]["worker.restarts"] == 1


def test_surviving_artefacts_bitwise_identical(chaos_run, baseline):
    result, plan, doomed = chaos_run
    # Upstream stages untouched by the plan: same segments/transitions.
    assert result.clean.segments == baseline.clean.segments
    assert len(result.extraction.transitions) == len(baseline.extraction.transitions)
    # Survivors match the fault-free run exactly; doomed units are absent.
    assert set(result.matched) == set(baseline.matched) - doomed
    for index, route in result.matched.items():
        assert route == baseline.matched[index]
    assert result.kept_transitions == [
        i for i in baseline.kept_transitions if i not in doomed
    ]


def test_errors_jsonl_round_trips_deterministically(chaos_run, chaos_out):
    result, plan, doomed = chaos_run
    quarantine = Quarantine()
    for error in result.errors:
        quarantine.add(error)
    path = chaos_out / "errors.jsonl"
    assert quarantine.write_jsonl(path) == len(doomed)
    assert read_errors_jsonl(path) == result.errors
    # Errors fold in transition order: deterministic across replays.
    indexes = [e.transition_index for e in result.errors]
    assert indexes == sorted(indexes)


def test_error_rate_threshold_fails_the_run(chaos_seed):
    config = StudyConfig(
        fleet=FLEET,
        robustness=RobustnessConfig(
            max_error_rate=1e-9, retries=0, backoff_base_s=0.0
        ),
        faults=FaultPlan(seed=chaos_seed, match_error_rate=0.2),
    )
    with pytest.raises(ErrorRateExceeded) as info:
        OuluStudy(config).run()
    assert info.value.rate > info.value.max_rate
    assert info.value.errors  # the CLI persists these before exiting
