"""Tests for repro.cleaning.pipeline on simulated data."""


from repro.cleaning import CleaningPipeline
from repro.cleaning.filters import FilterConfig


class TestPipelineOnSimulatedFleet:
    def test_produces_segments(self, clean_result):
        assert clean_result.report.segments_out > 0
        assert len(clean_result.segments) == clean_result.report.segments_out

    def test_segment_count_close_to_true_runs(self, clean_result, runs):
        # Segmentation should recover most customer runs (within 20 %).
        ratio = len(clean_result.segments) / len(runs)
        assert 0.8 < ratio < 1.2

    def test_detects_injected_reordering(self, clean_result):
        assert clean_result.report.reordered_trips > 0
        assert clean_result.report.reordering_saved_m > 0.0

    def test_removes_injected_duplicates_and_glitches(self, clean_result):
        assert clean_result.report.duplicates_removed > 0
        assert clean_result.report.outliers_removed > 0

    def test_segments_meet_filters(self, clean_result):
        config = FilterConfig()
        for seg in clean_result.segments:
            assert len(seg.points) >= config.min_segment_points
            assert seg.distance_m <= config.max_segment_length_m

    def test_segment_times_monotonic(self, clean_result):
        for seg in clean_result.segments:
            times = [p.time_s for p in seg.points]
            assert times == sorted(times)

    def test_rule1_dominates_for_taxi_dwells(self, clean_result):
        hits = clean_result.report.segmentation.rule_hits
        assert hits[1] > hits[2] + hits[3] + hits[4]

    def test_points_accounting(self, clean_result):
        r = clean_result.report
        assert r.points_out <= r.points_in
        assert r.points_out == sum(len(s.points) for s in clean_result.segments)

    def test_repair_disabled(self, fleet):
        result = CleaningPipeline(repair=False).run(fleet)
        assert result.report.reordered_trips == 0
        # Without repair, zigzag hops may push some implied speeds over the
        # outlier threshold; segments still come out.
        assert result.report.segments_out > 0

    def test_mean_segment_shape_plausible(self, clean_result):
        # Paper Table 4 scale: a couple of km, a few minutes.
        import statistics

        dists = [s.distance_m for s in clean_result.segments]
        assert 1_000 < statistics.mean(dists) < 6_000
        durations = [s.duration_s for s in clean_result.segments]
        assert 120 < statistics.mean(durations) < 1_200
