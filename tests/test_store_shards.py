"""The sharded artefact store: round-trip, invalidation, byte-identity.

The store's contract has three legs —

* **round-trip**: what a stage computed is what a later run decodes,
  served zero-copy from memory-mapped columns;
* **invalidation**: a config flip dirties exactly the dependent stages,
  a code-version bump dirties everything, corruption recomputes rather
  than crashes;
* **byte-identity**: warm, cold, parallel and store-less runs all
  produce the same artefacts, down to every float.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.study import OuluStudy, StudyConfig
from repro.faults import FaultPlan, RobustnessConfig
from repro.store import (
    EXCLUDED_FIELDS,
    STAGE_FIELDS,
    ShardStore,
    StoreConfig,
    StoreError,
    canonical,
    chain_key,
    code_version,
    config_key,
    shard_input_hash,
)
from repro.store.cachekey import STAGES
from repro.parallel import ExecutorConfig
from repro.traces import FleetSpec
from repro.traces.model import RoutePoint, Trip


def small_config(store_dir=None, **overrides) -> StudyConfig:
    base = dict(
        fleet=FleetSpec(n_taxis=5, n_days=4, seed=42),
        store=StoreConfig(dir=str(store_dir)) if store_dir is not None else None,
    )
    base.update(overrides)
    return StudyConfig(**base)


def store_counters(result) -> dict:
    return {
        k: v for k, v in result.metrics["counters"].items()
        if k.startswith("store.")
    }


def artefact_fingerprint(result) -> tuple:
    """Every float of every externally visible artefact."""
    stats = tuple(
        (s.direction, s.car_id, s.season, s.route_time_h, s.route_distance_km,
         s.low_speed_pct, s.normal_speed_pct, s.fuel_ml, s.n_traffic_lights,
         s.n_junctions, s.n_pedestrian_crossings, s.n_bus_stops)
        for s in result.route_stats
    )
    routes = tuple(
        (i, r.segment_id, r.car_id, tuple(r.edge_sequence), r.gaps_filled,
         tuple((m.edge_id, m.arc_m, m.snapped_xy, m.match_distance_m, m.score,
                m.point.point_id, m.point.trip_id, m.point.lat, m.point.lon,
                m.point.time_s, m.point.speed_kmh, m.point.fuel_ml)
               for m in r.matched))
        for i, r in sorted(result.matched.items())
    )
    funnel = tuple(
        (f.car_id, f.total_segments, f.filtered_cleaned, f.transitions_total,
         f.within_centre, f.post_filtered)
        for f in result.funnel
    )
    segments = tuple(
        (s.segment_id, s.trip_id, s.car_id, s.index, len(s.points))
        for s in result.clean.segments
    )
    errors = tuple(
        (e.stage, e.kind, e.trip_id, e.segment_id, e.transition_index)
        for e in result.errors
    )
    return (
        stats, routes, funnel, segments, tuple(result.kept_transitions),
        errors, json.dumps(result.cell_features, sort_keys=True, default=str),
    )


# -- ShardStore round-trip ---------------------------------------------------


class TestShardStore:
    def test_put_get_roundtrip_mmap(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        columns = {
            "a": np.arange(5, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
        }
        store.put("ab" * 20, "clean", "d0", {"n": 5}, columns)
        art = store.get("ab" * 20, "clean", "d0")
        assert art is not None
        assert art.meta == {"n": 5}
        assert isinstance(art.columns["a"], np.memmap)
        np.testing.assert_array_equal(art.columns["a"], columns["a"])
        np.testing.assert_array_equal(art.columns["b"], columns["b"])

    def test_miss_returns_none(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        assert store.get("cd" * 20, "clean", "d0") is None

    def test_put_is_idempotent(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        key = "ef" * 20
        store.put(key, "clean", "d0", {"v": 1}, {"a": np.zeros(1)})
        store.put(key, "clean", "d0", {"v": 2}, {"a": np.ones(1)})
        assert store.get(key).meta == {"v": 1}  # first write wins

    def test_truncated_column_recovers_as_miss(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        key = "12" * 20
        store.put(key, "clean", "d0", {}, {"a": np.arange(100)})
        column = store._dir_for(key) / "c_a.npy"
        column.write_bytes(column.read_bytes()[:8])  # truncate mid-header
        assert store.get(key, "clean", "d0") is None
        assert not store._dir_for(key).exists()  # damaged artefact dropped

    def test_mangled_meta_recovers_as_miss(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        key = "34" * 20
        store.put(key, "clean", "d0", {}, {"a": np.arange(3)})
        (store._dir_for(key) / "meta.json").write_text("{not json")
        assert store.get(key) is None

    def test_version_mismatch_rejected(self, tmp_path):
        root = tmp_path / "s"
        ShardStore(root)
        (root / "STORE_VERSION").write_text("99\n")
        with pytest.raises(StoreError):
            ShardStore(root)

    def test_ls_and_gc(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.put("aa" * 20, "clean", "d0", {}, {"a": np.arange(10)})
        store.put("bb" * 20, "match", "d1", {}, {"a": np.arange(10)})
        records = store.ls()
        assert [(r["shard"], r["stage"]) for r in records] == [
            ("d0", "clean"), ("d1", "match"),
        ]
        assert all(r["bytes"] > 0 for r in records)
        # Age-based eviction drops everything older than the window.
        evicted = store.gc(max_age_s=0.0, now=records[0]["last_used"] + 60)
        assert len(evicted) == 2
        assert store.ls() == []

    def test_gc_max_bytes_evicts_lru_first(self, tmp_path):
        import os

        store = ShardStore(tmp_path / "s")
        store.put("aa" * 20, "clean", "d0", {}, {"a": np.arange(100)})
        store.put("bb" * 20, "clean", "d1", {}, {"a": np.arange(100)})
        # Pin distinct last-used times (filesystem mtime granularity can
        # otherwise collapse put+get into one instant): d1 is older.
        os.utime(store._dir_for("aa" * 20) / "used", (2_000, 2_000))
        os.utime(store._dir_for("bb" * 20) / "used", (1_000, 1_000))
        evicted = store.gc(max_bytes=store.ls()[0]["bytes"] + 10)
        assert [r["shard"] for r in evicted] == ["d1"]
        assert store.get("aa" * 20) is not None


# -- cache keys --------------------------------------------------------------


class TestCacheKeys:
    def test_canonical_is_deterministic(self):
        config = small_config()
        assert canonical(config) == canonical(small_config())
        assert config_key(config, "clean") == config_key(small_config(), "clean")

    def test_canonical_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_stage_key_changes_only_downstream(self):
        base = small_config()
        flipped = small_config(matcher="hmm")
        for stage in ("clean", "extract"):
            assert config_key(base, stage) == config_key(flipped, stage)
        assert config_key(base, "match") != config_key(flipped, "match")

    def test_every_config_field_is_covered(self):
        import dataclasses

        keyed = {name for fields in STAGE_FIELDS.values() for name in fields}
        for field in dataclasses.fields(StudyConfig):
            assert field.name in keyed or field.name in EXCLUDED_FIELDS, (
                f"StudyConfig.{field.name} must be keyed or excluded "
                "(see tools/lint_cache_keys.py)"
            )

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "test-v1")
        assert code_version() == "test-v1"
        monkeypatch.delenv("REPRO_CODE_VERSION")
        assert len(code_version()) == 40  # blake2b-20 hex

    def test_shard_input_hash_tracks_content(self, fleet):
        trips = fleet.trips[:3]
        assert shard_input_hash(trips) == shard_input_hash(list(trips))
        assert shard_input_hash(trips) != shard_input_hash(trips[:2])

    def test_shard_input_hash_digest_is_stable(self):
        # A fixed fleet's digest, pinned: store keys written by earlier
        # releases must keep hitting however the columns are built.  The
        # fleet mixes empty, one-point and multi-point trips.
        trips = []
        for k, n in enumerate((5, 0, 1, 7)):
            points = [
                RoutePoint(
                    point_id=100 * k + i, trip_id=k + 1,
                    lat=65.0 + 1e-3 * i + 1e-7 * k, lon=25.4 + 2e-3 * i,
                    time_s=30.0 * i + 0.25 * k, speed_kmh=10.0 + i, fuel_ml=5.5 * i,
                )
                for i in range(n)
            ]
            trips.append(Trip(trip_id=k + 1, car_id=7 + k % 2, points=points))
        assert shard_input_hash(trips) == "7adfff2a69df76b55082681ffcf60f10b08a60ce"
        assert shard_input_hash([]) == "3345524abf6bbe1809449224b5972c41790b6cf2"

    def test_chain_key_orders_parts(self):
        assert chain_key("a", "b") != chain_key("b", "a")


# -- end-to-end invalidation and byte-identity -------------------------------


@pytest.fixture(scope="module")
def warm_pair(tmp_path_factory):
    """A cold run populating a store and a warm rerun against it."""
    store_dir = tmp_path_factory.mktemp("store")
    cold = OuluStudy(small_config(store_dir)).run()
    warm = OuluStudy(small_config(store_dir)).run()
    return store_dir, cold, warm


class TestDeltaRecomputation:
    def test_warm_run_recomputes_nothing(self, warm_pair):
        __, cold, warm = warm_pair
        sc = store_counters(warm)
        assert sc.get("store.misses", 0) == 0
        assert sc.get("store.recomputed", 0) == 0
        assert sc["store.hits"] == store_counters(cold)["store.misses"]
        assert sc["store.hits"] == len(STAGES) * sc["store.hits.clean"]

    def test_warm_equals_cold_equals_off(self, warm_pair):
        __, cold, warm = warm_pair
        off = OuluStudy(small_config()).run()
        assert artefact_fingerprint(cold) == artefact_fingerprint(warm)
        assert artefact_fingerprint(cold) == artefact_fingerprint(off)

    def test_grid_identical(self, warm_pair):
        __, cold, warm = warm_pair
        assert repr(sorted(cold.grid.cells())) == repr(sorted(warm.grid.cells()))

    def test_config_flip_dirties_only_dependents(self, warm_pair):
        store_dir, cold, __ = warm_pair
        flipped = OuluStudy(small_config(store_dir, matcher="hmm")).run()
        sc = store_counters(flipped)
        shards = store_counters(cold)["store.misses.clean"]
        assert sc["store.hits.clean"] == shards
        assert sc["store.hits.extract"] == shards
        assert sc.get("store.misses.clean", 0) == 0
        assert sc.get("store.misses.extract", 0) == 0
        assert sc["store.misses.match"] == shards
        assert sc["store.misses.features"] == shards

    def test_code_version_bump_is_full_miss(self, warm_pair, monkeypatch):
        store_dir, cold, __ = warm_pair
        monkeypatch.setenv("REPRO_CODE_VERSION", "bumped")
        bumped = OuluStudy(small_config(store_dir)).run()
        sc = store_counters(bumped)
        assert sc.get("store.hits", 0) == 0
        assert sc["store.misses"] == store_counters(cold)["store.misses"]
        assert artefact_fingerprint(bumped) == artefact_fingerprint(cold)

    def test_corrupt_artefact_recomputes_not_crashes(self, tmp_path):
        store_dir = tmp_path / "store"
        cold = OuluStudy(small_config(store_dir)).run()
        # Truncate every stored column file — worst-case store damage.
        for column in store_dir.glob("objects/*/*/c_*.npy"):
            column.write_bytes(column.read_bytes()[:10])
        recovered = OuluStudy(small_config(store_dir)).run()
        sc = store_counters(recovered)
        assert sc["store.corrupt"] > 0
        assert sc.get("store.hits", 0) == 0
        assert artefact_fingerprint(recovered) == artefact_fingerprint(cold)

    def test_warm_hit_with_workers_is_byte_identical(self, warm_pair):
        store_dir, cold, __ = warm_pair
        parallel = OuluStudy(small_config(
            store_dir, executor=ExecutorConfig(workers=2, chunk_size=4),
        )).run()
        sc = store_counters(parallel)
        assert sc.get("store.misses", 0) == 0
        assert artefact_fingerprint(parallel) == artefact_fingerprint(cold)

    def test_cold_parallel_populates_identically(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = OuluStudy(small_config(serial_dir)).run()
        parallel = OuluStudy(small_config(
            parallel_dir, executor=ExecutorConfig(workers=2, chunk_size=4),
        )).run()
        assert artefact_fingerprint(serial) == artefact_fingerprint(parallel)
        # Content addressing: both stores hold exactly the same keys.
        serial_keys = sorted(r["key"] for r in ShardStore(serial_dir).ls())
        parallel_keys = sorted(r["key"] for r in ShardStore(parallel_dir).ls())
        assert serial_keys == parallel_keys

    def test_faulty_run_replays_quarantine_from_cache(self, tmp_path, chaos_seed):
        """Cached TripErrors fold into errors.jsonl identically warm."""
        store_dir = tmp_path / "store"
        plan = FaultPlan(seed=chaos_seed, clean_error_rate=0.15)
        tolerant = RobustnessConfig(max_error_rate=0.5)
        cold = OuluStudy(small_config(
            store_dir, faults=plan, robustness=tolerant,
        )).run()
        warm = OuluStudy(small_config(
            store_dir, faults=plan, robustness=tolerant,
        )).run()
        assert cold.errors, "chaos plan injected no faults — rate too low?"
        assert store_counters(warm).get("store.misses", 0) == 0
        assert artefact_fingerprint(cold) == artefact_fingerprint(warm)
        # The fault plan is key material: dropping it must miss clean.
        clean_run = OuluStudy(small_config(store_dir)).run()
        assert store_counters(clean_run)["store.misses.clean"] > 0
        assert not clean_run.errors
