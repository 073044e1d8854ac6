"""The IndexStats coverage guarantee: snapshot/delta round-trips.

``as_dict`` / ``snapshot`` / ``delta_since`` iterate the dataclass
fields, so every counter — including ones added later — participates in
snapshots, deltas, and the telemetry ``stats.*`` flow automatically.
These tests make that guarantee executable: they enumerate the fields
programmatically instead of hard-coding names, so a new counter is
covered the moment it becomes a field (and can only escape by not being
a field, which ``reset`` parity would catch).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import pytest

from repro.index.base import WORK_COUNTERS, IndexStats
from repro.telemetry import MetricsRegistry, record_stats_delta, stats_metric

FIELD_NAMES = [f.name for f in dataclass_fields(IndexStats)]


def _filled(offset: int = 0) -> IndexStats:
    """An IndexStats with a distinct nonzero value in every field."""
    stats = IndexStats()
    for i, name in enumerate(FIELD_NAMES):
        setattr(stats, name, offset + 10 * (i + 1))
    return stats


class TestCoverageGuarantee:
    def test_every_fleet_work_counter_is_a_field(self):
        # The one list the sharded engine rolls up and the worker
        # processes ship back.
        assert set(WORK_COUNTERS) <= set(FIELD_NAMES)
        assert len(set(WORK_COUNTERS)) == len(WORK_COUNTERS)

    def test_every_counter_is_a_field(self):
        # The guarantee's precondition: all integer counters on the
        # class are dataclass fields (an attribute assigned only in
        # __init__/reset would silently escape snapshots).
        stats = _filled()
        plain_attrs = {
            k for k, v in vars(stats).items() if isinstance(v, int)
        }
        assert plain_attrs == set(FIELD_NAMES)

    def test_as_dict_covers_all_fields_in_order(self):
        stats = _filled()
        d = stats.as_dict()
        assert list(d) == FIELD_NAMES
        assert all(d[name] == getattr(stats, name) for name in FIELD_NAMES)

    def test_snapshot_is_deep_and_complete(self):
        stats = _filled()
        snap = stats.snapshot()
        assert snap.as_dict() == stats.as_dict()
        stats.queries += 99  # snapshot must be independent
        assert snap.queries == stats.queries - 99

    def test_delta_roundtrip_every_field(self):
        before = _filled()
        snap = before.snapshot()
        after = _filled(offset=7)  # +7 in every field
        delta = after.delta_since(snap)
        assert delta.as_dict() == {name: 7 for name in FIELD_NAMES}

    def test_delta_of_identical_snapshots_is_zero(self):
        stats = _filled()
        delta = stats.delta_since(stats.snapshot())
        assert delta.as_dict() == {name: 0 for name in FIELD_NAMES}

    def test_reset_covers_all_fields(self):
        stats = _filled()
        stats.reset()
        assert stats.as_dict() == {name: 0 for name in FIELD_NAMES}

    def test_reset_covers_a_counter_added_later(self):
        # reset() must iterate the fields like as_dict/snapshot/delta do:
        # a hand-written list of assignments would leave a new counter
        # (simulated by a subclass field) at its old value.
        @dataclass
        class Extended(IndexStats):
            slices_spliced: int = 0

        stats = Extended(queries=3, slices_spliced=9)
        stats.reset()
        assert stats.as_dict() == dict.fromkeys(
            [*FIELD_NAMES, "slices_spliced"], 0
        )

    @pytest.mark.parametrize("name", ["rebalances", "rows_migrated"])
    def test_sharding_counters_flow_through_deltas(self, name):
        # The two counters PR 4 added ride the same machinery — the
        # explicit spot-check the coverage guarantee points at.
        stats = IndexStats()
        before = stats.snapshot()
        setattr(stats, name, 5)
        assert getattr(stats.delta_since(before), name) == 5


class TestTelemetryFlow:
    def test_record_stats_delta_covers_every_nonzero_field(self):
        reg = MetricsRegistry()
        record_stats_delta(reg, _filled())
        counters = reg.counters()
        for i, name in enumerate(FIELD_NAMES):
            assert counters[stats_metric(name)] == 10 * (i + 1)

    def test_record_stats_delta_skips_zeros(self):
        reg = MetricsRegistry()
        delta = IndexStats(queries=3)
        record_stats_delta(reg, delta)
        assert reg.counters() == {stats_metric("queries"): 3}

    def test_repeated_deltas_accumulate(self):
        reg = MetricsRegistry()
        record_stats_delta(reg, IndexStats(cracks=2))
        record_stats_delta(reg, IndexStats(cracks=5))
        assert reg.counters()[stats_metric("cracks")] == 7

    def test_metrics_vocabulary_tracks_fields(self):
        # naming.METRICS generates stats.* from the dataclass fields;
        # a field rename or addition must show up there (and then in
        # docs/OBSERVABILITY.md, enforced by tools/check_docs.py).
        from repro.telemetry.naming import METRICS

        for name in FIELD_NAMES:
            assert stats_metric(name) in METRICS
