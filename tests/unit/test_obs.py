"""Unit tests for the observability core (repro.obs).

Covers the three pillars in isolation: the metrics registry (instrument
kinds, label bounding, write accounting, no-op singletons), request tracing
(span trees, context propagation, cross-thread stitching, the ring buffer),
and exposition (Prometheus render/parse round trip, JSON stats dumps,
provenance stamping).
"""

import json
import threading
from dataclasses import fields

import pytest

from repro import obs
from repro.datasets.loaders import load_dataset
from repro.indexes.base import IndexStats
from repro.indexes.registry import available_indexes, make_index
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import (
    dump_stats_json,
    parse_prometheus,
    phase_totals,
    render_prometheus,
)
from repro.obs.metrics import (
    MAX_LABEL_SETS,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    OVERFLOW_LABEL,
    MetricsRegistry,
)
from repro.obs.provenance import append_record, provenance_block


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()
    yield
    obs.disable()
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()


class TestRuntime:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_enable_disable_round_trip(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_enabled_scope_restores_previous_state(self):
        with obs.enabled_scope():
            assert obs.enabled()
        assert not obs.enabled()
        obs.enable()
        with obs.enabled_scope(False):
            assert not obs.enabled()
        assert obs.enabled()


class TestNoopSingletons:
    """The disabled path must hand out the shared no-op objects."""

    def test_disabled_accessors_return_the_singletons(self):
        assert obs_metrics.counter("x_total") is NOOP_COUNTER
        assert obs_metrics.gauge("x") is NOOP_GAUGE
        assert obs_metrics.histogram("x_seconds") is NOOP_HISTOGRAM

    def test_noop_labels_returns_self(self):
        assert NOOP_COUNTER.labels("a", "b") is NOOP_COUNTER

    def test_disabled_span_is_the_noop_singleton(self):
        assert obs_trace.begin_span("x") is obs_trace.NOOP_SPAN
        with obs_trace.span("x") as sp:
            assert sp is obs_trace.NOOP_SPAN

    def test_noop_writes_register_nothing(self):
        NOOP_COUNTER.inc()
        NOOP_GAUGE.set(5)
        NOOP_HISTOGRAM.observe(0.1)
        assert obs_metrics.REGISTRY.collect() == []

    def test_cached_handle_stops_recording_after_disable(self):
        obs.enable()
        handle = obs_metrics.counter("repro_test_total", "t")
        handle.inc()
        obs.disable()
        handle.inc()  # must silently drop, not record
        obs.enable()
        [family] = [
            f for f in obs_metrics.REGISTRY.collect() if f["name"] == "repro_test_total"
        ]
        assert family["samples"][0]["value"] == 1.0


class TestMetricsRegistry:
    def test_counter_gauge_histogram_kinds(self):
        obs.enable()
        obs_metrics.counter("c_total", "c").inc(2)
        obs_metrics.gauge("g", "g").set(7)
        obs_metrics.histogram("h_seconds", "h").observe(0.003)
        by_name = {f["name"]: f for f in obs_metrics.REGISTRY.collect()}
        assert by_name["c_total"]["samples"][0]["value"] == 2.0
        assert by_name["g"]["samples"][0]["value"] == 7.0
        assert by_name["h_seconds"]["samples"][0]["count"] == 1

    def test_gauge_dec(self):
        obs.enable()
        g = obs_metrics.gauge("g")
        g.inc(5)
        g.dec(2)
        [family] = obs_metrics.REGISTRY.collect()
        assert family["samples"][0]["value"] == 3.0

    def test_histogram_bucketing(self):
        obs.enable()
        h = obs_metrics.histogram("h_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(value)
        [family] = obs_metrics.REGISTRY.collect()
        sample = family["samples"][0]
        assert sample["buckets"] == [1, 2, 1, 1]  # (≤.01, ≤.1, ≤1, +Inf]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(5.605)

    def test_boundary_value_falls_in_its_bucket(self):
        obs.enable()
        h = obs_metrics.histogram("h_seconds", buckets=(0.01, 0.1))
        h.observe(0.01)  # le="0.01" is inclusive in Prometheus
        [family] = obs_metrics.REGISTRY.collect()
        assert family["samples"][0]["buckets"] == [1, 0, 0]

    def test_kind_conflict_rejected(self):
        obs.enable()
        obs_metrics.counter("same_name")
        with pytest.raises(ValueError, match="already registered"):
            obs_metrics.gauge("same_name")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.register("counter", "bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.register("counter", "ok_total", labelnames=("bad-label",))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.register("histogram", "h", buckets=(1.0, 0.5))

    def test_wrong_label_arity_rejected(self):
        obs.enable()
        family = obs_metrics.counter("c_total", labelnames=("op",))
        with pytest.raises(ValueError, match="label values"):
            family.labels("a", "b")

    def test_label_cardinality_folds_into_overflow(self):
        obs.enable()
        family = obs_metrics.counter("c_total", labelnames=("k",))
        for i in range(MAX_LABEL_SETS + 10):
            family.labels(f"v{i}").inc()
        [collected] = obs_metrics.REGISTRY.collect()
        labels = {s["labels"]["k"] for s in collected["samples"]}
        assert OVERFLOW_LABEL in labels
        assert len(labels) == MAX_LABEL_SETS + 1
        overflow = next(
            s for s in collected["samples"] if s["labels"]["k"] == OVERFLOW_LABEL
        )
        assert overflow["value"] == 10.0

    def test_total_writes_accounts_every_write(self):
        obs.enable()
        before = obs_metrics.REGISTRY.total_writes()
        obs_metrics.counter("c_total").inc()
        obs_metrics.gauge("g").set(1)
        obs_metrics.histogram("h_seconds").observe(0.1)
        assert obs_metrics.REGISTRY.total_writes() - before == 3

    def test_concurrent_increments_do_not_lose_writes(self):
        obs.enable()
        family = obs_metrics.counter("c_total")

        def hammer():
            for _ in range(500):
                family.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        [collected] = obs_metrics.REGISTRY.collect()
        assert collected["samples"][0]["value"] == 2000.0


#: The most metric writes one ``quantities()`` makes with obs on, read off
#: the engine: one ``repro_probe_ops_total`` increment per ``IndexStats``
#: field that moved, the rho and delta ``repro_engine_phase_seconds``
#: observations, and for each of the two ``parallel.tasks`` runs (rho, then
#: delta) one ``repro_parallel_tasks_total`` increment and one
#: ``repro_parallel_chunk_seconds`` observation (a serial run is one chunk).
QUERY_WRITE_BOUND = len(fields(IndexStats)) + 2 + 2 * 2


def span_shape(node):
    return (node["name"], tuple(span_shape(child) for child in node["children"]))


class TestQueryInstrumentationCost:
    """What one query records does not grow with n, so the disabled
    instruments' share of a query's time can only shrink as n grows.  (The
    no-op singletons above pin what a disabled instrument costs.)"""

    @staticmethod
    def observed_query(index, dc):
        writes = obs_metrics.REGISTRY.total_writes()
        with obs.enabled_scope():
            root = obs_trace.begin_span("test.query")
            with obs_trace.use_span(root):
                index.quantities(dc)
            root.finish()
        writes = obs_metrics.REGISTRY.total_writes() - writes
        return writes, span_shape(obs_trace.get_trace(root.trace_id))

    @pytest.mark.parametrize("family", available_indexes())
    def test_writes_and_spans_do_not_grow_with_n(self, family):
        shapes = []
        for n in (250, 1000):
            ds = load_dataset("s1", n=n, seed=0)
            dc = float(min(ds.params.dc_grid))
            params = {"tau": 4 * dc} if family.startswith("rn-") else {}
            index = make_index(family, **params).fit(ds.points)
            writes, shape = self.observed_query(index, dc)
            assert writes <= QUERY_WRITE_BOUND, f"n={n}"
            shapes.append(shape)
        assert shapes[0] == shapes[1]


class TestTrace:
    def test_span_tree_nesting_and_durations(self):
        obs.enable()
        with obs_trace.span("root") as root:
            with obs_trace.span("child"):
                with obs_trace.span("grandchild"):
                    pass
        tree = obs_trace.get_trace(root.trace_id)
        assert tree["name"] == "root"
        assert tree["children"][0]["name"] == "child"
        assert tree["children"][0]["children"][0]["name"] == "grandchild"

        def check(node):
            assert node["duration_ns"] >= 0
            assert node["offset_ns"] >= 0
            for child in node["children"]:
                check(child)

        check(tree)

    def test_only_finished_roots_enter_the_buffer(self):
        obs.enable()
        sp = obs_trace.begin_span("root")
        assert obs_trace.get_trace(sp.trace_id) is None
        sp.finish()
        assert obs_trace.get_trace(sp.trace_id) is not None

    def test_finish_is_idempotent(self):
        obs.enable()
        sp = obs_trace.begin_span("root")
        sp.finish()
        end = sp.end_ns
        sp.finish()
        assert sp.end_ns == end
        assert obs_trace.recent_trace_ids().count(sp.trace_id) == 1

    def test_explicit_parent_stitches_across_threads(self):
        obs.enable()
        root = obs_trace.begin_span("root")
        names = []

        def worker():
            with obs_trace.use_span(root):
                with obs_trace.span("child") as sp:
                    names.append(sp.trace_id)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        root.finish()
        assert names == [root.trace_id]
        tree = obs_trace.get_trace(root.trace_id)
        assert [c["name"] for c in tree["children"]] == ["child"]

    def test_error_attribute_on_exception(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs_trace.span("root") as root:
                raise RuntimeError("boom")
        tree = obs_trace.get_trace(root.trace_id)
        assert tree["attrs"]["error"] == "RuntimeError"

    def test_ring_buffer_evicts_oldest(self):
        obs.enable()
        ids = []
        for _ in range(obs_trace.TRACE_BUFFER_CAPACITY + 5):
            with obs_trace.span("r") as sp:
                pass
            ids.append(sp.trace_id)
        assert obs_trace.get_trace(ids[0]) is None
        assert obs_trace.get_trace(ids[-1]) is not None


class TestExport:
    def test_prometheus_round_trip(self):
        obs.enable()
        obs_metrics.counter("repro_x_total", "help text", ("op",)).labels("a").inc(3)
        obs_metrics.gauge("repro_depth", "queue").set(2)
        obs_metrics.histogram("repro_h_seconds", "lat", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus()
        samples = parse_prometheus(text)
        assert samples["repro_x_total"] == [({"op": "a"}, 3.0)]
        assert samples["repro_depth"] == [({}, 2.0)]
        buckets = dict(
            (labels["le"], value) for labels, value in samples["repro_h_seconds_bucket"]
        )
        assert buckets == {"0.1": 0.0, "1": 1.0, "+Inf": 1.0}
        assert samples["repro_h_seconds_count"] == [({}, 1.0)]

    def test_label_escaping_round_trips(self):
        obs.enable()
        tricky = 'quote " backslash \\ done'
        obs_metrics.counter("repro_x_total", "", ("k",)).labels(tricky).inc()
        samples = parse_prometheus(render_prometheus())
        assert samples["repro_x_total"][0][0]["k"] == tricky

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("this is not a metric line !!!\n")

    def test_phase_totals_sums_repeated_names(self):
        obs.enable()
        with obs_trace.span("root") as root:
            with obs_trace.span("phase"):
                pass
            with obs_trace.span("phase"):
                pass
        totals = phase_totals(obs_trace.get_trace(root.trace_id))
        assert set(totals) == {"root", "phase"}
        assert totals["phase"] >= 0.0

    def test_dump_stats_json(self, tmp_path):
        obs.enable()
        obs_metrics.counter("repro_x_total").inc()
        with obs_trace.span("root") as root:
            pass
        path = tmp_path / "stats.json"
        payload = dump_stats_json(
            str(path), obs_trace.get_trace(root.trace_id), extra={"note": "hi"}
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        assert on_disk["schema_version"] == 1
        assert "repro_x_total" in on_disk["metrics"]
        assert on_disk["trace"]["name"] == "root"
        assert on_disk["note"] == "hi"


class TestProvenance:
    def test_block_has_the_common_fields(self):
        block = provenance_block()
        assert set(block) == {
            "schema_version", "git_commit", "python", "numpy", "cpu_count", "usable_cpus",
        }
        assert block["schema_version"] == 1
        assert block["usable_cpus"] >= 1

    def test_append_record_stamps_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        append_record({"a": 1}, str(path))
        append_record({"b": 2}, str(path))
        records = json.loads(path.read_text())
        assert [sorted(r)[0] for r in records] == ["a", "b"]
        assert all("provenance" in r for r in records)

    def test_append_record_wraps_legacy_single_record_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"legacy": true}')
        append_record({"new": 1}, str(path))
        records = json.loads(path.read_text())
        assert records[0] == {"legacy": True}
        assert records[1]["new"] == 1

    def test_existing_provenance_left_untouched(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        append_record({"provenance": {"custom": True}}, str(path))
        [record] = json.loads(path.read_text())
        assert record["provenance"] == {"custom": True}
