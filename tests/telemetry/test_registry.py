"""Metric registry: families, series, labels, thread safety."""

import threading

import pytest

from repro.telemetry import MetricRegistry
from repro.util.errors import ValidationError


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricRegistry()
        c = reg.counter("requests_total")
        assert c.labels().value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.labels().value == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricRegistry()
        c = reg.counter("requests_total")
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricRegistry()
        c = reg.counter("chunks_total", "", ("stage",))
        c.labels(stage="compress").inc(3)
        c.labels("send").inc(1)
        assert c.labels(stage="compress").value == 3
        assert c.labels(stage="send").value == 1

    def test_same_labels_return_same_series(self):
        reg = MetricRegistry()
        c = reg.counter("chunks_total", "", ("stage",))
        assert c.labels("x") is c.labels(stage="x")


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricRegistry()
        g = reg.gauge("depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.labels().value == 3

    def test_high_water_survives_later_drops(self):
        reg = MetricRegistry()
        g = reg.gauge("depth").labels()
        for v in (1, 7, 2, 0):
            g.set(v)
        assert g.value == 0
        assert g.high_water == 7


class TestValidation:
    def test_bad_metric_name(self):
        with pytest.raises(ValidationError):
            MetricRegistry().counter("bad name!")

    def test_bad_label_name(self):
        with pytest.raises(ValidationError):
            MetricRegistry().counter("ok", "", ("bad-label",))

    def test_duplicate_label_names(self):
        with pytest.raises(ValidationError):
            MetricRegistry().counter("ok", "", ("a", "a"))

    def test_wrong_label_count(self):
        c = MetricRegistry().counter("ok", "", ("a", "b"))
        with pytest.raises(ValidationError):
            c.labels("only-one")

    def test_unknown_keyword_label(self):
        c = MetricRegistry().counter("ok", "", ("a",))
        with pytest.raises(ValidationError):
            c.labels(a="1", nope="2")

    def test_unlabeled_convenience_requires_schemaless_family(self):
        c = MetricRegistry().counter("ok", "", ("a",))
        with pytest.raises(ValidationError):
            c.inc()

    def test_reregister_same_schema_returns_same_family(self):
        reg = MetricRegistry()
        a = reg.counter("x_total", "", ("stage",))
        b = reg.counter("x_total", "different help", ("stage",))
        assert a is b

    def test_reregister_kind_conflict(self):
        reg = MetricRegistry()
        reg.counter("x_total")
        with pytest.raises(ValidationError):
            reg.gauge("x_total")

    def test_reregister_label_conflict(self):
        reg = MetricRegistry()
        reg.counter("x_total", "", ("a",))
        with pytest.raises(ValidationError):
            reg.counter("x_total", "", ("b",))


class TestCardinalityCap:
    def _capped(self, k=2):
        reg = MetricRegistry()
        fam = reg.counter("x_total", "", ("stream",))
        fam.limit_cardinality("stream", k)
        return fam

    def test_first_k_values_keep_their_series(self):
        fam = self._capped(2)
        for stream in ("a", "b", "c", "d"):
            fam.labels(stream=stream).inc()
        values = {s.labels[0]: s.value for s in fam.series()}
        assert values == {"a": 1.0, "b": 1.0, "_other": 2.0}

    def test_admission_is_stable_across_increments(self):
        # An admitted value never migrates to _other mid-run, so its
        # counter stays monotonic.
        fam = self._capped(1)
        fam.labels(stream="a").inc()
        fam.labels(stream="b").inc()
        fam.labels(stream="a").inc()
        values = {s.labels[0]: s.value for s in fam.series()}
        assert values == {"a": 2.0, "_other": 1.0}

    def test_explicit_other_passes_through(self):
        fam = self._capped(1)
        fam.labels(stream="_other").inc()
        fam.labels(stream="a").inc()
        values = {s.labels[0]: s.value for s in fam.series()}
        assert values == {"_other": 1.0, "a": 1.0}

    def test_multi_label_families_cap_one_label(self):
        reg = MetricRegistry()
        fam = reg.counter("y_total", "", ("stage", "stream"))
        fam.limit_cardinality("stream", 1)
        fam.labels(stage="recv", stream="a").inc()
        fam.labels(stage="recv", stream="b").inc()
        keys = {s.labels for s in fam.series()}
        assert keys == {("recv", "a"), ("recv", "_other")}

    def test_unknown_label_rejected(self):
        fam = MetricRegistry().counter("z_total", "", ("stage",))
        with pytest.raises(ValidationError):
            fam.limit_cardinality("stream", 4)

    def test_nonpositive_budget_rejected(self):
        fam = MetricRegistry().counter("z_total", "", ("stream",))
        with pytest.raises(ValidationError):
            fam.limit_cardinality("stream", 0)


class TestFacadeStreamCaps:
    def test_deferred_family_folds_past_top_k(self):
        from repro.telemetry import Telemetry

        tel = Telemetry(stream_label_top_k=2)
        for stream in ("a", "b", "c", "d"):
            tel.record_deferred(stream)
        deferred = tel.registry.get("repro_receiver_deferred_total")
        assert {s.labels[0] for s in deferred.series()} == {
            "a", "b", "_other",
        }
        assert tel.counter_value(
            "repro_receiver_deferred_total", stream="_other"
        ) == 2

    def test_per_stage_chunk_counters_are_not_capped(self):
        # pipeline_chunks_total drives the parity tests and rate panes;
        # the cap applies only to the tenant-scaling family.
        from repro.telemetry import Telemetry

        tel = Telemetry(stream_label_top_k=1)
        for stream in ("a", "b", "c"):
            tel.record_chunk("feed", stream, 1)
        chunks = tel.registry.get("pipeline_chunks_total")
        assert {s.labels[1] for s in chunks.series()} == {"a", "b", "c"}


class TestRegistryViews:
    def test_names_sorted(self):
        reg = MetricRegistry()
        reg.counter("zzz_total")
        reg.gauge("aaa")
        assert reg.names() == ["aaa", "zzz_total"]
        assert "aaa" in reg
        assert reg.get("zzz_total").kind == "counter"


class TestConcurrency:
    def test_many_threads_one_counter(self):
        reg = MetricRegistry()
        series = reg.counter("hits_total").labels()
        n_threads, n_incs = 8, 5000

        def bump():
            for _ in range(n_incs):
                series.inc()

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert series.value == n_threads * n_incs

    def test_many_threads_racing_series_creation(self):
        reg = MetricRegistry()
        fam = reg.counter("hits_total", "", ("worker",))
        barrier = threading.Barrier(8)

        def bump(i):
            barrier.wait()
            for _ in range(1000):
                fam.labels(worker=str(i % 2)).inc()

        threads = [
            threading.Thread(target=bump, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        total = sum(s.value for s in fam.series())
        assert total == 8 * 1000
        assert len(fam.series()) == 2

    def test_many_threads_one_histogram(self):
        reg = MetricRegistry()
        h = reg.histogram("lat_seconds").labels()

        def observe():
            for i in range(2000):
                h.observe(0.001 * (i % 10 + 1))

        threads = [threading.Thread(target=observe) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert h.count == 6 * 2000
        assert sum(h.bucket_counts) == h.count
