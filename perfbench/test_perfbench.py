"""Fast checks of the benchmark's own rules: no workload is run here."""

import json
from pathlib import Path

import pytest

import benchlib
from benchlib import Item, Span
from worker import Recorder


def test_tail_percentile_has_ten_samples_beyond_it():
    assert benchlib.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    value, pct, n = benchlib.tail_percentile([float(i) for i in range(57, 0, -1)])
    assert (value, n) == (47.0, 57)
    assert pct == pytest.approx(100 * 47 / 57)
    assert benchlib.tail_percentile([float(i) for i in range(11)])[0] == 0.0


def test_tail_percentile_with_ten_samples_or_fewer_is_the_maximum():
    assert benchlib.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        benchlib.tail_percentile([])


def test_fail_counting_includes_known_failures_and_exceptions():
    items = [
        Item("a", "series", "PROVED"),
        Item("sec1-g1a", "series", "CITED"),
        Item("aldawoud-t31-r10", "series", "KNOWN_FALSE", 7),
        Item("c", "cert", "PROVED"),
        Item("d", "series", "CONJECTURAL"),
    ]
    verdicts = {
        "a": "PASS",
        "sec1-g1a": "INCONCLUSIVE",
        "aldawoud-t31-r10": "FAIL",
        "c": "PASS",
        "d": "PASS",
    }
    assert benchlib.count_failures(items, verdicts) == (1, [])

    verdicts["d"] = "RAISED:ZeroDivisionError"
    failed, unexpected = benchlib.count_failures(items, verdicts)
    assert failed == 2
    assert unexpected == ["d: RAISED:ZeroDivisionError, expected PASS"]

    verdicts["aldawoud-t31-r10"] = "PASS"
    del verdicts["c"]
    failed, unexpected = benchlib.count_failures(items, verdicts)
    assert failed == 4
    assert len(unexpected) == 3


def test_known_failure_with_another_verdict_is_unexpected():
    items = [Item("sec1-g1a", "series", "CITED")]
    assert benchlib.count_failures(items, {"sec1-g1a": "FAIL"}) == (
        1,
        ["sec1-g1a: FAIL, expected PASS"],
    )


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("verify", 0.0, 10.0, None, "r"),
        Span("envelope", 1.0, 4.0, 0, "r"),
        Span("sturm", 2.0, 3.0, 1, "r"),
        Span("rhs", 5.0, 9.0, 0, "r"),
        Span("constants.pi", 6.0, 7.5, 3, "r"),
        Span("cert", 11.0, 12.0, None, "c"),
    ]
    assert benchlib.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.5, 1.0])
    assert sum(benchlib.self_times(spans)) == pytest.approx(11.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("verify", 0.0, 10.0, None, None), Span("sum", 1.0, 5.0, 0, None),
             Span("rhs", 4.0, 6.0, 0, None)]
    assert benchlib.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_metrics_from_spans():
    spans = [
        Span("verify", 0.0, 10.0, None, "a"),
        Span("envelope", 0.0, 3.0, 0, "a", 97),
        Span("sturm", 0.5, 2.5, 1, "a"),
        Span("sum", 3.0, 7.0, 0, "a", 2000),
        Span("rhs", 7.0, 9.0, 0, "a"),
        Span("constants.lvalue", 7.5, 8.5, 4, "a"),
        Span("verify", 10.0, 11.0, None, "b"),
        Span("envelope", 10.0, 10.5, 6, "b", "NotHypergeometric"),
    ]
    m = benchlib.layer_metrics(spans, {"a": 1.0, "b": 1.0})
    assert m["envelope.calls"] == 2
    assert m["envelope.refused"] == 1
    assert m["envelope.k0_max"] == 97
    assert m["envelope.busy_s"] == pytest.approx(3.5)
    assert m["envelope.sturm_s"] == pytest.approx(2.0)
    assert m["sum.us_per_term"] == pytest.approx(2000.0)
    assert m["rhs.self_s"] == pytest.approx(1.0)
    assert m["constants.lvalue_s"] == pytest.approx(1.0)
    assert m["verify.self_s"] == pytest.approx(1.5)
    assert m["trace.self_sum_s"] == pytest.approx(11.0)
    slow_b = benchlib.layer_metrics(spans, {"a": 1.0, "b": 0.5})
    assert slow_b["envelope.busy_s"] == pytest.approx(3.25)
    assert slow_b["verify.self_s"] == pytest.approx(1.25)


def test_seeds_reorder_the_same_records():
    ids = [f"r{i}" for i in range(40)]
    a = benchlib.seeded_order(ids, 1)
    b = benchlib.seeded_order(ids, 2)
    assert sorted(a) == sorted(b) == sorted(ids)
    assert a != b
    assert benchlib.seeded_order(list(reversed(ids)), 1) == a


def test_recorder_spans_nest_and_keep_exceptions():
    rec = Recorder(tracing=True)
    rec.record = "x"

    def inner(v):
        if v < 0:
            raise ValueError(v)
        return v * 2

    inner_t = rec.wrap("sum", inner, info=lambda r: r)
    outer_t = rec.wrap("verify", lambda v: inner_t(v) + 1)
    assert outer_t(3) == 7
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [(s[0], s[3], s[4], s[5]) for s in rec.spans]
    assert names == [
        ("verify", None, "x", None),
        ("sum", 0, "x", 6),
        ("verify", None, "x", "ValueError"),
        ("sum", 2, "x", "ValueError"),
    ]
    assert all(s[1] <= s[2] for s in rec.spans)


def test_verdict_table_diff():
    rows = [{"id": "b", "verdict": "PASS"}, {"id": "a", "verdict": "FAIL", "terms": 4}]
    table = benchlib.render_table(rows)
    assert table[1].startswith("a\tFAIL\t-\t4")
    assert benchlib.table_diff(table, table) == ["verdict table unchanged (2 records)"]
    changed = benchlib.render_table([{"id": "b", "verdict": "PASS"}, {"id": "a", "verdict": "PASS"}])
    diff = benchlib.table_diff(table, changed)
    assert "-a\tFAIL\t-\t4\t-\t-\t-" in diff and "+a\tPASS\t-\t-\t-\t-\t-" in diff


def test_pinned_catalog_gives_the_workload_sizes():
    catalog = pytest.importorskip("bseries.catalog")
    text = (Path(__file__).parent / "catalog.txt").read_text(encoding="utf-8")
    items = benchlib.catalog_items(catalog.loads_catalog(text))
    assert len(items) == 100
    sizes = {w: len(benchlib.select_items(w, items)) for w in benchlib.WORKLOADS}
    assert sizes == {"sweep30": 71, "deep_rational": 57, "deep_quadratic": 3}
    sweep = {it.id for it in benchlib.select_items("sweep30", items)}
    assert set(benchlib.KNOWN_FAILURES) <= sweep


def test_benchmark_json_names_the_reported_metrics():
    import run

    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(benchlib.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
