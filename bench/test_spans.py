import pytest

import spans
from spans import Span, SpanRecorder


def tree():
    # root [0, 10] with children [1, 3] and [2, 4] (overlapping) and
    # [6, 7]; the last has a grandchild [6.2, 6.5].
    return [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 4.0, 0, "r"),
        Span("a", 6.0, 7.0, 0, "r"),
        Span("leaf", 6.2, 6.5, 3, "r"),
    ]


def test_self_time_subtracts_covered_child_time():
    got = spans.self_times(tree())
    assert got == pytest.approx([10.0 - 3.0 - 1.0, 2.0, 2.0, 0.7, 0.3])


def test_self_times_sum_to_root_duration():
    assert sum(spans.self_times(tree())) == pytest.approx(10.0 + 1.0)  # [2, 3] counted twice


def test_summarize_groups_by_name():
    summary = spans.summarize(tree())
    assert summary["a"]["calls"] == 2
    assert summary["a"]["s"] == pytest.approx(3.0)
    assert summary["a"]["self_s"] == pytest.approx(2.7)
    assert summary["root"]["self_s"] == pytest.approx(6.0)


def test_recorder_nests_counts_and_round_trips(tmp_path):
    rec = SpanRecorder("run-1")

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("inner", inner, lambda r, args, kwargs, out: r.count("seen", out))
    outer = rec.wrap("outer", lambda: traced_inner(1) + traced_inner(2))
    assert outer() == 5
    assert [s.name for s in rec.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert rec.counters["seen"] == 5
    path = tmp_path / "spans.json"
    rec.dump(path)
    loaded, counters = spans.load(path)
    assert loaded == rec.spans
    assert counters == {"seen": 5}


def test_recorder_closes_span_on_exception():
    rec = SpanRecorder("run-2")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.spans[0].name == "boom" and rec.spans[0].end >= rec.spans[0].start
