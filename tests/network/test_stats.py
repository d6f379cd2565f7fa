"""Unit tests for repro.network.stats."""

from repro.network.message import result_message, token_message
from repro.network.stats import TrafficStats


def make_stats() -> TrafficStats:
    stats = TrafficStats()
    stats.record(token_message("a", "b", 1, [1.0]))
    stats.record(token_message("b", "c", 1, [2.0]))
    stats.record(token_message("a", "b", 2, [3.0]))
    stats.record(result_message("a", "b", 3, [3.0]))
    return stats


class TestRecording:
    def test_totals(self):
        stats = make_stats()
        assert stats.messages_total == 4
        assert stats.bytes_total > 0

    def test_per_link(self):
        stats = make_stats()
        assert stats.per_link[("a", "b")] == 3
        assert stats.per_link[("b", "c")] == 1

    def test_per_round(self):
        stats = make_stats()
        assert stats.per_round[1] == 2
        assert stats.per_round[2] == 1
        assert stats.per_round[99] == 0

    def test_per_type(self):
        stats = make_stats()
        assert stats.per_type["token"] == 3
        assert stats.per_type["result"] == 1

    def test_rounds_seen(self):
        assert make_stats().rounds_seen == 3

    def test_rounds_seen_empty(self):
        assert TrafficStats().rounds_seen == 0


class TestAggregation:
    def test_merge(self):
        a, b = make_stats(), make_stats()
        a.merge(b)
        assert a.messages_total == 8
        assert a.per_link[("a", "b")] == 6

    def test_summary_keys(self):
        summary = make_stats().summary()
        assert set(summary) == {
            "messages_total",
            "bytes_total",
            "rounds_seen",
            "mean_bytes_per_message",
        }

    def test_summary_mean_bytes(self):
        stats = make_stats()
        summary = stats.summary()
        assert summary["mean_bytes_per_message"] == (
            stats.bytes_total / stats.messages_total
        )

    def test_summary_empty_stats(self):
        assert TrafficStats().summary()["mean_bytes_per_message"] == 0.0
