"""Unit tests for repro.network.failures."""

import random

import pytest

from repro.network.failures import FailureInjector
from repro.network.message import token_message


class TestCrashes:
    def test_crash_and_recover(self):
        injector = FailureInjector()
        injector.crash("a")
        assert injector.is_crashed("a")
        injector.recover("a")
        assert not injector.is_crashed("a")

    def test_messages_from_crashed_node_dropped(self):
        injector = FailureInjector()
        injector.crash("a")
        assert injector.should_drop(token_message("a", "b", 1, [1.0]))

    def test_messages_to_crashed_node_dropped(self):
        injector = FailureInjector()
        injector.crash("b")
        assert injector.should_drop(token_message("a", "b", 1, [1.0]))

    def test_healthy_traffic_passes(self):
        assert not FailureInjector().should_drop(token_message("a", "b", 1, [1.0]))


class TestScheduledCrashes:
    def test_crash_fires_at_message_count(self):
        injector = FailureInjector()
        injector.schedule_crash("b", after_messages=3)
        message = token_message("a", "b", 1, [1.0])
        assert not injector.should_drop(message)  # message 1
        assert not injector.should_drop(message)  # message 2
        assert injector.should_drop(message)  # message 3: crash fires
        assert injector.is_crashed("b")

    def test_multiple_scheduled_crashes_fire_in_count_order(self):
        # Regression: every schedule due at the current count must fire in
        # one sweep, regardless of the order the schedules were added.
        injector = FailureInjector()
        injector.schedule_crash("late", after_messages=4)
        injector.schedule_crash("early", after_messages=2)
        healthy = token_message("x", "y", 1, [1.0])
        assert not injector.should_drop(healthy)  # message 1: nothing due
        assert not injector.should_drop(healthy)  # message 2: "early" fires
        assert injector.is_crashed("early")
        assert not injector.is_crashed("late")
        assert not injector.should_drop(healthy)  # message 3
        assert not injector.should_drop(healthy)  # message 4: "late" fires
        assert injector.is_crashed("early") and injector.is_crashed("late")

    def test_simultaneous_schedules_all_fire(self):
        injector = FailureInjector()
        injector.schedule_crash("a", after_messages=1)
        injector.schedule_crash("b", after_messages=1)
        assert injector.should_drop(token_message("a", "b", 1, [1.0]))
        assert injector.is_crashed("a") and injector.is_crashed("b")

    def test_fired_schedules_are_consumed(self):
        injector = FailureInjector()
        injector.schedule_crash("a", after_messages=1)
        injector.should_drop(token_message("x", "y", 1, [1.0]))
        injector.recover("a")
        # The schedule already fired; recovery must stick.
        assert not injector.should_drop(token_message("x", "y", 1, [1.0]))
        assert not injector.is_crashed("a")

    def test_negative_schedule_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FailureInjector().schedule_crash("a", after_messages=-1)


class TestProbabilisticDrops:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match="drop_probability"):
            FailureInjector(drop_probability=1.0)
        with pytest.raises(ValueError, match="drop_probability"):
            FailureInjector(drop_probability=-0.1)

    def test_drop_rate_roughly_matches(self):
        injector = FailureInjector(drop_probability=0.3, rng=random.Random(7))
        message = token_message("a", "b", 1, [1.0])
        drops = sum(injector.should_drop(message) for _ in range(5000))
        assert 1300 < drops < 1700

    def test_zero_probability_never_drops(self):
        injector = FailureInjector(drop_probability=0.0, rng=random.Random(7))
        message = token_message("a", "b", 1, [1.0])
        assert not any(injector.should_drop(message) for _ in range(200))
