"""Unit tests for the DES event loop (repro.des.core)."""

import pytest

from repro.des import Environment


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=7.5).now == 7.5


def test_call_later_advances_clock():
    env = Environment()
    env.call_later(3.0, lambda: None)
    env.run()
    assert env.now == 3.0


def test_run_until_stops_clock_exactly_at_until():
    env = Environment()
    seen = []
    env.call_later(10.0, lambda: seen.append(env.now))
    env.run(until=4.0)
    assert env.now == 4.0 and seen == []
    # the pending callback is still on the agenda
    env.run()
    assert seen == [10.0]


def test_run_until_includes_callbacks_due_at_until():
    env = Environment()
    seen = []
    env.call_later(4.0, lambda: seen.append(env.now))
    env.run(until=4.0)
    assert seen == [4.0]


def test_run_until_in_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="negative delay"):
        env.call_later(-1.0, lambda: None)


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (5.0, 1.0, 3.0):
        env.call_later(delay, lambda d=delay: order.append(d))
    env.run()
    assert order == [1.0, 3.0, 5.0]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    order = []
    for tag in "abcd":
        env.call_later(2.0, lambda t=tag: order.append(t))
    env.run()
    assert order == list("abcd")


def test_zero_delay_runs_after_entries_already_due():
    env = Environment()
    order = []

    def first():
        order.append("first")
        env.call_later(0.0, lambda: order.append("zero-delay"))

    env.call_later(1.0, first)
    env.call_later(1.0, lambda: order.append("second"))
    env.run()
    assert order == ["first", "second", "zero-delay"]


def test_nested_scheduling_from_callback():
    env = Environment()
    times = []

    def first():
        times.append(env.now)
        env.call_later(2.0, second)

    def second():
        times.append(env.now)

    env.call_later(1.0, first)
    env.run()
    assert times == [1.0, 3.0]


def test_callback_exception_propagates_out_of_run():
    env = Environment()
    seen = []

    def boom():
        raise KeyError("boom")

    env.call_later(1.0, boom)
    env.call_later(2.0, lambda: seen.append(env.now))
    with pytest.raises(KeyError, match="boom"):
        env.run()
    assert env.now == 1.0
    # the failing entry is consumed; the rest of the agenda survives
    env.run()
    assert seen == [2.0]
