"""Unit tests for individual network components (channels, location,
host, MSS) -- the system-level behaviour is covered in test_system.py."""

import pytest

from repro.des import Environment
from repro.net.channels import Channel, ChannelStats, total_stats
from repro.net.host import HostState, MobileHost
from repro.net.location import LocationDirectory
from repro.net.message import Message, MessageKind
from repro.net.mss import MobileSupportStation


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_channel_delivers_after_latency():
    env = Environment()
    ch = Channel(env, 0.5)
    got = []
    ch.transmit(Message(src=0, dst=1), got.append)
    env.run()
    assert env.now == 0.5
    assert got[0].hops == 1


def test_channel_negative_latency_rejected():
    with pytest.raises(ValueError):
        Channel(Environment(), -0.1)


def test_channel_stats_accumulate():
    env = Environment()
    ch = Channel(env, 0.1)
    ch.transmit(Message(src=0, dst=1, piggyback_ints=3), lambda m: None)
    ctrl = Message(src=0, dst=None, kind=MessageKind.CONTROL)
    ch.transmit(ctrl, lambda m: None)
    env.run()
    assert ch.stats.messages == 2
    assert ch.stats.control_messages == 1
    assert ch.stats.piggyback_ints == 3
    assert ch.stats.busy_time == pytest.approx(0.2)


def test_channel_extra_delay():
    env = Environment()
    ch = Channel(env, 0.1)
    times = []
    ch.transmit(Message(src=0, dst=1), lambda m: times.append(env.now),
                extra_delay=0.4)
    env.run()
    assert times == [pytest.approx(0.5)]


def test_stats_merge_and_total():
    a = ChannelStats(messages=1, control_messages=0, piggyback_ints=2, busy_time=0.1)
    b = ChannelStats(messages=2, control_messages=1, piggyback_ints=3, busy_time=0.2)
    m = a.merge(b)
    assert (m.messages, m.control_messages) == (3, 1)
    env = Environment()
    chans = [Channel(env, 0.1), Channel(env, 0.1)]
    chans[0].stats = a
    chans[1].stats = b
    assert total_stats(chans).piggyback_ints == 5


# ---------------------------------------------------------------------------
# location directory
# ---------------------------------------------------------------------------


def test_directory_tracks_moves():
    d = LocationDirectory(2, [0, 1])
    assert d.locate(0) == 0
    d.moved(0, 1)
    assert d.locate(0) == 1
    assert d.update_count == 1
    assert d.lookup_count == 2


def test_directory_disconnect_reconnect_cycle():
    d = LocationDirectory(2, [0, 1])
    d.disconnected(0)
    assert d.locate(0) is None
    assert d.buffering_mss(0) == 0
    d.reconnected(0, 1)
    assert d.locate(0) == 1
    assert d.buffering_mss(0) is None


def test_directory_size_mismatch():
    with pytest.raises(ValueError):
        LocationDirectory(3, [0, 1])


def test_directory_forward_counter():
    d = LocationDirectory(2, [0, 1])
    d.note_forward()
    d.note_forward()
    assert d.forward_count == 2


# ---------------------------------------------------------------------------
# host
# ---------------------------------------------------------------------------


def test_host_try_receive_counts():
    env = Environment()
    h = MobileHost(env, 0, 0)
    assert h.try_receive() is None
    h.deliver(Message(src=1, dst=0))
    msg = h.try_receive()
    assert msg.src == 1
    assert h.received_count == 1
    assert h.try_receive() is None


def test_host_blocking_receive_event():
    env = Environment()
    h = MobileHost(env, 0, 0)
    got = []
    h.receive(got.append)
    h.deliver(Message(src=1, dst=0))
    env.run()
    assert [m.src for m in got] == [1]
    assert h.received_count == 1


def test_blocking_receive_runs_after_entries_already_due():
    env = Environment()
    h = MobileHost(env, 0, 0)
    order = []
    h.receive(lambda m: order.append(("receive", env.now, h.received_count)))

    def deliver():
        h.deliver(Message(src=1, dst=0))
        # taken out of the inbox at once, consumed at a later step
        assert len(h.inbox) == 0 and h.received_count == 0
        order.append(("delivered", env.now))

    env.call_later(1.0, deliver)
    env.call_later(1.0, lambda: order.append(("queued", env.now)))
    env.run()
    assert order == [
        ("delivered", 1.0), ("queued", 1.0), ("receive", 1.0, 1)
    ]


def test_blocking_receive_takes_a_queued_message():
    env = Environment()
    h = MobileHost(env, 0, 0)
    h.deliver(Message(src=2, dst=0))
    got = []
    h.receive(got.append)
    assert len(h.inbox) == 0 and got == []
    env.run()
    assert [m.src for m in got] == [2]


def test_clearing_inbox_keeps_pending_receiver():
    env = Environment()
    h = MobileHost(env, 0, 0)
    got = []
    h.receive(got.append)
    h.inbox.clear()
    h.deliver(Message(src=1, dst=0))
    env.run()
    assert [m.src for m in got] == [1]


def test_host_state_flags():
    env = Environment()
    h = MobileHost(env, 0, 0)
    assert h.is_connected
    h.state = HostState.DISCONNECTED
    assert not h.is_connected


# ---------------------------------------------------------------------------
# MSS
# ---------------------------------------------------------------------------


def test_mss_registration():
    mss = MobileSupportStation(0)
    mss.register(3)
    assert mss.serves(3)
    mss.deregister(3)
    assert not mss.serves(3)
    mss.deregister(3)  # idempotent


def test_mss_buffering_fifo():
    mss = MobileSupportStation(0)
    for i in range(3):
        mss.buffer_message(Message(src=1, dst=5, payload=i))
    assert mss.pending_for(5) == 3
    drained = mss.drain_buffer(5)
    assert [m.payload for m in drained] == [0, 1, 2]
    assert mss.pending_for(5) == 0
    assert mss.drain_buffer(5) == []
    assert mss.buffered_messages == 3
