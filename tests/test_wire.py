import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsteer import wire
from evsteer.behavior import Mode
from evsteer.nnet import Decision
from evsteer.wire import (DecisionDatagram, DecisionEncoder, FeedbackDatagram,
                          LinkStats, ProtocolError, UdpEndpoint, decode_decision,
                          decode_feedback)


def track_gaps(seqs, times_us=None) -> LinkStats:
    """LinkStats after updating it with each (seq, time) of a received stream."""
    stats = LinkStats()
    for seq, t in zip(seqs, times_us or [None] * len(seqs)):
        stats.update(seq, t)
    return stats


class TestCodec:
    def test_seq7_center_encodes_to_bytes_7_1(self):
        assert DecisionDatagram(7, Decision.C).encode() == bytes([7, 1])

    def test_exhaustive_round_trip_all_1024(self):
        for seq in range(256):
            for d in Decision:
                data = DecisionDatagram(seq, d).encode()
                assert len(data) == 2
                back = decode_decision(data)
                assert back.seq == seq and back.direction is d

    def test_invalid_direction_byte(self):
        with pytest.raises(ProtocolError):
            decode_decision(bytes([0, 9]))

    def test_wrong_length(self):
        with pytest.raises(ProtocolError):
            decode_decision(bytes([1, 2, 3]))
        with pytest.raises(ProtocolError):
            decode_decision(b"\x01")

    def test_feedback_round_trip(self):
        for seq in (0, 100, 255):
            for m in Mode:
                back = decode_feedback(FeedbackDatagram(seq, m).encode())
                assert back.seq == seq and back.mode is m

    def test_feedback_invalid_mode(self):
        with pytest.raises(ProtocolError):
            decode_feedback(bytes([3, 42]))

    def test_seq_out_of_range_rejected(self):
        with pytest.raises(ProtocolError):
            DecisionDatagram(256, Decision.L).encode()


class TestEncoder:
    def test_one_datagram_per_decision_with_consecutive_seqs(self):
        enc = DecisionEncoder()
        out = [enc.offer(d, t_us=i * 20_000)
               for i, d in enumerate([Decision.C, Decision.C, Decision.L])]
        seqs = [d.seq for _, d in out]
        assert seqs == [0, 1, 2]

    def test_seq_wraps_at_256(self):
        enc = DecisionEncoder()
        enc.next_seq = 255
        (_, a) = enc.offer(Decision.N, 0)
        (_, b) = enc.offer(Decision.N, 20_000)
        assert (a.seq, b.seq) == (255, 0)

    def test_rate_cap_defers_fast_decisions(self):
        enc = DecisionEncoder(rate_cap_hz=240)
        t0, _ = enc.offer(Decision.C, 0)
        t1, _ = enc.offer(Decision.C, 100)  # only 0.1 ms later
        assert t1 - t0 >= round(1e6 / 240)

    def test_only_a_frame_before_the_last_emission_is_late(self):
        enc = DecisionEncoder(rate_cap_hz=240)
        assert not enc.is_late(0)
        enc.offer(Decision.C, 1000)
        t1, _ = enc.offer(Decision.C, 1100)  # deferred to 1000 + 4167
        assert (enc.is_late(t1 - 1), enc.is_late(t1)) == (True, False)

    def test_rate_never_exceeds_cap(self, rng):
        enc = DecisionEncoder(rate_cap_hz=240)
        ts = np.cumsum(rng.integers(0, 3000, 2000))
        out = [enc.offer(Decision.C, int(t))[0] for t in ts]
        assert np.all(np.diff(out) >= round(1e6 / 240))


class TestGapTracking:
    def test_consecutive_no_gaps(self):
        stats = track_gaps([1, 2, 3])
        assert stats.gap_events == 0 and stats.lost == 0

    def test_single_gap_of_one(self):
        stats = track_gaps([1, 3])
        assert stats.gap_events == 1 and stats.lost == 1

    def test_wrap_aware(self):
        stats = track_gaps([255, 0, 1])
        assert stats.gap_events == 0 and stats.lost == 0

    def test_wrap_with_gap(self):
        stats = track_gaps([254, 1])
        assert stats.gap_events == 1 and stats.lost == 2

    def test_duplicate_counts_out_of_order(self):
        stats = track_gaps([5, 5, 6])
        assert stats.out_of_order == 1

    def test_interval_histogram(self):
        stats = track_gaps([0, 1, 2, 3], times_us=[0, 10_000, 20_000, 31_000])
        assert stats.intervals_ms == {10: 2, 11: 1}
        dump = stats.histogram_dump()
        assert "10 2" in dump and "11 1" in dump

    def test_histogram_counts_sum_to_intervals(self, rng):
        ts = np.cumsum(rng.integers(1000, 50_000, 300))
        stats = track_gaps([i % 256 for i in range(300)], times_us=ts.tolist())
        assert sum(stats.intervals_ms.values()) == 299

    def test_dump_trims_empty_tails(self):
        # a gap between buckets is skipped, not printed as zero rows
        stats = LinkStats(intervals_ms={3: 5, 10: 1})
        lines = stats.histogram_dump().strip().splitlines()
        assert lines == ["interval_ms count", "3 5", "10 1"]

    @pytest.mark.parametrize("q", [0.01, 0.1])
    def test_loss_fraction_recovered_within_two_percent(self, q):
        rng = np.random.default_rng(2024)
        n = 100_000
        sent = np.arange(n) % 256
        kept = sent[rng.random(n) >= q]
        stats = track_gaps(kept.tolist())
        measured = stats.lost / n
        assert abs(measured - q) <= 0.02

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=2, max_size=50))
    def test_counters_monotone(self, seqs):
        stats = LinkStats()
        prev = (0, 0, 0, 0)
        for s in seqs:
            stats.update(s)
            cur = (stats.received, stats.gap_events, stats.lost, stats.out_of_order)
            assert all(a >= b for a, b in zip(cur, prev))
            prev = cur


class TestUdp:
    def test_datagrams_cross_localhost(self):
        rx = UdpEndpoint(listen_port=0)
        tx = UdpEndpoint(peer=("127.0.0.1", rx.port))
        payload = DecisionDatagram(9, Decision.R).encode()
        assert tx.send(payload)
        data, _ = rx.recv(timeout=2.0)
        assert data == payload
        back = decode_decision(data)
        assert back.seq == 9 and back.direction is Decision.R
        tx.close()
        rx.close()

    def test_endpoint_counts_sent_datagrams_and_send_errors(self):
        rx = UdpEndpoint(listen_port=0)
        tx = UdpEndpoint(peer=("127.0.0.1", rx.port))
        assert tx.send(b"\x00\x01") and tx.send(b"\x01\x01")
        tx.peer = ("127.0.0.1", 0)  # no datagram goes to port 0
        assert not tx.send(b"\x02\x01")
        assert (tx.sent, tx.send_errors) == (2, 1)
        tx.close()
        rx.close()

    def test_a_send_never_waits_and_a_refused_datagram_is_a_send_error(self, monkeypatch):
        tx = UdpEndpoint(peer=("127.0.0.1", 9))
        assert tx.sock.getblocking() is False

        def full(self, payload, peer):
            raise BlockingIOError("the send buffer is full")

        monkeypatch.setattr(wire.socket.socket, "sendto", full)
        assert not tx.send(b"\x00\x01")
        assert (tx.sent, tx.send_errors) == (0, 1)
        tx.close()

    def test_recv_with_no_timeout_takes_only_what_has_arrived(self):
        rx = UdpEndpoint(listen_port=0)
        tx = UdpEndpoint(peer=("127.0.0.1", rx.port))
        assert rx.recv(timeout=0.0) == (None, None)
        tx.send(b"\x05\x02")
        assert rx.recv(timeout=2.0)[0] == b"\x05\x02"  # waits for it
        assert rx.recv(timeout=0.0) == (None, None)
        tx.close()
        rx.close()

    def test_failed_bind_closes_the_socket(self, monkeypatch):
        made = []
        real_socket = wire.socket.socket

        def recording_socket(*args):
            made.append(real_socket(*args))
            return made[-1]

        held = UdpEndpoint(listen_port=0)
        monkeypatch.setattr(wire.socket, "socket", recording_socket)
        with pytest.raises(OSError):
            UdpEndpoint(listen_port=held.port)
        held.close()
        assert len(made) == 1 and made[0].fileno() == -1  # closed


def test_parse_peer():
    assert wire.parse_peer("127.0.0.1:9770") == ("127.0.0.1", 9770)
    for bad in ("no-port", "127.0.0.1:65536"):
        with pytest.raises(ValueError):
            wire.parse_peer(bad)
