"""Bit-exact UDP control protocol.

Decisions travel as 2-byte datagrams: a wrapping 0-255 sequence number
followed by the direction byte (L=0, C=1, R=2, N=3). Behavior feedback uses
the same layout with a mode byte (Chase=0, Wander=1, Rotate=2, PreyCaught=3).
There is no acknowledgment or retransmission; the receiver only detects gaps.
The decision producer hands datagrams to the sender through a single-slot
latest-value mailbox, so a stalled transport sees fresh decisions overwritten
rather than queued.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field

from evsteer.behavior import Mode
from evsteer.nnet import Decision

DATAGRAM_SIZE = 2
SEQ_MOD = 256
PROCESSING_RATE_HZ = 240


class ProtocolError(ValueError):
    """Datagram bytes violate the wire layout."""


@dataclass(frozen=True)
class DecisionDatagram:
    seq: int
    direction: Decision

    def encode(self) -> bytes:
        if not 0 <= self.seq < SEQ_MOD:
            raise ProtocolError(f"sequence {self.seq} out of range")
        return bytes([self.seq, int(self.direction)])


@dataclass(frozen=True)
class FeedbackDatagram:
    seq: int
    mode: Mode

    def encode(self) -> bytes:
        if not 0 <= self.seq < SEQ_MOD:
            raise ProtocolError(f"sequence {self.seq} out of range")
        return bytes([self.seq, int(self.mode)])


def decode_decision(data: bytes) -> DecisionDatagram:
    if len(data) != DATAGRAM_SIZE:
        raise ProtocolError(f"decision datagram must be 2 bytes, got {len(data)}")
    if data[1] > 3:
        raise ProtocolError(f"invalid direction byte {data[1]}")
    return DecisionDatagram(seq=data[0], direction=Decision(data[1]))


def decode_feedback(data: bytes) -> FeedbackDatagram:
    if len(data) != DATAGRAM_SIZE:
        raise ProtocolError(f"feedback datagram must be 2 bytes, got {len(data)}")
    if data[1] > 3:
        raise ProtocolError(f"invalid mode byte {data[1]}")
    return FeedbackDatagram(seq=data[0], mode=Mode(data[1]))


@dataclass
class LinkStats:
    """Receiver-side link accounting; counters only ever grow."""

    received: int = 0
    gap_events: int = 0
    lost: int = 0  # total missing datagrams inferred from sequence jumps
    out_of_order: int = 0
    malformed: int = 0
    intervals_ms: dict = field(default_factory=dict)  # 1 ms bucket -> count
    _last_seq: int | None = None
    _last_t_us: int | None = None

    def update(self, seq: int, t_us: int | None = None):
        self.received += 1
        if self._last_seq is not None:
            delta = (seq - self._last_seq) % SEQ_MOD
            if delta == 1:
                pass
            elif 1 < delta < SEQ_MOD // 2:
                self.gap_events += 1
                self.lost += delta - 1
            else:
                self.out_of_order += 1
        self._last_seq = seq
        if t_us is not None:
            if self._last_t_us is not None:
                bucket = int((t_us - self._last_t_us) // 1000)
                self.intervals_ms[bucket] = self.intervals_ms.get(bucket, 0) + 1
            self._last_t_us = t_us

    def histogram_dump(self) -> str:
        """Plain-text (ms bucket, count) table, empty tails trimmed."""
        if not self.intervals_ms:
            return "interval_ms count\n"
        lines = ["interval_ms count"]
        for bucket in range(min(self.intervals_ms), max(self.intervals_ms) + 1):
            count = self.intervals_ms.get(bucket, 0)
            if count:
                lines.append(f"{bucket} {count}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return (f"received={self.received} gap_events={self.gap_events} "
                f"lost={self.lost} out_of_order={self.out_of_order} "
                f"malformed={self.malformed}")


class DecisionEncoder:
    """Stamps decisions with sequence numbers and the 240 Hz pacing cap.

    One datagram per (novel) decision; emission timestamps never come closer
    than the processing interval, late decisions are deferred, not dropped.
    """

    def __init__(self, rate_cap_hz: float = PROCESSING_RATE_HZ):
        self.next_seq = 0  # wraps at SEQ_MOD
        self.min_interval_us = round(1_000_000 / rate_cap_hz)
        self._last_t_us: int | None = None

    def offer(self, decision: Decision, t_us: int):
        if self._last_t_us is not None:
            t_us = max(t_us, self._last_t_us + self.min_interval_us)
        self._last_t_us = t_us
        seq, self.next_seq = self.next_seq, (self.next_seq + 1) % SEQ_MOD
        return t_us, DecisionDatagram(seq=seq, direction=decision)


class Mailbox:
    """Single-slot latest-value handoff; put overwrites, take blocks."""

    def __init__(self):
        self._cond = threading.Condition()
        self._value = None
        self._has_value = False
        self._closed = False
        self.overwritten = 0

    def put(self, value):
        with self._cond:
            if self._has_value:
                self.overwritten += 1
            self._value = value
            self._has_value = True
            self._cond.notify()

    def take(self, timeout=None):
        """Returns the freshest value, or None on timeout/close."""
        with self._cond:
            if not self._has_value and not self._closed:
                self._cond.wait(timeout)
            if not self._has_value:
                return None
            self._has_value = False
            value, self._value = self._value, None
            return value

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self):
        return self._closed


class UdpEndpoint:
    """Thin socket wrapper: fire-and-forget send plus a feedback listener."""

    def __init__(self, peer=None, listen_port=None):
        self.peer = peer
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if listen_port is not None:
            try:
                self.sock.bind(("0.0.0.0", listen_port))
            except OSError:
                self.sock.close()
                raise
        self.sent = 0
        self.send_errors = 0

    @property
    def port(self):
        return self.sock.getsockname()[1]

    def send(self, payload: bytes):
        try:
            self.sock.sendto(payload, self.peer)
        except OSError:
            self.send_errors += 1  # reported, never retried
            return False
        self.sent += 1
        return True

    def recv(self, timeout=0.2):
        self.sock.settimeout(timeout)
        try:
            data, addr = self.sock.recvfrom(64)
            return data, addr
        except (socket.timeout, OSError):
            return None, None

    def close(self):
        self.sock.close()


def sender_loop(mailbox: Mailbox, endpoint: UdpEndpoint):
    """Drain the mailbox into the socket until the mailbox closes."""
    while True:
        item = mailbox.take(timeout=0.1)
        if item is None:
            if mailbox.closed:
                return
            continue
        endpoint.send(item.encode())


def parse_peer(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"peer must be host:port, got {text!r}")
    return host, int(port)
