"""Bit-exact UDP control protocol.

Decisions travel as 2-byte datagrams: a wrapping 0-255 sequence number
followed by the direction byte (L=0, C=1, R=2, N=3). Behavior feedback uses
the same layout with a mode byte (Chase=0, Wander=1, Rotate=2, PreyCaught=3).
There is no acknowledgment or retransmission; the receiver only detects gaps.
The sender's socket is non-blocking, so a send never stalls the decision
loop: a datagram the kernel will not take at once is dropped and counted,
never queued or retried.
"""

from __future__ import annotations

import select
import socket
from dataclasses import dataclass, field

from evsteer.behavior import Mode
from evsteer.nnet import Decision

DATAGRAM_SIZE = 2
SEQ_MOD = 256
PROCESSING_RATE_HZ = 240


class ProtocolError(ValueError):
    """Datagram bytes violate the wire layout."""


def _encode(seq: int, value: int) -> bytes:
    if not 0 <= seq < SEQ_MOD:
        raise ProtocolError(f"sequence {seq} out of range")
    return bytes([seq, int(value)])


def _decode(data: bytes, kind: str, byte_name: str, enum):
    """The (seq, enum member) of a 2-byte datagram."""
    if len(data) != DATAGRAM_SIZE:
        raise ProtocolError(f"{kind} datagram must be 2 bytes, got {len(data)}")
    if data[1] >= len(enum):
        raise ProtocolError(f"invalid {byte_name} byte {data[1]}")
    return data[0], enum(data[1])


@dataclass(frozen=True)
class DecisionDatagram:
    seq: int
    direction: Decision

    def encode(self) -> bytes:
        return _encode(self.seq, self.direction)


@dataclass(frozen=True)
class FeedbackDatagram:
    seq: int
    mode: Mode

    def encode(self) -> bytes:
        return _encode(self.seq, self.mode)


def decode_decision(data: bytes) -> DecisionDatagram:
    return DecisionDatagram(*_decode(data, "decision", "direction", Decision))


def decode_feedback(data: bytes) -> FeedbackDatagram:
    return FeedbackDatagram(*_decode(data, "feedback", "mode", Mode))


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

    One datagram per offered decision; emission timestamps never come closer
    than the processing interval, so a decision offered less than one
    interval after the last emission is deferred to that interval's end. A
    frame stamped before the last emission is late (`is_late`): its decision
    is dropped, never offered, so no decision lags its frame by more than
    min_interval_us.
    """

    def __init__(self, rate_cap_hz: float = PROCESSING_RATE_HZ):
        self.next_seq = 0  # wraps at SEQ_MOD
        self.min_interval_us = round(1_000_000 / rate_cap_hz)
        self._last_t_us: int | None = None

    def is_late(self, t_us: int) -> bool:
        """Whether a frame stamped t_us came before the last emission."""
        return self._last_t_us is not None and t_us < self._last_t_us

    def offer(self, decision: Decision, t_us: int):
        if self._last_t_us is not None:
            t_us = max(t_us, self._last_t_us + self.min_interval_us)
        self._last_t_us = t_us
        seq, self.next_seq = self.next_seq, (self.next_seq + 1) % SEQ_MOD
        return t_us, DecisionDatagram(seq=seq, direction=decision)


class UdpEndpoint:
    """Thin non-blocking socket wrapper: fire-and-forget send plus a feedback listener."""

    def __init__(self, peer=None, listen_port=None):
        self.peer = peer
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
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
        except OSError:  # a full send buffer included: dropped, never waited for
            self.send_errors += 1  # reported, never retried
            return False
        self.sent += 1
        return True

    def recv(self, timeout=0.2):
        """(data, sender) of the next datagram to arrive within timeout
        seconds, or (None, None); timeout 0.0 only takes what has arrived."""
        try:
            if select.select([self.sock], [], [], timeout)[0]:
                return self.sock.recvfrom(64)
        except OSError:
            pass
        return None, None

    def close(self):
        self.sock.close()


def parse_peer(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"peer must be host:port with a port in 0..65535, got {text!r}")
    return host, int(port)
