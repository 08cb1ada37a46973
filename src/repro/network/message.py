"""Message base class and priority classes.

The SSS implementation assigns different network queues (and thus priorities)
to different message types; the paper calls out that the ``Remove`` message
has very high priority because it unblocks external commits.  The enum below
defines the priority classes used across all protocols in this repository;
lower numeric values are served first by the per-node dispatcher.

Hot-path design
---------------
One message object is allocated per protocol send — the single biggest
allocation site above the sim kernel — so the message classes are plain
``__slots__`` classes rather than dataclasses: no per-instance ``__dict__``,
no ``__post_init__`` double dispatch, and the per-type constants (priority
class, type name, fixed size component) live on the *class*, computed once
at import.  Subclasses declare their payload in ``__slots__``, override the
``priority`` class attribute, and assign payload fields in a plain
``__init__`` that chains to :meth:`Message.__init__`.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Optional

from repro.common.ids import NodeId

_next_message_id = itertools.count().__next__


class MessagePriority(IntEnum):
    """Priority classes for protocol messages (lower = more urgent)."""

    CONTROL = 0
    """Messages that unblock other transactions (Remove, Ack, Decide)."""

    COMMIT = 1
    """2PC prepare/vote traffic."""

    READ = 2
    """Read requests and read returns."""

    BULK = 3
    """Everything else (background, warm-up, statistics)."""


class Message:
    """Base class of every protocol message exchanged between nodes.

    Attributes
    ----------
    sender:
        Node that sent the message (filled in by the transport).
    destination:
        Node the message is addressed to (filled in by the transport).
    priority:
        Priority class used by the per-node inbound queues.  A *class*
        attribute: every instance of a message type shares one priority, so
        storing it per instance would waste a slot and a store per send.
    msg_id:
        Globally unique message number, useful in traces and tests.
    send_time / deliver_time:
        Simulated timestamps stamped by the transport.

    ``type_name`` is materialized as a class attribute by
    ``__init_subclass__`` (it used to be a property, a measurable cost with
    one statistics lookup per send and per delivery).
    """

    __slots__ = (
        "sender",
        "destination",
        "msg_id",
        "send_time",
        "deliver_time",
        "reply_to",
    )

    priority = MessagePriority.BULK
    """Priority class of this message type (class-level, override per type)."""

    type_name = "Message"
    """Short message type name used for tracing and statistics."""

    base_size = 64
    """Fixed wire-size component in bytes (class-level, override per type)."""

    def __init__(self) -> None:
        self.sender: NodeId = -1
        self.destination: NodeId = -1
        self.msg_id: int = _next_message_id()
        self.send_time: float = 0.0
        self.deliver_time: float = 0.0
        self.reply_to: Optional[int] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.type_name = cls.__name__

    def size_estimate(self) -> int:
        """Rough serialized size in bytes, counted into ``NetworkStats.bytes_sent``.

        Bytes are statistics only: link service is per message
        (``NetworkConfig.bandwidth_msgs_per_us``), so no simulated outcome
        depends on them.  Subclasses carrying vector clocks or value payloads
        override this to show the metadata cost the paper discusses (vector
        clocks grow linearly with the system size).  Every clock is charged
        densely, ``8 * width`` bytes, so the same message costs the same
        bytes on every send and to any destination.
        """
        return self.base_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{self.type_name} #{self.msg_id} {self.sender}->{self.destination}>"
        )
