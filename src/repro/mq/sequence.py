"""Per-channel sequence numbers: a transfer is exactly-once across restarts.

A source stamps every parked copy a restart could re-drive with the next
number of its channel to that peer (:data:`PROP_ROUTE_SEQ`), inside the
commit group that parks it.  The target keeps, per inbound peer, a
:class:`SeqWatermark` — a cumulative seq plus the out-of-order seqs above
it, SACK-style — and makes it durable in the commit group of the arrival.
A copy whose seq the watermark covers is a duplicate, whether or not the
first copy has since been consumed; so the source may resolve its parked
copy lazily, and a crash that loses the resolution re-drives a copy the
target drops.
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: Prefix of per-peer transmission queues (owned by the network layer).
XMIT_PREFIX = "SYSTEM.XMIT."

#: Property carrying a parked copy's channel sequence number.
PROP_ROUTE_SEQ = "SYS_SEQ"


class SeqWatermark:
    """The seqs one inbound channel has accepted.

    Every seq at or below :attr:`cumulative` is accepted, and so is every
    seq in :attr:`above` (always strictly above it).  Channels number from
    1, so a fresh watermark accepts nothing.
    """

    __slots__ = ("cumulative", "above")

    def __init__(self, cumulative: int = 0, above: Iterable[int] = ()) -> None:
        self.cumulative = cumulative
        self.above = set()
        for seq in above:
            self.accept(seq)

    def covers(self, seq: int) -> bool:
        """True if ``seq`` was accepted already."""
        return seq <= self.cumulative or seq in self.above

    def accept(self, seq: int) -> bool:
        """Accept ``seq``; false (and no change) if it was accepted already."""
        if self.covers(seq):
            return False
        if seq != self.cumulative + 1:
            self.above.add(seq)
            return True
        above = self.above
        seq += 1
        while seq in above:
            above.remove(seq)
            seq += 1
        self.cumulative = seq - 1
        return True

    def settle(self, floor: int) -> None:
        """Accept every seq below ``floor``: the source will never send one."""
        if floor - 1 <= self.cumulative:
            return
        self.above = {seq for seq in self.above if seq >= floor}
        self.cumulative = floor - 2
        self.accept(floor - 1)

    def state(self) -> Tuple[int, Tuple[int, ...]]:
        """``(cumulative, sorted above)``: what a snapshot writes."""
        return self.cumulative, tuple(sorted(self.above))

    def __repr__(self) -> str:
        return f"SeqWatermark({self.cumulative}, {sorted(self.above)})"
