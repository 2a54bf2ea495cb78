"""Log sequence numbers.

Spinnaker LSNs are two-part ``epoch.sequence`` values (Appendix B): the
epoch number occupies the high-order bits and is bumped — via the
coordination service — every time a new cohort leader takes over, which
guarantees that a new leader assigns LSNs greater than any LSN previously
used in the cohort.  LSNs effectively play the role of Paxos proposal
numbers.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["LSN", "EPOCH_BITS", "SEQ_BITS"]

#: Bit layout used by :meth:`LSN.to_int` — 16 bits of epoch over 48 bits
#: of sequence, mirroring the paper's "high order bits" scheme.
EPOCH_BITS = 16
SEQ_BITS = 48
_SEQ_MASK = (1 << SEQ_BITS) - 1


class LSN(NamedTuple):
    """An ``epoch.seq`` log sequence number with total ordering."""

    epoch: int
    seq: int

    # -- construction ------------------------------------------------------
    @classmethod
    def zero(cls) -> "LSN":
        """The LSN smaller than every real record's LSN."""
        return cls(0, 0)

    @classmethod
    def from_int(cls, packed: int) -> "LSN":
        return cls(packed >> SEQ_BITS, packed & _SEQ_MASK)

    def to_int(self) -> int:
        """Pack into a single integer, epoch in the high bits."""
        if self.seq > _SEQ_MASK:
            raise OverflowError("sequence does not fit")
        return (self.epoch << SEQ_BITS) | self.seq

    def __str__(self) -> str:
        return f"{self.epoch}.{self.seq}"
