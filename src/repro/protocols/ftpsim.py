"""The simulated FTP transfer that feeds the splice experiments.

The paper "simulated a file transfer with FTP of all files on a file
system via TCP/IP using AAL5 over ATM".  This module composes the
packetizer and the AAL5 framer: each file becomes a list of
:class:`TransferUnit` (the TCP/IP packet plus its AAL5 frame and
cells), and the splice experiment walks every adjacent pair.

Sequence numbers and IP IDs run continuously across the packets of one
file and restart for the next, mirroring one FTP data connection per
file.  Both halves work on the whole file at once: the packetizer
builds every packet of a file in one matrix pass and
:func:`~repro.protocols.aal5.build_aal5_frames` frames them all with one
CRC pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.aal5 import build_aal5_frames
from repro.protocols.packetizer import Packetizer

__all__ = ["FileTransferSimulator", "TransferUnit"]


@dataclass(frozen=True)
class TransferUnit:
    """One packet of a simulated transfer, framed for the wire."""

    packet: object  # TCPPacket
    frame: object  # AAL5Frame

    @property
    def cells(self):
        return self.frame.cells()


class FileTransferSimulator:
    """Simulates per-file FTP transfers under a packetizer config."""

    def __init__(self, config=None):
        self.packetizer = Packetizer(config)

    @property
    def config(self):
        return self.packetizer.config

    def transfer(self, data):
        """Transfer one file; returns its :class:`TransferUnit` list."""
        packets = self.packetizer.packetize(data)
        frames = build_aal5_frames([packet.ip_packet for packet in packets])
        return [
            TransferUnit(packet=packet, frame=frame)
            for packet, frame in zip(packets, frames)
        ]

    def adjacent_pairs(self, data):
        """Yield ``(unit, next_unit)`` for each adjacent packet pair."""
        units = self.transfer(data)
        for first, second in zip(units, units[1:]):
            yield first, second
