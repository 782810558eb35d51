"""Turn file bytes into the paper's simulated TCP/IP packet stream.

The paper's simulator fills TCP and IP headers "as if the file transfer
were being done over the loopback interface": for each packet the TCP
sequence number advances by the data length and the IP ID by one, and
the segment size is 256 bytes except for runts at file ends.

The packetizer supports every configuration the paper evaluates:

* checksum algorithm -- standard TCP (``"tcp"``), Fletcher mod-255 or
  mod-256 (``"fletcher255"`` / ``"fletcher256"``), or ``"none"``;
* checksum placement -- the conventional header field, or the paper's
  trailer placement where the header field stays zero and the check
  value is appended to the TCP data (Section 5.3);
* the Section 6.3 ablation (store the sum instead of its complement);
* the Section 6.2 ablation (``fill_ip_header=False``): a reconstruction
  of the SIGCOMM '95 simulator bug.  The legacy simulator left the
  mutable IP header bytes (TOS, ID, flags, TTL, header checksum) zero
  and checksummed the buffer from the start of the IP header with no
  pseudo-header, so an error-free packet summed to zero *including its
  header cell*.  For packets with all-zero payloads the header cell is
  then a non-zero cell whose checksum is zero -- interchangeable with
  the zero data cells around it, which is precisely the failure class
  Section 6.2 describes (filling in the header cured it by three orders
  of magnitude).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from repro.checksums.batch import swap16
from repro.checksums.internet import fold_carries
from repro.protocols.ip import IP_HEADER_LEN, build_ipv4_header
from repro.protocols.tcp import (
    FLAG_ACK,
    TCP_CHECKSUM_OFFSET,
    TCP_HEADER_LEN,
    build_tcp_header,
    pseudo_header_word_sum,
)

__all__ = ["ChecksumPlacement", "Packetizer", "PacketizerConfig", "TCPPacket"]

#: Byte columns of the per-packet fields in a packet row: the IP total
#: length, ID and header checksum, the TCP sequence number, the data.
_TOTAL_LENGTH = 2
_IDENT = 4
_IP_CHECKSUM = 10
_SEQ = IP_HEADER_LEN + 4
_DATA = IP_HEADER_LEN + TCP_HEADER_LEN


class ChecksumPlacement(enum.Enum):
    """Where the transport check value lives in the packet."""

    HEADER = "header"
    TRAILER = "trailer"


@dataclass(frozen=True)
class PacketizerConfig:
    """Configuration of the simulated transfer's packet construction."""

    mss: int = 256
    algorithm: str = "tcp"
    placement: ChecksumPlacement = ChecksumPlacement.HEADER
    invert: bool = True
    fill_ip_header: bool = True
    src: str = "127.0.0.1"
    dst: str = "127.0.0.1"
    sport: int = 20
    dport: int = 54321
    initial_seq: int = 1
    initial_ipid: int = 1
    window: int = 4096

    def __post_init__(self):
        if self.mss < 1:
            raise ValueError("mss must be positive")
        if self.algorithm not in ("tcp", "fletcher255", "fletcher256", "none"):
            raise ValueError("unknown checksum algorithm %r" % self.algorithm)
        if not self.fill_ip_header and (
            self.algorithm != "tcp"
            or self.placement is not ChecksumPlacement.HEADER
            or not self.invert
        ):
            raise ValueError(
                "the legacy unfilled-IP-header mode (Section 6.2) models the "
                "original TCP header-checksum simulator only"
            )

    def with_overrides(self, **kwargs):
        """A copy of this config with fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TCPPacket:
    """One simulated IP packet of the transfer."""

    ip_packet: bytes
    payload: bytes
    seq: int
    ipid: int
    config: PacketizerConfig = field(repr=False)

    @property
    def total_length(self):
        return len(self.ip_packet)

    @property
    def tcp_segment(self):
        """The TCP header plus data (including any trailer check bytes)."""
        return self.ip_packet[IP_HEADER_LEN:]


class Packetizer:
    """Builds the packet stream for one simulated file transfer.

    A file's packets are built together in one ``(packets x bytes)``
    matrix: a shared header template, the sequence-number, IP-ID and
    length columns, then the IP header checksum and the transport check
    value computed column-wise for every packet at once.
    """

    def __init__(self, config=None):
        self.config = config = config or PacketizerConfig()
        fill = config.fill_ip_header
        # Every header field that is the same in each packet; total
        # length, IP ID, sequence number and checksums are columns.
        self._template = np.frombuffer(
            build_ipv4_header(
                total_length=0,
                ident=0,
                src=config.src,
                dst=config.dst,
                tos=0,
                ttl=64 if fill else 0,
                flags_fragment=0x4000 if fill else 0,
                fill_checksum=False,
            )
            + build_tcp_header(
                config.sport,
                config.dport,
                0,
                ack=1,
                flags=FLAG_ACK,
                window=config.window,
            ),
            dtype=np.uint8,
        )

    def packetize(self, data, initial_seq=None, initial_ipid=None):
        """Segment ``data`` into packets, one per MSS-sized chunk."""
        config = self.config
        mss = config.mss
        data = bytes(data)
        seq = config.initial_seq if initial_seq is None else initial_seq
        ipid = config.initial_ipid if initial_ipid is None else initial_ipid
        count = -(-len(data) // mss)
        if not count:
            return []
        index = np.arange(count, dtype=np.int64)
        chunk_lens = np.minimum(len(data) - index * mss, mss)
        trailer = config.placement is ChecksumPlacement.TRAILER
        tcp_lens = TCP_HEADER_LEN + chunk_lens + (2 if trailer else 0)
        totals = IP_HEADER_LEN + tcp_lens
        # Rows are left-aligned and zero-padded to an even width; zero
        # bytes past a packet's end add nothing to its sums.
        width = int(totals[0]) + int(totals[0]) % 2
        rows = np.zeros((count, width), dtype=np.uint8)
        rows[:, :_DATA] = self._template
        widest = int(chunk_lens[0])
        padded = np.zeros(count * widest, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        rows[:, _DATA : _DATA + widest] = padded.reshape(count, widest)
        seqs = ((seq & 0xFFFFFFFF) + index * mss) & 0xFFFFFFFF
        ipids = ((ipid & 0xFFFF) + index) & 0xFFFF
        rows[:, _TOTAL_LENGTH : _TOTAL_LENGTH + 2] = _big_endian(totals, 2)
        rows[:, _SEQ : _SEQ + 4] = _big_endian(seqs, 4)
        if config.fill_ip_header:
            rows[:, _IDENT : _IDENT + 2] = _big_endian(ipids, 2)
            header_sums = _word_sums(rows[:, :IP_HEADER_LEN])
            checksum = fold_carries(header_sums) ^ 0xFFFF
            rows[:, _IP_CHECKSUM : _IP_CHECKSUM + 2] = _big_endian(checksum, 2)
            self._fill_check_values(rows, tcp_lens)
        else:
            # Legacy (Section 6.2) coverage: the whole IP packet, no
            # pseudo-header -- an intact packet sums to 0xFFFF from
            # byte 0, making its header cell zero-congruent whenever
            # the payload is zero-congruent.
            offset = IP_HEADER_LEN + TCP_CHECKSUM_OFFSET
            value = _solve_sums(_word_sums(rows), offset)
            rows[:, offset : offset + 2] = _big_endian(value, 2)
        blob = rows.tobytes()
        seqs = seqs.tolist()
        ipids = ipids.tolist()
        # The first packet records the initial values as given; the
        # headers and every later packet carry them wrapped.
        seqs[0], ipids[0] = seq, ipid
        return [
            TCPPacket(
                ip_packet=blob[row : row + total],
                payload=data[start : start + mss],
                seq=packet_seq,
                ipid=packet_ipid,
                config=config,
            )
            for start, row, total, packet_seq, packet_ipid in zip(
                range(0, len(data), mss),
                range(0, count * width, width),
                totals.tolist(),
                seqs,
                ipids,
            )
        ]

    def _fill_check_values(self, rows, tcp_lens):
        """Compute and embed each row's transport check value."""
        config = self.config
        if config.algorithm == "none":
            return
        trailer = config.placement is ChecksumPlacement.TRAILER
        # Field offsets within each TCP segment (header + data).
        offsets = tcp_lens - 2 if trailer else TCP_CHECKSUM_OFFSET
        segments = rows[:, IP_HEADER_LEN:]
        if config.algorithm == "tcp":
            total = pseudo_header_word_sum(config.src, config.dst, 0) + tcp_lens
            total = total + _word_sums(segments)
            value = _solve_sums(total, offsets)
            if not config.invert and not trailer:
                # Section 6.3 ablation: store the sum itself rather than
                # its complement.  The verifier must then compare the
                # recomputed sum against the stored field.
                value ^= 0xFFFF
            first, second = value >> 8, value & 0xFF
        else:
            # Fletcher sums weight byte j of an n-byte segment by n - j.
            modulus = int(config.algorithm[-3:])
            data = segments.astype(np.int64)
            plain = data.sum(axis=1)
            weighted = data @ np.arange(data.shape[1], dtype=np.int64)
            a = plain % modulus
            b = (tcp_lens * plain - weighted) % modulus
            distance = tcp_lens - (offsets + 2)
            first = ((distance + 1) * a - b) % modulus
            second = (-a - first) % modulus
        packets = np.arange(len(rows))
        segments[packets, offsets] = first
        segments[packets, offsets + 1] = second


def _big_endian(values, nbytes):
    """``(n, nbytes)`` uint8 big-endian encodings of ``values``."""
    encoded = np.asarray(values).astype(">u%d" % nbytes)
    return encoded.view(np.uint8).reshape(-1, nbytes)


def _word_sums(rows):
    """Unfolded big-endian 16-bit word sum of each even-width row."""
    return rows.view(">u2").sum(axis=1, dtype=np.int64)


def _solve_sums(partial_sums, field_offsets):
    """Vectorized :func:`~repro.protocols.tcp.solve_sum_to_target`.

    The field value making each ones-complement region fold to
    0xFFFF; a field at an odd offset contributes byte-swapped.
    """
    needed = fold_carries(0xFFFF + (fold_carries(partial_sums) ^ 0xFFFF))
    return np.where(np.asarray(field_offsets) % 2, swap16(needed), needed)
