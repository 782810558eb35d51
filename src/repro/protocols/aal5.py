"""AAL5 CPCS framing: padding, trailer, CRC-32, cells.

An AAL5 CPCS-PDU is the payload, zero padding, and an 8-byte trailer
(CPCS-UU, CPI, 16-bit Length, 32-bit CRC) sized so the whole frame is a
multiple of the 48-byte ATM cell payload.  The CRC-32 covers everything
up to but not including the CRC field and is transmitted big-endian.
The last cell of a frame is marked via the ATM header PTI user bit;
that marking is what makes the paper's packet splices possible when the
marked cell of the first packet is lost.

The sender frames a whole file's packets in one vectorized pass
(:func:`build_aal5_frames`).  CRCs are GF(2)-linear, so the register
after a body is the XOR of per-chunk register images, each carried to
the end of the body by the zero-feed operator ``Z^n`` -- the identity
the splice engine's receiver folds cells with.  Bodies are
right-aligned behind zero bytes in one ``(frames x bytes)`` matrix
(zeros fed from register 0 leave it 0), so frames of every length share
one chunk pass and one fold; only the preset register's contribution
``Z^len(init)`` differs per body length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checksums.crc import CRC32_AAL5, CRCEngine

__all__ = [
    "AAL5_TRAILER_LEN",
    "CELL_PAYLOAD",
    "AAL5Error",
    "AAL5Frame",
    "aal5_crc_engine",
    "build_aal5_frame",
    "build_aal5_frames",
    "cells_needed",
    "reassemble_frame",
]

#: ATM cell payload size in bytes.
CELL_PAYLOAD = 48

#: AAL5 CPCS trailer length (UU + CPI + Length + CRC-32).
AAL5_TRAILER_LEN = 8

_ENGINE = CRCEngine(CRC32_AAL5)

#: Bytes per chunk of the framing CRC pass.  A cell payload is three
#: chunks, so a frame matrix is always a whole number of them.
_CHUNK = 16


def aal5_crc_engine():
    """The shared CRC-32 engine used for AAL5 framing."""
    return _ENGINE


class AAL5Error(ValueError):
    """Raised when an AAL5 frame fails reassembly validation."""


def cells_needed(payload_len):
    """Number of 48-byte cells for a payload of ``payload_len`` bytes."""
    return -(-(payload_len + AAL5_TRAILER_LEN) // CELL_PAYLOAD)


@dataclass(frozen=True)
class AAL5Frame:
    """A framed AAL5 CPCS-PDU and its cell decomposition."""

    payload: bytes
    frame: bytes
    crc: int

    @property
    def length(self):
        """The payload length carried in the trailer."""
        return len(self.payload)

    @property
    def cell_count(self):
        return len(self.frame) // CELL_PAYLOAD

    def cells(self):
        """The frame as an ``(m, 48)`` uint8 array of cell payloads."""
        return np.frombuffer(self.frame, dtype=np.uint8).reshape(-1, CELL_PAYLOAD)


def build_aal5_frame(payload, uu=0, cpi=0):
    """Frame ``payload`` as an AAL5 CPCS-PDU."""
    return build_aal5_frames([payload], uu, cpi)[0]


def build_aal5_frames(payloads, uu=0, cpi=0):
    """Frame each of ``payloads`` as an AAL5 CPCS-PDU, in one pass.

    Returns one :class:`AAL5Frame` per payload, bit-identical to
    framing them one at a time with the scalar CRC.
    """
    payloads = [bytes(payload) for payload in payloads]
    if not payloads:
        return []
    lengths = np.array([len(payload) for payload in payloads], dtype=np.int64)
    if lengths.max() > 0xFFFF:
        raise ValueError("AAL5 payload exceeds 65535 bytes")
    sizes = -(-(lengths + AAL5_TRAILER_LEN) // CELL_PAYLOAD) * CELL_PAYLOAD
    widest = int(sizes.max())
    # Row i holds frame i right-aligned behind zeros.  Four extra
    # leading columns make every body end at column ``widest``, a whole
    # number of chunks, with its CRC in the last four columns.
    width = widest + 4
    rows = np.zeros((len(payloads), width), dtype=np.uint8)
    starts = (width - sizes)[:, None]
    columns = np.arange(width)
    in_payload = (columns >= starts) & (columns < starts + lengths[:, None])
    rows[in_payload] = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    rows[:, -8] = uu
    rows[:, -7] = cpi
    rows[:, -6:-4] = lengths.astype(">u2").view(np.uint8).reshape(-1, 2)
    crcs = _ENGINE.finalize_many(_body_registers(rows[:, :widest], sizes - 4))
    rows[:, -4:] = crcs.astype(">u4").view(np.uint8).reshape(-1, 4)
    blob = rows.tobytes()
    return [
        AAL5Frame(payload=payload, frame=blob[end - size : end], crc=crc)
        for payload, end, size, crc in zip(
            payloads,
            range(width, width * (len(payloads) + 1), width),
            sizes.tolist(),
            crcs.tolist(),
        )
    ]


def _body_registers(bodies, body_lengths):
    """CRC registers after each right-aligned row of ``bodies``.

    Each ``_CHUNK``-byte chunk's image from register 0 comes from one
    batch-tier pass; adjacent images then fold pairwise,
    ``Z^span(left) XOR right``, doubling ``span`` each level.  A row's
    leading zeros contribute nothing, so adding ``Z^len(init)`` for its
    body length gives the register from the preset.
    """
    count, width = bodies.shape
    chunks = bodies.reshape(count, width // _CHUNK, _CHUNK)
    regs = _ENGINE._advance_many(np.zeros(chunks.shape[:2], np.uint32), chunks)
    span = _CHUNK
    while regs.shape[1] > 1:
        if regs.shape[1] % 2:
            regs = np.concatenate((np.zeros((count, 1), np.uint32), regs), axis=1)
        regs = _ENGINE.zero_feed(span).apply_vec(regs[:, 0::2]) ^ regs[:, 1::2]
        span *= 2
    distinct, which = np.unique(body_lengths, return_inverse=True)
    init = _ENGINE.register_init
    presets = np.array(
        [_ENGINE.zero_feed(n).apply(init) for n in distinct.tolist()], np.uint32
    )
    return regs[:, 0] ^ presets[which]


def reassemble_frame(cells, check_crc=True):
    """Reassemble cell payloads into the CPCS payload.

    ``cells`` is a sequence of 48-byte cell payloads (or an ``(m, 48)``
    array), the last of which carries the trailer.  Raises
    :class:`AAL5Error` on a length or CRC mismatch -- the checks that
    catch most, but per the paper not all, packet splices.
    """
    if isinstance(cells, np.ndarray):
        data = cells.astype(np.uint8).tobytes()
    else:
        data = b"".join(bytes(c) for c in cells)
    if len(data) < CELL_PAYLOAD or len(data) % CELL_PAYLOAD:
        raise AAL5Error("frame is not a whole number of cells")
    length = int.from_bytes(data[-6:-4], "big")
    max_payload = len(data) - AAL5_TRAILER_LEN
    if not max_payload - (CELL_PAYLOAD - 1) <= length <= max_payload:
        raise AAL5Error(
            "trailer length %d inconsistent with %d cells"
            % (length, len(data) // CELL_PAYLOAD)
        )
    if check_crc:
        stored = int.from_bytes(data[-4:], "big")
        if _ENGINE.compute(data[:-4]) != stored:
            raise AAL5Error("CRC-32 mismatch")
    return data[:length]
