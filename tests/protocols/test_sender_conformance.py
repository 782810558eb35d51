"""The batched sender against a per-packet scalar oracle.

``FileTransferSimulator.transfer`` packetizes a file in one matrix pass
and frames every packet with one CRC pass.  The oracle here builds each
packet on its own from the header builders and the scalar checksums,
and frames it with the byte-at-a-time ``CRCEngine.process``; the two
must agree byte for byte under every ``PacketizerConfig`` variant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checksums.crc import CRC32_AAL5, CRCEngine
from repro.checksums.fletcher import Fletcher8
from repro.checksums.internet import word_sums
from repro.protocols.aal5 import build_aal5_frames, reassemble_frame
from repro.protocols.ftpsim import FileTransferSimulator
from repro.protocols.ip import build_ipv4_header
from repro.protocols.packetizer import ChecksumPlacement, PacketizerConfig
from repro.protocols.tcp import (
    FLAG_ACK,
    build_tcp_header,
    pseudo_header_word_sum,
    solve_sum_to_target,
    tcp_checksum_field,
)

_CRC = CRCEngine(CRC32_AAL5)

HEADER = ChecksumPlacement.HEADER
TRAILER = ChecksumPlacement.TRAILER

#: Every valid (algorithm, placement, invert, fill_ip_header) variant.
VARIANTS = [
    dict(algorithm=algorithm, placement=placement, invert=invert)
    for algorithm in ("tcp", "fletcher255", "fletcher256", "none")
    for placement in (HEADER, TRAILER)
    for invert in (True, False)
] + [dict(algorithm="tcp", fill_ip_header=False)]


def _variant_id(variant):
    return "-".join(
        str(getattr(value, "value", value)) for value in variant.values()
    )


def oracle_packet(config, chunk, seq, ipid):
    """One IP packet built on its own with the scalar checksums."""
    trailer = config.placement is TRAILER
    wire = chunk + bytes(2) if trailer else chunk
    segment = bytearray(
        build_tcp_header(config.sport, config.dport, seq, ack=1,
                         flags=FLAG_ACK, window=config.window) + wire
    )
    fill = config.fill_ip_header
    ip_header = build_ipv4_header(
        total_length=20 + len(segment), ident=ipid if fill else 0,
        src=config.src, dst=config.dst, tos=0, ttl=64 if fill else 0,
        flags_fragment=0x4000 if fill else 0, fill_checksum=fill,
    )
    offset = len(segment) - 2 if trailer else 16
    if not fill:
        total = word_sums(ip_header + bytes(segment))
        value = solve_sum_to_target(total, 20 + offset)
        segment[offset:offset + 2] = value.to_bytes(2, "big")
    elif config.algorithm == "tcp":
        if trailer:
            total = pseudo_header_word_sum(config.src, config.dst, len(segment))
            value = solve_sum_to_target(total + word_sums(segment), offset)
        else:
            value = tcp_checksum_field(config.src, config.dst, bytes(segment))
            # Ones complement has two zeros; the sender stores 0xFFFF.
            value = value or 0xFFFF
            if not config.invert:
                value ^= 0xFFFF
        segment[offset:offset + 2] = value.to_bytes(2, "big")
    elif config.algorithm != "none":
        fletcher = Fletcher8(int(config.algorithm[-3:]))
        segment[offset:offset + 2] = bytes(fletcher.check_bytes(segment, offset))
    return ip_header + bytes(segment)


def oracle_frame(payload):
    """An AAL5 frame whose CRC comes from the byte-at-a-time engine."""
    pad = (-(len(payload) + 8)) % 48
    body = payload + bytes(pad) + bytes(2) + len(payload).to_bytes(2, "big")
    crc = _CRC.finalize(_CRC.process(_CRC.register_init, body))
    return body + crc.to_bytes(4, "big")


def assert_transfer_matches_oracle(config, data):
    units = FileTransferSimulator(config).transfer(data)
    assert len(units) == -(-len(data) // config.mss)
    seq, ipid = config.initial_seq, config.initial_ipid
    for index, unit in enumerate(units):
        chunk = data[index * config.mss:(index + 1) * config.mss]
        packet = oracle_packet(config, chunk, seq, ipid)
        assert unit.packet.payload == chunk
        assert (unit.packet.seq, unit.packet.ipid) == (seq, ipid)
        assert unit.packet.ip_packet == packet
        assert unit.frame.payload == packet
        assert unit.frame.frame == oracle_frame(packet)
        assert unit.frame.crc == int.from_bytes(unit.frame.frame[-4:], "big")
        assert reassemble_frame(unit.cells) == packet
        seq = (seq + len(chunk)) & 0xFFFFFFFF
        ipid = (ipid + 1) & 0xFFFF


@pytest.mark.parametrize("variant", VARIANTS, ids=_variant_id)
@pytest.mark.parametrize("mss", [256, 37])
def test_edge_lengths_match_oracle(variant, mss):
    config = PacketizerConfig(mss=mss, **variant)
    for length in (0, 1, mss - 1, mss, mss + 1, 4 * mss):
        data = bytes((7 * i + length) % 256 for i in range(length))
        assert_transfer_matches_oracle(config, data)


@pytest.mark.parametrize("variant", VARIANTS, ids=_variant_id)
def test_odd_payloads_put_the_trailer_at_odd_offsets(variant):
    # A 33-byte mss leaves every trailer field at an odd segment
    # offset (20 + 33), where a ones-complement value lands swapped.
    config = PacketizerConfig(mss=33, **variant)
    assert_transfer_matches_oracle(config, bytes(range(200)) + b"\xff" * 99)


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    mss=st.integers(min_value=1, max_value=600),
    data=st.binary(max_size=2500),
)
def test_random_files_match_oracle(variant, mss, data):
    assert_transfer_matches_oracle(PacketizerConfig(mss=mss, **variant), data)


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.lists(st.binary(max_size=700), max_size=8),
    uu=st.integers(0, 255),
    cpi=st.integers(0, 255),
)
def test_frames_of_mixed_lengths_match_scalar_crc(payloads, uu, cpi):
    frames = build_aal5_frames(payloads, uu=uu, cpi=cpi)
    assert len(frames) == len(payloads)
    for payload, frame in zip(payloads, frames):
        pad = (-(len(payload) + 8)) % 48
        body = (payload + bytes(pad) + bytes([uu, cpi])
                + len(payload).to_bytes(2, "big"))
        crc = _CRC.finalize(_CRC.process(_CRC.register_init, body))
        assert frame.frame == body + crc.to_bytes(4, "big")
        assert frame.crc == crc
        assert frame.payload == payload


def test_payload_over_65535_bytes_still_raises():
    with pytest.raises(ValueError):
        build_aal5_frames([b"short", bytes(65536)])
    with pytest.raises(ValueError):
        FileTransferSimulator(PacketizerConfig(mss=70000)).transfer(bytes(66000))


def test_largest_payload_frames():
    frame, = build_aal5_frames([bytes(range(256)) * 255 + bytes(255)])
    assert frame.frame == oracle_frame(frame.payload)
