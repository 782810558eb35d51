"""The batched-sender speedup guarantee on a 200 KB corpus.

``FileTransferSimulator.transfer`` frames each file's packets with one
``build_aal5_frames`` call: one CRC pass over a ``(frames x bytes)``
matrix instead of the byte-at-a-time ``CRCEngine.process`` per packet.
This gate holds that pass to **at least 5x** per-packet scalar framing,
with identical frames, measured in the same run.

The corpus is 200 KB of ``nsc05`` because per-file batching pays off
with the file's frame count: the workloads' files have a median of
32-137 frames, while the 8 KB smoke corpus's ~5-frame files leave the
batch no faster than the scalar loop.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run with
``pytest benchmarks/test_sender_batch.py -s``, ``make bench-compare``,
or the CI bench-smoke job.
"""

from __future__ import annotations

import time

from repro.corpus.profiles import build_filesystem
from repro.protocols.aal5 import (
    AAL5_TRAILER_LEN,
    CELL_PAYLOAD,
    aal5_crc_engine,
    build_aal5_frames,
)
from repro.protocols.packetizer import Packetizer

CORPUS_BYTES = 200_000
SEED = 1

#: The advertised floor, measured best-of-3 on both sides.
MIN_SPEEDUP = 5.0


def _scalar_frame(payload):
    """One AAL5 frame with its CRC from the byte-at-a-time engine."""
    pad = (-(len(payload) + AAL5_TRAILER_LEN)) % CELL_PAYLOAD
    body = payload + bytes(pad) + bytes(2) + len(payload).to_bytes(2, "big")
    return body + aal5_crc_engine().compute(body).to_bytes(4, "big")


def _best_of(rounds, function):
    """(result, best-of-``rounds`` seconds) of ``function()``."""
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = function()
        elapsed = max(time.perf_counter() - start, 1e-9)
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_batched_framing_at_least_5x_scalar():
    fs = build_filesystem("nsc05", CORPUS_BYTES, SEED)
    packetizer = Packetizer()
    files = [
        [packet.ip_packet for packet in packetizer.packetize(file.data)]
        for file in fs
    ]
    frames = sum(len(payloads) for payloads in files)

    batched, t_batch = _best_of(3, lambda: [
        [frame.frame for frame in build_aal5_frames(payloads)]
        for payloads in files
    ])
    scalar, t_scalar = _best_of(3, lambda: [
        [_scalar_frame(payload) for payload in payloads]
        for payloads in files
    ])

    # Conformance first: a speedup over different frames is meaningless.
    assert batched == scalar
    assert frames > 0

    speedup = t_scalar / t_batch
    print(
        "\nsender framing @%d bytes (%d files, %d frames): batched %.4fs "
        "(%.1f us/frame) vs scalar %.4fs (%.1f us/frame) -> %.1fx"
        % (
            CORPUS_BYTES,
            len(files),
            frames,
            t_batch,
            1e6 * t_batch / frames,
            t_scalar,
            1e6 * t_scalar / frames,
            speedup,
        )
    )
    assert speedup >= MIN_SPEEDUP, (
        "batched framing is only %.1fx per-packet scalar framing (floor %.1fx)"
        % (speedup, MIN_SPEEDUP)
    )
