"""Object-store backends: where integrity-trailed frames live.

The formal interface is :class:`repro.store.backends.base.Backend`:
frame-level storage under hex keys, per-backend hit/miss/byte
counters, and ``sub(namespace)`` derivation for the RunStore
namespaces.  Two implementations:

* :class:`LocalBackend` — the pathsliced on-disk store every command
  uses, rooted at ``--cache-dir`` / ``$REPRO_CHECKSUMS_CACHE``;
* :class:`MemoryBackend` — a dict of frames, the tests' substitute
  backend.
"""

from __future__ import annotations

from repro.store.backends.base import Backend, BackendCounters
from repro.store.backends.local import LocalBackend, atomic_write
from repro.store.backends.memory import MemoryBackend

__all__ = [
    "Backend",
    "BackendCounters",
    "LocalBackend",
    "MemoryBackend",
    "atomic_write",
]
