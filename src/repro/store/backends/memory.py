"""In-memory backend: dict-of-frames, for tests and scratch runs.

Each :class:`MemoryBackend` built directly owns a fresh, private
region; the namespaces ``sub()`` derives from it share that region.
"""

from __future__ import annotations

from repro.store.backends.base import Backend

__all__ = ["MemoryBackend"]


class MemoryBackend(Backend):
    """Frames in a dict; namespaces share one region."""

    kind = "memory"

    def __init__(self, region=None, namespace="default"):
        super().__init__()
        #: ``namespace -> {key -> frame}``, shared by every sub().
        self._region = region if region is not None else {}
        self.namespace = namespace
        self._frames = self._region.setdefault(namespace, {})

    def describe(self):
        return "memory://%s" % self.namespace

    def sub(self, namespace):
        return MemoryBackend(self._region, namespace)

    # -- hooks --------------------------------------------------------------

    def _get_frame(self, key):
        return self._frames[key]

    def _put_frame(self, key, frame):
        self._frames[key] = frame

    def _delete(self, key):
        return self._frames.pop(key, None) is not None

    def _contains(self, key):
        return key in self._frames

    def _keys(self):
        return iter(sorted(self._frames))

    def _size(self, key):
        return len(self._frames[key])
