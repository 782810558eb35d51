"""repro.store: content-addressed artifact store for experiment runs.

The persistence layer behind cached and resumable experiments, rooted
at ``--cache-dir`` / ``$REPRO_CHECKSUMS_CACHE`` on local disk:

* :mod:`repro.store.framing` -- the integrity-trailed frame format
  every stored object carries (CRC-32/AAL5 by default);
* :mod:`repro.store.backends` -- where frames live: the pathsliced
  local directory, and an in-memory dict for tests;
* :mod:`repro.store.objstore` -- the framing layer over a backend:
  content-addressed payload storage with self-checking objects;
* :mod:`repro.store.keys` -- canonical cache keys over experiment
  parameters, corpus identity and the code schema version;
* :mod:`repro.store.cache` -- the counting result cache (hit / miss /
  corrupt-evict-recompute);
* :mod:`repro.store.manifest` / :mod:`repro.store.runner` -- resumable
  sharded splice runs checkpointed per file;
* :mod:`repro.store.journal` -- the per-sweep checkpoint journal behind
  ``--resume``;
* :mod:`repro.store.audit` -- re-verify every stored object, optionally
  evicting the corrupt ones.

Corruption is always survivable: a failed trailer evicts the entry and
the caller recomputes — the cache can cost time, never correctness.
"""

from repro.store.audit import AuditReport, audit_run_store
from repro.store.backends import Backend, BackendCounters
from repro.store.cache import ResultCache
from repro.store.keys import SCHEMA_VERSION, experiment_key, shard_key
from repro.store.manifest import ManifestStore, RunManifest
from repro.store.objstore import (
    DEFAULT_ALGORITHM,
    IntegrityError,
    ObjectStore,
    default_root,
)
from repro.store.runner import RunStore, run_sharded_splice

__all__ = [
    "AuditReport",
    "Backend",
    "BackendCounters",
    "DEFAULT_ALGORITHM",
    "IntegrityError",
    "ManifestStore",
    "ObjectStore",
    "ResultCache",
    "RunManifest",
    "RunStore",
    "SCHEMA_VERSION",
    "audit_run_store",
    "default_root",
    "experiment_key",
    "run_sharded_splice",
    "shard_key",
]
