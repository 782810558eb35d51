"""Runs inside each benchmark process: the command, a setup probe, or a check.

``run.py`` starts every measured process through this file, so the
program under test is never edited to be measured.  Modes:

``plain OUT -- ARGV``
    ``repro-checksums ARGV`` exactly as a user runs it.  The only hook
    keeps each ``ExperimentReport`` that ``run_experiment`` returns and
    writes them to ``OUT/reports.json`` at exit, for the output checks.
``setup OUT -- ARGV``
    The same command, stopped at its first corpus call: writes the
    monotonic clock reading to ``OUT/setup.json`` and exits at once.
``trace OUT -- ARGV``
    ``plain`` plus spans around the public functions of each layer
    (see :func:`install_tracer`), kept in memory and written per process
    to ``OUT/spans-<pid>.jsonl`` when the process ends.  Pool workers
    are forked, inherit the wrappers and write their own file.
``kernels PROFILE BYTES SEED``
    Cells per second of the batch ``compute_many`` kernels over the
    cells of one filesystem of the workload; prints JSON.
``scalar-check PROFILE BYTES SEED``
    Splice counters of the scalar reference receiver and the batch
    engine over a seeded sample of small files; prints JSON.
``calibrate``
    A fixed piece of work that imports and runs nothing of the program:
    ``run.py`` times it from outside to gauge the host's speed.

Run with ``src`` on ``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import json
import os
import random
import statistics
import sys
import time

#: The scalar check samples SCALAR_SAMPLE_FILES of the SMALL_FILES
#: smallest files and keeps their first SCALAR_FILE_BYTES: the
#: byte-at-a-time receiver judges about 4k splices a second.
SMALL_FILES = 8
SCALAR_SAMPLE_FILES = 2
SCALAR_FILE_BYTES = 1024
KERNEL_CELLS = 16384
KERNEL_ALGORITHMS = ("crc32-aal5", "tcp", "fletcher255")
CALIBRATION_BYTES = 100_000


def patch_function(module, name, make_wrapper):
    """Replace ``module.name`` and every ``repro`` alias of it already bound.

    Modules imported later read the patched attribute; modules already
    loaded that did ``from module import name`` are rebound here.
    """
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    setattr(module, name, wrapper)
    for other in list(sys.modules.values()):
        if other is None or not other.__name__.startswith("repro"):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapper)
    return wrapper


def patch_method(cls, name, make_wrapper):
    setattr(cls, name, make_wrapper(getattr(cls, name)))


class Tracer:
    """In-memory spans: (id, parent, name, start, end, attrs) per call.

    Ids are ``"<pid>.<n>"`` so that spans of forked workers stay unique;
    a worker keeps the span stack it was forked under, so its spans name
    the parent-process span (the sweep) that caused them.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.run_id = "%d-%d" % (os.getpid(), time.time_ns())
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.count = 0
        self.needs_finalizer = False
        os.register_at_fork(after_in_child=self._forked)
        atexit.register(self.flush)

    def _forked(self):
        self.pid = os.getpid()
        self.spans = []
        self.count = 0
        # multiprocessing clears its finalizer registry after the fork
        # hooks run, so the exit flush is registered at the first span.
        self.needs_finalizer = True

    def wrap(self, name, attrs_of=None):
        def make_wrapper(function):
            @functools.wraps(function)
            def traced(*args, **kwargs):
                if self.needs_finalizer:
                    from multiprocessing import util

                    util.Finalize(None, self.flush, exitpriority=100)
                    self.needs_finalizer = False
                self.count += 1
                span_id = "%d.%d" % (self.pid, self.count)
                parent = self.stack[-1] if self.stack else None
                self.stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self.stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of else None
                self.spans.append((span_id, parent, name, start, end, attrs))
                return result

            return traced

        return make_wrapper

    def flush(self):
        if not self.spans:
            return
        path = os.path.join(self.out_dir, "spans-%d.jsonl" % self.pid)
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "attrs": attrs,
                }) + "\n")
        self.spans = []


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _filesystem_attrs(args, kwargs, fs):
    profile = _argument(args, kwargs, 0, "profile")
    return {"profile": getattr(profile, "name", profile),
            "total_bytes": int(_argument(args, kwargs, 1, "total_bytes")),
            "files": len(fs), "bytes": fs.total_bytes}


def _sweep_attrs(args, kwargs, result):
    counters = result.counters
    return {
        "filesystem": result.filesystem,
        # One shard per distinct file: the unit the sharded runner keys.
        "shards": len({file.data for file in
                       _argument(args, kwargs, 0, "filesystem")}),
        "retries": result.health.retries + result.health.fallbacks,
        "counters": {key: getattr(counters, key) for key in (
            "total", "caught_by_header", "identical", "remaining",
            "missed_transport", "missed_crc32", "packets", "files")},
    }


def _session_attrs(args, kwargs, report):
    return {"events": report.events, "transmissions": report.transmissions,
            "cells_sent": report.cells_sent}


def install_tracer(out_dir):
    """Wrap the public functions of each layer on the hot path in spans."""
    from repro.channel import arq
    from repro.core import engine, experiment
    from repro.corpus import profiles
    from repro.experiments import markdown, registry
    from repro.protocols import aal5, packetizer
    from repro.store import cache

    tracer = Tracer(out_dir)
    patch_function(profiles, "build_filesystem",
                   tracer.wrap("corpus.generate", _filesystem_attrs))
    patch_method(packetizer.Packetizer, "packetize",
                 tracer.wrap("protocols.packetize"))
    patch_function(aal5, "build_aal5_frame", tracer.wrap("protocols.frame"))
    patch_method(engine.SpliceEngine, "evaluate_stream", tracer.wrap(
        "core.engine",
        lambda args, kwargs, counters: {"splices": counters.total}))
    patch_function(experiment, "run_splice_experiment",
                   tracer.wrap("core.sweep", _sweep_attrs))
    patch_method(arq.ArqSession, "run",
                 tracer.wrap("channel.simulate", _session_attrs))
    patch_function(registry, "run_experiment", tracer.wrap(
        "experiments.run",
        lambda args, kwargs, report: {
            "id": _argument(args, kwargs, 0, "experiment_id")}))
    patch_function(markdown, "generate_markdown_report",
                   tracer.wrap("experiments.markdown"))
    patch_method(cache.ResultCache, "get_object", tracer.wrap("store.read"))
    patch_method(cache.ResultCache, "put_object", tracer.wrap("store.write"))
    return tracer


def capture_reports(out_dir):
    """Keep every report ``run_experiment`` returns; written at exit."""
    from repro.experiments import registry

    reports = []

    def make_wrapper(function):
        @functools.wraps(function)
        def captured(*args, **kwargs):
            report = function(*args, **kwargs)
            reports.append(report)
            return report

        return captured

    def write():
        payload = []
        for report in reports:
            entry = json.loads(report.to_json())
            entry.pop("metrics", None)
            entry.pop("provenance", None)
            payload.append(entry)
        with open(os.path.join(out_dir, "reports.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(payload, handle)

    patch_function(registry, "run_experiment", make_wrapper)
    atexit.register(write)


def stop_at_first_corpus_call(out_dir):
    from repro.corpus import profiles

    def make_wrapper(function):
        @functools.wraps(function)
        def first_call(*args, **kwargs):
            now = time.perf_counter()
            with open(os.path.join(out_dir, "setup.json"), "w",
                      encoding="utf-8") as handle:
                json.dump({"first_corpus_call": now}, handle)
            os._exit(0)

        return first_call

    patch_function(profiles, "build_filesystem", make_wrapper)


def run_command(mode, out_dir, argv):
    if mode == "setup":
        stop_at_first_corpus_call(out_dir)
    else:
        if mode == "trace":
            install_tracer(out_dir)
        capture_reports(out_dir)
    from repro.cli import main

    return main(argv)


def kernel_rates(profile, fs_bytes, seed):
    """Cells/s of each batch kernel over the first KERNEL_CELLS cells."""
    import numpy as np

    from repro.checksums.registry import get_algorithm
    from repro.corpus.profiles import build_filesystem
    from repro.protocols.ftpsim import FileTransferSimulator

    simulator = FileTransferSimulator()
    blocks, count = [], 0
    for file in build_filesystem(profile, fs_bytes, seed):
        for unit in simulator.transfer(file.data):
            blocks.append(unit.cells)
            count += len(unit.cells)
        if count >= KERNEL_CELLS:
            break
    cells = np.ascontiguousarray(np.concatenate(blocks)[:KERNEL_CELLS])
    rates = {}
    for name in KERNEL_ALGORITHMS:
        algorithm = get_algorithm(name)
        algorithm.compute_many(cells[:64])  # build tables outside the timing
        times = []
        for _ in range(5):
            start = time.perf_counter()
            algorithm.compute_many(cells)
            times.append(time.perf_counter() - start)
        rates[name] = len(cells) / statistics.median(times)
    return {"cells": int(len(cells)), "cells_per_s": rates}


def scalar_vs_batch(profile, fs_bytes, seed):
    """Counters of both engines over a seeded sample of small files."""
    from repro.core.experiment import run_splice_experiment
    from repro.corpus.profiles import build_filesystem

    files = sorted(build_filesystem(profile, fs_bytes, seed),
                   key=lambda file: (file.size, file.name))
    sample = [
        dataclasses.replace(file, data=file.data[:SCALAR_FILE_BYTES])
        for file in random.Random(seed).sample(
            files[:SMALL_FILES], min(SCALAR_SAMPLE_FILES, len(files)))
    ]
    counters = {
        engine: run_splice_experiment(sample, engine=engine).counters.to_dict()
        for engine in ("scalar", "batch")
    }
    return {"files": [file.name for file in sample], **counters}


def calibrate():
    """Interpreter start, a numpy import, bytecode, dict, bytes and numpy
    work: the same kinds of work as the measured commands, fixed."""
    import zlib

    import numpy as np

    rng = random.Random(0)
    data = bytes(rng.getrandbits(8) for _ in range(CALIBRATION_BYTES))
    index = {}
    for offset in range(0, len(data) - 4, 4):
        index[data[offset:offset + 4]] = offset
    cells = np.frombuffer(data, dtype=np.uint8)[:len(data) // 48 * 48]
    words = cells.reshape(-1, 48).astype(np.uint32)
    for _ in range(20):
        words = (words * 31 + words.sum(axis=1, keepdims=True)) & 0xFFFF
    return len(index) + zlib.crc32(data) + int(words.sum())


def main(argv):
    mode = argv[0]
    if mode == "calibrate":
        calibrate()
        return 0
    if mode in ("plain", "setup", "trace"):
        out_dir, separator, command = argv[1], argv[2], argv[3:]
        if separator != "--":
            raise SystemExit("usage: probe.py %s OUT -- ARGV" % mode)
        return run_command(mode, out_dir, command)
    profile, fs_bytes, seed = argv[1], int(argv[2]), int(argv[3])
    if mode == "kernels":
        result = kernel_rates(profile, fs_bytes, seed)
    elif mode == "scalar-check":
        result = scalar_vs_batch(profile, fs_bytes, seed)
    else:
        raise SystemExit("unknown probe mode %r" % mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
