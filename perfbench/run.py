"""The repo benchmark: seeded workloads over the repro-checksums pipeline.

    python3 perfbench/run.py --workload table1-parallel --seed 1 \\
        --seconds 10 --trace 0

Each workload runs the ``repro-checksums`` command a user would run, in
a fresh process (through ``probe.py``), with a fresh store root in
``$REPRO_CHECKSUMS_CACHE``.  ``--trace 0`` times whole commands from
outside and prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced and prints the per-layer
metrics.  Every run checks the outputs outside the timing.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
SANDBOXES = ROOT / ".perfbench_runs"

#: Seed kept out of tuning; later performance claims are confirmed on it.
HELD_OUT_SEED = 90001
#: A --trace 0 run makes at least MIN_EXECUTIONS executions, each after
#: PROBES_PER_EXECUTION setup probes and as many calibrations (see
#: README.md, Steadiness).
MIN_EXECUTIONS = 3
PROBES_PER_EXECUTION = 2
#: Seconds ``probe.py calibrate`` takes at the reference host speed;
#: times are reported at that speed.
CALIBRATION_REFERENCE_S = 0.25
#: Warm ``report`` reruns after each cold one; rerun_s is their median.
WARM_RERUNS = 5
#: No new execution starts once this much of a run has passed.
RUN_BUDGET_S = 150.0
RSS_SAMPLE_S = 0.05

REPORT_IDS = ("table4", "table5", "table6", "figure2", "figure3", "table9")

#: Workload -> corpus bytes per filesystem.  Sized for a shared 2-core
#: machine: a closed loop of one command at a time, at most 2 workers,
#: and 3-8 s per command, so that a run holds several executions.
WORKLOADS = {
    "table1-parallel": 600_000,
    "channel-regimes": 200_000,
    "report-cached": 200_000,
}
#: Not a workload of its own: the table1-parallel traced run also runs
#: the serial command, for its counters check and parallel efficiency.
SERIAL = "table1-serial"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "corpus.generate_s": "s",
    "corpus.mb_per_s": "MB/s",
    "corpus.files": "count",
    "protocols.packetize_s": "s",
    "protocols.frame_s": "s",
    "protocols.frames": "count",
    "protocols.frames_per_s": "1/s",
    "checksums.crc32-aal5.cells_per_s": "cells/s",
    "checksums.tcp.cells_per_s": "cells/s",
    "checksums.fletcher255.cells_per_s": "cells/s",
    "core.engine_s": "s",
    "core.splices": "count",
    "core.engine_splices_per_s": "1/s",
    "core.sweep_s": "s",
    "core.shards": "count",
    "core.shard_retries": "count",
    "core.parallel_efficiency": "ratio",
    "channel.simulate_s": "s",
    "channel.events": "count",
    "channel.events_per_s": "1/s",
    "channel.transmissions": "count",
    **{"experiments.%s_s" % eid: "s" for eid in REPORT_IDS},
    "experiments.markdown_s": "s",
    "store.objects_written": "count",
    "store.bytes_written": "bytes",
    "store.warm_read_s": "s",
    "bench.span_coverage": "ratio",
    "bench.trace_overhead_pct": "%",
    "splices_per_s": "1/s",
    "sim_cells_per_s": "cells/s",
    "rerun_s": "s",
    "failed_share": "ratio",
}

# The report stamps each block with its own wall time; the only bytes
# in which a warm report may differ from the cold one.
TIMING_LINE = re.compile(r"^\*\(regenerated in \d+\.\d s\)\*$", re.MULTILINE)
COUNTER_KEYS = ("total", "caught_by_header", "identical", "remaining")


def command(workload, seed, fs_bytes, sandbox):
    """The ``repro-checksums`` argv of one workload execution."""
    corpus = ["--bytes", str(fs_bytes), "--seed", str(seed)]
    if workload.startswith("table1"):
        workers = "2" if workload == "table1-parallel" else "1"
        return ["run", "table1", *corpus, "--workers", workers]
    if workload == "channel-regimes":
        return ["run", "channel-regimes", *corpus]
    output = tempfile.mktemp(suffix=".md", dir=sandbox)
    return ["report", "--only", *REPORT_IDS, "--cache", "-o", output, *corpus]


# -- processes ---------------------------------------------------------

def _tree_hwm_kb(root):
    """Sum of VmHWM over ``root`` and its live descendants."""
    total, pending = 0, [root]
    while pending:
        pid = pending.pop()
        try:
            with open("/proc/%d/status" % pid, encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir("/proc/%d/task" % pid):
                path = "/proc/%d/task/%s/children" % (pid, tid)
                with open(path, encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue  # the process ended between reads
    return total


class _RssSampler(threading.Thread):
    """Peak, over samples, of the process tree's summed VmHWM."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self):
        while True:
            self.peak_kb = max(self.peak_kb, _tree_hwm_kb(self.pid))
            if self.done.wait(RSS_SAMPLE_S):
                return

    def stop(self):
        self.done.set()
        self.join()


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Execution:
    """One finished process: wall time, peak RSS, exit code, outputs."""

    def __init__(self, out_dir, wall_s, peak_rss_mb, code):
        self.out_dir = Path(out_dir)
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.code = code
        self.markdown_path = None
        self.store = (0, 0)

    def read_json(self, name):
        try:
            return json.loads((self.out_dir / name).read_text())
        except (OSError, ValueError):
            return None

    @property
    def reports(self):
        return self.read_json("reports.json")

    @property
    def stdout(self):
        return (self.out_dir / "stdout.txt").read_text(errors="replace")


class Runner:
    """Starts processes for one benchmark run and keeps its tally."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.incorrect = False
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect = True
            self.problems.append(what)
        return ok

    def sandbox(self):
        """A fresh directory: one store root, one set of outputs."""
        return tempfile.mkdtemp(dir=self.root)

    def process(self, argv, sandbox):
        """Run ``argv`` in a new session; returns an :class:`Execution`."""
        out_dir = tempfile.mkdtemp(dir=sandbox)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["REPRO_CHECKSUMS_CACHE"] = str(Path(sandbox) / "store")
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(Path(out_dir) / "stdout.txt", "wb") as stdout, \
                open(Path(out_dir) / "stderr.txt", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv(out_dir)], cwd=ROOT, env=env,
                stdout=stdout, stderr=stderr, start_new_session=True)
            sampler = _RssSampler(proc.pid)
            sampler.start()
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                # Wait without reaping, so the group id stays ours while
                # any leftover descendant is killed.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
                _kill_group(proc.pid)
                sampler.stop()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kb = max(sampler.peak_kb, usage.ru_maxrss)
        return Execution(out_dir, wall, peak_kb / 1024.0, proc.returncode)

    def execute(self, mode, cli_argv, sandbox):
        """The command through probe.py; checks its exit and run health."""
        ex = self.process(
            lambda out: [str(PROBE), mode, out, "--", *cli_argv], sandbox)
        self.check(ex.code == 0, "%s %s exited %d" % (
            mode, " ".join(cli_argv[:2]), ex.code))
        # Shards that RunHealth retried or ran in-process as a fallback
        # count as failed operations, on top of the execution itself.
        for report in ex.reports or ():
            health = report.get("health") or {}
            redone = health.get("retries", 0) + health.get("fallbacks", 0)
            self.attempted += redone
            self.failed += redone
            if redone:
                self.problems.append("%s: %d shard(s) retried or fell back"
                                     % (report["experiment_id"], redone))
        return ex

    def helper(self, mode, *args):
        """A probe.py check/kernel helper; returns its JSON or None."""
        ex = self.process(lambda out: [str(PROBE), mode, *map(str, args)],
                          self.sandbox())
        if not self.check(ex.code == 0, "%s exited %d" % (mode, ex.code)):
            return None
        return json.loads(ex.stdout.strip().splitlines()[-1])

    def calibration_time(self):
        """Wall seconds of one ``probe.py calibrate`` process."""
        ex = self.process(lambda out: [str(PROBE), "calibrate"],
                          self.sandbox())
        if not self.check(ex.code == 0, "calibration exited %d" % ex.code):
            return None
        return ex.wall_s

    def setup_time(self, cli_argv, sandbox):
        """Seconds from launch to the command's first corpus call."""
        start = time.perf_counter()
        ex = self.process(
            lambda out: [str(PROBE), "setup", out, "--", *cli_argv], sandbox)
        mark = ex.read_json("setup.json")
        if not self.check(ex.code == 0 and mark is not None,
                          "setup probe exited %d before any corpus call"
                          % ex.code):
            return None
        return mark["first_corpus_call"] - start


# -- output checks -------------------------------------------------------

def counter_records(node):
    """Every dict under ``node`` that carries splice counters."""
    if isinstance(node, dict):
        if all(key in node for key in COUNTER_KEYS):
            yield node
        for value in node.values():
            yield from counter_records(value)
    elif isinstance(node, list):
        for value in node:
            yield from counter_records(value)


def counters_consistent(record):
    return record["total"] == (record["caught_by_header"]
                               + record["identical"] + record["remaining"])


def channel_row_consistent(row):
    return row["frames"] == (row["delivered_clean"]
                             + row["delivered_corrupted"]
                             + row["frames_failed"])


def without_timings(markdown):
    return TIMING_LINE.sub("", markdown)


def signature(reports):
    """What a run produced, minus how it ran: ids, texts and data."""
    return json.dumps([(r["experiment_id"], r["text"], r["data"])
                       for r in reports or ()], sort_keys=True)


def rows(reports, experiment_id):
    for report in reports or ():
        if report["experiment_id"] == experiment_id:
            return report["data"].get("rows", [])
    return []


def check_outputs(runner, workload, ex):
    """Workload-specific checks of one execution's reports."""
    reports = ex.reports
    if not runner.check(bool(reports), "%s produced no report" % workload):
        return
    records = list(counter_records([r["data"] for r in reports]))
    runner.check(all(map(counters_consistent, records)),
                 "counters record with total != hdr + identical + remaining")
    if workload.startswith("table1"):
        table = rows(reports, "table1")
        runner.check(len(table) > 0 and len(records) == len(table),
                     "table1 rows missing")
        runner.check(all(row["missed_crc32"] == 0 for row in table),
                     "table1 CRC-32 misses are not 0")
    elif workload == "channel-regimes":
        table = rows(reports, "channel-regimes")
        runner.check(len(table) == 12, "channel-regimes has %d rows, not 12"
                     % len(table))
        runner.check(all(map(channel_row_consistent, table)),
                     "channel row with frames != clean + corrupted + failed")
    else:
        ids = [r["experiment_id"] for r in reports]
        runner.check(sorted(ids) == sorted(REPORT_IDS),
                     "report ran %s" % ids)


def check_same(runner, first, second, what):
    runner.check(signature(first.reports) == signature(second.reports),
                 "%s: outputs differ" % what)


# -- spans ----------------------------------------------------------------

def load_spans(ex):
    spans = []
    for path in sorted(ex.out_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle)
    return spans


def _union(intervals):
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part its children cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union(
            (max(start, c["start"]), min(end, c["end"]))
            for c in children.get(span["id"], ()) if c["start"] < end
            and c["end"] > start)
        out[span["id"]] = end - start - covered
    return out


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer numbers of one traced execution."""
    own = self_times(spans)

    def named(name):
        return [span for span in spans if span["name"] == name]

    def busy(name):
        return sum(own[span["id"]] for span in named(name))

    def total(name, key):
        # A call that raised has a span but no attributes.
        return sum(span["attrs"][key] for span in named(name)
                   if span["attrs"])

    metrics = {
        "corpus.generate_s": busy("corpus.generate"),
        "corpus.files": total("corpus.generate", "files"),
        "protocols.packetize_s": busy("protocols.packetize"),
        "protocols.frame_s": busy("protocols.frame"),
        "protocols.frames": len(named("protocols.frame")),
        "core.engine_s": busy("core.engine"),
        "core.splices": total("core.engine", "splices"),
        "core.sweep_s": sum(s["end"] - s["start"] for s in named("core.sweep")),
        "core.shards": total("core.sweep", "shards"),
        "core.shard_retries": total("core.sweep", "retries"),
        "channel.simulate_s": busy("channel.simulate"),
        "channel.events": total("channel.simulate", "events"),
        "channel.transmissions": total("channel.simulate", "transmissions"),
        "experiments.markdown_s": busy("experiments.markdown"),
    }
    metrics["corpus.mb_per_s"] = _rate(
        total("corpus.generate", "bytes") / 1e6, metrics["corpus.generate_s"])
    metrics["protocols.frames_per_s"] = _rate(
        metrics["protocols.frames"], metrics["protocols.frame_s"])
    metrics["core.engine_splices_per_s"] = _rate(
        metrics["core.splices"], metrics["core.engine_s"])
    metrics["channel.events_per_s"] = _rate(
        metrics["channel.events"], metrics["channel.simulate_s"])
    for eid in REPORT_IDS:
        metrics["experiments.%s_s" % eid] = sum(
            s["end"] - s["start"] for s in named("experiments.run")
            if s["attrs"] and s["attrs"]["id"] == eid)
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    metrics["bench.span_coverage"] = _union(roots) / wall_s
    return metrics


def sweep_counters(spans):
    return [s["attrs"]["counters"] for s in spans
            if s["name"] == "core.sweep" and s["attrs"]]


# -- workloads -------------------------------------------------------------

class Workload:
    """One workload of one run: its command, checks and metrics."""

    def __init__(self, name, seed, fs_bytes, runner):
        self.name = name
        self.seed = seed
        self.fs_bytes = fs_bytes
        self.runner = runner
        self.samples = {}

    def argv(self, sandbox, name=None):
        return command(name or self.name, self.seed, self.fs_bytes, sandbox)

    def run(self, mode, sandbox, name=None):
        argv = self.argv(sandbox, name)
        ex = self.runner.execute(mode, argv, sandbox)
        ex.markdown_path = argv[argv.index("-o") + 1] if "-o" in argv else None
        check_outputs(self.runner, name or self.name, ex)
        return ex

    def markdown(self, ex):
        try:
            return Path(ex.markdown_path).read_text(encoding="utf-8")
        except OSError:
            return ""

    def cycle(self, mode="plain", warm_reruns=WARM_RERUNS):
        """The workload's command in a fresh store; for report-cached,
        then ``warm_reruns`` reruns against the store it filled."""
        sandbox = self.runner.sandbox()
        first = self.run(mode, sandbox)
        first.store = _store_totals(Path(sandbox) / "store")
        warm = []
        if self.name == "report-cached":
            cold = self.markdown(first)
            self.runner.check(
                len(TIMING_LINE.findall(cold)) == len(REPORT_IDS),
                "cold report lacks its per-block timing lines")
            for _ in range(warm_reruns):
                ex = self.run(mode, sandbox)
                self.runner.check(
                    without_timings(self.markdown(ex)) == without_timings(cold),
                    "warm report differs from the cold report")
                check_same(self.runner, first, ex, "warm vs cold reports")
                warm.append(ex)
        return first, warm

    def scalar_check(self, reports):
        table = rows(reports, "table1")
        if not table:
            return
        profile = table[self.seed % len(table)]["system"]
        result = self.runner.helper(
            "scalar-check", profile, self.fs_bytes, self.seed)
        if result is not None:
            self.runner.check(
                bool(result["files"]) and result["scalar"] == result["batch"],
                "scalar receiver disagrees with the batch engine on %s"
                % result["files"])

    def end_to_end(self, seconds):
        """--trace 0: setup probes, calibrations and then the command,
        repeated for ``seconds``; means over the run, at the reference
        host speed (see README.md, Steadiness)."""
        started = time.perf_counter()
        setups, calibrations, firsts = [], [], []
        while True:
            for _ in range(PROBES_PER_EXECUTION):
                sandbox = self.runner.sandbox()
                setups.append(
                    self.runner.setup_time(self.argv(sandbox), sandbox))
                calibrations.append(self.runner.calibration_time())
            # Warm reruns are timed only by --trace 1 (rerun_s); here one
            # is enough for the warm-vs-cold output check.
            first, _ = self.cycle(warm_reruns=1)
            if firsts and self.name == "channel-regimes":
                check_same(self.runner, firsts[0], first,
                           "channel-regimes repetitions")
            firsts.append(first)
            elapsed = time.perf_counter() - started
            # Start no execution that would end after ``seconds``.
            if (len(firsts) >= MIN_EXECUTIONS
                    and elapsed * (len(firsts) + 1) / len(firsts) > seconds):
                break
            if (self.runner.deadline - time.perf_counter()
                    < elapsed / len(firsts) + 10):
                break
        if self.name.startswith("table1"):
            self.scalar_check(firsts[0].reports)
        setups = [value for value in setups if value is not None]
        calibrations = [value for value in calibrations if value is not None]
        calibration_s = (statistics.fmean(calibrations) if calibrations
                         else CALIBRATION_REFERENCE_S)
        speed = CALIBRATION_REFERENCE_S / calibration_s
        raw_wall = statistics.fmean(ex.wall_s for ex in firsts)
        raw_setup = statistics.fmean(setups) if setups else 0.0
        self.samples = {
            "executions": len(firsts), "setup_probes": len(setups),
            "calibrations": len(calibrations), "calibration_s": calibration_s,
            "host_wall_s": raw_wall, "host_setup_s": raw_setup,
        }
        return {
            "wall_s": raw_wall * speed,
            "setup_s": raw_setup * speed,
            "peak_rss_mb": statistics.median(ex.peak_rss_mb for ex in firsts),
        }

    def per_layer(self):
        """--trace 1: one untraced and one traced execution, compared."""
        plain, warm = self.cycle()
        traced, traced_warm = self.cycle("trace", warm_reruns=1)
        check_same(self.runner, plain, traced, "traced vs untraced")
        spans = load_spans(traced)
        # A metric that does not apply to this workload reads 0.
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(spans, traced.wall_s))
        for record in sweep_counters(spans):
            self.runner.check(counters_consistent(record),
                              "traced sweep counters inconsistent")
        metrics["bench.trace_overhead_pct"] = (
            100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s)
        metrics["store.objects_written"] = plain.store[0]
        metrics["store.bytes_written"] = plain.store[1]
        if self.name.startswith("table1"):
            metrics["splices_per_s"] = sum(
                row["total"] for row in rows(plain.reports, "table1")
            ) / plain.wall_s
            serial = spans
            if self.name == "table1-parallel":
                sandbox = self.runner.sandbox()
                other = self.run("trace", sandbox, name=SERIAL)
                check_same(self.runner, plain, other,
                           "table1-serial vs table1-parallel")
                serial = load_spans(other)
            workers = 2 if self.name == "table1-parallel" else 1
            metrics["core.parallel_efficiency"] = _rate(
                layer_metrics(serial, 1.0)["core.sweep_s"],
                workers * metrics["core.sweep_s"])
            self.scalar_check(plain.reports)
        elif self.name == "channel-regimes":
            again, _ = self.cycle()
            check_same(self.runner, plain, again,
                       "channel-regimes repetitions")
            metrics["sim_cells_per_s"] = sum(
                row["cells_sent"] for row in rows(plain.reports,
                                                  "channel-regimes")
            ) / plain.wall_s
        else:
            metrics["rerun_s"] = statistics.median(ex.wall_s for ex in warm)
            metrics["store.warm_read_s"] = sum(
                span["end"] - span["start"]
                for span in load_spans(traced_warm[0])
                if span["name"] == "store.read")
        corpus = [s["attrs"] for s in spans
                  if s["name"] == "corpus.generate" and s["attrs"]]
        if self.runner.check(bool(corpus), "traced run built no corpus"):
            kernels = self.runner.helper(
                "kernels", corpus[0]["profile"], corpus[0]["total_bytes"],
                self.seed)
            for name, rate in (kernels or {}).get("cells_per_s", {}).items():
                metrics["checksums.%s.cells_per_s" % name] = rate
        return metrics


def _store_totals(store):
    """(files, bytes) the cold run left in the store, journals aside."""
    files = size = 0
    for path in store.rglob("*"):
        if path.is_file() and "journal" not in path.relative_to(store).parts:
            files += 1
            size += path.stat().st_size
    return files, size


# -- entry point -------------------------------------------------------------

def environment(args, fs_bytes, samples):
    return {
        **samples,
        "workload": args.workload,
        "seed": args.seed,
        # channel-regimes seeds each channel plan with the corpus seed.
        "channel_seed": args.seed if args.workload == "channel-regimes" else None,
        "fs_bytes": fs_bytes,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bytes", type=int, default=None,
                        help="override the workload's corpus size (the "
                             "benchmark's own tests use tiny sizes)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that kill and reap
    # the process group of the execution in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "cli.py").is_file():
        print("perfbench: no program to measure: %s is missing"
              % (SRC / "repro" / "cli.py"), file=sys.stderr)
        return 2
    fs_bytes = args.bytes or WORKLOADS[args.workload]
    SANDBOXES.mkdir(exist_ok=True)
    runner = Runner(tempfile.mkdtemp(dir=SANDBOXES),
                    deadline=time.perf_counter() + RUN_BUDGET_S)
    workload = Workload(args.workload, args.seed, fs_bytes, runner)
    try:
        if args.trace:
            values = workload.per_layer()
            values["failed_share"] = runner.failed / max(1, runner.attempted)
            units = PER_LAYER
        else:
            values = workload.end_to_end(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(runner.root, ignore_errors=True)
        try:
            SANDBOXES.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in runner.problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    print(json.dumps({"environment": environment(args, fs_bytes,
                                                 workload.samples)}))
    print(json.dumps({
        "correct": not runner.incorrect,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
