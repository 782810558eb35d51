# Convenience targets for the checksum reproduction.

PYTHON ?= python

.PHONY: install test bench bench-compare microbench report figures quicktest chaos channel-check cache-stats cache-audit store-check lint clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

quicktest:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow"

# Fault-injection verification: the chaos-marked tests (crash
# consistency at every shard boundary, chaotic sweeps) plus the CLI
# harness that injects worker crashes, bit rot, and ENOSPC into a real
# sweep and asserts the counters come out bit-identical.
chaos:
	$(PYTHON) -m pytest tests/ -q -m chaos
	$(PYTHON) -m repro.cli chaos --bytes 120000

# Channel simulator verification: the conformance + replay suite, then
# a traced run over the burst channel replayed bit-identically from
# its own recording.
channel-check:
	$(PYTHON) -m pytest tests/channel -q
	$(PYTHON) -m repro.cli channel run --plan bursty-link --bytes 120000 \
		--trace channel.trace
	$(PYTHON) -m repro.cli channel replay channel.trace
	rm -f channel.trace

# Quick throughput snapshot (BENCH_<n>.json + delta table vs the
# previous one) and the overhead guarantees: disabled telemetry (<2%)
# and sweep journaling (<3% of hot-path wall time), both asserted.
bench: bench-compare
	$(PYTHON) -m repro.cli bench --quick
	$(PYTHON) -m pytest benchmarks/test_telemetry_overhead.py benchmarks/test_journal_overhead.py -q -s

# Scalar-vs-batch comparisons: bit-identical counters and the >=5x
# batch splice-engine floor on the bench smoke corpus, then identical
# frames and the >=5x batched-sender framing floor on a 200 KB corpus.
bench-compare:
	$(PYTHON) -m pytest benchmarks/test_engine_kinds.py benchmarks/test_sender_batch.py -q -s

# The full pytest-benchmark suite (regenerates every table & figure).
microbench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# --cache: the second invocation is served from the artifact store
# (~/.cache/repro-checksums or $REPRO_CHECKSUMS_CACHE) and is near-instant.
report:
	$(PYTHON) -m repro.cli report -o report.md --bytes 400000 --cache

cache-stats:
	$(PYTHON) -m repro.cli cache stats

cache-audit:
	$(PYTHON) -m repro.cli cache audit

# The local artifact store: backend conformance (local + memory), the
# audit, the result cache, resumable runs and the store guard, crash
# hardening, the sweep journal, crash consistency, and the retry policy.
store-check:
	$(PYTHON) -m pytest tests/store/test_backends.py tests/store/test_audit.py \
		tests/store/test_cache.py tests/store/test_runner.py \
		tests/store/test_hardening.py tests/store/test_journal.py \
		tests/store/test_crash_consistency.py tests/store/test_resilience.py -q

# Static analysis: the domain-aware reprolint rules always run (with
# the incremental cache, so edit-lint loops stay fast); ruff and mypy
# run only when installed (CI installs them; the hermetic dev
# container may not have them, and lint must not demand a network).
lint:
	$(PYTHON) -m repro.cli lint --cache .lint-cache.json src
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml src/repro/checksums src/repro/store src/repro/telemetry; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

figures:
	$(PYTHON) -m repro.cli run figure2 --bytes 600000 --svg figure2.svg
	$(PYTHON) -m repro.cli run figure3 --bytes 600000 --svg figure3.svg

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .lint-cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +
