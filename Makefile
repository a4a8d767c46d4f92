# Developer entry points.  `make check` is the tier-1 gate: the full test
# suite on the primary interpreter plus, when one is available with the
# test dependencies installed, a second pass on the 3.9 floor (pyproject
# pins requires-python >= 3.9, where int.bit_count does not exist — the
# popcount fallback must stay exercised).  Each pass reports wall-clock.

PYTHON ?= python
PY39 ?= python3.9

.PHONY: check test test39 bench bench-check serve-smoke ingest-smoke probe-smoke async-smoke mvcc-smoke range-smoke torture clean

check: test test39

test:
	@echo "== tier-1 ($$($(PYTHON) --version 2>&1)) =="
	time PYTHONPATH=src $(PYTHON) -m pytest -x -q

test39:
	@if command -v $(PY39) >/dev/null 2>&1 \
	    && $(PY39) -c "import pytest, hypothesis, numpy" >/dev/null 2>&1; then \
	    echo "== tier-1 ($$($(PY39) --version 2>&1)) =="; \
	    time PYTHONPATH=src $(PY39) -m pytest -x -q; \
	else \
	    echo "== tier-1 (3.9): skipped — no $(PY39) with pytest/hypothesis/numpy =="; \
	    echo "   (the 3.9 popcount fallback is still covered in-suite:"; \
	    echo "    tests/filters/test_bitarray.py::TestPopcount)"; \
	fi

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q

# The end-to-end benchmark's own checks, short: the self-test (digests
# equal across runs and tracing on/off, exact counts repeat), then one
# 1-second run of each attack workload, whose per-unit attack digests are
# checked against perfbench/golden.json.  Nonzero exit on any mismatch.
bench-check:
	$(PYTHON) perfbench/run.py --self-test
	$(PYTHON) perfbench/run.py --workload surf-attack --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload range-attack --seed 0 --seconds 1 --trace 0

# Small-N run of the ingest bench: asserts parallel == serial output
# digests (the engine's determinism contract) without the full-size
# timing runs, and without touching the committed results files.
ingest-smoke:
	REPRO_INGEST_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_ingest.py -q --benchmark-disable

# Small-N run of the filter-probe bench: asserts every filter family's
# batch verdicts equal its scalar probes without the full-size timing
# runs, and without touching the committed results files.  (The LSM-level
# bit-identity of the engine is pinned by tier-1 golden digests.)
probe-smoke:
	REPRO_PROBE_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_filter_probe.py -q --benchmark-disable

# Small-N run of the asyncio scale + defense bench: asserts the event
# loop really holds every connection, the defense flags the attacker
# fleet (throttle escalates, noise injects), and benign zipf traffic is
# never flagged — without the full-size runs, and without touching the
# committed results files.
async-smoke:
	REPRO_ASYNC_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_server_async.py -q --benchmark-disable

# Small-N run of the mixed-workload bench: races point reads against a
# forced compact_all in both compaction modes and siphons a pinned
# snapshot while the live tree churns — asserts the MVCC machinery holds
# (no leaked version pins, background merges really ran) without the
# full-size stall quantiles, and without touching the committed results
# files.
mvcc-smoke:
	REPRO_MVCC_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_mixed_workload.py -q --benchmark-disable

# Small-N run of the sorted-view range bench: churns a store that keeps
# its view maintained incrementally and asserts zero leaked pins, without
# the full-size run and without touching the committed results files.
# (The view's bit-identity with the classic merge is pinned by tier-1
# golden digests.)
range-smoke:
	REPRO_RANGE_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_range_view.py -q --benchmark-disable

# One real TCP round trip through the wire-protocol server: build a small
# store, serve it, ping + get + stats from a client, shut down cleanly.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --keys 2000 --width 4 --smoke

# Exhaustive crash-point sweep over a fixed seed matrix: every device
# mutation of a 200-op workload is crashed (torn final write), recovered,
# and diffed against a dict oracle of the acknowledged ops.  Nonzero exit
# on the first lost or resurrected write.
torture:
	PYTHONPATH=src $(PYTHON) -m repro.cli doctor --torture --ops 200 \
	    --seeds 0,1,2

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks
