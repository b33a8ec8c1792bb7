# Convenience targets for the DICE reproduction.

.PHONY: install test check chaos serve service-smoke slo-check bench bench-parallel bench-core bench-gate report flight run-table examples clean

install:
	python setup.py develop

test:
	python -m pytest tests/

# Tier-1 gate plus a fast fault-injection smoke of the CLI.
check:
	PYTHONPATH=src python -m pytest tests/ -x -q
	REPRO_DISK_CACHE=0 PYTHONPATH=src python -m repro.harness.cli faults --accesses 500

# Self-verifying chaos campaign: seeded faults at every exec seam, then
# assert results bit-identical to a fault-free reference run.
chaos:
	PYTHONPATH=src REPRO_ACCESSES=300 python -m repro.harness.cli chaos \
		--chaos-seed 7 --chaos-rate 0.2 --jobs 2

# Persistent sim-as-a-service daemon: submit campaigns over HTTP with
# `cli submit KEYS`, stream NDJSON progress, SIGTERM to drain gracefully.
serve:
	PYTHONPATH=src python -m repro.harness.cli serve --port 7414

# Daemon lifecycle smoke: cold campaign, 100%-cache-hit warm resubmission,
# healthz/metrics, SIGTERM drain to a checkpoint, bit-identical resume,
# cross-process trace stitching + SLO verdicts.
service-smoke:
	PYTHONPATH=src REPRO_ACCESSES=300 python scripts/service_smoke.py

# Judge the daemon's service-level objectives; exit 6 when one is failing.
slo-check:
	PYTHONPATH=src python -m repro.harness.cli slo check

bench:
	python -m pytest benchmarks/ --benchmark-only -q -s

# Serial vs parallel wall-clock on a cold cache; writes BENCH_parallel.json.
bench-parallel:
	PYTHONPATH=src python scripts/bench_parallel.py

# Hot-path throughput per design config; refreshes the committed baseline.
bench-core:
	PYTHONPATH=src python scripts/bench_core.py --min-throughput 4000

# The CI perf gate, runnable locally: floor + tolerance band against the
# committed BENCH_core.json baseline (fresh numbers go to BENCH_core.ci.json).
bench-gate:
	PYTHONPATH=src python scripts/bench_core.py \
		--min-throughput 4000 \
		--baseline BENCH_core.json --band 0.25 \
		--out BENCH_core.ci.json

report:
	python -m repro.analysis.report EXPERIMENTS.md

# Fidelity scoreboard + drift check against FIDELITY_baseline.json.
flight:
	PYTHONPATH=src python -m repro.harness.cli report --flight \
		--check --accesses 300 --out FLIGHT_report.md

# Statistical smoke campaign: 3 derived-seed repetitions of fig13, a
# lint-clean run_table.csv, and CI-backed fidelity verdicts (see
# RUN_TABLE_COLUMNS.md for the schema).
run-table:
	PYTHONPATH=src python -m repro.harness.cli fig13 \
		--accesses 300 --repetitions 3 --jobs 2 --run-table run_table.csv
	python scripts/runtable_lint.py --expect-reps 3 run_table.csv
	PYTHONPATH=src python -m repro.harness.cli report --flight --check \
		--accesses 300 --repetitions 3 --experiments fig13 \
		--out FLIGHT_runtable.md

examples:
	python examples/quickstart.py
	python examples/compression_explorer.py
	python examples/trace_replay.py omnetpp 1500
	python examples/design_space.py sphinx 400

clean:
	rm -f .sim_cache.json
	rm -rf .sim_cache.d .sim_cache.cas
	rm -f .service_checkpoint.json
	rm -f BENCH_parallel.json
	rm -f .campaign_flight.json BENCH_core.ci.json FLIGHT_report.md FLIGHT_report.html
	rm -f run_table.csv FLIGHT_runtable.md
	rm -f *.prof.json *.collapsed.txt
	rm -f test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
