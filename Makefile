# Convenience targets for the PROP reproduction.

.PHONY: install test bench ledger pairs monitor-demo figures examples report lint analyze all

# ruff (configured in pyproject.toml) when available; offline images
# fall back to the dependency-free subset checker in tools/lint.py.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; using tools/lint.py fallback"; \
		python tools/lint.py; \
	fi

# Static analysis (docs/analysis.md): the style lint and mypy --strict
# on the deterministic kernel and the live/obs planes; ruff and mypy
# are optional on offline images.  The protocol's invariants are tier-1
# tests (the seeded sweep in tests/properties/test_stream_ownership.py).
analyze:
	@$(MAKE) --no-print-directory lint
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --strict -p repro.core -p repro.net -p repro.metrics \
			-p repro.topology -p repro.live -p repro.obs; \
	else \
		echo "mypy not installed; skipping strict typing gate"; \
	fi

install:
	pip install -e . || python setup.py develop  # fallback: offline envs without `wheel`

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# The benchmark ledger (benchmarks/ledger/README.md): six workloads, one
# fresh interpreter each, end-to-end metrics printed by name.
# WORKLOAD=msgplane_clean runs one of them.
ledger:
	python3 benchmarks/ledger/run.py $(if $(WORKLOAD),--workload $(WORKLOAD),)

# Alternating parent/change pairs of one workload, the form a gain may
# be claimed on: `make pairs WORKLOAD=fig6_chord PARENT=HEAD~1 [SEED=0]
# [N=10]` unpacks PARENT into a temporary directory, runs the unmodified
# single-run form in each tree (alternating which goes first) and prints
# medians, quartiles, pairs won and a digest/ok_share equality check.
pairs:
	python3 tools/ledger_pairs.py --workload $(WORKLOAD) --parent $(PARENT) \
		$(if $(SEED),--seed $(SEED),) $(if $(N),--pairs $(N),)

# 60-second monitored run: live stderr line (phase, sim-time, ETA,
# latency, exchange tallies) from the streaming monitor — no raw trace.
monitor-demo:
	PYTHONPATH=src python -m repro run --preset ts-small --n 100 --policy G \
		--duration 600 --sample-interval 60 --lookups 50 --monitor

figures: bench
	@echo "regenerated series are under benchmarks/output/"

# One profiled, traced run -> run record JSON (kernel profile included)
# -> its markdown rendering, the docs/observability.md end-to-end path.
report:
	PYTHONPATH=src python -m repro run --preset ts-small --n 100 --policy G \
		--duration 600 --sample-interval 300 --lookups 50 --profile \
		--trace benchmarks/output/run_report.jsonl \
		--save benchmarks/output/run_report.json
	PYTHONPATH=src python -m repro show benchmarks/output/run_report.json \
		> benchmarks/output/run_report.md
	@echo "rendered benchmarks/output/run_report.md"

examples:
	python examples/quickstart.py
	python examples/gnutella_file_sharing.py
	python examples/churn_resilience.py
	python examples/custom_overlay.py
	python examples/dht_family_comparison.py
	python examples/parameter_study.py

all: install lint test bench
