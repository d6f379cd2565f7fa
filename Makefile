# Convenience targets for the reproduction workflow.

PYTHON ?= python3
# Worker processes for trial execution (0 = all cores); results are
# bit-identical at any value.
JOBS ?= 1

.PHONY: install test lint typecheck cov bench check-floors check-dp ab-pairs \
	census import-profile figures report examples all clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# The tier-1 gate, exactly as CI runs it.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Static analysis, exactly as the CI lint job runs it.  Ruff checks the
# whole tree at the critical-rule level (configured in pyproject.toml);
# the format check covers the observability + service layers, the DP
# release path and the hit path's leaves (audit log, result cache), the
# surface the formatter has been adopted on so far.
DP_RELEASE = src/repro/federation/dp_release.py src/repro/federation/outcomes.py
HIT_PATH = src/repro/federation/audit.py src/repro/federation/cache.py
lint:
	$(PYTHON) -m ruff check src tests benchmarks scripts examples
	$(PYTHON) -m ruff format --check src/repro/observability src/repro/service \
		$(DP_RELEASE) $(HIT_PATH)

# Gradual typing: the observability, service and planner layers, the DP
# release path and the hit path's leaves are the typed frontier (the
# gateway's FederationBackend protocol is what lets `service` check against
# flat and sharded backends); widen the file list as more of the tree is
# annotated.
typecheck:
	$(PYTHON) -m mypy src/repro/observability src/repro/service \
		src/repro/planner $(DP_RELEASE) $(HIT_PATH)

# Coverage with a ratcheted floor — raise the threshold when coverage
# rises, never lower it.
COV_FLOOR ?= 70
cov:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		--cov=repro --cov-report=term --cov-report=xml \
		--cov-fail-under=$(COV_FLOOR)

# The wall-clock floor benches (benchmarks/conftest.py says what belongs
# there; bench/ is the end-to-end benchmark).  Each rewrites its
# results/BENCH_*.json and fails if a floor on one of its own rows does not
# hold -- the floors are stated in the benches and nowhere else.  ~4 min.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest -q -s benchmarks/

# Every results/BENCH_*.json through the generic gate: known shape, no
# floored sim/count row, a floored wall row, every floor holding.
check-floors:
	$(PYTHON) scripts/check_bench_floors.py

# The (epsilon, delta) accountant against its golden ledger, flat ==
# sharded; `make check-dp UPDATE=--update` regenerates the golden.
check-dp:
	PYTHONPATH=src $(PYTHON) scripts/check_dp_accounting.py $(UPDATE)

# A change against its parent on the end-to-end benchmark: alternating pairs
# of bench/run.py runs at unseen seeds (results/seeds_used.txt), the parent
# from a temporary git worktree and the working tree from a temporary copy;
# prints one Markdown table with medians, quartiles, wins, a sign-test p and
# a verdict per workload and metric.  Options go in AB_ARGS, e.g.
# make ab-pairs AB_ARGS="--workloads scan_write --pairs 10 --base HEAD~1".
ab-pairs:
	$(PYTHON) scripts/ab_pairs.py $(AB_ARGS)

# The call census: run every front end under a profile hook and rewrite
# results/call_census.txt with the defs none of them entered (the grouped
# listing and totals go to stderr).  tests/test_call_census.py gates the
# committed file; the nightly chaos workflow reruns this and diffs it.
census:
	$(PYTHON) scripts/call_census.py

# Where a fresh interpreter's start-up goes: the 20 most expensive imports
# (cumulative microseconds, children included) on the cold-start path the
# benchmark times -- the figure registry -- and on `repro.cli`, what
# `repro-topk figure` pays.  (Shard workers fork from their gateway and
# import nothing.)  Measured the way the
# benchmark meets the program: a fresh copy of src/ without any __pycache__,
# PYTHONDONTWRITEBYTECODE=1, so every repro module compiles on import while
# the installed stdlib and NumPy keep their bytecode.
import-profile:
	@tree=$$(mktemp -d); \
	tar -C src --exclude=__pycache__ -cf - repro | tar -C $$tree -xf -; \
	for module in repro.experiments.figures.registry repro.cli; do \
		echo "=== import $$module (uncached): self us | cumulative us | module"; \
		PYTHONPATH=$$tree PYTHONDONTWRITEBYTECODE=1 $(PYTHON) -X importtime \
			-c "import $$module" 2>&1 \
			| grep '^import time:' | sort -t'|' -k2 -n | tail -20; \
	done; \
	rm -rf $$tree

figures:
	$(PYTHON) -m repro.cli all --trials 100 --no-plot --out results --jobs $(JOBS)

report:
	$(PYTHON) -m repro.cli report --out results/REPORT.md --jobs $(JOBS)

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

all: test bench figures report

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
