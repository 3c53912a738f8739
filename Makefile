# Convenience targets wrapping the standing workflows (see ROADMAP.md).
# Everything runs from the repo root with src/ on PYTHONPATH.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test conformance paper perf-smoke perf compare e2e-check faults-smoke faults obs-smoke rebalance-smoke

# tier-1 verify: the whole default suite (perf/faults/tpcc markers
# excluded by pytest.ini)
test:
	$(PY) -m pytest -x -q

# full conformance sweep: every scheme x every registered workload,
# unsharded + sharded, including the tpcc-marked extended matrix (the
# explicit -m overrides pytest.ini's deselection)
conformance:
	$(PY) -m pytest tests/test_conformance.py -q -m "not perf and not faults"

# paper-claim gate: every benchmarks/bench_*.py regenerates one table or
# figure and asserts its qualitative shape (explicit paths: the files do
# not match pytest's default python_files pattern)
paper:
	$(PY) -m pytest benchmarks/bench_*.py -q --benchmark-disable

# perf harness smoke: runs in seconds, fails on any check or any
# naive-vs-indexed speedup < 1.0
perf-smoke:
	$(PY) -m repro.bench --perf-smoke --check

# full perf trajectory run + regression gate (commit BENCH_perf.json)
perf:
	$(PY) -m repro.bench --perf --check

# diff the two newest same-mode perf runs; fails on a speedup collapse
compare:
	$(PY) -m repro.bench --compare

# end-to-end correctness gate: one minimal perfbench run per workload;
# run.py exits 0 even when its gate fails, so the verdict is read from
# the JSON object on its last output line
E2E_WORKLOADS := ycsb-contended ycsb-hotspot tpcc-4shard
e2e-check:
	@for w in $(E2E_WORKLOADS); do \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 0 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else "e2e-check: correctness gate failed")' || exit 1; \
	done

# fault-injection drills, quick and full
faults-smoke:
	$(PY) -m repro.faults --smoke

faults:
	$(PY) -m repro.faults

# observability gate: traced run + export round-trip + digest
# reproducibility + traced fault drill with annotated report
obs-smoke:
	$(PY) -m repro.obs smoke

# adaptive-sharding gate: the migration-fault drills (crash/torn delta
# at the re-key boundary, bit-identical to reference) on the shifting
# hotspot, plus the rebalance differential/replay/fence test file
rebalance-smoke:
	$(PY) -m repro.faults --smoke --workloads adv-skewshift
	$(PY) -m pytest tests/test_rebalance.py -q
