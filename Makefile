PYTHON ?= python
export PYTHONPATH := src

.PHONY: check smoke test serve-smoke shard-smoke net-smoke exec-smoke trace-smoke slo-smoke tenant-smoke coverage bench bench-quick bench-paper

# The fast correctness gate. `make coverage` is the slower companion gate
# (the same tier-1 tests under a line tracer with an 85% floor on
# src/repro/{cam,shard,serve,retrieval,net,exec,obs}); run it before
# shipping changes to those packages.
check: smoke test serve-smoke shard-smoke net-smoke exec-smoke trace-smoke slo-smoke tenant-smoke

smoke:
	$(PYTHON) scripts/smoke.py

test:
	$(PYTHON) -m pytest -x -q

# Execution-plane smoke: the sharded loadgen scenarios served off the
# processes engine (SharedMemory zero-copy fan-out), every response
# verified bit-identical to the in-process unsharded reference.
exec-smoke:
	REPRO_EXECUTOR=processes $(PYTHON) scripts/loadgen.py --quick --engine sharded --shards 4 --executor processes
	$(PYTHON) examples/exec_demo.py

# Tier-1 under line coverage (coverage.py when installed, else the stdlib
# tracer in repro.devtools.linecov), failing below an 85% line-coverage
# floor on the cam/shard/serve/retrieval/net/exec packages.
coverage:
	$(PYTHON) scripts/coverage_run.py --fail-under 85

# End-to-end serving smoke: all loadgen scenarios, responses verified
# against direct engine execution.
serve-smoke:
	$(PYTHON) scripts/loadgen.py --quick

# Sharded serving smoke: the same scenarios through a replica-routed
# ShardedEngine cluster, verified against the unsharded reference --
# the end-to-end proof that scatter-gather never changes a response.
shard-smoke:
	$(PYTHON) scripts/loadgen.py --quick --engine sharded --shards 4 --replicas 2

# Network smoke: remote loadgen over loopback sockets against a live
# shard cluster, every response verified bit-identical to in-process
# serving, with a mid-run replica kill that must fail over and
# re-replicate.
net-smoke:
	$(PYTHON) scripts/net_smoke.py

# Observability smoke: a traced serving run must reconstruct every
# request's full-lifecycle run tree, answer bit-identically to the
# untraced run, and cost <5% throughput (median of paired runs).
trace-smoke:
	$(PYTHON) scripts/trace_smoke.py

# Metrics & SLO smoke: a tight SLO must breach and a loose one pass on
# the same traffic; at 1% head sampling every slow request must still
# export as a complete run tree through the tail sampler; the p99
# histogram bucket's exemplar must reconstruct into a run tree.
slo-smoke:
	$(PYTHON) scripts/slo_smoke.py

# Multi-tenant smoke: a flood tenant at 10x its token-bucket rate must
# not move well-behaved tenants' p99 beyond 1.5x the no-flood baseline,
# must stay inside its bucket's admitted arithmetic, and every served
# answer must stay bit-identical to direct execution.
tenant-smoke:
	$(PYTHON) scripts/tenant_smoke.py

# Full perf trajectory: writes BENCH_kernels.json + BENCH_e2e.json
# (kernels, e2e, serving and shard-scaling suites).
bench:
	$(PYTHON) scripts/bench.py

# Smoke-sized bench run for CI: same JSON outputs, smaller grid/rounds.
bench-quick:
	$(PYTHON) scripts/bench.py --quick

# Raw pytest-benchmark view of the paper-figure workloads.
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s
