#!/bin/sh
# CI gate: build everything, run the test suites (and the shard and
# cluster suites again pinned to one CPU), smoke-run perfbench's
# three workloads, check the fast-path benchmarks against the committed
# baseline (BENCH_PR10.json), check every paper figure against the
# committed results/rc_sim_all.txt, and verify
# the sharded-execution determinism contract (shards=N byte-identical to
# shards=1).  Referenced from README.md "Install and build".
set -eu
cd "$(dirname "$0")"

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== shard barrier on one CPU (every multi-domain run is oversubscribed and parks; a stalled barrier fails instead of hanging)"
timeout 300 taskset -c 0 dune exec test/test_main.exe -- test shard
timeout 300 taskset -c 0 dune exec test/test_main.exe -- test cluster

echo "== perfbench smoke (seed 1, 1 s per workload; each run must end \"correct\": true)"
for w in rc-perconn zipf-flash cluster-shards; do
  out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0)
  printf '%s\n' "$out" | grep '^sim_fingerprint' | sed "s/^/$w: /"
  if ! printf '%s\n' "$out" | tail -n 1 | grep -q '"correct": true'; then
    echo "perfbench $w: result is not correct" >&2
    exit 1
  fi
done

echo "== bench smoke (tiny quotas; executes the harness, gates nothing)"
dune exec bench/main.exe -- --json --smoke --label ci-smoke > /dev/null

echo "== dune build @bench-check"
dune build @bench-check

echo "== PR1-to-now benchmark trend (informational, never fails)"
dune exec bench/compare.exe -- BENCH_PR1.json BENCH_PR10.json --threshold 1000 || true

# Table 1's "this library (ns/op)" column is wall clock, so it is the one
# thing masked: the last number of each row in the Table 1 block.
mask_table1() {
  awk '/^== Table 1/ { t = 1 }
       t && /^$/ { t = 0 }
       t && /[0-9]$/ { sub(/ +[0-9]+$/, " N") }
       { print }' "$1"
}

echo "== figure contract (rc_sim all = results/rc_sim_all.txt, Table 1 ns/op column masked)"
dune exec bin/rc_sim.exe -- all > "${TMPDIR:-/tmp}/rc-all.txt"
mask_table1 results/rc_sim_all.txt > "${TMPDIR:-/tmp}/rc-all-expected.txt"
mask_table1 "${TMPDIR:-/tmp}/rc-all.txt" > "${TMPDIR:-/tmp}/rc-all-actual.txt"
diff "${TMPDIR:-/tmp}/rc-all-expected.txt" "${TMPDIR:-/tmp}/rc-all-actual.txt"

echo "== sweep smoke (2 jobs must match the serial report byte-for-byte)"
dune exec bin/rc_sim.exe -- sweep --fast --jobs 1 --json-out "${TMPDIR:-/tmp}/rc-sweep-j1.json"
dune exec bin/rc_sim.exe -- sweep --fast --jobs 2 --json-out "${TMPDIR:-/tmp}/rc-sweep-j2.json"
cmp "${TMPDIR:-/tmp}/rc-sweep-j1.json" "${TMPDIR:-/tmp}/rc-sweep-j2.json"

echo "== sharded determinism (cluster oracle at shards=4 must match shards=1 byte-for-byte)"
dune exec bin/rc_sim.exe -- cluster --fast --machines 4 --shards 1 \
  --json-out "${TMPDIR:-/tmp}/rc-cluster-s1.json" > /dev/null
dune exec bin/rc_sim.exe -- cluster --fast --machines 4 --shards 4 \
  --json-out "${TMPDIR:-/tmp}/rc-cluster-s4.json" > /dev/null
cmp "${TMPDIR:-/tmp}/rc-cluster-s1.json" "${TMPDIR:-/tmp}/rc-cluster-s4.json"

echo "== fuzz smoke (fixed seeds, invariants armed, 2 jobs)"
dune exec bin/rc_sim.exe -- fuzz --seeds 5 --jobs 2

echo "== fuzz smoke at 2 and 4 processors (same seeds, per-CPU laws armed)"
dune exec bin/rc_sim.exe -- fuzz --seeds 3 --cpus 2 --jobs 2
dune exec bin/rc_sim.exe -- fuzz --seeds 3 --cpus 4 --jobs 2

echo "== zipf fuzz smoke (large-Zipf corpora, arena cache laws armed)"
dune exec bin/rc_sim.exe -- fuzz --seeds 4 --zipf --jobs 2

echo "== zipf experiment smoke (2e4-doc corpus, flash crowd, invariants armed)"
dune exec bin/rc_sim.exe -- zipf --fast > /dev/null

echo "== cluster fuzz smoke (2 and 4 machines behind the balancer, rollup law armed)"
dune exec bin/rc_sim.exe -- fuzz --seeds 4 --machines 2 --jobs 2
dune exec bin/rc_sim.exe -- fuzz --seeds 4 --machines 4 --jobs 2

echo "== sharded cluster fuzz smoke (same scenarios split over 4 event cores)"
dune exec bin/rc_sim.exe -- fuzz --seeds 3 --machines 4 --shards 4

echo "== cluster oracle gate (M/G/1-PS closed form within 5% at >= 1e5 concurrent conns, sharded)"
dune exec bin/rc_sim.exe -- cluster --check --shards 8 > /dev/null

echo "== SMP experiments smoke (steering livelock confinement + sharded fixed shares)"
dune exec bin/rc_sim.exe -- smp --fast > /dev/null

echo "== fuzz self-test (planted mis-charge must be caught)"
dune exec bin/rc_sim.exe -- fuzz --seed 1 --mode rc --inject mischarge \
  --trace-out "${TMPDIR:-/tmp}/rc-fuzz-selftest.trace.jsonl"

echo "CI gate passed."
