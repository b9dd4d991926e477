#!/usr/bin/env bash
# The full CI gate: release build, tests, lints, formatting.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== one FNV-1a primitive (offset basis and prime live only in the hasher) =="
# Every 64-bit fingerprint and frame checksum in the workspace goes through
# crates/obs/src/fingerprint.rs; a hand-rolled FNV loop anywhere else forks
# the hash. The scan covers the workspace sources; vendor/ (third-party
# stand-ins) and perfbench/ (a standalone package that calls no workspace
# hashing) are outside it.
FNV_HITS="$(grep -rniE --include='*.rs' 'cbf2_?9ce4_?8422_?2325|100_?0000_?01b3' \
  crates src tests examples | grep -v '^crates/obs/src/fingerprint\.rs:' || true)"
if [ -n "$FNV_HITS" ]; then
  echo "FNV-1a constants outside crates/obs/src/fingerprint.rs:"
  echo "$FNV_HITS"
  exit 1
fi

echo "== one evaluator (the AST interpreter is a test oracle, never a production path) =="
# The register-bytecode VM is the only engine the runtime, the baselines
# and the experiments run. The tree-walking interpreter stays public in
# alang as the reference the differential tests (and repro's interp
# section) compare against; a use in the production crates below forks
# the engine again.
ENGINE_HITS="$(grep -rnwE --include='*.rs' 'Interpreter|AstWalk' \
  crates/core/src crates/baselines/src crates/bench/src/experiments || true)"
if [ -n "$ENGINE_HITS" ]; then
  echo "AST interpreter referenced from a production path:"
  echo "$ENGINE_HITS"
  exit 1
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo test --workspace -q (every crate's unit tests) =="
cargo test --workspace -q

echo "== fault-sweep smoke (deterministic injection, zero wrong answers) =="
cargo test -q -p isp-bench faults::

echo "== chaos differential (pinned at 48 cases in tests/chaos.rs) =="
cargo test -q --test chaos

echo "== kernel-scaling smoke (scaling section, determinism, speedup floors) =="
# The smoke sweep asserts byte-identical outputs at 1/2/4/8 threads and,
# on hosts with >= 4 cores, >= 2x speedup on large scalable kernels and
# no regression on small inputs (see experiments::scaling::check).
cargo test -q -p isp-bench --lib scaling

echo "== shard-sweep smoke (N=2 fleet fingerprint vs N=1 and the unsharded run) =="
# The reduced sweep runs blackscholes and PageRank at N in {1, 2} plus the
# one-shard-crash chaos cell: every fleet fingerprint must equal the
# unsharded single-device run's, the full dataset is generated once per
# workload, and the crashed shard migrates alone (experiments::shards).
cargo test -q -p isp-bench --lib shards

echo "== shard differential (pinned proptest seed, N in {1,2,4,8}, Range and Hash) =="
cargo test -q --test shard_determinism

echo "== thread determinism (pinned proptest seed, VM vs reference interpreter, 1/2/8 threads) =="
cargo test -q --test thread_determinism

echo "== trace smoke (repro --trace -> trace summarizer -> golden journal diff) =="
# End-to-end observability gate: a masked traced TPC-H-6 fig5 run must
# produce a journal the `trace` bin can summarize, and that journal must
# be byte-identical to the committed golden — any nondeterminism in the
# span layer (schedule leaking into journal order, a host-clock value
# escaping the mask) fails the diff.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release -q -p isp-bench --bin repro -- \
  --trace "$TRACE_TMP/fig5_tpch6.jsonl" --trace-mask-wall --trace-workload TPC-H-6
cargo run --release -q -p isp-bench --bin trace -- "$TRACE_TMP/fig5_tpch6.jsonl" --top 5
diff -u tests/golden/fig5_tpch6_trace.jsonl "$TRACE_TMP/fig5_tpch6.jsonl"

echo "== trace diff self-identity (span-aligned diff of the golden against the fresh run) =="
# The diff subcommand must call a journal identical to itself (and to a
# byte-identical regeneration) identical: structure, sim clock, and
# counters. Exit 1 here means the aligner itself is nondeterministic.
cargo run --release -q -p isp-bench --bin trace -- diff \
  tests/golden/fig5_tpch6_trace.jsonl tests/golden/fig5_tpch6_trace.jsonl > /dev/null
cargo run --release -q -p isp-bench --bin trace -- diff \
  tests/golden/fig5_tpch6_trace.jsonl "$TRACE_TMP/fig5_tpch6.jsonl"

echo "== Prometheus exposition golden (byte-identical on masked clocks) =="
# The exposition rendered from the fresh journal's metrics footer must
# match the committed golden byte for byte; regenerate via
# REGEN_TRACE_GOLDEN=1 cargo test --test audit_determinism.
cargo run --release -q -p isp-bench --bin trace -- "$TRACE_TMP/fig5_tpch6.jsonl" --prom \
  | diff -u tests/golden/fig5_tpch6_metrics.prom -

echo "== fig5 golden byte-identity (rows untouched by the obs layer) =="
# Untraced rows must match tests/golden/fig5_rows.json byte for byte,
# and the traced serial grid must produce the same rows as the untraced
# parallel grid (tracing is observation-only at the benchmark level).
cargo test -q --test fig5_golden

echo "== re-plan determinism (proptest: refit loop never changes values, warm never worse) =="
cargo test -q --test replan_determinism

echo "== decode smoke (both Eq.1 regimes present, placements beat forced plans, one fingerprint) =="
# The decode experiment's unit slice: TPC-H-6-gz must plan decode-on-host,
# LogGrep decode-on-CSD, the measured winner between forced all-host and
# forced all-CSD must match the sign of the projected Eq. 1 profit, and
# all three placements of each workload must produce one values
# fingerprint (experiments::decode).
cargo test -q -p isp-bench --lib decode

echo "== decode determinism (proptest: wire formats x placements x faults x shards) =="
cargo test -q --test decode_determinism

echo "== kill-resume smoke (journaled run killed mid-stream resumes to the same fingerprint) =="
# Records the recovery workload's execution journal, kills the process
# after 20 appends via the WAL kill hook (exit 86 + a deliberately torn
# tail), resumes from the survived prefix, and demands the uninterrupted
# run's fingerprint. Exercises create -> kill -> torn-tail truncation ->
# replay-verify -> append end to end through the public CLI.
FULL_FP="$(cargo run --release -q -p isp-bench --bin repro -- \
  --journal "$TRACE_TMP/full.wal" | grep '^run fingerprint:')"
set +e
ISP_WAL_KILL_AFTER=20 cargo run --release -q -p isp-bench --bin repro -- \
  --journal "$TRACE_TMP/killed.wal"
KILL_STATUS=$?
set -e
if [ "$KILL_STATUS" -ne 86 ]; then
  echo "kill hook did not fire (exit $KILL_STATUS, expected 86)"; exit 1
fi
RESUMED_FP="$(cargo run --release -q -p isp-bench --bin repro -- \
  --resume "$TRACE_TMP/killed.wal" | grep '^run fingerprint:')"
if [ "$FULL_FP" != "$RESUMED_FP" ]; then
  echo "resumed fingerprint '$RESUMED_FP' != uninterrupted '$FULL_FP'"; exit 1
fi
echo "resumed fingerprint matches: $RESUMED_FP"

echo "== crash-resume chaos (proptest: kill at random journal offsets, N in {1,4}) =="
cargo test -q --test wal_resume

echo "== recovery benchmark smoke (journal overhead, resume, zero-datagen warm start) =="
cargo test -q -p isp-bench --lib recovery

echo "== adaptation smoke (regret(replan) < regret(static), >= 1 reclaim, 0 divergences) =="
# The focused adaptation sweep runs every workload under the
# phase-shifting trace; repro --adapt exits non-zero if re-planning
# fails to reduce total regret, no workload reclaims work back to the
# CSD, or any cell's values_fingerprint diverges from the reference.
cargo run --release -q -p isp-bench --bin repro -- --adapt

echo "== planner-audit smoke (Eq. 1 calibration, 0 divergences, >= 1 explained flip) =="
# The full calibration grid: every workload's clean-cell error inside the
# pinned bands, audit observation-only (fingerprints unmoved), and the
# contended cell produces at least one explained counterfactual flip.
cargo run --release -q -p isp-bench --bin repro -- --audit

echo "== bench-history regression check (committed report vs committed ledger) =="
# Appending the committed BENCH_repro.json to a scratch copy of the
# committed ledger and re-checking proves (a) the ledger parses, (b) the
# committed report's deterministic outcomes match the committed history,
# and (c) the tooling itself still round-trips its own line format.
cp BENCH_history.jsonl "$TRACE_TMP/history.jsonl"
cargo run --release -q -p isp-bench --bin history -- append \
  --report BENCH_repro.json --history "$TRACE_TMP/history.jsonl" --sha ci-smoke
cargo run --release -q -p isp-bench --bin history -- check \
  --history "$TRACE_TMP/history.jsonl"

echo "== cargo bench --no-run =="
cargo bench --no-run

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
