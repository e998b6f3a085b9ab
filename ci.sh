#!/bin/sh
# Offline CI gate: formatting, lints, tests, and one end-to-end figure
# regeneration smoke test. Requires only the Rust toolchain — the
# workspace has no external crate dependencies, so everything below runs
# without network access.
set -e

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings, whole workspace) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings, whole workspace) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== doc link check =="
# Every relative markdown link in README.md and docs/*.md must resolve
# to a file in the repo (anchors stripped, absolute URLs skipped).
LINK_FAIL=0
for f in README.md docs/*.md; do
  dir=$(dirname "$f")
  for link in $(grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//'); do
    case "$link" in
      http://*|https://*|\#*) continue ;;
    esac
    target=${link%%#*}
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "broken link in $f: $link"
      LINK_FAIL=1
    fi
  done
done
test "$LINK_FAIL" = "0"

echo "== cargo test --doc =="
# Doctests are the executable half of the rustdoc pass (the transaction
# and recovery examples run for real); keep them green on their own.
cargo test --workspace --doc -q

echo "== cargo test =="
cargo test --workspace -q

echo "== smoke: concurrent read path (seqlock stress + digest anchors) =="
# Release-mode rerun of the concurrency suites: the seqlock read path
# only exhibits real races under optimized codegen and free-running
# threads, so the debug-mode run above is not enough. The core suite
# storms flush/clean/wear/recovery under concurrent readers asserting
# no torn page is ever observed; the server suite pins the inline front
# end byte-identical to the monolithic store and exercises the Busy
# retry contract (see docs/CONCURRENCY.md).
cargo test --release -q -p envy-core --test concurrent_reads
cargo test --release -q -p envy-server --test concurrent_read_path

# Opt-in ThreadSanitizer pass over the same suites: CI_TSAN=1 ./ci.sh.
# Requires a nightly toolchain (-Zsanitizer) and roughly 10-20x the
# runtime, so default runs skip it; the seqlock protocol is written to
# be TSan-clean (all cross-thread publication goes through the epoch's
# acquire/release pairs — docs/CONCURRENCY.md documents the recipe).
if [ "${CI_TSAN:-0}" = "1" ]; then
  echo "== tsan: concurrent read path (nightly) =="
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -p envy-core --test concurrent_reads \
    --target x86_64-unknown-linux-gnu -Zbuild-std
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -p envy-server --test concurrent_read_path \
    --target x86_64-unknown-linux-gnu -Zbuild-std
fi

echo "== smoke: fig13_throughput --quick --jobs 2 =="
mkdir -p results
cargo run --release -q -p envy-bench --bin fig13_throughput -- --quick --jobs 2 \
  > results/ci_smoke_fig13.txt
test -s results/ci_smoke_fig13.txt
test -s results/BENCH_fig13_throughput.json

echo "== smoke: ext_fault_recovery --quick --jobs 2 =="
# Deterministic fault-injection smoke: crash at every injection point
# once (fixed seeds); the binary exits nonzero if any recovery fails.
cargo run --release -q -p envy-bench --bin ext_fault_recovery -- --quick --jobs 2 \
  > results/ci_smoke_fault_recovery.txt
grep -q "23/23 injection points crashed and recovered" results/ci_smoke_fault_recovery.txt
test -s results/BENCH_ext_fault_recovery.json

echo "== smoke: trace overhead (tracing must be behavior-neutral) =="
# The controller trace observes, never perturbs: the same benchmark run
# with tracing enabled (ENVY_TRACE=1) must produce byte-identical output.
cargo run --release -q -p envy-bench --bin fig13_throughput -- --quick --jobs 2 \
  > results/ci_smoke_fig13_plain.txt
ENVY_TRACE=1 cargo run --release -q -p envy-bench --bin fig13_throughput -- --quick --jobs 2 \
  > results/ci_smoke_fig13_traced.txt
cmp results/ci_smoke_fig13_plain.txt results/ci_smoke_fig13_traced.txt
rm -f results/ci_smoke_fig13_plain.txt results/ci_smoke_fig13_traced.txt

echo "== smoke: perf_wallclock --smoke (records, does not gate) =="
# Wall-clock trajectory: every CI run refreshes results/BENCH_perf_wallclock.json
# so data-plane slowdowns show up as numbers (see docs/PERFORMANCE.md).
# No threshold is enforced — wall time on shared runners is too noisy to
# gate on; the report-schema check below still validates the file.
cargo run --release -q -p envy-bench --bin perf_wallclock -- --smoke \
  > results/ci_smoke_perf_wallclock.txt
test -s results/ci_smoke_perf_wallclock.txt
test -s results/BENCH_perf_wallclock.json

echo "== smoke: ext_serve --quick (sharded serving scalability) =="
# Closed-loop shard-count sweep plus the determinism anchor: a 1-shard
# front-end run must land on exactly the monolithic store's simulated
# clock and stats — the binary asserts it and prints the anchor line.
cargo run --release -q -p envy-bench --bin ext_serve -- --quick \
  > results/ci_smoke_ext_serve.txt
grep -q "anchor: 1-shard front end == monolithic store" results/ci_smoke_ext_serve.txt
# The quick run also drives the event-loop connection axis: a closed-loop
# socket-vs-in-process ratio, a 100/1000-connection open-loop mini-sweep
# (the 10k point is full-run only), and the idle-connection cost table.
grep -q "socket tax at" results/ci_smoke_ext_serve.txt
grep -q "p999 growth 100 -> 1000 connections" results/ci_smoke_ext_serve.txt
grep -q "idle-connection cost" results/ci_smoke_ext_serve.txt
test -s results/BENCH_ext_serve.json

echo "== smoke: ext_txn --quick (atomic transactions over the wire) =="
# Abort-rate sweep (4 transaction slots per shard), 1/2/4/8-slot
# concurrency sweep, and cleaner-pressure table plus the wire anchor: a
# seeded atomic TPC-A run (nonzero aborts) through a real TCP server
# must match the monolithic in-process replay exactly — the binary
# asserts it (clock, stats, bytes) and prints the anchor line.
cargo run --release -q -p envy-bench --bin ext_txn -- --quick \
  > results/ci_smoke_ext_txn.txt
grep -q "anchor: atomic TPC-A over the wire == monolithic replay" results/ci_smoke_ext_txn.txt
test -s results/BENCH_ext_txn.json

echo "== smoke: ext_ycsb --quick (KV serving under YCSB mixes) =="
# YCSB A-E over the KV wire ops plus the KV wire anchor: a seeded atomic
# YCSB-A run (nonzero aborts) through a real TCP server must match the
# monolithic in-process replay exactly — the binary asserts it (clock,
# stats, bytes) and prints the anchor line. The report also carries the
# uniform-vs-zipfian wear rows (see docs/KV.md).
cargo run --release -q -p envy-bench --bin ext_ycsb -- --quick \
  > results/ci_smoke_ext_ycsb.txt
grep -q "anchor: atomic YCSB-A over the wire == monolithic replay" results/ci_smoke_ext_ycsb.txt
test -s results/BENCH_ext_ycsb.json

echo "== smoke: envy-served (epoll driver) + 4-client socket loadgen =="
# Serve on a Unix socket under the default epoll event loop, drive 4
# client connections closed-loop, then shut the server down over the
# wire; the daemon must drain, report a clean summary, and remove its
# socket file.
SERVE_SOCK="results/ci_serve.sock"
rm -f "$SERVE_SOCK"
cargo build --release -q -p envy-server --bin envy-served
cargo build --release -q --bin envy-cli
./target/release/envy-served --unix "$SERVE_SOCK" --shards 2 --txn-slots 4 --scale small \
  --net-driver epoll > results/ci_smoke_serve_daemon.txt 2>&1 &
SERVED_PID=$!
for _ in $(seq 1 100); do test -S "$SERVE_SOCK" && break; sleep 0.1; done
test -S "$SERVE_SOCK"
./target/release/envy-cli bench-serve --unix "$SERVE_SOCK" --shards 2 --scale small \
  --clients 4 --txns 250 > results/ci_smoke_serve_load.txt
# KV leg: the same daemon serves the four KV wire ops (docs/KV.md);
# put/get/scan/delete round-trip through envy-cli against shard 1.
./target/release/envy-cli kv-put --unix "$SERVE_SOCK" --shard 1 --key 7 --value hello \
  > results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-get --unix "$SERVE_SOCK" --shard 1 --key 7 \
  >> results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-scan --unix "$SERVE_SOCK" --shard 1 --start 0 --limit 5 \
  >> results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-del --unix "$SERVE_SOCK" --shard 1 --key 7 \
  >> results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-get --unix "$SERVE_SOCK" --shard 1 --key 7 \
  >> results/ci_smoke_serve_kv.txt
printf 'ok\nhello\n7\thello\n(1 records)\ndeleted\n(miss)\n' \
  | cmp - results/ci_smoke_serve_kv.txt
# Second leg: the same daemon (4 transaction slots per shard) serves
# atomic transactions (TXN_BEGIN .. TXN_COMMIT/TXN_ABORT over the wire)
# with a seeded abort fraction; write-set conflicts abort-and-retry.
./target/release/envy-cli bench-serve --unix "$SERVE_SOCK" --shards 2 --scale small \
  --clients 2 --txns 100 --atomic 0.2 --shutdown > results/ci_smoke_serve_txn.txt
wait "$SERVED_PID"
grep -Eq "completed txns +1000" results/ci_smoke_serve_load.txt
grep -Eq "errors +0" results/ci_smoke_serve_load.txt
grep -Eq "aborted txns +[1-9]" results/ci_smoke_serve_txn.txt
grep -Eq "errors +0" results/ci_smoke_serve_txn.txt
grep -q "(0 timed out)" results/ci_smoke_serve_daemon.txt
grep -q "epoll driver" results/ci_smoke_serve_daemon.txt
test ! -e "$SERVE_SOCK"

echo "== report schema check =="
# Every committed results/BENCH_*.json must parse and carry report_version.
cargo test --release -q -p envy-bench --test report_schema

echo "ci: all checks passed"
