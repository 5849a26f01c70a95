#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
# Mirrors ROADMAP.md's tier-1 definition. `--offline` is deliberate: the
# build environment has no registry access, and every dependency is either
# vendored in the workspace or already in the local cargo cache.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# Durability fault-injection suite (simulated crash at every WAL byte
# offset, M1–M6, plus corruption — and, since PR 9, crash sweeps across
# base + delta snapshot chains including torn delta tmp files). It
# already ran above as part of the workspace tests; the named re-run
# makes a recovery regression visible at a glance and keeps the suite
# from being silently filtered out.
cargo test -q --offline --test property_durability
# Bulk-ingest suite: copy_from / COPY FROM atomicity (a duplicate key
# anywhere rolls back the whole batch), plan-cache generation semantics
# (exactly one invalidation per batch, none without ANALYZE-time stats),
# and delta-checkpoint kinds + recovery chaining after bulk loads.
cargo test -q --offline -p erbium-core --test bulk_ingest
# Parallel-execution invariance sweep (bit-identical results across
# columnar × threads × morsel × batch on M1–M6, an all-Value-
# variant property fixture, + concurrent-query stress). The M6f arms
# expand factorized joins through the CSR adjacency view, so this sweep
# also gates CSR-vs-row bit-identity.
cargo test -q --offline --test parallel_invariance
# Columnar observability: EXPLAIN [cols=...], [columnar] metrics marker,
# and the non-materialization proof via engine_columnar_cells_total
# (pruned scans gather rows × pruned arity, not × table arity).
cargo test -q --offline --test columnar_metrics
# Page-view suite: column chunks are a read view of one row page, built
# from its rows on first use and dropped on write, truncate and eviction.
# A write is seen by the next columnar query (identical to the row path),
# a pinned snapshot keeps its old view after the writer detaches the
# page, and eviction + re-fault rebuild the view bit for bit.
cargo test -q --offline -p erbium-storage --lib page_view
cargo test -q --offline -p erbium-engine --lib page_view
# Observability suite: tracing spans over the full query lifecycle,
# Prometheus export coverage, slow-query log, and the stats-survive-
# recovery regression (optimizer statistics must outlive a checkpoint +
# reopen; see DESIGN.md §10). Runs as part of the workspace tests too;
# the named re-run keeps the regression visible at a glance.
cargo test -q --offline -p erbium-core --test observability
cargo test -q --offline -p erbium-obs
# Hash-spread gates: `Value` keys of every bulk shape (sequential, stride-8
# and negative ints, int-valued and x.5 floats, short strings) must fill
# >= 90% of 1,024 low-bit buckets, equal values must hash equal across the
# Int/Float divide (proptest), and the vendored FxHasher's finalizer must
# spread keys that differ only in high bits. A collapse here is the
# quadratic probe-chain cliff in every join, GROUP BY and key check
# (DESIGN.md §16).
cargo test -q --offline -p erbium-model --lib value::tests
cargo test -q --offline -p rustc-hash
# ON-join gates: ON equalities plan as hash-join keys (never a filter over
# `on [] = []`) under every paper mapping, LEFT JOIN ... ON keeps unmatched
# left rows and refuses conjuncts it cannot place below the join, and ON
# joins return the same multiset under every mapping.
cargo test -q --offline -p erbium-mapping --test plan_shapes
cargo test -q --offline -p erbium-mapping --test query_equivalence
cargo test -q --offline -p erbium-core --test on_join
# Overhead sentinel: with tracing disabled (the default), the
# instrumentation added along the hot path must stay within run-to-run
# noise of the PR-4 baseline on the morsel_waves bench (~9.7 ms).
# Criterion flags regressions against its saved baseline when run; the
# gate only requires the bench to compile (running is opt-in, slow):
#   cargo bench --offline -p erbium-bench --bench engine_micro -- morsel_waves
# The persistent worker pool must be the engine's only thread-spawn site:
# no operator may spawn (or scope) threads per wave.
if grep -rn "thread::spawn\|thread::scope\|thread::Builder" crates/engine/src \
    --include='*.rs' | grep -v "^crates/engine/src/pool.rs:" | grep -v "^ *//"; then
    echo "ERROR: thread spawn outside crates/engine/src/pool.rs" >&2
    exit 1
fi
# The vectorized kernels must stay vectorized: vector.rs operates on raw
# column slices and selection vectors, so a per-row `Value` enum match
# arm appearing there means someone re-introduced scalar dispatch into
# the hot loop (decompose the enum once per predicate in vplan.rs
# instead). Constructing values (Value::Int(x)) is fine; matching on
# them (`Value::Int(x) =>`) is not.
if grep -n "Value::[A-Za-z_]*\s*(\?[^)]*)\?\s*=>" crates/engine/src/vector.rs \
    | grep -v "^ *[0-9]*: *//"; then
    echo "ERROR: per-row Value enum match in crates/engine/src/vector.rs" >&2
    exit 1
fi
# Multi-client smoke: 2 writer threads churn insert/update/delete
# transactions while 4 readers assert transactional invariants on live
# reads and pinned snapshots. Fails on any error, a torn transaction, an
# unstable snapshot answer, or a plan cache that served zero hits.
cargo run -q --release --offline -p erbium-bench --bin multi_client_smoke
# Bounded-memory smoke: the experiment workload under every paper mapping
# with a 4-frame buffer pool on a dataset spanning ~25 row pages. Asserts
# the pool evicted / wrote back / re-faulted pages, the query sweep itself
# faulted pages (queries read through the pool), the resident count is
# back under budget after reclaim, process peak RSS stays under a fixed
# ceiling, and the M1–M6 answers (plus a full row-store fingerprint) are
# bit-identical to an unbounded reopen of the same database.
cargo run -q --release --offline -p erbium-bench --bin bounded_memory_smoke
# Server smoke: the same workload, same invariants, through real TCP
# sockets — an in-process ERSP server on an ephemeral port, every thread
# dialing its own RemoteClient. Additionally asserts the server drains
# to zero sessions after the clients disconnect.
cargo run -q --release --offline -p erbium-bench --bin multi_client_smoke -- --remote
# The client crate must stay thin: linking erbium-client pulls in the
# model (values, errors, the Connection trait) and the query parser (for
# eager client-side syntax checks) — never storage or the engine. A new
# dependency here means server code is leaking into clients.
if grep "^erbium-" crates/client/Cargo.toml | grep -v "^erbium-model \|^erbium-query "; then
    echo "ERROR: crates/client may depend only on erbium-model and erbium-query" >&2
    exit 1
fi
cargo clippy --offline --workspace --all-targets -- -D warnings
# Benches must at least compile; running them is opt-in (slow).
cargo bench --offline --workspace --no-run

echo "tier-1 gate: OK"
