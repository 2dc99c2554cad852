#!/usr/bin/env bash
# Repo health gate: formatting, lints, tests. Run from the repo root.
# CI runs exactly this script (.github/workflows/ci.yml); keep it fast
# and fully offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo doc (deny warnings)"
# Broken intra-doc links and links to private items fail the build, so a
# renamed or deleted item cannot leave a dangling reference in the docs.
# `--lib` skips the binaries: `ddpa` names both a bin and a lib target.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib -q

echo "==> cargo test"
cargo test --workspace -q

echo "==> servebench smoke test"
# servebench (the repository's benchmark) is a workspace of its own that
# builds ddpa-serve by path, so the workspace test run above skips it.
# Its smoke test runs every workload at a tiny scale, checks every
# answer, and fails if a replayed response's shape drifts from the
# served one.
cargo test -q --offline --manifest-path servebench/Cargo.toml

echo "==> ddpa profile JSONL smoke test"
# Every sample must profile cleanly and emit strict one-object-per-line
# JSONL (validated by the jsonl-check hidden subcommand of the CLI, which
# reuses the crates/obs validator).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for sample in samples/*; do
    out="$tmp/$(basename "$sample").jsonl"
    cargo run -q -p ddpa-cli -- profile "$sample" --json "$out" > /dev/null
    cargo run -q -p ddpa-cli -- jsonl-check "$out"
done

echo "==> work-pin smoke test"
# The work pins hold the engine's and the scheduler's work, fires,
# activations and collapse counts on fixed query lists, so bookkeeping
# changes cannot move a deduction step. They guard the firing order
# that the settled-watcher-prefix fast path and the goal state's
# one-list sets must keep: a skipped or reordered firing changes a
# pinned count.
cargo test -q -p ddpa-demand --test work_pins

echo "==> cycle-collapse smoke test"
# The differential suite (fixed seeds) proves collapsing never changes an
# answer; the profile run proves the collapse actually fires end-to-end —
# samples/cycles.cons is a 40-edge copy ring, over the engine's default
# threshold — and exports well-formed demand.cycles.* metrics.
cargo test -q -p ddpa-demand --test cycles_differential
cyc="$tmp/cycles-metrics.jsonl"
cargo run -q -p ddpa-cli -- profile samples/cycles.cons --json "$cyc" > /dev/null
cargo run -q -p ddpa-cli -- jsonl-check "$cyc"
grep -q '"name":"demand.cycles.collapsed","value":[1-9]' "$cyc" \
    || { echo "metrics missing a nonzero demand.cycles.collapsed" >&2; exit 1; }

echo "==> snapshot-restore smoke test"
# The differential suite (fixed seeds) proves that restoring an engine's
# export is transparent and lazy: answers bit-identical to the naive
# oracle, zero work for every restored goal, an untouched restore
# exporting exactly what its donor did, and reload dropping staged
# entries. The serve run below proves end to end that a session answers
# from fixpoints another session exported (via the restore op).
cargo test -q -p ddpa-demand --test differential snapshot_restore

echo "==> ddpa-serve smoke test"
# Start a server on an ephemeral port, run a batch through the client,
# shut it down cleanly, and validate the exported metrics JSONL.
portfile="$tmp/serve-port"
srv_metrics="$tmp/serve-metrics.jsonl"
access_log="$tmp/serve-access.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile" --metrics-out "$srv_metrics" \
    --access-log "$access_log" --slow-ms 0 \
    > "$tmp/serve.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile" ] && break
    sleep 0.1
done
[ -s "$portfile" ] || { echo "server never wrote $portfile" >&2; exit 1; }
addr="$(cat "$portfile")"
client() { cargo run -q -p ddpa-cli -- client --addr "$addr" "$@" > /dev/null; }
client ping
client open smoke samples/list.mc
client query smoke main::got data        # a batch over the wire
# Warm repeat, served from the memo table; a parallel batch runs on the
# same warm engine and must answer byte for byte the same.
cargo run -q -p ddpa-cli -- client --addr "$addr" query smoke main::got data \
    > "$tmp/batch-seq.out"
cargo run -q -p ddpa-cli -- client --addr "$addr" query smoke main::got data --parallel \
    > "$tmp/batch-par.out"
cmp -s "$tmp/batch-seq.out" "$tmp/batch-par.out" \
    || { echo "parallel batch differs from sequential: $(cat "$tmp/batch-seq.out") vs $(cat "$tmp/batch-par.out")" >&2; exit 1; }
client query smoke main::got --trace     # traced request: response carries the delta report
# A peer session warm-started from smoke's snapshot answers from the
# restored fixpoints (demand.share.hits below).
client snapshot smoke --out "$tmp/peer.snap"
client open peer samples/list.mc
client restore peer "$tmp/peer.snap"
client query peer main::got data
# swap.cons has comments, so `open` re-parses its printout; its dump is
# already printed text and is parsed once. Both keep the same canonical
# source, so raw's snapshot restores into canon by hash, not by rebinding.
cargo run -q -p ddpa-cli -- dump samples/swap.cons > "$tmp/swap-dump.cons"
client open raw samples/swap.cons
client open canon "$tmp/swap-dump.cons"
client query raw p q
client snapshot raw --out "$tmp/raw.snap"
cargo run -q -p ddpa-cli -- client --addr "$addr" restore canon "$tmp/raw.snap" \
    > "$tmp/restore-canon.out"
grep -q '"rebound":false' "$tmp/restore-canon.out" \
    || { echo "raw snapshot was rebound into canon: $(cat "$tmp/restore-canon.out")" >&2; exit 1; }
grep -Eq '"installed":[1-9]' "$tmp/restore-canon.out" \
    || { echo "raw snapshot installed nothing into canon: $(cat "$tmp/restore-canon.out")" >&2; exit 1; }
# Inputs that once took the whole server down (stack overflow or an
# out-of-memory kill) get an answer, and every other session lives on:
# a 200,000-suffix field chain (now a valid one-constraint program),
# `fun f/4000000000` (an arity beyond the input's length) and a MiniC
# block nested 100,000 deep (past the parser's nesting cap).
{ printf 'p = &x'; printf '.f1%.0s' $(seq 200000); echo; } > "$tmp/deep-suffix.cons"
printf 'fun f/4000000000\n' > "$tmp/huge-arity.cons"
{ printf 'void main() {'; printf '{%.0s' $(seq 100000); printf '}%.0s' $(seq 100000); echo '}'; } \
    > "$tmp/deep-blocks.mc"
cargo run -q -p ddpa-cli -- client --addr "$addr" open suffix "$tmp/deep-suffix.cons" \
    > "$tmp/open-suffix.out"
grep -q '"ok":true,"op":"open","session":"suffix","nodes":2,"constraints":1' "$tmp/open-suffix.out" \
    || { echo "deep field chain not opened: $(cut -c1-300 "$tmp/open-suffix.out")" >&2; exit 1; }
for bad in huge-arity.cons deep-blocks.mc; do
    if cargo run -q -p ddpa-cli -- client --addr "$addr" open bad "$tmp/$bad" \
        > /dev/null 2> "$tmp/open-bad.err"; then
        echo "server accepted $bad" >&2; exit 1
    fi
    grep -q 'server error bad-program' "$tmp/open-bad.err" \
        || { echo "$bad: expected a bad-program error, got: $(cat "$tmp/open-bad.err")" >&2; exit 1; }
    client ping
    cargo run -q -p ddpa-cli -- client --addr "$addr" query smoke main::got > "$tmp/after-bad.out"
    grep -q '"pts":\["data"\]' "$tmp/after-bad.out" \
        || { echo "smoke session lost after $bad: $(cat "$tmp/after-bad.out")" >&2; exit 1; }
done
client slow                              # slow-query ring over the wire
client stats
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$srv_metrics"
grep -q 'server.cache_hits' "$srv_metrics" \
    || { echo "metrics missing server.cache_hits" >&2; exit 1; }
grep -q '"name":"demand.share.hits","value":[1-9]' "$srv_metrics" \
    || { echo "metrics missing a nonzero demand.share.hits" >&2; exit 1; }
grep -Eq '"kind":"hist","name":"server\.latency\.request_us".*"p99":[1-9]' "$srv_metrics" \
    || { echo "metrics missing a nonzero request-latency p99 histogram" >&2; exit 1; }
# The access log is itself strict metrics JSONL: one access line per
# request, plus slow lines (threshold 0 ⇒ everything is slow).
cargo run -q -p ddpa-cli -- jsonl-check "$access_log"
grep -q '"kind":"access"' "$access_log" \
    || { echo "access log missing access lines" >&2; exit 1; }
grep -q '"kind":"slow"' "$access_log" \
    || { echo "access log missing slow lines (slow-ms 0)" >&2; exit 1; }
grep -q '"trace":"r' "$access_log" \
    || { echo "access log missing request trace ids" >&2; exit 1; }

echo "==> flight recorder / introspection smoke test"
# Against a live server with the recorder on (the default): a traced
# query populates the ring, the flight export and the scrape both pass
# jsonl-check, the scrape shows nonzero flight events, and the live
# views (top, graph --dot) render.
portfile3="$tmp/serve-flight-port"
flight_out="$tmp/flight.jsonl"
scrape_out="$tmp/scrape.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile3" \
    > "$tmp/serve-flight.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile3" ] && break
    sleep 0.1
done
[ -s "$portfile3" ] || { echo "server never wrote $portfile3" >&2; exit 1; }
addr="$(cat "$portfile3")"
client open smoke samples/list.mc
client query smoke main::got --trace
cargo run -q -p ddpa-cli -- flight smoke --addr "$addr" --out "$flight_out"
cargo run -q -p ddpa-cli -- jsonl-check "$flight_out"
grep -q '"kind":"flight"' "$flight_out" \
    || { echo "flight export has no flight events" >&2; exit 1; }
cargo run -q -p ddpa-cli -- scrape --addr "$addr" --out "$scrape_out"
cargo run -q -p ddpa-cli -- jsonl-check "$scrape_out"
grep -Eq '"name":"session\.smoke\.flight_events","value":[1-9]' "$scrape_out" \
    || { echo "scrape missing a nonzero session.smoke.flight_events" >&2; exit 1; }
# Capture before grepping: `grep -q` exits on first match, and under
# pipefail the writer's resulting EPIPE would fail the pipeline.
cargo run -q -p ddpa-cli -- top smoke --addr "$addr" --iters 1 > "$tmp/top.out"
grep -q 'critical path: work' "$tmp/top.out" \
    || { echo "ddpa top did not render the critical path" >&2; exit 1; }
cargo run -q -p ddpa-cli -- graph smoke --addr "$addr" --dot > "$tmp/graph.dot"
head -1 "$tmp/graph.dot" | grep -q 'digraph goals' \
    || { echo "ddpa graph --dot did not render DOT" >&2; exit 1; }
client shutdown
wait "$srv_pid"
# A local traced query with the recorder on (the default) exports a
# nonzero demand.flight.events counter.
flight_metrics="$tmp/flight-local-metrics.jsonl"
cargo run -q -p ddpa-cli -- query samples/list.mc main::got \
    --metrics-out "$flight_metrics" > /dev/null
cargo run -q -p ddpa-cli -- jsonl-check "$flight_metrics"
grep -q '"name":"demand.flight.events","value":[1-9]' "$flight_metrics" \
    || { echo "metrics missing a nonzero demand.flight.events" >&2; exit 1; }

echo "==> snapshot / warm-start smoke test"
# First server life: open a session, warm the memo table, snapshot it to
# disk (both on request and via the periodic background snapshotter).
# Second life: --restore warm-starts the session from the same directory,
# so the very first query must be served from installed fixpoints
# (nonzero demand.share.hits with no prior query in this life).
snapdir="$tmp/snaps"
portfile2="$tmp/serve2-port"
snap_metrics="$tmp/serve-snap-metrics.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile2" --snapshot-dir "$snapdir" --snapshot-every-ms 200 \
    > "$tmp/serve2.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile2" ] && break
    sleep 0.1
done
[ -s "$portfile2" ] || { echo "server never wrote $portfile2" >&2; exit 1; }
addr="$(cat "$portfile2")"
client open smoke samples/list.mc
client query smoke main::got data
client snapshot smoke                    # explicit snapshot into --snapshot-dir
client shutdown
wait "$srv_pid"
[ -s "$snapdir/smoke.snap" ] || { echo "no snapshot written to $snapdir" >&2; exit 1; }

cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile2.b" --metrics-out "$snap_metrics" \
    --snapshot-dir "$snapdir" --restore \
    > "$tmp/serve3.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile2.b" ] && break
    sleep 0.1
done
[ -s "$portfile2.b" ] || { echo "server never wrote $portfile2.b" >&2; exit 1; }
addr="$(cat "$portfile2.b")"
client open smoke samples/list.mc        # --restore warm-starts from smoke.snap
client query smoke main::got data
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$snap_metrics"
grep -q '"name":"snap.load","value":[1-9]' "$snap_metrics" \
    || { echo "metrics missing a nonzero snap.load after --restore" >&2; exit 1; }
grep -q '"name":"demand.share.hits","value":[1-9]' "$snap_metrics" \
    || { echo "restored session answered cold (no demand.share.hits)" >&2; exit 1; }

# A corrupted snapshot must be refused cleanly, offline, at the CLI level.
cp samples/list.mc "$tmp/snap-prog.mc"
cli_snap="$tmp/cli.snap"
cargo run -q -p ddpa-cli -- snapshot "$tmp/snap-prog.mc" --out "$cli_snap" > /dev/null
cargo run -q -p ddpa-cli -- restore "$tmp/snap-prog.mc" "$cli_snap" > /dev/null
printf 'garbage' >> "$cli_snap"
if cargo run -q -p ddpa-cli -- restore "$tmp/snap-prog.mc" "$cli_snap" > /dev/null 2>&1; then
    echo "corrupted snapshot was not refused" >&2; exit 1
fi

echo "==> incremental edit smoke test"
# A warm session edited via add-constraints keeps the goals whose
# support sets miss the edit: the differential suite (fixed seeds)
# proves the split is exact across edit scripts; end-to-end, the edit
# must leave a nonzero demand.dirty.retained in the metrics export and
# a re-query of an untouched goal must answer at zero deduction work.
cargo test -q -p ddpa-demand --test incremental
edit_base="$tmp/edit-base.cons"
edit_extra="$tmp/edit-extra.cons"
printf 'p = &o\nq = p\nr = &u\n' > "$edit_base"
printf 's = r\n' > "$edit_extra"
portfile5="$tmp/serve-edit-port"
edit_metrics="$tmp/serve-edit-metrics.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile5" --metrics-out "$edit_metrics" \
    > "$tmp/serve-edit.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile5" ] && break
    sleep 0.1
done
[ -s "$portfile5" ] || { echo "server never wrote $portfile5" >&2; exit 1; }
addr="$(cat "$portfile5")"
client open smoke "$edit_base"
client query smoke q r                   # warm both chains
client add smoke "$edit_extra"           # touches only the r-chain
# The untouched q-chain answers from the still-warm table.
cargo run -q -p ddpa-cli -- client --addr "$addr" query smoke q \
    > "$tmp/edit-requery.out"
grep -q '"work":0' "$tmp/edit-requery.out" \
    || { echo "re-query after edit re-derived an untouched goal: $(cat "$tmp/edit-requery.out")" >&2; exit 1; }
# Both edit paths end to end: a declaration renumbers ids and takes full
# invalidation; a plain edit after it is appended and keeps warm goals.
printf 'fun h/1\nh::arg0 = &o\n' > "$tmp/edit-decl.cons"
printf 't = r\n' > "$tmp/edit-plain.cons"
cargo run -q -p ddpa-cli -- client --addr "$addr" add smoke "$tmp/edit-decl.cons" \
    > "$tmp/edit-decl.out"
grep -q '"full_invalidation":true' "$tmp/edit-decl.out" \
    || { echo "declaration edit was not fully invalidated: $(cat "$tmp/edit-decl.out")" >&2; exit 1; }
client query smoke q r                   # re-warm both chains
cargo run -q -p ddpa-cli -- client --addr "$addr" add smoke "$tmp/edit-plain.cons" \
    > "$tmp/edit-plain.out"
grep -q '"full_invalidation":false' "$tmp/edit-plain.out" \
    || { echo "plain edit was not incremental: $(cat "$tmp/edit-plain.out")" >&2; exit 1; }
grep -Eq '"retained":[1-9]' "$tmp/edit-plain.out" \
    || { echo "plain edit retained nothing: $(cat "$tmp/edit-plain.out")" >&2; exit 1; }
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$edit_metrics"
grep -q '"name":"demand.dirty.retained","value":[1-9]' "$edit_metrics" \
    || { echo "metrics missing a nonzero demand.dirty.retained" >&2; exit 1; }

echo "==> parallel scheduler smoke test"
# The differential suite (fixed seeds) proves the frame scheduler is
# exact — {sequential, DFS×1..N, BFS×1..N} all match the wave solver,
# including across add-constraints generations. Run it at the sequential
# boundary and at the CI worker count via the env knob.
DDPA_SCHED_WORKERS=1 cargo test -q -p ddpa-demand --test sched_differential
DDPA_SCHED_WORKERS=4 cargo test -q -p ddpa-demand --test sched_differential
# End-to-end: a traced parallel_query against a live --workers 4 server
# over a wide (headroom-rich) workload must actually steal — the
# mirrored demand.sched.steals counter lands in the metrics export.
wide="$tmp/wide.cons"
# Big enough that the solve outlives an OS timeslice: on a one-core
# host a short solve can be drained entirely by one worker, and then
# nothing steals.
cargo run -q -p ddpa-cli -- gen --wide --size 8000 --seed 7 > "$wide"
portfile4="$tmp/serve-sched-port"
sched_metrics="$tmp/serve-sched-metrics.jsonl"
cargo run -q -p ddpa-cli -- serve --addr 127.0.0.1:0 \
    --port-file "$portfile4" --metrics-out "$sched_metrics" \
    --workers 4 \
    > "$tmp/serve-sched.log" &
srv_pid=$!
for _ in $(seq 1 100); do
    [ -s "$portfile4" ] && break
    sleep 0.1
done
[ -s "$portfile4" ] || { echo "server never wrote $portfile4" >&2; exit 1; }
addr="$(cat "$portfile4")"
client open smoke "$wide"
client query smoke hub --parallel-query --trace
cargo run -q -p ddpa-cli -- top smoke --addr "$addr" --iters 1 > "$tmp/top-sched.out"
grep -q '4 worker(s), dfs policy' "$tmp/top-sched.out" \
    || { echo "ddpa top did not show the scheduler configuration" >&2; exit 1; }
# Whether a given solve steals is a scheduling race (on a one-core host
# a single worker can drain the whole goal graph before the others run),
# so retry across fresh sessions — each `open` gets its own memo table,
# hence a fresh scheduler run — until the live scrape shows a steal.
sched_scrape="$tmp/sched-scrape.jsonl"
stole=""
for i in $(seq 1 12); do
    client open "smoke$i" "$wide"
    client query "smoke$i" hub --parallel-query
    cargo run -q -p ddpa-cli -- scrape --addr "$addr" --out "$sched_scrape"
    if grep -q '"name":"demand.sched.steals","value":[1-9]' "$sched_scrape"; then
        stole=1
        break
    fi
done
[ -n "$stole" ] \
    || { echo "no nonzero demand.sched.steals after 12 parallel solves" >&2; exit 1; }
client shutdown
wait "$srv_pid"
cargo run -q -p ddpa-cli -- jsonl-check "$sched_metrics"
grep -q '"name":"demand.sched.steals","value":[1-9]' "$sched_metrics" \
    || { echo "metrics missing a nonzero demand.sched.steals" >&2; exit 1; }
grep -q '"name":"demand.sched.parked","value":[1-9]' "$sched_metrics" \
    || { echo "metrics missing a nonzero demand.sched.parked" >&2; exit 1; }

echo "All checks passed."
