#!/usr/bin/env bash
# Tier-1 verification entry point: formatting, lints, release build, tests.
# Everything runs offline against the vendored dependency set.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo doc (deny warnings)"
# API docs are part of the contract: broken intra-doc links or malformed
# examples fail the gate, not just produce rustdoc noise. Scoped to the
# p4guard crates — vendored workspace members are out of our control.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p p4guard -p 'p4guard-*'

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> conformance smoke (fixed seed, time-boxed)"
# Re-run the seed-driven conformance suite under an explicit wall-clock
# ceiling so a pathological slowdown fails CI instead of hanging it.
timeout 60 cargo test -p p4guard-conformance --offline -q

echo "==> serve smoke (fixed seed, live /metrics, time-boxed)"
# Serve a small generated scenario with a live /metrics endpoint on an
# ephemeral port and scrape it once with the CLI's built-in client (no curl
# in the image). The serving path must process the whole trace — /metrics
# frame totals equal to the generated packet count — with the batch-fill
# and arena occupancy gauges on the wire, and a rolling-rate gauge the
# sampler thread set in the registry (the registry writes the rates).
CLI=target/release/p4guard-cli
SMOKE_DIR="$(mktemp -d)"
SERVE_PID=""
ADDR=""
trap 'rm -rf "$SMOKE_DIR"; kill "$SERVE_PID" 2>/dev/null || true' EXIT

# start_serve <log> <serve args…>: runs `p4guard-cli serve` in the
# background with a live metrics endpoint on an ephemeral port, held open
# after the run; waits until the log says the endpoint is being held (the
# replay has finished, so the counters we scrape are final rather than
# mid-flight) and sets SERVE_PID and ADDR. Bails with the log if serve
# exits early or never gets there.
start_serve() {
  local log="$1"
  shift
  timeout 180 "$CLI" serve "$@" --metrics-addr 127.0.0.1:0 --hold 60 > "$log" 2>&1 &
  SERVE_PID=$!
  ADDR=""
  for _ in $(seq 1 300); do
    if grep -q 'holding metrics endpoint' "$log"; then
      ADDR=$(sed -n 's|^metrics: listening on http://\([0-9.:]*\)/metrics$|\1|p' "$log")
      break
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "serve $* exited before holding the metrics endpoint:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.5
  done
  if [ -z "$ADDR" ]; then
    echo "serve $* never brought the metrics endpoint up:" >&2
    cat "$log" >&2
    exit 1
  fi
}

# check_conservation <scraped /metrics>: the frame-conservation invariant
# every shard worker checks on each drain it publishes must be on the wire
# and must never have tripped.
check_conservation() {
  local violations
  violations=$(awk '/^p4guard_conservation_violations_total/ { n++; sum += $NF }
                    END { if (n) printf "%.0f", sum }' "$1")
  if [ "$violations" != "0" ]; then
    echo "p4guard_conservation_violations_total is ${violations:-missing} in $1, expected 0:" >&2
    grep '^p4guard_conservation_violations_total' "$1" >&2 || true
    exit 1
  fi
}

start_serve "$SMOKE_DIR/serve.log" --shards 2 --seed 1
FRAMES=$(sed -n 's/^no --trace given; generated \([0-9]*\) packets.*/\1/p' "$SMOKE_DIR/serve.log")
# stats --metrics exits non-zero on connection failure or any non-200.
"$CLI" stats --metrics "$ADDR" > "$SMOKE_DIR/metrics.txt"
RECEIVED=$(awk '/^p4guard_frames_received_total/ { sum += $NF } END { printf "%.0f", sum }' \
  "$SMOKE_DIR/metrics.txt")
if [ -z "$FRAMES" ] || [ "$RECEIVED" != "$FRAMES" ]; then
  echo "serve lost frames: generated ${FRAMES:-?}, /metrics received ${RECEIVED:-?}" >&2
  grep '^p4guard_frames_received_total' "$SMOKE_DIR/metrics.txt" >&2 || true
  exit 1
fi
for family in p4guard_batch_fill p4guard_arena_frames p4guard_arena_batches \
  p4guard_frames_received:rate_1s; do
  grep -q "^$family" "$SMOKE_DIR/metrics.txt" || {
    echo "$family missing from /metrics:" >&2
    head -50 "$SMOKE_DIR/metrics.txt" >&2
    exit 1
  }
done
check_conservation "$SMOKE_DIR/metrics.txt"
# The drop reasons partition what was not forwarded, on the wire too:
# every pipeline reason summed (backpressure is shed before a pipeline, so
# it is not part of `received`) equals received - forwarded.
FORWARDED=$(awk '/^p4guard_frames_forwarded_total/ { sum += $NF } END { printf "%.0f", sum }' \
  "$SMOKE_DIR/metrics.txt")
PIPELINE_DROPS=$(awk '/^p4guard_drops_total/ && !/reason="backpressure"/ { sum += $NF }
                      END { printf "%.0f", sum }' "$SMOKE_DIR/metrics.txt")
if [ "$PIPELINE_DROPS" != "$((RECEIVED - FORWARDED))" ]; then
  echo "drop reasons sum to $PIPELINE_DROPS, received - forwarded is $((RECEIVED - FORWARDED)):" >&2
  grep -E '^p4guard_(drops|frames_(received|forwarded))_total' "$SMOKE_DIR/metrics.txt" >&2 || true
  exit 1
fi
echo "$RECEIVED/$FRAMES frames on /metrics, $PIPELINE_DROPS not forwarded, by reason"
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

echo "==> adaptation loop smoke (fixed seed, time-boxed)"
# Drive the full closed loop on a live gateway: a scripted regime shift
# must complete drift → retrain → shadow → canary → promote, and a
# poisoned proposal must trip the canary guardrail and roll back — both
# inside the wall-clock box.
timeout 180 "$CLI" serve --adapt --shards 4 --seed 7 > "$SMOKE_DIR/adapt.log" 2>&1 || {
  echo "serve --adapt failed:" >&2
  tail -30 "$SMOKE_DIR/adapt.log" >&2
  exit 1
}
grep -q 'promoted' "$SMOKE_DIR/adapt.log" || {
  echo "adaptation smoke never promoted the retrained candidate:" >&2
  cat "$SMOKE_DIR/adapt.log" >&2
  exit 1
}
grep -q 'rolled_back' "$SMOKE_DIR/adapt.log" || {
  echo "adaptation smoke never rolled back the poisoned candidate:" >&2
  cat "$SMOKE_DIR/adapt.log" >&2
  exit 1
}

echo "==> fleet smoke (fixed seed, time-boxed)"
# Multi-tenant fleet: a small 2-tenant simulation served through the
# shared shard workers with a live /metrics endpoint. The run must report
# every tenant within its table budget, exercise a budget rejection, and
# export per-tenant metric series.
start_serve "$SMOKE_DIR/fleet.log" --tenants 2 --devices 2000 --shards 2 --seed 5
grep -q 'publish(es) rejected' "$SMOKE_DIR/fleet.log" && \
  ! grep -q ' 0 publish(es) rejected' "$SMOKE_DIR/fleet.log" || {
  echo "fleet smoke never exercised the budget reject path:" >&2
  cat "$SMOKE_DIR/fleet.log" >&2
  exit 1
}
if grep -q '| NO' "$SMOKE_DIR/fleet.log"; then
  echo "fleet smoke reported a tenant over its table budget:" >&2
  cat "$SMOKE_DIR/fleet.log" >&2
  exit 1
fi
"$CLI" stats --metrics "$ADDR" > "$SMOKE_DIR/fleet-metrics.txt"
for family in p4guard_tenant_budget_bits p4guard_tenant_occupancy_bits \
              p4guard_tenant_publish_rejected_total; do
  grep -q "^$family" "$SMOKE_DIR/fleet-metrics.txt" || {
    echo "$family missing from fleet /metrics:" >&2
    head -50 "$SMOKE_DIR/fleet-metrics.txt" >&2
    exit 1
  }
done
check_conservation "$SMOKE_DIR/fleet-metrics.txt"
# The shared counter families must carry the tenant label.
grep -q 'p4guard_frames_received_total{.*tenant=' "$SMOKE_DIR/fleet-metrics.txt" || {
  echo "per-tenant frame counters missing from fleet /metrics:" >&2
  grep '^p4guard_frames_received_total' "$SMOKE_DIR/fleet-metrics.txt" >&2 || true
  exit 1
}
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

echo "==> gated experiments (one reproduce run, fixed seed, time-boxed)"
# The two experiments whose timing gates below need a fresh release run, in
# one process so they share the lab. Every other claim about them, and about
# every other experiment (conservation, the minimizer's margins and counts,
# the forest gates), is a row of the claims table that the tier-1
# `results_are_current` test checks on its own rerun (DESIGN.md "Testing
# strategy"). A report that could not be written fails the run, so no gate
# reads a stale file.
GATED_LOG="$SMOKE_DIR/gated.log"
timeout 600 target/release/reproduce f17_lookup f20_minimize \
  --out "$SMOKE_DIR/results" > "$GATED_LOG" 2>&1 || {
  echo "reproduce f17_lookup f20_minimize failed:" >&2
  tail -30 "$GATED_LOG" >&2
  exit 1
}

echo "==> delta-publish smoke"
# Incremental compilation gate (f20_minimize): one-entry diffs against a
# 1024-entry stage must publish >=10x faster than a from-scratch recompile.
# Both medians are printed beside the ratio, so the log shows which side
# moved.
MINIMIZE_JSON="$SMOKE_DIR/results/f20_minimize.json"
SPEEDUP=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' "$MINIMIZE_JSON")
if [ -z "$SPEEDUP" ] || ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 10) }'; then
  echo "incremental publish speedup ${SPEEDUP:-?}x below the 10x gate:" >&2
  grep 'speedup' "$GATED_LOG" >&2 || true
  exit 1
fi
P50S=$(awk '/\{/ { block = $1 }
            /"p50_us"/ { sub(/,$/, "", $2); p50[block] = $2 }
            END { print p50["\"incremental\":"], p50["\"scratch\":"] }' "$MINIMIZE_JSON")
echo "delta publish ${SPEEDUP}x >= 10x (p50 incremental ${P50S% *} us, scratch ${P50S#* } us)"

echo "==> compiled-lookup smoke"
# Engine gate (f17_lookup): at every table size, the engine a ternary,
# range or LPM table compiles to must look a key up at least as fast as the
# mutable table's linear scan it stands in for. The bound is loose
# (measured 5-130x) so a noisy box cannot trip it; an engine that is
# slower than the scan it replaced can.
SLOW_POINTS=$(awk '/"series"/ { split($0, quoted, "\""); series = quoted[4] }
                   /"kind"/ { gated = /Ternary|Range|Lpm/ }
                   /"entries"/ { entries = $2 + 0 }
                   /"speedup"/ { points += gated
                                 if (gated && $2 + 0 < 1) print series " @ " entries ": " $2 + 0 "x" }
                   END { if (points < 2) print "no ternary, range or LPM point in the report" }' \
  "$SMOKE_DIR/results/f17_lookup.json")
if [ -n "$SLOW_POINTS" ]; then
  echo "compiled lookup slower than the linear scan it replaces:" >&2
  echo "$SLOW_POINTS" >&2
  cat "$GATED_LOG" >&2
  exit 1
fi
echo "every ternary, range and LPM point at least as fast as the scan"
# Summary gate (f17_lookup): from 1,024 rows up, a table of the learned
# shape (leaf boxes as prefix cross products: the probe walks a box or two)
# must look a key up at least as fast as a table of the same size with a
# random mask per row (every step live). Both points come from one process
# moments apart and measure 2-3x apart at either size, so noise cannot
# trip it; a summary that stopped pruning can.
UNPRUNED=$(awk '/"series"/ { split($0, quoted, "\""); series = quoted[4] }
                /"entries"/ { entries = $2 + 0 }
                /"compiled_pps"/ { if (series ~ /a mask per row/) dense[entries] = $2 + 0
                                   if (series ~ /leaf cross products/) boxes[entries] = $2 + 0 }
                END { for (n in dense) if (n + 0 >= 1024) { sizes++
                        if (!(boxes[n] >= dense[n]))
                          print n " rows: leaf cross products " boxes[n] " pps, a mask per row " dense[n] " pps" }
                      if (sizes < 2) print "fewer than two sizes >= 1024 in the report" }' \
  "$SMOKE_DIR/results/f17_lookup.json")
if [ -n "$UNPRUNED" ]; then
  echo "the learned shape is no faster than a dense table of its size:" >&2
  echo "$UNPRUNED" >&2
  cat "$GATED_LOG" >&2
  exit 1
fi
echo "leaf cross products at least as fast as a mask per row at every size >= 1024"

echo "==> observability smoke (traced serve, time-boxed)"
# Traced serve: /metrics must grow the per-stage histogram and the
# SLO burn gauges, /profile must expose stage rollups with exemplar trace
# ids, and /traces must return sampled span trees rooted at `frame`.
start_serve "$SMOKE_DIR/traced.log" --tracing --shards 2 --seed 3
grep -q '^tracing: listening on' "$SMOKE_DIR/traced.log" || {
  echo "serve --tracing never announced /profile and /traces:" >&2
  cat "$SMOKE_DIR/traced.log" >&2
  exit 1
}
"$CLI" stats --metrics "$ADDR" > "$SMOKE_DIR/traced-metrics.txt"
for family in p4guard_stage_seconds p4guard_slo_burn_fast p4guard_slo_burn_slow; do
  grep -q "^$family" "$SMOKE_DIR/traced-metrics.txt" || {
    echo "$family missing from traced /metrics:" >&2
    head -50 "$SMOKE_DIR/traced-metrics.txt" >&2
    exit 1
  }
done
"$CLI" stats --metrics "$ADDR" --path /profile > "$SMOKE_DIR/profile.json"
grep -q '/lookup' "$SMOKE_DIR/profile.json" && grep -q 'exemplar_trace' "$SMOKE_DIR/profile.json" || {
  echo "/profile missing lookup stage rollups or trace exemplars:" >&2
  cat "$SMOKE_DIR/profile.json" >&2
  exit 1
}
"$CLI" stats --metrics "$ADDR" --path '/traces?recent=8' > "$SMOKE_DIR/traces.json"
FRAME_ROOTS=$({ grep -o '{"trace_id":[0-9]*,"span_id":[0-9]*,"parent_id":null,"name":"frame"' \
  "$SMOKE_DIR/traces.json" || true; } | sed 's/{"trace_id":\([0-9]*\),.*/\1/')
if [ -z "$FRAME_ROOTS" ]; then
  echo "/traces?recent=8 returned no frame-rooted span trees:" >&2
  cat "$SMOKE_DIR/traces.json" >&2
  exit 1
fi
# The join, on the wire: the id a sampled frame's span tree is rooted at
# names exactly one verdict entry of /events, and no other tree.
"$CLI" stats --metrics "$ADDR" --path /events > "$SMOKE_DIR/events.json"
for id in $FRAME_ROOTS; do
  VERDICTS=$({ grep -o "\"Verdict\":{[^}]*\"trace_id\":$id}" "$SMOKE_DIR/events.json" || true; } | wc -l)
  ROOTS=$("$CLI" stats --metrics "$ADDR" --path "/traces?id=$id" |
    { grep -o '"parent_id":null' || true; } | wc -l)
  if [ "$VERDICTS" != "1" ] || [ "$ROOTS" != "1" ]; then
    echo "trace $id joins $VERDICTS verdict event(s) and $ROOTS root span(s), expected 1 and 1:" >&2
    cat "$SMOKE_DIR/events.json" >&2
    exit 1
  fi
done
echo "traced serve: stage histograms, burn gauges, /profile live, $(echo "$FRAME_ROOTS" | wc -l) frame traces join /events"
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

echo "==> ledger benchmark (unit tests + smoke pass)"
# The ledger (BENCHMARK.json) is a package of its own: building it pins the
# API surface the benchmark calls, its unit tests cover the harness, and
# the smoke pass runs every workload briefly with the conservation and
# scan-oracle fate checks on (both in the release profile, one build).
cargo test --release --offline --manifest-path ledger/Cargo.toml
timeout 600 cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- --smoke \
  > "$SMOKE_DIR/ledger.log" 2>&1 || {
  echo "ledger --smoke failed:" >&2
  tail -30 "$SMOKE_DIR/ledger.log" >&2
  exit 1
}
tail -5 "$SMOKE_DIR/ledger.log"
# The smoke pass trains both profiles (loop_churn: GuardConfig::default, the
# paper-scale network — 1436 ternary entries, T2's row — the others the fast
# one), and training is bit-for-bit deterministic (DESIGN.md "Bit-identical
# training"): every workload's entry count and F1 are pinned, so a kernel
# that reorders one add fails here, not in a reviewer's diff. The count is
# `tcam_entries`, the rows the engine indexes once lowering has folded the
# ternary entries into boxes (DESIGN.md "Incremental compilation &
# minimization"): 2245 / 12 / 1110 / 1436 ternary entries fold to these.
SMOKE_PINNED="gw_forest 23 0.9981
gw_small 7 0.6040
gw_tree 10 0.9834
loop_churn 7 0.9952"
SMOKE_READ=$(awk '/^== / { w = $2 } $1 == "tcam_entries" { e[w] = $2 + 0 } $1 == "detect_f1" { f[w] = $2 }
                  END { for (w in e) print w, e[w], f[w] }' "$SMOKE_DIR/ledger.log" | sort)
if [ "$SMOKE_READ" != "$SMOKE_PINNED" ]; then
  echo "ledger --smoke entries / F1 moved (< pinned, > this run):" >&2
  diff <(echo "$SMOKE_PINNED") <(echo "$SMOKE_READ") >&2
  exit 1
fi
echo "ledger --smoke entries and F1 match the pins on all four workloads"
# The mirror tap's cost is the channel round trip per sample; a wake-up
# system call per message put it at 57-73 % of bare forwarding on gw_small,
# notifying only a blocked party at 2-22 % (DESIGN.md "Shadow
# evaluation"). The median of three short traced runs must stay at or under
# 40 %, so the per-message wake-up cannot come back silently.
for run in 1 2 3; do
  timeout 120 cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- \
    --workload gw_small --smoke --trace 1 > "$SMOKE_DIR/traced-ledger-$run.log" 2>&1 || {
    echo "ledger --workload gw_small --smoke --trace 1 failed:" >&2
    tail -30 "$SMOKE_DIR/traced-ledger-$run.log" >&2
    exit 1
  }
done
traced_rows() {
  awk -v row="$1" '$1 == row { print $2 }' "$SMOKE_DIR"/traced-ledger-*.log | sort -g
}
MIRROR_PCTS=$(traced_rows gateway.mirror_overhead_pct)
MIRROR_MEDIAN=$(echo "$MIRROR_PCTS" | sed -n 2p)
if [ -z "$MIRROR_MEDIAN" ] || ! awk -v m="$MIRROR_MEDIAN" 'BEGIN { exit !(m <= 40) }'; then
  echo "gateway.mirror_overhead_pct median ${MIRROR_MEDIAN:-?} % above 40 % (runs:" $MIRROR_PCTS ")" >&2
  exit 1
fi
echo "gw_small mirror overhead median $MIRROR_MEDIAN % <= 40 % (runs:" $MIRROR_PCTS ")"
# Ingest allocates what a batch uses (DESIGN.md "Batched hot path"): three
# allocations per sealed batch, 11.7-11.9 per 1,000 frames, where a span list
# regrown from empty in every batch read 35. The count is deterministic, so
# every run must stay at or under 16.
ALLOCS=$(traced_rows packet.allocs_per_kframe)
if [ "$(echo "$ALLOCS" | grep -c .)" != "3" ] ||
   ! echo "$ALLOCS" | awk '$1 > 16 { bad = 1 } END { exit bad }'; then
  echo "packet.allocs_per_kframe above 16 or missing (runs:" $ALLOCS ")" >&2
  exit 1
fi
echo "gw_small ingest allocations per 1k frames <= 16 (runs:" $ALLOCS ")"
# The ledger runs without --locked: a manifest edit that changes what it
# links makes cargo rewrite ledger/Cargo.lock, and the benchmark's files
# are not this repository's to change.
git diff --exit-code -- ledger BENCHMARK.json

# Non-blank, non-comment Rust lines: the one size every PR quotes (ROADMAP
# item 6d, informational), and the experiment harness's share of it (ROADMAP
# item 7), gated like panic sites below so the harness cannot regrow
# unnoticed: lower EXPERIMENTS_LINES_MAX when a PR shrinks it, and never
# raise it without saying in CHANGES.md what the new lines are for.
rust_lines() {
  find "$@" -name '*.rs' -print0 | xargs -0 cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
}
# Each "was" figure is the parent commit's, committed by the change that
# last moved it so the log reads before -> after; the next change to move a
# count replaces its figure with its parent's.
echo "rust lines: $(rust_lines crates tests examples) (was 37954)"
EXPERIMENTS_LINES_MAX=3142
EXPERIMENTS_LINES=$(rust_lines crates/core/src/experiments)
echo "experiments lines: $EXPERIMENTS_LINES (was 3196)"
if [ "$EXPERIMENTS_LINES" -gt "$EXPERIMENTS_LINES_MAX" ]; then
  echo "experiments lines rose above the committed $EXPERIMENTS_LINES_MAX" >&2
  exit 1
fi

# Gated: calls that can abort the process in the crates that face traffic
# (ROADMAP item 4c) — unwrap/expect/panic!/unreachable!/assert!/assert_eq!
# on non-comment lines above each file's first #[cfg(test)]. The ceiling is
# the committed count: lower it when a PR removes a site, never raise it
# without saying in CHANGES.md what the new site guards. (ROADMAP's 55 at
# its anchor counted four doc-example lines too; this count leaves `//`
# lines out, as `rust lines` does: 51 there.)
PANIC_SITES_MAX=45
PANIC_SITES=$(find crates/{dataplane,packet,telemetry,gateway,fleet,adapt}/src -name '*.rs' -print0 |
  xargs -0 awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live && !/^[[:space:]]*\/\//' |
  { grep -cE '\.unwrap\(\)|\.expect\(|panic!|unreachable!|assert!|assert_eq!' || true; })
echo "panic sites: $PANIC_SITES (was 46)"
if [ "$PANIC_SITES" -gt "$PANIC_SITES_MAX" ]; then
  echo "panic sites rose above the committed $PANIC_SITES_MAX" >&2
  exit 1
fi

echo "==> one window onto the frame (acceptance greps)"
# The parse-graph VM is gone and stays gone: no walker but
# ParserSpec::accepts, no frame-offset gather outside dataplane::key
# (KeyLayout::gather_into and its one-frame case, build_key_into) — neither
# a per-byte zero-padding read nor a key collected from a frame by offset.
if grep -rnE "ParserState|StateTarget|ParseOutcome|ethernet_ipv4" crates tests examples ||
   grep -rn "\.parse(frame" crates/dataplane/src ||
   grep -n "unwrap_or(0)" crates/core/src/pipeline.rs crates/core/src/multiclass.rs ||
   grep -rnE "frame\.get\(\*?[a-z_]+\)\.copied\(\)|\|&?o\| [a-z_.]*frame\[o\]" crates/*/src examples |
     grep -v "^crates/dataplane/src/key\.rs:"; then
  echo "a second parser walker or a hand-rolled key gather is back (lines above)" >&2
  exit 1
fi

echo "==> one verb for rules, one fan-out (acceptance greps)"
# ControlPlane's rule writers are replace_ruleset(s) plus the reference-only
# apply_ruleset_diff: the four deleted verbs do not come back as methods,
# wrappers or test helpers, and control.rs publishes to cells in one loop.
FANOUTS=$(grep -c 'cell\.publish(' crates/dataplane/src/control.rs)
if grep -rnE "fn (install_ruleset|clear_stage|remove_entries|modify_entries)" crates tests examples ||
   [ "$FANOUTS" != "1" ]; then
  echo "a deleted rule writer is back (lines above), or control.rs has $FANOUTS cell.publish( loops, expected 1" >&2
  exit 1
fi

echo "==> one wildcard engine, one probe (acceptance greps)"
# The summary is a level over the same rows, not a second engine, and an
# LPM table is a ternary one ordered by prefix length: two engines (exact
# hash, bit-vector), no prefix buckets, and one step function under both
# lookup paths. A key reads each kept position's class once, so the loop
# pair that kept the position list off every row load, and the four-word
# step the summary once counted in, stay gone.
ENGINES=$(awk '/^enum Engine \{/ { live = 1; next } live && /^\}/ { live = 0 }
               live && /^    [A-Z][A-Za-z]*[({,]/' crates/dataplane/src/compiled.rs | wc -l)
WALKERS=$(grep -c 'fn walk_rows' crates/dataplane/src/compiled.rs)
if grep -rnE "LpmBucket|probe_lpm|lpm-buckets|probe_in_place|probe_selected|PROBE_CHUNK" crates tests examples ||
   [ "$ENGINES" != "2" ] || [ "$WALKERS" != "1" ]; then
  echo "prefix buckets, the probe loop pair or the four-word step are back (lines above), or compiled.rs has $ENGINES Engine variants and $WALKERS fn walk_rows, expected 2 and 1" >&2
  exit 1
fi

echo "==> the gateway counts what it was offered (acceptance greps)"
# Ingest counts every frame it is offered (GatewaySnapshot::offered), so the
# drained checkpoint takes only a timeout: two signatures (the gateway's and
# the fleet's), and no call that threads a caller's frame total into it.
SIGNATURE='fn wait_drained(&self, timeout: Duration)'
SIGNATURES=$({ grep -rnF "$SIGNATURE" crates tests examples || true; } | wc -l)
if grep -rnE 'wait_drained\([^)]*,' crates tests examples | grep -vF "$SIGNATURE" ||
   [ "$SIGNATURES" != "2" ]; then
  echo "a wait_drained call takes more than a timeout (lines above), or there are $SIGNATURES '$SIGNATURE' signatures, expected 2" >&2
  exit 1
fi

echo "==> a patch copies chunks, not entries (acceptance greps)"
# The minimized list is shared between versions by the chunk: a patch and a
# dropped version touch a reference count per piece of the list, so no list
# of per-entry pointers comes back under dataplane.
if grep -rnF "Vec<Arc<MinEntry>>" crates/dataplane/src; then
  echo "a per-entry Arc list of minimized entries is back (lines above)" >&2
  exit 1
fi

echo "==> a removal subtracts, it does not refold (acceptance greps)"
# A delta publish cuts a removed folded source's box out of the rows it
# meets and folds only the added entries: MinimizedTable::patch neither
# re-minimizes nor folds the whole table (directly or through rows_of),
# and dataplane has one box-difference helper.
PATCH_BODY=$(awk '/^    pub fn patch\(/ { live = 1 } live { print } live && /^    }$/ { exit }' crates/dataplane/src/minimize.rs)
DIFFERENCES=$({ grep -rnE 'fn [a-z_]*(subtract|minus)[(<]' crates/dataplane/src || true; } | wc -l)
if [ -z "$PATCH_BODY" ] ||
   echo "$PATCH_BODY" | grep -nE 'minimize\(|(fold|rows_of)\(([a-z.]+, )?(&?entries|&entries\[\.\.\])\)' ||
   [ "$DIFFERENCES" != "1" ]; then
  echo "MinimizedTable::patch re-minimizes or folds the whole table (lines above), or is missing, or crates/dataplane/src has $DIFFERENCES box-difference helpers, expected 1" >&2
  exit 1
fi

echo "==> one windowed view of the registry (acceptance greps)"
# Rolling rates and SLO burns come from one sampler and reach the wire
# through the registry's one exposition writer: one counter_snapshot() call
# in the telemetry crate outside the registry, render_prometheus defined in
# registry.rs only, no second window rule, and one tick call each in the
# metrics server and in F15.
SNAPSHOTS=$({ grep -rn 'counter_snapshot()' crates/telemetry/src --exclude=registry.rs || true; } | wc -l)
WRITERS=$(grep -rl 'fn render_prometheus' crates/telemetry/src)
HTTP_TICKS=$({ grep -n 'tick()' crates/telemetry/src/http.rs || true; } | wc -l)
F15_TICKS=$({ grep -n 'tick()' crates/core/src/experiments/observe_exp.rs || true; } | wc -l)
if grep -rnE 'SloSeries|oldest_in_window|MIN_TICK' crates/telemetry/src ||
   [ "$SNAPSHOTS" != "1" ] || [ "$WRITERS" != "crates/telemetry/src/registry.rs" ] ||
   [ "$HTTP_TICKS" != "1" ] || [ "$F15_TICKS" != "1" ]; then
  echo "a second window is back (lines above), or: $SNAPSHOTS counter_snapshot() calls outside registry.rs (expected 1), render_prometheus in '$WRITERS' (expected registry.rs), $HTTP_TICKS tick calls in http.rs and $F15_TICKS in observe_exp.rs (expected 1 each)" >&2
  exit 1
fi

echo "==> OK"
