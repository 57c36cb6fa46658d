#!/usr/bin/env bash
# Tier-1 gate plus workspace-wide tests and lints. Run from anywhere;
# operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests (tier-1 root package) =="
cargo test -q

echo "== tests (full workspace) =="
cargo test --workspace -q --no-fail-fast

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== daemon smoke test =="
cargo build --release -p pallas-cli
PALLAS_BIN=target/release/pallas
SOCK="$(mktemp -u /tmp/pallas-ci-XXXXXX.sock)"
SMOKE_DIR="$(mktemp -d /tmp/pallas-ci-smoke-XXXXXX)"
trap 'rm -rf "$SMOKE_DIR" "$SOCK"' EXIT
cat > "$SMOKE_DIR/smoke.c" <<'EOF'
typedef unsigned int gfp_t;
int noio(gfp_t m);
int alloc_fast(gfp_t gfp_mask) {
  gfp_mask = noio(gfp_mask);
  return 0;
}
EOF
echo "fastpath alloc_fast; immutable gfp_mask;" > "$SMOKE_DIR/smoke.pallas"
"$PALLAS_BIN" serve "$SOCK" --workers 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || { echo "ci: daemon never bound $SOCK" >&2; exit 1; }
"$PALLAS_BIN" client "$SOCK" check "$SMOKE_DIR/smoke.c" | grep -q "Rule 1.2"
"$PALLAS_BIN" client "$SOCK" check "$SMOKE_DIR/smoke.c" --json | grep -q '"type":"finding"'
"$PALLAS_BIN" client "$SOCK" stats | grep -q '"cache_hits":1'
"$PALLAS_BIN" client "$SOCK" shutdown | grep -q '"shutdown":true'
wait "$SERVE_PID"
echo "daemon smoke test: ok"

echo "== TCP transport byte-identity =="
# Dual-bind the daemon (Unix socket + ephemeral loopback TCP port),
# then the same unit checked locally, over the socket, and over TCP
# must produce byte-identical NDJSON.
SOCK2="$(mktemp -u /tmp/pallas-ci-tcp-XXXXXX.sock)"
"$PALLAS_BIN" serve "$SOCK2" --tcp 127.0.0.1:0 --workers 2 > "$SMOKE_DIR/serve-tcp.log" &
TCP_PID=$!
TCP_ADDR=""
for _ in $(seq 1 100); do
  TCP_ADDR="$(sed -n 's/.*tcp `\([0-9.:]*\)`.*/\1/p' "$SMOKE_DIR/serve-tcp.log")"
  [ -n "$TCP_ADDR" ] && break
  sleep 0.05
done
[ -n "$TCP_ADDR" ] || { echo "ci: daemon never reported its TCP address" >&2; exit 1; }
"$PALLAS_BIN" check "$SMOKE_DIR/smoke.c" --json > "$SMOKE_DIR/local.ndjson"
"$PALLAS_BIN" client "$SOCK2" check "$SMOKE_DIR/smoke.c" --json > "$SMOKE_DIR/unix.ndjson"
"$PALLAS_BIN" client --tcp "$TCP_ADDR" check "$SMOKE_DIR/smoke.c" --json > "$SMOKE_DIR/tcp.ndjson"
cmp "$SMOKE_DIR/local.ndjson" "$SMOKE_DIR/unix.ndjson" \
  || { echo "ci: unix-socket NDJSON differs from the local run" >&2; exit 1; }
cmp "$SMOKE_DIR/local.ndjson" "$SMOKE_DIR/tcp.ndjson" \
  || { echo "ci: TCP NDJSON differs from the local run" >&2; exit 1; }
"$PALLAS_BIN" client --tcp "$TCP_ADDR" shutdown | grep -q '"shutdown":true'
wait "$TCP_PID"
rm -f "$SOCK2"
echo "TCP transport byte-identity: ok ($TCP_ADDR)"

echo "== trace smoke (chrome export round-trip) =="
"$PALLAS_BIN" check "$SMOKE_DIR/smoke.c" --trace-out "$SMOKE_DIR/trace.json" >/dev/null
python3 - "$SMOKE_DIR/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
cats = {e["cat"] for e in events}
missing = {"unit", "stage", "paths", "checker", "rule"} - cats
assert not missing, f"missing span layers: {sorted(missing)}"
for e in events:
    assert e["ph"] in ("X", "i"), f"unexpected phase: {e}"
    assert ("dur" in e) == (e["ph"] == "X"), f"dur/phase mismatch: {e}"
print(f"trace smoke: ok ({len(events)} event(s), layers {sorted(cats)})")
EOF

echo "== fuzz smoke (fixed seed, differential oracles) =="
# Two runs with the same seed must print the same digest line; any
# panic or oracle divergence makes `pallas fuzz` exit nonzero.
FUZZ_A="$("$PALLAS_BIN" fuzz --seed 42 --iters 200)"
FUZZ_B="$("$PALLAS_BIN" fuzz --seed 42 --iters 200)"
echo "$FUZZ_A"
echo "$FUZZ_A" | grep -q "failures=0" || { echo "ci: fuzz smoke found failures" >&2; exit 1; }
[ "$FUZZ_A" = "$FUZZ_B" ] || { echo "ci: fuzz digest not deterministic: '$FUZZ_A' vs '$FUZZ_B'" >&2; exit 1; }
echo "fuzz smoke: ok"

echo "== feasibility pruning ablation =="
# The inner branch re-tests the outer guard's negation, so its Rule 1.2
# site is a textbook infeasible-path false positive: it must fire with
# --no-prune and be suppressed by the default. The bench test then
# sweeps every corpus set asserting warnings shrink-or-hold, validated
# bugs stay fixed, and the path count strictly drops somewhere. The
# fuzz smoke above already pins the pruned-run digest (pruning is the
# default) and cross-checks the prune-subset oracle each iteration.
cat > "$SMOKE_DIR/dead.c" <<'EOF'
int slow(int order);
int alloc_fast(int gfp_mask, int order) {
  if (gfp_mask == 0) {
    if (gfp_mask != 0) {
      gfp_mask = 1;
    }
    return slow(order);
  }
  return 0;
}
EOF
echo "fastpath alloc_fast; immutable gfp_mask;" > "$SMOKE_DIR/dead.pallas"
"$PALLAS_BIN" check "$SMOKE_DIR/dead.c" --no-prune | grep -q "Rule 1.2" \
  || { echo "ci: unpruned run lost the dead-branch warning" >&2; exit 1; }
if "$PALLAS_BIN" check "$SMOKE_DIR/dead.c" | grep -q "Rule 1.2"; then
  echo "ci: pruning failed to suppress the dead-branch warning" >&2; exit 1
fi
cargo test --release -q -p bench --lib pruning_is_sound_and_cuts_paths
echo "feasibility pruning: ok"

echo "== loop-summary ablation (Ablation 5) =="
# Same contradiction as dead.c, but *inside* a loop body on a
# loop-invariant variable. Blanket loop transparency
# (--no-loop-summaries, the pre-summary behavior) asserts nothing in
# loop bodies, so only the summary-aware oracle can prune the dead arm.
# The bench test then sweeps every corpus set off/on asserting the
# validated-bug findings stay byte-identical, warnings shrink-or-hold,
# and the infeasible set prunes strictly more arms with summaries on.
cat > "$SMOKE_DIR/loopdead.c" <<'EOF'
int rx_queue(int skb);
int rx_drain(int state, int budget, int n) {
  int i = 0;
  while (i < n) {
    if (state == 1) {
      if (state == 2) {
        budget = 0;
      }
    }
    i = i + 1;
  }
  return rx_queue(budget);
}
EOF
echo "fastpath rx_drain; immutable budget;" > "$SMOKE_DIR/loopdead.pallas"
"$PALLAS_BIN" check "$SMOKE_DIR/loopdead.c" --no-loop-summaries | grep -q "Rule 1.2" \
  || { echo "ci: summaries-off run lost the in-loop dead-branch warning" >&2; exit 1; }
if "$PALLAS_BIN" check "$SMOKE_DIR/loopdead.c" | grep -q "Rule 1.2"; then
  echo "ci: loop summaries failed to suppress the in-loop dead branch" >&2; exit 1
fi
"$PALLAS_BIN" check "$SMOKE_DIR/loopdead.c" --stage-stats | grep -q "loops: 1 summarized" \
  || { echo "ci: --stage-stats lost the loop-summary counters" >&2; exit 1; }
cargo test --release -q -p bench --lib loop_summaries_are_sound_and_prune_loop_contradictions
echo "loop-summary ablation: ok"

echo "== rule catalogue (--list-rules) =="
# The registry must publish at least the twelve paper rules plus the
# mined extension families (6.1/6.2/7.1).
RULE_LIST="$("$PALLAS_BIN" check --list-rules)"
RULE_COUNT="$(echo "$RULE_LIST" | grep -c '^')"
[ "$RULE_COUNT" -ge 15 ] || { echo "ci: --list-rules shows $RULE_COUNT rules, want >= 15" >&2; exit 1; }
for rule in 1.2 4.1 6.1 6.2 7.1; do
  echo "$RULE_LIST" | grep -q "^$rule " \
    || { echo "ci: --list-rules is missing rule $rule" >&2; exit 1; }
done
echo "rule catalogue: ok ($RULE_COUNT rules)"

echo "== rule selection A/B (--only-rule / --disable-rule) =="
# A unit that fires two families: 1.2 (immutable overwrite) and 7.1
# (unconditional expensive call). Disabling a rule must remove exactly
# its findings — the survivors stay byte-identical — and --only-rule
# must reproduce exactly the full run's findings for that rule.
cat > "$SMOKE_DIR/rules.c" <<'EOF'
typedef unsigned int gfp_t;
int noio(gfp_t m);
int wb_flush(int v);
int alloc_fast(gfp_t gfp_mask) {
  gfp_mask = noio(gfp_mask);
  wb_flush(0);
  return 0;
}
EOF
echo "fastpath alloc_fast; immutable gfp_mask; expensive wb_flush;" > "$SMOKE_DIR/rules.pallas"
findings() { grep '"type":"finding"' || true; }
FULL="$("$PALLAS_BIN" check "$SMOKE_DIR/rules.c" --json | findings)"
echo "$FULL" | grep -q '"rule":"1.2"' || { echo "ci: rule-selection unit lost its 1.2 finding" >&2; exit 1; }
echo "$FULL" | grep -q '"rule":"7.1"' || { echo "ci: rule-selection unit lost its 7.1 finding" >&2; exit 1; }
WITHOUT="$("$PALLAS_BIN" check "$SMOKE_DIR/rules.c" --json --disable-rule 1.2 | findings)"
[ "$WITHOUT" = "$(echo "$FULL" | grep -v '"rule":"1.2"')" ] \
  || { echo "ci: --disable-rule 1.2 did not subtract exactly the 1.2 findings" >&2; exit 1; }
ONLY="$("$PALLAS_BIN" check "$SMOKE_DIR/rules.c" --json --only-rule 7.1 | findings)"
[ "$ONLY" = "$(echo "$FULL" | grep '"rule":"7.1"')" ] \
  || { echo "ci: --only-rule 7.1 does not match the full run's 7.1 findings" >&2; exit 1; }
echo "rule selection: ok"

echo "== per-rule regression tests (all families, incl. 6.x/7.1) =="
cargo test --release -q -p pallas-checkers --test rule_regressions

echo "== golden corpus snapshots =="
# Byte-for-byte NDJSON snapshots of every corpus set; regenerate
# intentional changes with UPDATE_GOLDEN=1 (see tests/golden_corpus.rs).
cargo test -q --test golden_corpus

echo "== daemon soak (CI-length knob) =="
PALLAS_SOAK_SECS=5 cargo test -q -p pallas-service --test soak

echo "== loadgen smoke (transport matrix, coalescing, throughput floor) =="
# The 2x2 matrix (unix, tcp) x (unique, duplicate): every cell must
# hold the throughput floor with zero dropped responses, and the
# duplicate-heavy cells must actually coalesce. Release builds sustain
# >10k req/s on tiny units; 1000 req/s leaves a 10x margin for noise.
cargo build --release -q -p bench
LOADGEN="$(target/release/repro --loadgen)"
echo "$LOADGEN"
[ "$(echo "$LOADGEN" | grep -c '^cell=')" -eq 4 ] \
  || { echo "ci: loadgen did not report all 4 matrix cells" >&2; exit 1; }
echo "$LOADGEN" | awk -F'reqs_per_sec=' '/^cell=/ {split($2,a," "); if (a[1]+0 < 1000) {print "ci: throughput floor missed: " $0; exit 1}}'
echo "$LOADGEN" | awk -F'dropped=' '/^cell=/ {split($2,a," "); if (a[1]+0 != 0) {print "ci: loadgen dropped responses: " $0; exit 1}}'
echo "$LOADGEN" | awk -F'coalesced=' '/^cell=.*duplicate/ {split($2,a," "); if (a[1]+0 == 0) {print "ci: duplicate workload never coalesced: " $0; exit 1}}'
echo "loadgen smoke: ok"

echo "== persistent store (warm restart byte-identity) =="
# Two `check --store` runs into a fresh store file: the second answers
# from disk (nonzero disk hits in --stage-stats) and its NDJSON must be
# byte-identical to the cold run's. `store verify` then CRC-checks
# every record the runs wrote.
STORE_DIR="$(mktemp -d /tmp/pallas-ci-store-XXXXXX)"
trap 'rm -rf "$SMOKE_DIR" "$SOCK" "$STORE_DIR"' EXIT
STORE="$STORE_DIR/ci.store"
"$PALLAS_BIN" check "$SMOKE_DIR/smoke.c" --json --store "$STORE" > "$STORE_DIR/cold.ndjson"
"$PALLAS_BIN" check "$SMOKE_DIR/smoke.c" --json --store "$STORE" > "$STORE_DIR/warm.ndjson"
cmp "$STORE_DIR/cold.ndjson" "$STORE_DIR/warm.ndjson" \
  || { echo "ci: persistent-warm NDJSON differs from the cold run" >&2; exit 1; }
WARM_STATS="$("$PALLAS_BIN" check "$SMOKE_DIR/smoke.c" --stage-stats --store "$STORE")"
echo "$WARM_STATS" | grep -q "disk" \
  || { echo "ci: --stage-stats lost the disk cache row" >&2; exit 1; }
if echo "$WARM_STATS" | grep "disk" | grep -qE "^\s*disk\s+0\s"; then
  echo "ci: warm run reported zero store hits" >&2; exit 1
fi
"$PALLAS_BIN" store "$STORE" verify | grep -q "all record checksums verified" \
  || { echo "ci: store verify failed" >&2; exit 1; }
echo "persistent store: ok"

echo "== sym-bench regression gate (warm latency + arena footprint) =="
# `repro --sym-bench` checks the Table 1 corpus cold and warm through
# one engine and reports the hash-cons arena population. The gate pins
# three things against scripts/sym_bench_baseline.env:
#   1. warm per-unit latency within a noise multiple of the baseline
#      (a deep copy sneaking back onto the warm path trips this);
#   2. arena node / interned string counts within a tight allowance
#      (deterministic, so a lost dedup shows up exactly);
#   3. warm at least 1.5x faster per unit than cold (the headline
#      claim of the hash-consing change, kept as a standing invariant).
. scripts/sym_bench_baseline.env
SYM="$(target/release/repro --sym-bench)"
echo "$SYM"
SYM_LINE="$(echo "$SYM" | grep '^symbench ')" \
  || { echo "ci: --sym-bench lost its machine-readable line" >&2; exit 1; }
sym_field() { echo "$SYM_LINE" | tr ' ' '\n' | sed -n "s/^$1=//p"; }
SYM_COLD="$(sym_field cold_us_per_unit)"
SYM_WARM="$(sym_field warm_us_per_unit)"
SYM_NODES="$(sym_field nodes)"
SYM_STRINGS="$(sym_field strings)"
[ -n "$SYM_COLD" ] && [ -n "$SYM_WARM" ] && [ -n "$SYM_NODES" ] && [ -n "$SYM_STRINGS" ] \
  || { echo "ci: could not parse '$SYM_LINE'" >&2; exit 1; }
[ "$SYM_WARM" -le "$((BASELINE_WARM_US_PER_UNIT * MAX_WARM_MULT))" ] \
  || { echo "ci: warm per-unit time regressed: ${SYM_WARM}us > ${BASELINE_WARM_US_PER_UNIT}us * ${MAX_WARM_MULT}" >&2; exit 1; }
[ "$SYM_NODES" -le "$((BASELINE_NODES * MAX_COUNT_PCT / 100))" ] \
  || { echo "ci: arena node count regressed: ${SYM_NODES} > ${BASELINE_NODES} * ${MAX_COUNT_PCT}%" >&2; exit 1; }
[ "$SYM_STRINGS" -le "$((BASELINE_STRINGS * MAX_COUNT_PCT / 100))" ] \
  || { echo "ci: interned string count regressed: ${SYM_STRINGS} > ${BASELINE_STRINGS} * ${MAX_COUNT_PCT}%" >&2; exit 1; }
[ "$((SYM_COLD * 10))" -ge "$((SYM_WARM * MIN_SPEEDUP_X10))" ] \
  || { echo "ci: warm/cold speedup below $(($MIN_SPEEDUP_X10))x/10: cold=${SYM_COLD}us warm=${SYM_WARM}us" >&2; exit 1; }
echo "sym-bench gate: ok (cold=${SYM_COLD}us warm=${SYM_WARM}us nodes=${SYM_NODES} strings=${SYM_STRINGS})"

echo "== perfbench self-test (quick sizes, pinned digests) =="
# `perfbench --bench --quick` over all four workloads
# (perfbench/tests/quick.rs): every BENCHMARK.json metric is reported,
# no operation fails, Table 1 scores 224/155, the pinned deep_paths and
# warm_restart findings digests hold, and a wrong pinned digest fails
# the run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
echo "perfbench self-test: ok"

echo "ci: all green"
