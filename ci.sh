#!/usr/bin/env bash
# Local CI gate: build, tests, formatting, lints. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

# Prints the address a backgrounded `edsr serve` announces on its
# "listening on ADDR ..." line in LOG, waiting up to 10 s. If the server
# never comes up, prints "LABEL: server never came up" and the log to
# stderr and fails.
wait_listening() {
    local log=$1 label=$2 addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "$label: server never came up" >&2
        cat "$log" >&2
        return 1
    fi
    printf '%s' "$addr"
}

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== cargo test -q --workspace (EDSR_THREADS=2) =="
EDSR_THREADS=2 cargo test -q --workspace

echo "== cargo test --release -q --workspace =="
# The optimised build the binaries ship: LLVM may evaluate an expression
# at compile time in one place and at run time in another, and the
# zero-alloc windows (process-global counting allocator) are sensitive to
# thread start-up, which optimisation shifts.
cargo test --release -q --workspace

echo "== bench bin smoke (BENCH_par.json + thread hand-off gate) =="
# The bench binary exits non-zero itself if any row outside the kernel
# layer (the `<product>/<implementation>` rows) runs more than 1.5x slower
# at max threads than at one thread, on any host: work below the edsr-par
# cut-off must run inline, work past it must pay for its hand-off.
# The quick benchmarks run from a temp directory, so the checked-in
# full-mode BENCH_par.json and BENCH_scenarios.json stay as they are; the
# gates below read the quick files written there.
BENCH_DIR=$(mktemp -d)
RELEASE="$PWD/target/release"
(cd "$BENCH_DIR" && EDSR_BENCH_QUICK=1 "$RELEASE/bench")
test -s "$BENCH_DIR/BENCH_par.json"

echo "== perfbench self-tests + one-unit boundary and train smokes =="
# The end-to-end benchmark (BENCHMARK.json) must keep building, pass its
# own tests, and answer correctly. One unit of a workload at seed 1 pins
# its bits: every unit line must read the given Acc/Fgt, which move with
# any change to the step's arithmetic (kernels, tape, losses), to
# selection or to replay.
perf_smoke() {
    local workload=$1 acc=$2 fgt=$3 out
    out=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)
    python3 - "$workload" "$acc" "$fgt" "$out" <<'EOF'
import json, re, sys
workload, acc, fgt, out = sys.argv[1:]
lines = out.splitlines()
doc = json.loads(lines[-1])
assert doc["correct"] is True and doc["failed"] == 0, f"perfbench {workload} smoke failed: {doc}"
units = [l for l in lines if l.startswith("unit ")]
assert units, f"perfbench {workload} smoke: no unit lines"
for line in units:
    m = re.search(r"Acc ([0-9.]+)%\s+Fgt ([0-9.]+)%", line)
    assert m and m.groups() == (acc, fgt), \
        f"perfbench {workload} smoke: seed 1 should read Acc {acc}% / Fgt {fgt}%: {line}"
print(f"perfbench smoke: {workload} run_s {doc['metrics']['run_s']['value']:.2f} s, "
      f"Acc {acc}% / Fgt {fgt}%, correct")
EOF
}
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# `boundary` stores each increment's selection and replays 64-row steps;
# `train` runs the paper-default step on cifar100-sim.
perf_smoke boundary 47.8333 0.7143
perf_smoke train 73.6667 4.9123

echo "== serve smoke (snapshot -> serve -> query -> graceful drain) =="
# Train one quick run exporting serve snapshots, serve the newest on an
# ephemeral port, hit every wire op through `edsr query`, then shut down
# and assert the drain report answered every request we sent.
rm -rf ci_serve_snaps ci_serve.log
cargo run -q --release --bin edsr -- run test edsr --epochs 1 \
    --serve-snapshot ci_serve_snaps
cargo run -q --release --bin edsr -- serve ci_serve_snaps --port 0 \
    > ci_serve.log &
SERVE_PID=$!
ADDR=$(wait_listening ci_serve.log "serve smoke") || exit 1
INPUT=$(python3 -c "print(','.join('0.25' for _ in range(16)))")
EMB=$(cargo run -q --release --bin edsr -- query "$ADDR" embed --task 0 --input "$INPUT")
QUERY=$(printf '%s' "$EMB" | tr -d '[]')
cargo run -q --release --bin edsr -- query "$ADDR" knn --k 3 --metric cosine \
    --input "$QUERY" > /dev/null
cargo run -q --release --bin edsr -- query "$ADDR" stats > /dev/null
cargo run -q --release --bin edsr -- query "$ADDR" shutdown > /dev/null
wait "$SERVE_PID"
# embed + knn + stats + shutdown = 4 accepted requests, zero lost in drain.
grep -q "^drained: 4 requests," ci_serve.log \
    || { echo "serve smoke: graceful drain lost requests"; cat ci_serve.log; exit 1; }
rm -rf ci_serve_snaps ci_serve.log

echo "== chaos smoke (wire faults + live snapshot rotation) =="
# Pass A: serve one snapshot with a seeded wire-fault plan on every
# accepted connection (delays, partial transfers, corruption, mid-frame
# disconnects) and a tightened stall cap. Retrying clients must land
# every op, and the drain report must still be printed — the server
# answered everything it accepted despite the chaos.
EDSR=./target/release/edsr
rm -rf ci_chaos_snaps ci_chaos.log ci_rotate.log
"$EDSR" run test edsr --epochs 1 --serve-snapshot ci_chaos_snaps
SNAP=$(ls ci_chaos_snaps/*.snapshot | sort | head -n 1)
"$EDSR" serve "$SNAP" --port 0 --chaos-seed 5 --serve-stall-ms 300 \
    > ci_chaos.log &
CHAOS_PID=$!
ADDR=$(wait_listening ci_chaos.log "chaos smoke") || exit 1
INPUT=$(python3 -c "print(','.join('0.25' for _ in range(16)))")
"$EDSR" query "$ADDR" embed --task 0 --input "$INPUT" \
    --retries 8 --retry-rejections > /dev/null
"$EDSR" query "$ADDR" stats --retries 8 --retry-rejections > /dev/null
# Shutdown is never retried inside the client (a lost ack may still have
# flipped the drain flag), so retry at the operator level instead.
for _ in $(seq 1 20); do
    "$EDSR" query "$ADDR" shutdown > /dev/null 2>&1 && break
    sleep 0.2
done
wait "$CHAOS_PID"
grep -q "^drained: " ci_chaos.log \
    || { echo "chaos smoke: no drain report under faults"; cat ci_chaos.log; exit 1; }

# Pass B: live rotation. Serve a directory holding only the OLDEST
# snapshot of the training run, then drop in the newest (staged copy +
# atomic rename) plus a truncated decoy that sorts even newer. The
# watcher must skip the corrupt decoy, swap to the valid snapshot, and
# report the rotation through `stats` — all under a live server.
NEWEST=$(ls ci_chaos_snaps/*.snapshot | sort | tail -n 1)
if [ "$SNAP" = "$NEWEST" ]; then
    echo "chaos smoke: need at least 2 exported snapshots"; exit 1
fi
rm -rf ci_rotate_snaps
mkdir -p ci_rotate_snaps
cp "$SNAP" ci_rotate_snaps/
"$EDSR" serve ci_rotate_snaps --port 0 --serve-rotate-ms 50 \
    > ci_rotate.log &
ROTATE_PID=$!
ADDR=$(wait_listening ci_rotate.log "chaos smoke: rotation") || exit 1
# The decoy: a truncated copy that path-sorts newest of all.
head -c 100 "$NEWEST" > ci_rotate_snaps/.staging
mv ci_rotate_snaps/.staging "ci_rotate_snaps/zzz.task9999.snapshot"
# The real newer snapshot, published with the exporter's atomicity.
cp "$NEWEST" ci_rotate_snaps/.staging
mv ci_rotate_snaps/.staging "ci_rotate_snaps/$(basename "$NEWEST")"
ROT=0
for _ in $(seq 1 100); do
    ROT=$("$EDSR" query "$ADDR" stats | sed -n 's/^rotations \([0-9]*\).*/\1/p')
    [ "${ROT:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${ROT:-0}" -ge 1 ] \
    || { echo "chaos smoke: rotation never happened"; cat ci_rotate.log; exit 1; }
"$EDSR" query "$ADDR" embed --task 0 --input "$INPUT" > /dev/null
"$EDSR" query "$ADDR" shutdown > /dev/null
wait "$ROTATE_PID"
grep -q "^drained: " ci_rotate.log \
    || { echo "chaos smoke: rotation drain lost requests"; cat ci_rotate.log; exit 1; }
grep -q " 1 rotations," ci_rotate.log \
    || { echo "chaos smoke: drain report missing the rotation"; cat ci_rotate.log; exit 1; }
rm -rf ci_chaos_snaps ci_rotate_snaps ci_chaos.log ci_rotate.log

echo "== quantized serve smoke (run --quantize -> int8 serve -> query --quantized) =="
# Train with v2 (int8) snapshot export: every export must print its
# accuracy gate. Then serve on the int8 backend and hit every wire op
# with --quantized, which pre-flights a stats round-trip per invocation
# to assert the backend — so 4 ops drain as 8 accepted requests.
rm -rf ci_quant_snaps ci_quant.log ci_quant_run.log
"$EDSR" run test edsr --epochs 1 --serve-snapshot ci_quant_snaps --quantize \
    | tee ci_quant_run.log
grep -q "quant gate:" ci_quant_run.log \
    || { echo "quant smoke: run --quantize printed no accuracy gate"; exit 1; }
"$EDSR" serve ci_quant_snaps --port 0 --quantized > ci_quant.log &
QUANT_PID=$!
ADDR=$(wait_listening ci_quant.log "quant smoke") || exit 1
grep -q "int8 backend" ci_quant.log \
    || { echo "quant smoke: server is not on the int8 backend"; cat ci_quant.log; exit 1; }
INPUT=$(python3 -c "print(','.join('0.25' for _ in range(16)))")
EMB=$("$EDSR" query "$ADDR" embed --task 0 --input "$INPUT" --quantized)
QUERY=$(printf '%s' "$EMB" | tr -d '[]')
"$EDSR" query "$ADDR" knn --k 3 --metric cosine --input "$QUERY" --quantized > /dev/null
"$EDSR" query "$ADDR" stats --quantized | grep -q "quantized 1" \
    || { echo "quant smoke: stats does not report the int8 backend"; exit 1; }
"$EDSR" query "$ADDR" shutdown --quantized > /dev/null
wait "$QUANT_PID"
grep -q "^drained: 8 requests," ci_quant.log \
    || { echo "quant smoke: graceful drain lost requests"; cat ci_quant.log; exit 1; }

echo "== mixed v1/v2 rotation smoke (f32 server hot-swaps to a v2 snapshot) =="
# Start a watcher on a directory holding only a v1 snapshot, then publish
# a v2 (quantized) snapshot that sorts newer. The watcher must hot-swap
# across format versions and the stats must flip to the int8 backend.
rm -rf ci_mixrot_v1 ci_mixrot_snaps ci_mixrot.log
"$EDSR" run test edsr --epochs 1 --serve-snapshot ci_mixrot_v1
V1SNAP=$(ls ci_mixrot_v1/*.snapshot | sort | head -n 1)
V2SNAP=$(ls ci_quant_snaps/*.snapshot | sort | tail -n 1)
mkdir -p ci_mixrot_snaps
cp "$V1SNAP" ci_mixrot_snaps/
"$EDSR" serve ci_mixrot_snaps --port 0 --serve-rotate-ms 50 \
    > ci_mixrot.log &
MIXROT_PID=$!
ADDR=$(wait_listening ci_mixrot.log "mixrot smoke") || exit 1
grep -q "f32 backend" ci_mixrot.log \
    || { echo "mixrot smoke: server did not start on the f32 backend"; cat ci_mixrot.log; exit 1; }
# Publish the v2 snapshot with the exporter's atomicity, sorting newest.
cp "$V2SNAP" ci_mixrot_snaps/.staging
mv ci_mixrot_snaps/.staging "ci_mixrot_snaps/zzz.task9998.snapshot"
QUANTED=0
for _ in $(seq 1 100); do
    QUANTED=$("$EDSR" query "$ADDR" stats | sed -n 's/.*quantized \([0-9]*\).*/\1/p')
    [ "${QUANTED:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${QUANTED:-0}" -ge 1 ] \
    || { echo "mixrot smoke: server never swapped to the v2 snapshot"; cat ci_mixrot.log; exit 1; }
# After the swap the full --quantized query path must work against what
# started life as a plain f32 server.
"$EDSR" query "$ADDR" embed --task 0 --input "$INPUT" --quantized > /dev/null
"$EDSR" query "$ADDR" shutdown > /dev/null
wait "$MIXROT_PID"
grep -q " 1 rotations," ci_mixrot.log \
    || { echo "mixrot smoke: drain report missing the rotation"; cat ci_mixrot.log; exit 1; }

# And the on-disk acceptance bound: the v2 export of the SAME run must be
# at least 3x smaller than its v1 counterpart.
V1BYTES=$(stat -c %s "$V1SNAP")
V2BYTES=$(stat -c %s "$V2SNAP")
[ "$((3 * V2BYTES))" -le "$V1BYTES" ] \
    || { echo "quant smoke: v2 snapshot ($V2BYTES B) not >=3x smaller than v1 ($V1BYTES B)"; exit 1; }
echo "quant smoke: v1 $V1BYTES B -> v2 $V2BYTES B"
rm -rf ci_quant_snaps ci_quant.log ci_quant_run.log ci_mixrot_v1 ci_mixrot_snaps ci_mixrot.log

echo "== scenarios bench smoke (BENCH_scenarios.json) =="
# Quick sweep over the full scenario zoo x method grid. The bin itself
# asserts stream/RAM identity and the two-shard residency budget per
# scenario; the JSON check pins the table shape the README documents.
(cd "$BENCH_DIR" && EDSR_BENCH_QUICK=1 "$RELEASE/scenarios")
test -s "$BENCH_DIR/BENCH_scenarios.json"
python3 - "$BENCH_DIR/BENCH_scenarios.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
scenarios = doc["scenarios"]
assert len(scenarios) >= 4, f"only {len(scenarios)} scenarios"
for s in scenarios:
    methods = {m["method"] for m in s["methods"]}
    assert len(methods) >= 4, f"{s['scenario']}: only {sorted(methods)}"
    for required in ("CompEmb", "R2R"):
        assert required in methods, f"{s['scenario']}: missing {required}"
    assert s["stream_identical"] is True, f"{s['scenario']}: stream diverged"
    assert s["resident_peak"] <= 2, f"{s['scenario']}: {s['resident_peak']} resident"
    for m in s["methods"]:
        assert 0.0 <= m["acc_mean"] <= 100.0, f"bad acc: {m}"
print(f"scenarios smoke: {len(scenarios)} scenarios x "
      f"{len(scenarios[0]['methods'])} methods, all streams bit-identical")
EOF

echo "== scenario shard round-trip (out-of-core cmp gate) =="
# Two zoo scenarios trained twice each — once in RAM, once streamed from
# an EDSRDS01 shard directory — must produce byte-identical checkpoints.
for SCN in blurry long-tail; do
    rm -rf ci_scn_shards ci_scn_ram.ckpt ci_scn_stream.ckpt
    "$EDSR" scenario write "$SCN" ci_scn_shards --seed 11 > /dev/null
    "$EDSR" scenario run "$SCN" lump --epochs 2 --save ci_scn_ram.ckpt > /dev/null
    "$EDSR" scenario run "$SCN" lump --epochs 2 --stream ci_scn_shards \
        --save ci_scn_stream.ckpt > /dev/null
    cmp ci_scn_ram.ckpt ci_scn_stream.ckpt \
        || { echo "scenario gate: $SCN streamed checkpoint differs from in-RAM"; exit 1; }
    echo "scenario gate: $SCN streamed == in-RAM"
done
rm -rf ci_scn_shards ci_scn_ram.ckpt ci_scn_stream.ckpt

echo "== registry smoke (edsr tabular lin) =="
# Lin et al. is an EDSR configuration in the method registry. Its distance
# replay draws one memory group per source increment, so it must finish
# the five-adapter tabular stream.
LIN_OUT=$("$EDSR" tabular lin --epochs 1)
grep -q "^Lin on tabular-sim: Acc" <<< "$LIN_OUT" \
    || { echo "registry smoke: no Lin result line"; echo "$LIN_OUT"; exit 1; }
echo "registry smoke: $LIN_OUT"

echo "== observability smoke (EDSR_OBS=jsonl) =="
# A short EDSR training run streaming metrics: the file must be non-empty,
# every line valid JSON in the stable field order, and the paper-level
# metrics (per-term losses, selection entropy) must be present. `edsr
# metrics`, run under the same knobs, must count the same events and leave
# the file as it was: it only reads.
rm -f ci_metrics.jsonl ci_metrics.before
EDSR_OBS=jsonl EDSR_OBS_PATH=ci_metrics.jsonl \
    cargo run -q --release --bin edsr -- run test edsr --epochs 2
test -s ci_metrics.jsonl
OBS_SUMMARY=$(python3 - <<'EOF'
import json

names = set()
with open("ci_metrics.jsonl") as f:
    for n, line in enumerate(f, 1):
        if not line.strip():
            continue
        event = json.loads(line)  # raises on a malformed line
        assert list(event) == ["seq", "kind", "name", "index", "value"], \
            f"line {n}: unstable field order {list(event)}"
        names.add(event["name"])
for required in ("loss/css", "loss/dis", "loss/rpl", "select/entropy"):
    assert required in names, f"missing {required}, saw {sorted(names)}"
print(f"obs smoke: {n} events, {len(names)} distinct metrics")
EOF
)
echo "$OBS_SUMMARY"
EVENTS=$(sed -n 's/^obs smoke: \([0-9]*\) events.*/\1/p' <<< "$OBS_SUMMARY")
cp ci_metrics.jsonl ci_metrics.before
METRICS_OUT=$(EDSR_OBS=jsonl EDSR_OBS_PATH=ci_metrics.jsonl \
    cargo run -q --release --bin edsr -- metrics ci_metrics.jsonl)
grep -qx "$EVENTS events in ci_metrics.jsonl" <<< "$METRICS_OUT" \
    || { echo "obs smoke: edsr metrics did not count $EVENTS events"; echo "$METRICS_OUT" | tail -n 3; exit 1; }
cmp ci_metrics.jsonl ci_metrics.before \
    || { echo "obs smoke: edsr metrics changed the file it read"; exit 1; }
rm -f ci_metrics.jsonl ci_metrics.before

echo "== flag grammar smoke (an undeclared flag exits 2) =="
# Every binary declares the flags it reads: any other flag is an `error:`
# line naming it and exit 2, before any work. The bench binary runs from
# an empty directory and must leave no results/ there.
grammar_probe() {
    local label=$1 status=0 err
    shift
    err=$("$@" 2>&1 > /dev/null) || status=$?
    { [ "$status" -eq 2 ] && grep -q "^error: .*--bogus" <<< "$err"; } \
        || { echo "flag grammar smoke: $label exited $status: $err"; exit 1; }
    echo "flag grammar smoke: $label -> $err"
}
grammar_probe "edsr run" "$EDSR" run test edsr --epochs 1 --bogus 1
GRAMMAR_DIR=$(mktemp -d)
(cd "$GRAMMAR_DIR" && grammar_probe table5 env EDSR_BENCH_QUICK=1 "$RELEASE/table5" --bogus)
[ ! -e "$GRAMMAR_DIR/results" ] \
    || { echo "flag grammar smoke: table5 wrote results/"; exit 1; }
rm -rf "$GRAMMAR_DIR"

echo "== experiment binary obs smoke (table7, EDSR_OBS=jsonl) =="
# Experiment binaries take the same process knobs as the CLI
# (edsr_bench::start): a quick table7 must stream its runs to JSONL and
# flush the file before exiting, so the last line is the final `run` span
# exit (without the flush the buffered tail of the file is lost). It runs
# from a temp directory so the checked-in results/table7.txt is not
# overwritten.
EXP_DIR=$(mktemp -d)
TABLE7="$PWD/target/release/table7"
(cd "$EXP_DIR" && EDSR_BENCH_QUICK=1 EDSR_OBS=jsonl EDSR_OBS_PATH=table7.jsonl \
    "$TABLE7" > /dev/null)
python3 - "$EXP_DIR/table7.jsonl" <<'EOF'
import json, sys

exits = {}
with open(sys.argv[1]) as f:
    events = [json.loads(line) for line in f if line.strip()]  # raises on a malformed line
for event in events:
    if event["kind"] == "exit":
        exits[event["name"]] = exits.get(event["name"], 0) + 1
for span in ("run", "task", "multitask"):
    assert exits.get(span, 0) > 0, f"table7 obs smoke: no {span} span exits, saw {exits}"
assert [e["seq"] for e in events] == list(range(len(events))), "table7 obs smoke: events missing"
last = events[-1]
assert (last["kind"], last["name"]) == ("exit", "run"), f"table7 obs smoke: file ends with {last}"
print(f"table7 obs smoke: {exits['run']} run, {exits['task']} task and "
      f"{exits['multitask']} multitask span exits")
EOF
rm -rf "$EXP_DIR"

echo "== table7 seed fan-out parity (EDSR_SEEDS=2 at EDSR_THREADS=1 and 2) =="
# Every experiment fans its seeds out through edsr_bench::sweep, and each
# seed is self-contained, so a report must not depend on how the seeds
# are spread over the pool: the 2-seed table7 report (4 methods x 2 seeds)
# must be identical at 1 and 2 threads once the wall-time line is masked.
# It runs from a temp directory so results/table7.txt is not overwritten.
PARITY_DIR=$(mktemp -d)
for T in 1 2; do
    mkdir -p "$PARITY_DIR/t$T"
    (cd "$PARITY_DIR/t$T" && EDSR_SEEDS=2 EDSR_THREADS=$T "$TABLE7" > /dev/null)
    sed 's/^\[completed in .*\]$/[completed in -]/' "$PARITY_DIR/t$T/results/table7.txt" \
        > "$PARITY_DIR/t$T.txt"
done
grep -q "^2 seeds;" "$PARITY_DIR/t1.txt" \
    || { echo "table7 parity: the report did not run 2 seeds"; cat "$PARITY_DIR/t1.txt"; exit 1; }
diff "$PARITY_DIR/t1.txt" "$PARITY_DIR/t2.txt" \
    || { echo "table7 parity: report differs between 1 and 2 threads"; exit 1; }
echo "table7 parity: the 2-seed report is identical at 1 and 2 threads"
rm -rf "$PARITY_DIR"

echo "== bench regression gate (vs BENCH_baseline.json) =="
# Quick-mode matmul / conv_forward 1-thread medians must stay within 2x of
# the checked-in baseline. Catches large kernel regressions (a dropped
# fast path, an accidental debug build of the hot loop) while tolerating
# host-to-host noise. Regenerate the baseline by copying a quick run's
# BENCH_par.json (as written in $BENCH_DIR above) to BENCH_baseline.json.
# Within the quick BENCH_par.json, the 22-row epoch-tail product
# (train_matmul_tail) must not take longer than the full 64-row batch
# (train_matmul) at one thread: a slower tail means edge tiles fell off
# the register tile.
python3 - "$BENCH_DIR/BENCH_par.json" <<'EOF'
import json, sys

def one_thread_ns(path):
    with open(path) as f:
        doc = json.load(f)
    return {r["op"]: r["ns_per_iter"] for r in doc["records"] if r["threads"] == 1}

baseline = one_thread_ns("BENCH_baseline.json")
current = one_thread_ns(sys.argv[1])
failed = False
for op in ("conv_forward", "matmul"):
    base = baseline[op]
    now = current.get(op)
    if now is None:
        print(f"bench gate: {op} missing from BENCH_par.json")
        failed = True
        continue
    ratio = now / base if base > 0 else float("inf")
    status = "FAIL" if ratio > 2.0 else "ok"
    print(f"bench gate: {op:<14} {now:>12.0f} ns vs baseline {base:>12.0f} ns "
          f"({ratio:.2f}x) {status}")
    failed |= ratio > 2.0
tail, full = current["train_matmul_tail"], current["train_matmul"]
status = "FAIL" if tail > full else "ok"
print(f"bench gate: train_matmul_tail {tail:>8.0f} ns vs train_matmul {full:>8.0f} ns "
      f"({tail / full:.2f}x) {status}")
failed |= tail > full
sys.exit(1 if failed else 0)
EOF
rm -rf "$BENCH_DIR"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "CI gate passed."
