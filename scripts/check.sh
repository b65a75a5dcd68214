#!/usr/bin/env bash
# Repo gate: formatting, lints, structural "exactly one" counts, the full
# test suite, example builds, the end-to-end benchmark's smoke run
# (benchmark/: every identity assertion at small scale), and CLI smokes
# including a serve/submit loopback collection and a queryd analysis
# loopback. No step gates on a clock: benchmark/ is the only code in the
# repository that measures time, and its smoke run here checks identity only.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== one server loop: no timeout-poll server in store, one poll-set construction =="
# (QueryClient's per-request socket timeout is client side and stays.)
! grep -rnE 'thread::sleep|set_io_timeout' crates/store/src --exclude=client.rs || exit 1
test "$(grep -rn 'PollSet::new()' crates/*/src src | grep -vc '^crates/net/src/poll.rs')" = 1

echo "== one codec: one reader, one version guard, one narrowing, one JSON escaper, handlers take structs =="
# Every payload is an `impl Codec` on cypress_trace::codec's combinators,
# read through its one reader, `Cursor` (crates/deflate's Huffman
# `Decoder` is another thing). A narrowing is `Cursor::u32`/`u16`/`fit`,
# never an `as`; a count is held to the bytes left (`Cursor::seq`/`count`),
# never to a hand-made cap. The one "absurd" text left is the deflated
# section length bound, a limit on inflation rather than a count.
! grep -rnE '(struct|enum|type|trait) Decoder\b' crates/*/src src | grep -v '^crates/deflate/' || exit 1
! grep -rnE 'uvar\(\)\? as (u32|u16)\b' crates/*/src src || exit 1
! grep -rn 'absurd' crates/*/src src | grep -v ':.*format!("absurd section raw length {n}")' || exit 1
! grep -n 'map_err(|e| bad(' crates/net/src/proto.rs || exit 1
test "$(grep -rn 'fn expect_version' crates/*/src src | wc -l)" = 1
! grep -rn 'fn check_version' crates/*/src src || exit 1
test "$(grep -rnF '"\\\""' crates/*/src src --include='*.rs' | grep -c '=>')" = 1
! grep -rn 'too_many_arguments' crates/net/src || exit 1

echo "== one way to read a CTT: one walker, no owned copy of a slab, core on the codec's combinators =="
# Replay is core's ReplayCursor over CttSource::vertex; nothing else walks a CTT by vertex kind.
! grep -rn 'as_ctt' crates src || exit 1
! grep -nE 'VertexKind::(Branch|Mpi|UserCall|Root)' crates/analysis/src/lower.rs \
  crates/analysis/src/predict.rs crates/query/src/engine.rs || exit 1
! grep -rnE 'uvar\(\)\? as (u32|usize|u16)' crates/core/src || exit 1
test "$(grep -rn 'fn render_path' crates | wc -l)" = 1

echo "== one CTT decoder, one job opener: Ctt only encodes, read_container opens a StoreJob =="
# CttSlab decodes every rank CTT a reader keeps (a collector reads a rank
# straight into its one-rank piece, `MergedCtt::from_rank`, which
# merge::tests holds to the slab's outcomes); tests/wire_sweep.rs pins its
# damage outcomes and the merged CTT's, five rows each.
! grep -rnwE 'impl Codec for Ctt|Ctt::(from_bytes|decode)|VertexData::decode' crates src tests examples || exit 1
! grep -rnwE 'LoadedJob|loaded_from_collected' crates src tests examples README.md DESIGN.md || exit 1
test "$(grep -rn 'fn read_container' crates src | wc -l)" = 1
test "$(grep -c '^    ("' tests/wire_sweep.rs)" = 10 || { echo "tests/wire_sweep.rs lost a CTT digest table"; exit 1; }

echo "== contention-free record path: no process-wide Arc in core or trace =="
# Every record is decoded, cloned and dropped through these crates on many
# threads at once; an Arc in a static or a OnceLock is one refcount, one
# cache line, that all of them write.
! grep -rnE '\bstatic\b[^=]*\bArc\b|OnceLock<[^=]*\bArc\b' crates/core/src crates/trace/src || exit 1

echo "== compile-time resolution: no name-keyed scopes, no hashed site lookups, one scope walker =="
# The interpreter indexes what minilang::resolve and cst::sitemap resolved.
! grep -nE 'HashMap<String|name\.to_owned\(\)' crates/runtime/src/interp.rs || exit 1
! grep -n 'HashMap<(PathId' crates/cst/src/sitemap.rs || exit 1
# Exactly one function opens and closes a lexical scope: resolve.rs's `scoped`.
test "$(grep -rnE 'bindings\.truncate\(|scopes\.(push|pop)\(' \
  crates/minilang/src crates/cst/src crates/runtime/src | wc -l)" = 1
grep -q 'bindings.truncate(mark)' crates/minilang/src/resolve.rs

echo "== one place where time is measured: no bench binaries, baselines or bench-only env vars =="
# crates/bench is the paper-figure harness (lib + figures/inter_one); the
# asymptotic claims the retired series carried are tests/scaling_claims.rs.
test ! -e crates/bench/benches
! grep -q '\[\[bench\]\]' crates/*/Cargo.toml || exit 1
! ls results/BENCH_*.json 2>/dev/null || exit 1
! grep -rnE 'CYPRESS_BENCH_FAST|CYPRESS_RESULTS_DIR' crates src scripts --exclude=check.sh || exit 1
test -s tests/scaling_claims.rs

echo "== no gate reads a clock: crates/bench tests hold counts, not wall-time shares =="
# figures fig16 prints the time_frac_* shares; its test asserts compares per
# event instead (a test region starts at a file's first test cfg; tests/ is all test).
! find crates/bench -name '*.rs' -print0 | sort -z \
  | xargs -0 awk 'FNR == 1 {t = FILENAME ~ /\/tests\//} /^ *#\[cfg\((.*[^a-z_])?test([^a-z_].*)?\)\]/ {t = 1}
                  t && /time_frac_/ {print FILENAME ":" FNR ": " $0}' \
  | grep . || exit 1

echo "== one probe vocabulary: metrics are statics, one guard, no probe in a per-event body =="
! grep -rnE 'cypress_obs::scope\(|OnceLock<\(?[A-Za-z_:]*(Metrics|Obs|Hists|Counter)' crates src || exit 1
test "$(grep -rn 'cypress_obs::enabled()' crates src | grep -vc '^crates/obs/')" -le 8
test "$(cat crates/obs/src/span.rs crates/obs/src/tracing.rs | grep -c '^impl Drop for')" = 1
# Per-event bodies tally into plain fields: they name no metric static and no clock.
for site in runtime/src/interp.rs:{emit,post_request} core/src/session.rs:ingest \
            core/src/compress.rs:{push,enter,exit,mpi,append}; do
  body=$(awk -v n="${site#*:}" '$0 ~ "^    (pub )?fn " n "\\(" {p=1} p {print} p && /^    }$/ {exit}' \
    "crates/${site%:*}")
  test -n "$body" && ! grep -nE 'cypress_obs|Instant|[A-Z][A-Z_]{2,}\.[a-z_]+\(' <<<"$body" \
    || { echo "no body, or a probe or a clock in it: $site"; exit 1; }
done
# The session sizes no record (the compressor counts raw bytes per record it
# opens), and an interpreter type check builds its error out of line.
body=$(awk '/^    fn ingest\(/ {p=1} p {print} p && /^    }$/ {exit}' crates/core/src/session.rs)
test -n "$body" && ! grep -n 'encoded_len' <<<"$body" || { echo "session ingest sizes records"; exit 1; }
for f in int bool req; do
  body=$(awk -v n="$f" '$0 ~ "^    fn as_" n "\\(" {p=1} p {print} p && /^    }$/ {exit}' \
    crates/runtime/src/interp.rs)
  test -n "$body" && ! grep -n 'format!' <<<"$body" || { echo "Value::as_$f formats inline"; exit 1; }
done

echo "== one ingest path: no ring, no mode switch, unsafe only in poll.rs, docs name what exists =="
test ! -e crates/runtime/src/ring.rs -a ! -e crates/runtime/src/ingest.rs
test "$(grep -rl unsafe crates/*/src src)" = crates/net/src/poll.rs
! grep -n 'cfg.mode\|match .*mode' src/pipeline.rs || exit 1
test "$(grep -rl 'Ingest::' crates src tests examples)" = src/pipeline.rs
# DESIGN §3's inventory block names exactly the directories under crates/.
diff <(ls crates) <(awk '/^## 3\./ {s = 1} s && /^  [a-z]+\/ / {sub("/", "", $1); print $1} /^## 4\./ {exit}' \
  DESIGN.md | sort) || { echo "DESIGN §3 inventory and crates/ disagree"; exit 1; }
# Every --flag on a `cypress …` line of the docs, and in usage(), is in the
# binary's FLAGS table; every table entry is in usage().
flags=$(awk '/^const FLAGS/,/^];/' src/bin/cypress.rs | grep -oE '"--?[a-z-]+"' | tr -d '"')
usage=$(awk '/^fn usage\(\)/,/^}/' src/bin/cypress.rs)
not_ours="--bin --release --example --workspace --smoke --trace --seconds --workload --seed" # cargo, benchmark/
for f in $({ grep -hE '(^|[^a-z-])cypress [a-z]' README.md DESIGN.md; echo "$usage"; } | grep -oE -- '--[a-z][a-z-]*' | sort -u); do
  grep -qwe "$f" <<<"$flags $not_ours" || { echo "docs name $f, which is not in FLAGS"; exit 1; }
done
for f in $flags; do
  grep -qe "$f\b" <<<"$usage" || { echo "FLAGS has $f, which usage() does not explain"; exit 1; }
done

echo "== knob census: settings with one value in use stay constants =="
# scripts/recount.sh's counts may only fall; the deleted modes and flags
# stay deleted (DESIGN §4c names the consumer of every surviving knob).
census=$(scripts/recount.sh)
test "$(sed -n 's/^Config\/Options pub fields: //p' <<<"$census")" -le 23 \
  || { echo "more *Config/*Options fields than the census allows"; exit 1; }
test "$(sed -n 's/^CLI flag literals: //p' <<<"$census")" -le 21 \
  || { echo "more CLI flags than the census allows"; exit 1; }
test "$(sed -n 's/^crates\/net\/src unwrap\/expect sites: //p' <<<"$census")" -le 8 \
  || { echo "more unwrap/expect sites in crates/net/src than the census allows"; exit 1; }
! grep -rnwE 'TimeMode|enum Strategy|ScalaConfig|Scala2Config' crates/*/src src || exit 1
! grep -rnwE 'RelayConfig|RelaySummary|const (SHUTDOWN|BUSY)' crates/*/src src || exit 1
! grep -rnF -e '"--strategy"' -e '"--workers"' -e '"--hotspots"' -e '"--stats-addr"' crates/*/src src || exit 1
# One listener per daemon: stats are answered on the job port; one container reader.
! grep -rnwE 'stats_addr|bind_stats|AwaitStatsReq|ContainerView' crates/*/src src || exit 1

echo "== compress once, at rest: the collection wire carries codec bytes =="
# crates/net takes only crc32 (frame checksums) from cypress-deflate;
# deflate, inflate and Level belong to the container writer and readers.
! grep -rn 'cypress_deflate' crates/net/src | grep -v ':use cypress_deflate::crc32;$' || exit 1
! grep -rnE '(^|[^a-z_])(deflate|inflate[a-z_]*)\(' crates/net/src || exit 1
! grep -rnwE 'RankCttZ|MergedBlockZ|ctt_level|get_raw_len' crates/*/src src tests || exit 1

echo "== one merge: merge_all_parallel is a shim nothing but benchmark/ calls =="
# Not the library, its tests, tests/ or the figures: benchmark/ names it
# until the benchmark changes, and the tests merge through BinomialMerger,
# whose one pass over its contiguous pieces is merge_all's vertex-by-vertex
# merge with pieces in place of ranks.
! grep -rn 'merge_all_parallel' src crates tests examples \
  | grep -v '^crates/core/src/merge.rs:[0-9]*:pub fn merge_all_parallel' \
  | grep -v '^crates/core/src/lib.rs:' || exit 1

echo "== one split: the merge starts its workers in one helper, sized by the machine =="
# merge_all, a BinomialMerger's pass and the merged encode split a job's
# slot lists across scoped workers in `split` alone; the count comes from
# the core count and the job's size, never from a setting.
threads=$(grep -rnE 'thread::(scope|spawn)' crates/core/src | wc -l)
test "$threads" -ge 1 && test "$threads" = "$(awk '/^fn split</,/^}/' crates/core/src/merge.rs \
  | grep -cE 'thread::(scope|spawn)')" || { echo "a thread started outside merge.rs's split"; exit 1; }

echo "== one merged layout: nothing outside crates/core/src reaches into a merged tree =="
# A leaf group stays in its wire form until a second rank or piece joins
# it; which form a group has is merge.rs's decision alone. Readers take
# groups decoded (fold_merged, leaf_slots, control_groups), never by
# matching a MergedVertex or indexing a merged tree's vertices.
! grep -rn 'MergedVertex' crates src tests examples benchmark/src --include='*.rs' \
  | grep -v '^crates/core/src/' || exit 1
! grep -rnE '\.vertices\b' crates src tests examples benchmark/src --include='*.rs' \
  | grep -vE '^crates/(core|cst)/src/' | grep -v 'cst\.vertices' || exit 1

echo "== merge vertex by vertex, open jobs once: deleted stays deleted =="
# merge_all runs the one per-vertex absorb, whose key tables live for one
# vertex; a rank enters a BinomialMerger as its one-rank piece (`add`
# holds `MergedCtt::one_rank`, as a collector holds a streamed rank) or in
# a run (`add_run`, a relay's one merge of its shard), and the collector
# holds every checked rank and block in either role. A BinomialMerger keeps contiguous pieces and merges them
# once, in one vertex-by-vertex pass in rank order: no buddy tree, no
# pairwise absorb, no merge on a block's arrival. inspect opens rank
# sections through StoreJob::open.
! grep -nE 'struct Index|enum Tables|absorb_rank_with' crates/core/src/merge.rs || exit 1
! grep -rnE 'absorb_rank|enum Finished|binomial_add"' crates/*/src || exit 1
! grep -rnE 'buddy_pieces|fold_block|max_depth|pending_blocks|merge_depth|MERGE_STEP_NS|binomial_depth|pub fn absorb\b' \
  crates/*/src src tests examples || exit 1
! grep -n 'fn merge_rank_sections' src/bin/cypress.rs || exit 1

echo "== a closed stdout ends the CLI quietly: no panicking print in the binary =="
# outln!/out! return the write error to main, which maps BrokenPipe.
! grep -nE '(^|[^e])print(ln)?!\(' src/bin/cypress.rs || exit 1

echo "== one copy of each path: unix only, one rank runner, one decompress-then-simulate =="
# crates/net states its one platform in a single compile_error!; nothing else forks on it.
test "$(grep -rn 'cfg(unix)\|cfg(not(unix))' crates/*/src src tests | cut -d: -f1,3)" \
  = 'crates/net/src/lib.rs:#[cfg(not(unix))]' \
  || { echo "a platform cfg fork besides crates/net's compile_error!"; exit 1; }
grep -A1 '^#\[cfg(not(unix))\]$' crates/net/src/lib.rs | grep -q '^compile_error!("cypress-net needs a unix'
! grep -rn 'fn trace_rank' crates src tests examples benchmark/src || exit 1
# Decompressed ops reach the simulator through analysis::replay_to_simop only.
! grep -rn 'SimOp {' crates/*/src src | grep -v '^crates/simmpi/src/' \
  | grep -v '^crates/analysis/src/lower.rs:' || exit 1
test "$(grep -rln 'fn to_jsonl' crates/*/src src)" = crates/obs/src/report.rs
test "$(grep -rn 'fn to_jsonl' crates/obs/src/report.rs | wc -l)" = 1

echo "== byte-identity suites present (cargo test below runs them) =="
# interp_golden and ctt_golden pin the event stream and the CTT bytes against
# committed tables; the others compare computations, transports and formats
# of one build with each other.
for suite in interp_golden ctt_golden wire_golden streaming pipeline_roundtrip \
             net_collect net_tree store_queryd query_equivalence slab_replay wire_sweep; do
  test -s "tests/$suite.rs" || { echo "missing byte-identity suite tests/$suite.rs"; exit 1; }
done
test "$(grep -c '^    ("' tests/interp_golden.rs)" -ge 14 \
  || { echo "tests/interp_golden.rs lost committed hashes"; exit 1; }
test "$(grep -c '^    ("' crates/deflate/tests/inflate_sweep.rs)" = 15 \
  || { echo "crates/deflate/tests/inflate_sweep.rs lost its digest table"; exit 1; }
test "$(grep -c '^    ("' crates/deflate/tests/ratio.rs)" = 15 \
  || { echo "crates/deflate/tests/ratio.rs lost its deflated-length table"; exit 1; }

echo "== byte path: no bit-at-a-time decode, one CRC per section on write, one block of tokens =="
! grep -n 'read_bit()' crates/deflate/src/huffman.rs || exit 1
grep -q 'chunks_exact(8)' crates/deflate/src/crc32.rs && grep -q 'OnceLock' crates/deflate/src/inflate.rs
test "$(grep -c 'Decoder::new(&fixed_' crates/deflate/src/inflate.rs)" = 1
# One Huffman block decoder (its fast part and careful part are one loop),
# and one place the output grows, which `inflate` and `inflate_exact` share.
test "$(grep -c 'fn inflate_block' crates/deflate/src/inflate.rs)" = 1
test "$(grep -c 'buf\.resize(' crates/deflate/src/inflate.rs)" = 1
# No whole-input token pass: the one token push fills a block that is
# written once it holds BLOCK_TOKENS.
test "$(grep -c 'tokens\.push(' crates/deflate/src/deflate.rs)" = 1
grep -q 'if block.tokens.len() == BLOCK_TOKENS' crates/deflate/src/deflate.rs
! awk '/^pub fn assemble/,/^}/' crates/trace/src/container.rs | grep -n 'crc32(&e.stored)' || exit 1

echo "== cargo test =="
cargo test --workspace -q

echo "== merge identity and merge comparison counts at P = 4096 (release) =="
# tests/merge_identity.rs and tests/merge_scaling.rs run at P <= 1024 in the
# suite above; their 4096 points are ignored there and run here (under a
# second each with a built release tree, ~30 s on 2 cores from a cold one).
# Ranks merge from their views: nothing lifts a rank into a one-rank tree
# first.
cargo test --release -q --test merge_identity --test merge_scaling -- --ignored
! grep -rnw 'from_ctt' crates src tests examples benchmark/src || exit 1

echo "== hostile-bytes sweeps (release) =="
# The decoders' refusals must hold with overflow checks off as well as on:
# the suite above runs these sweeps in debug only.
cargo test --release -q --test wire_sweep --test slab_replay
cargo test --release -q -p cypress-trace --test harden

echo "== allocation pins (release) =="
# A debug build's cross-checks allocate on the record path (the suite above
# counts them); a release build holds every pin at its bare count.
cargo test --release -q --test alloc_counts

echo "== examples build =="
cargo build -q --examples

echo "== benchmark smoke (benchmark/run.sh --smoke --trace) =="
# benchmark/ path-depends on this workspace and drives only public API, so
# an API deletion that breaks it — or one of its byte-identity assertions
# (replay hash, collected = local merge, daemon = in-process, push =
# push_batch) — fails here. One second per workload keeps it near 10 s.
benchmark/run.sh --smoke --trace --seconds 1 > /dev/null
python3 - benchmark/out/run-smoke-seed1-set1.json <<'PY'
import json, sys
ws = json.load(open(sys.argv[1]))["workloads"]
bad = [w for w, r in ws.items() if r["failed"] or not r["correct"] or not r["attempted"]]
assert len(ws) == 6 and not bad, f"benchmark smoke: failed or incorrect workloads {bad}"
print(f"benchmark smoke ok: {len(ws)} workloads, 0 failed operations")
PY

echo "== cypress query/inspect smoke =="
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
cat > "$smoke/stencil.mpi" <<'EOF'
fn main() {
    let r = rank();
    let s = size();
    for k in 0..20 {
        if r < s - 1 { send(r + 1, 4096, 0); }
        if r > 0 { recv(r - 1, 4096, 0); }
        allreduce(64);
    }
}
EOF
cargo run -q --bin cypress -- compress "$smoke/stencil.mpi" -n 6 -o "$smoke/stencil.cytc" \
  --per-rank
inspect_out=$(cargo run -q --bin cypress -- inspect "$smoke/stencil.cytc")
echo "$inspect_out" | grep -q "compression ratio" || { echo "inspect missing ratio"; exit 1; }
echo "$inspect_out" | grep -q "MPI events" || { echo "inspect missing event count"; exit 1; }
query_out=$(cargo run -q --bin cypress -- query "$smoke/stencil.cytc")
echo "$query_out" | grep -q "evaluated via symbolic" || { echo "query not symbolic"; exit 1; }
echo "$query_out" | grep -q "Hot spots by GID" || { echo "query missing hot spots"; exit 1; }
# A full-span window forces partial expansion and keeps every op.
expand_out=$(cargo run -q --bin cypress -- query "$smoke/stencil.cytc" \
  --window 0:18446744073709551615)
echo "$expand_out" | grep -q "evaluated via partial-expansion" \
  || { echo "forced expansion failed"; exit 1; }
echo "$inspect_out" | grep -q "crc32 checks verified" \
  || { echo "inspect missing crc coverage note"; exit 1; }

echo "== cypress tracing smoke (--trace-out / --profile / telemetry section) =="
cypress_bin=$(ls target/debug/cypress target/release/cypress 2>/dev/null | head -1)
test -n "$cypress_bin" || { cargo build -q --bin cypress; cypress_bin=target/debug/cypress; }
profile_out=$("$cypress_bin" compress "$smoke/stencil.mpi" -n 6 -o "$smoke/traced.cytc" \
  --trace-out "$smoke/run.trace.json" --profile)
echo "$profile_out" | grep -q "stage attribution" || { echo "profile table missing"; exit 1; }
test -s "$smoke/run.trace.json" || { echo "trace file never written"; exit 1; }
python3 - "$smoke/run.trace.json" <<'PY'
import collections, json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
assert evs, "empty traceEvents"
assert doc["otherData"]["droppedEvents"] == 0, "trace ring overflowed in smoke run"
by_tid = collections.defaultdict(list)
complete = 0
for e in evs:
    assert e["ph"] in ("X", "i"), f"unknown phase {e['ph']!r}"
    assert isinstance(e["name"], str) and isinstance(e["cat"], str)
    if e["ph"] == "X":
        complete += 1
        assert e["dur"] >= 0
    by_tid[e["tid"]].append(e["ts"])
assert complete > 0, "no Complete spans in a traced compress run"
for tid, ts in by_tid.items():
    assert ts == sorted(ts), f"timestamps regress within tid {tid}"
print(f"trace schema ok: {len(evs)} events, {complete} complete, {len(by_tid)} threads")
PY
# Rank rows survive (session marked ~), a longer run attributes >= 95%, --metrics moves no byte.
echo "$profile_out" | grep -Eq '^0 +interp ' && echo "$profile_out" | grep -Eq '^0 +session +~' \
  || { echo "profile lost its interp/session rank rows"; exit 1; }
sed 's/0\.\.20 /0..5000 /' "$smoke/stencil.mpi" > "$smoke/long.mpi"
"$cypress_bin" compress "$smoke/long.mpi" -n 6 -o "$smoke/long.cytc" --profile \
  | awk '/^coverage:/ {ok = $2 + 0 >= 95} END {exit !ok}' || { echo "profile coverage < 95%"; exit 1; }
"$cypress_bin" --metrics compress "$smoke/stencil.mpi" -n 6 -o "$smoke/probed.cytc" --per-rank &> /dev/null
cmp "$smoke/probed.cytc" "$smoke/stencil.cytc" || { echo "--metrics changed the container"; exit 1; }
traced_inspect=$("$cypress_bin" inspect "$smoke/traced.cytc")
echo "$traced_inspect" | grep -q "telemetry (v" \
  || { echo "inspect missing telemetry section"; exit 1; }

echo "== cypress serve/submit loopback smoke (stats polled on the job socket) =="
sock="$smoke/collector.sock"
"$cypress_bin" serve --listen "unix:$sock" --out "$smoke/net.cytc" --per-rank --timeout 60 &
serve_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
test -S "$sock" || { echo "collector socket never appeared"; exit 1; }
for r in 5 3 1 0 4; do
  "$cypress_bin" submit "$smoke/stencil.mpi" --rank "$r" -n 6 --connect "unix:$sock" \
    || { echo "submit rank $r failed"; kill "$serve_pid" 2>/dev/null; exit 1; }
done
# Poll live telemetry mid-job (5 of 6 ranks in), then finish the job.
stats_out=$("$cypress_bin" stats --connect "unix:$sock") \
  || { echo "stats endpoint unreachable"; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "$stats_out" | grep -q "5/6 ranks merged" || { echo "stats missing rank progress"; exit 1; }
echo "$stats_out" | grep -Eq "rank 0 +merged +[1-9][0-9]* events" \
  || { echo "stats missing nonzero per-client events"; exit 1; }
"$cypress_bin" stats --connect "unix:$sock" --json | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["version"] == 2 and s["ranks_done"] == 5 and s["nprocs"] == 6
assert s["clients"] and all(c["events"] > 0 for c in s["clients"])
nclients, total = len(s["clients"]), s["events_total"]
print(f"stats json ok: {nclients} clients, {total} events")
' || { echo "stats json schema failed"; kill "$serve_pid" 2>/dev/null; exit 1; }
"$cypress_bin" submit "$smoke/stencil.mpi" --rank 2 -n 6 --connect "unix:$sock" \
  || { echo "submit rank 2 failed"; kill "$serve_pid" 2>/dev/null; exit 1; }
wait "$serve_pid" || { echo "serve failed"; exit 1; }
# Collected and locally-compressed containers must replay and query alike.
diff <("$cypress_bin" decompress "$smoke/net.cytc" -r 3) \
     <("$cypress_bin" decompress "$smoke/stencil.cytc" -r 3) \
  || { echo "collected replay differs from local"; exit 1; }
diff <("$cypress_bin" query "$smoke/net.cytc" | tail -n +2) \
     <("$cypress_bin" query "$smoke/stencil.cytc" | tail -n +2) \
  || { echo "collected query differs from local"; exit 1; }
# Every rank's section makes the merged one redundant: a --per-rank container,
# local or collected, stores none (inspect derives its counts); a merged-only
# one keeps it.
for f in stencil traced net; do "$cypress_bin" inspect "$smoke/$f.cytc" --json > "$smoke/$f.json"; done
python3 - "$smoke" <<'PY' || { echo "merged-ctt section layout check failed"; exit 1; }
import json, sys
kinds = {f: [s["kind"] for s in json.load(open(f"{sys.argv[1]}/{f}.json"))["sections"]]
         for f in ("stencil", "traced", "net")}
assert "merged-ctt" not in kinds["stencil"] and "rank-ctt" in kinds["stencil"], kinds["stencil"]
assert "merged-ctt" in kinds["traced"], kinds["traced"]
assert kinds["net"] == kinds["stencil"], (kinds["net"], kinds["stencil"])
print(f"section layout ok: per-rank {kinds['stencil'][:3]}..., merged-only {kinds['traced']}")
PY

echo "== cypress serve --tree loopback smoke =="
tsock="$smoke/tree.sock"
"$cypress_bin" serve --listen "unix:$tsock" --out "$smoke/tree.cytc" --tree 2 -n 6 --timeout 60 &
tree_pid=$!
# Leaf endpoints are deterministic: relay k of a unix root P listens on P.rk.
for _ in $(seq 1 50); do [ -S "$tsock.r0" ] && [ -S "$tsock.r1" ] && break; sleep 0.1; done
{ test -S "$tsock.r0" && test -S "$tsock.r1"; } \
  || { echo "relay leaf sockets never appeared"; kill "$tree_pid" 2>/dev/null; exit 1; }
# Shards are contiguous halves: ranks 0-2 on relay 0, ranks 3-5 on relay 1.
for r in 2 0 1; do
  "$cypress_bin" submit "$smoke/stencil.mpi" --rank "$r" -n 6 --connect "unix:$tsock.r0" \
    || { echo "tree submit rank $r failed"; kill "$tree_pid" 2>/dev/null; exit 1; }
done
for r in 5 3 4; do
  "$cypress_bin" submit "$smoke/stencil.mpi" --rank "$r" -n 6 --connect "unix:$tsock.r1" \
    || { echo "tree submit rank $r failed"; kill "$tree_pid" 2>/dev/null; exit 1; }
  # A relay leaf answers stats on its client socket with its shard's progress;
  # a held rank counts, and resubmitting it is acknowledged and changes nothing.
  if [ "$r" = 3 ]; then
    "$cypress_bin" stats --connect "unix:$tsock.r1" | grep -q "2/6 ranks merged" \
      || { echo "relay leaf stats missing shard progress"; kill "$tree_pid" 2>/dev/null; exit 1; }
    "$cypress_bin" submit "$smoke/stencil.mpi" --rank 3 -n 6 --connect "unix:$tsock.r1" \
      || { echo "resubmitting held rank 3 failed"; kill "$tree_pid" 2>/dev/null; exit 1; }
    "$cypress_bin" stats --connect "unix:$tsock.r1" | grep -q "2/6 ranks merged" \
      || { echo "a resubmitted held rank moved the relay's count"; kill "$tree_pid" 2>/dev/null; exit 1; }
  fi
done
wait "$tree_pid" || { echo "serve --tree failed"; exit 1; }
# The relayed merge must answer queries identically to the flat-collected
# (and locally-compressed) container of the same run.
diff <("$cypress_bin" query "$smoke/tree.cytc" | tail -n +2) \
     <("$cypress_bin" query "$smoke/stencil.cytc" | tail -n +2) \
  || { echo "tree-collected query differs from local"; exit 1; }

echo "== cypress queryd loopback smoke =="
"$cypress_bin" queryd --listen 127.0.0.1:0 --store "$smoke" 2> "$smoke/queryd.log" &
qd_pid=$!
for _ in $(seq 1 50); do grep -q "cypress queryd serving" "$smoke/queryd.log" && break; sleep 0.1; done
grep -q "cypress queryd serving" "$smoke/queryd.log" \
  || { echo "queryd never came up"; kill "$qd_pid" 2>/dev/null; exit 1; }
qd_addr=$(sed -n 's/.* on \(.*\) (query with.*/\1/p' "$smoke/queryd.log")
test -n "$qd_addr" || { echo "could not parse queryd address"; kill "$qd_pid" 2>/dev/null; exit 1; }
# The daemon's answer must be byte-identical to local evaluation — same
# JSON, for the raw container, symbolic and expanded (full-span window).
diff <("$cypress_bin" query --connect "$qd_addr" stencil --json) \
     <("$cypress_bin" query "$smoke/stencil.cytc" --json) \
  || { echo "remote query differs from local"; kill "$qd_pid" 2>/dev/null; exit 1; }
diff <("$cypress_bin" query --connect "$qd_addr" stencil --window 0:18446744073709551615 --json) \
     <("$cypress_bin" query "$smoke/stencil.cytc" --window 0:18446744073709551615 --json) \
  || { echo "remote expand query differs from local"; kill "$qd_pid" 2>/dev/null; exit 1; }
# Compressed-domain analysis: the daemon's answers must match local
# evaluation byte-for-byte, for replay prediction and late-sender
# detection alike. Full span only — a --window can sever send/recv or
# collective pairs and is a loud SimError by design, not smoke material.
"$cypress_bin" analyze predict "$smoke/stencil.cytc" | grep -q "Replay prediction" \
  || { echo "analyze predict text render missing"; kill "$qd_pid" 2>/dev/null; exit 1; }
diff <("$cypress_bin" analyze predict --connect "$qd_addr" stencil --json) \
     <("$cypress_bin" analyze predict "$smoke/stencil.cytc" --json) \
  || { echo "remote analyze predict differs from local"; kill "$qd_pid" 2>/dev/null; exit 1; }
diff <("$cypress_bin" analyze latesender --connect "$qd_addr" stencil --json) \
     <("$cypress_bin" analyze latesender "$smoke/stencil.cytc" --json) \
  || { echo "remote analyze latesender differs from local"; kill "$qd_pid" 2>/dev/null; exit 1; }
# Cross-job diff of the locally-compressed vs collector-built container of
# the same run: every delta must be zero.
"$cypress_bin" analyze diff "$smoke/stencil.cytc" "$smoke/net.cytc" \
  | grep -q "matrix cells changed: 0" \
  || { echo "analyze diff of identical jobs shows drift"; kill "$qd_pid" 2>/dev/null; exit 1; }
# Raw-layout containers must inspect without any inflation (lazy views).
"$cypress_bin" inspect "$smoke/stencil.cytc" | grep -q "no inflation performed" \
  || { echo "raw container inspect inflated"; kill "$qd_pid" 2>/dev/null; exit 1; }
"$cypress_bin" inspect "$smoke/stencil.cytc" --json | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["version"] == 3 and d["inflations"] == 0
nsections = len(d["sections"])
assert d["crc_checks"] == nsections > 0
print(f"inspect json ok: {nsections} sections, 0 inflations")
' || { echo "inspect json schema failed"; kill "$qd_pid" 2>/dev/null; exit 1; }
kill "$qd_pid" 2>/dev/null
wait "$qd_pid" 2>/dev/null || true

echo "all checks passed"
