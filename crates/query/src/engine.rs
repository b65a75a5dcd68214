//! Query evaluation: symbolic folds, partial expansion, and the
//! decompress-then-analyze reference oracle.

use crate::accum::Accum;
use crate::{QueryError, QueryOptions, QueryResult, StrategyUsed, Window};
use cypress_core::{
    decompress, decompress_into, fold_merged, replay_to_records, CttFold, CttSource, LeafRecord,
    MergedCtt, RankScope, ReplayClock, SeqRef,
};
use cypress_cst::tree::VertexKind;
use cypress_cst::Cst;
use cypress_obs::{Counter, Histogram, TIME_BOUNDS_NS};
use cypress_trace::raw::RawTrace;
use cypress_trace::{CommMatrix, Event, MpiOp, Profile};

// Scope `query`.
/// Queries evaluated (any strategy).
static RUNS: Counter = Counter::new("query", "runs");
/// Merged leaf records folded symbolically.
static SYMBOLIC_RECORDS: Counter = Counter::new("query", "symbolic_records");
/// Events streamed through partial expansion.
static EXPANDED_EVENTS: Counter = Counter::new("query", "expanded_events");
/// Unwindowed queries that fell back to partial expansion (recursion).
static FALLBACKS: Counter = Counter::new("query", "fallbacks");
/// Wall time per query.
static QUERY_NS: Histogram = Histogram::new("query", "query_ns", &TIME_BOUNDS_NS);

/// Does this program require partial expansion for replay-exact results?
/// True iff the CST contains a recursion pseudo-loop — the one construct
/// whose replay is multiset- rather than sequence-exact, so stored record
/// counts and replayed occurrence counts may be attributed differently.
pub fn needs_expansion(cst: &Cst) -> bool {
    cst.vertices
        .iter()
        .any(|v| matches!(v.kind, VertexKind::Loop { pseudo: true, .. }))
}

/// The evaluation path the input calls for: symbolic when exact, partial
/// expansion for a window or a CST with recursion pseudo-loops.
fn resolve_strategy(cst: &Cst, window: Option<Window>) -> StrategyUsed {
    if window.is_some() {
        // Timestamps only exist on the replay clock; a window can never be
        // evaluated symbolically.
        return StrategyUsed::PartialExpansion;
    }
    if needs_expansion(cst) {
        FALLBACKS.inc();
        StrategyUsed::PartialExpansion
    } else {
        StrategyUsed::Symbolic
    }
}

/// World size of a per-rank CTT set (must agree across ranks).
fn world_size<S: CttSource>(ctts: &[S]) -> Result<u32, QueryError> {
    let first = ctts
        .first()
        .ok_or_else(|| QueryError::Invalid("no CTTs to query".into()))?
        .nprocs();
    for c in ctts {
        if c.nprocs() != first {
            return Err(QueryError::Invalid(format!(
                "CTTs disagree on world size: {} vs {}",
                first,
                c.nprocs()
            )));
        }
    }
    Ok(first)
}

fn check_shape(cst: &Cst, data_len: usize) -> Result<(), QueryError> {
    if data_len != cst.len() {
        return Err(QueryError::Invalid(format!(
            "CTT has {} vertices but CST has {}",
            data_len,
            cst.len()
        )));
    }
    Ok(())
}

/// Symbolic evaluation: one [`Accum::add`] per (member rank, leaf record),
/// `times = record.count` — never proportional to loop trips or events.
struct SymbolicFold<'a> {
    acc: &'a mut Accum,
    records: u64,
}

impl CttFold for SymbolicFold<'_> {
    fn on_record(&mut self, gid: u32, _slot: usize, ranks: RankScope, rec: &LeafRecord) {
        self.records += 1;
        let dur = rec.time.mean().round() as u64;
        let p = &rec.params;
        for r in ranks.iter() {
            let dest = p.dest.resolve(r as i64);
            self.acc
                .add(r, gid, p.op, dest, p.count, p.rcount, dur, rec.count);
        }
    }
}

/// Closed-form total loop trips: Σ over loop groups of `counts.sum() × |ranks|`.
struct TripsFold {
    trips: u64,
}

impl CttFold for TripsFold {
    const RECORDS: bool = false;

    fn on_loop(&mut self, _gid: u32, ranks: RankScope, counts: SeqRef<'_>) {
        self.trips += counts.sum().max(0) as u64 * ranks.len();
    }
    fn on_record(&mut self, _gid: u32, _slot: usize, _ranks: RankScope, _rec: &LeafRecord) {}
}

/// Query a set of per-rank CTTs directly in the compressed domain.
///
/// Generic over [`CttSource`], so owned [`Ctt`]s and the trace store's
/// pooled `CttSlab`s evaluate through exactly the same folds in the same
/// order — results are identical (bit for bit) for identical tree contents.
pub fn query_ctts<S: CttSource>(
    cst: &Cst,
    ctts: &[S],
    opts: &QueryOptions,
) -> Result<QueryResult, QueryError> {
    let _span = QUERY_NS.span("query", "query_ctts");
    let nprocs = world_size(ctts)?;
    for c in ctts {
        check_shape(cst, c.vertex_count())?;
    }
    let used = resolve_strategy(cst, opts.window);
    let mut acc = Accum::new(nprocs, cst.len());
    let mut trips = TripsFold { trips: 0 };
    for ctt in ctts {
        acc.set_app_time(ctt.rank(), ctt.app_time());
        ctt.fold(&mut trips);
    }
    match used {
        StrategyUsed::Symbolic => {
            let mut f = SymbolicFold {
                acc: &mut acc,
                records: 0,
            };
            for ctt in ctts {
                ctt.fold(&mut f);
            }
            note_run(f.records, 0);
        }
        _ => {
            let mut events = 0u64;
            for ctt in ctts {
                let rank = ctt.rank();
                expand_into(cst, ctt, opts.window, |op| {
                    acc.add_replay(rank, op);
                    events += 1;
                });
            }
            note_run(0, events);
        }
    }
    Ok(acc.finish(cst, used, trips.trips))
}

/// Query a whole job's merged CTT directly in the compressed domain. Each
/// rank group is expanded symbolically — relative encodings resolve per
/// member rank — without materializing per-rank trees (partial expansion,
/// when selected, extracts them one at a time).
pub fn query_merged(
    cst: &Cst,
    merged: &MergedCtt,
    opts: &QueryOptions,
) -> Result<QueryResult, QueryError> {
    let _span = QUERY_NS.span("query", "query_merged");
    check_shape(cst, merged.vertex_count())?;
    let nprocs = merged.nprocs;
    let used = resolve_strategy(cst, opts.window);
    let mut acc = Accum::new(nprocs, cst.len());
    let app_times = merged.app_times.to_vec();
    for r in 0..nprocs {
        let t = app_times.get(r as usize).copied().unwrap_or(0).max(0) as u64;
        acc.set_app_time(r, t);
    }
    let mut trips = TripsFold { trips: 0 };
    fold_merged(merged, &mut trips);
    match used {
        StrategyUsed::Symbolic => {
            let mut f = SymbolicFold {
                acc: &mut acc,
                records: 0,
            };
            fold_merged(merged, &mut f);
            note_run(f.records, 0);
        }
        _ => {
            let mut events = 0u64;
            for rank in 0..nprocs {
                let ctt = merged.extract_rank(rank, cst);
                expand_into(cst, &ctt, opts.window, |op| {
                    acc.add_replay(rank, op);
                    events += 1;
                });
            }
            note_run(0, events);
        }
    }
    Ok(acc.finish(cst, used, trips.trips))
}

/// Do `ranks` name every rank `0..nprocs` exactly once? The one
/// completeness rule: a reader that finds it true answers from the rank
/// trees alone, and a writer that finds it true stores no merged tree.
pub fn has_complete_rank_set(nprocs: u32, ranks: impl IntoIterator<Item = u32>) -> bool {
    let mut ranks: Vec<u32> = ranks.into_iter().collect();
    ranks.sort_unstable();
    nprocs > 0
        && u32::try_from(ranks.len()) == Ok(nprocs)
        && ranks.iter().zip(0..).all(|(&r, i)| r == i)
}

/// Stream-decompress one rank into `sink`, optionally restricted to ops
/// whose start time on the [`ReplayClock`] falls inside `window`.
fn expand_into<S: CttSource>(
    cst: &Cst,
    ctt: &S,
    window: Option<Window>,
    mut sink: impl FnMut(&cypress_core::ReplayOp),
) {
    let mut clock = ReplayClock::default();
    decompress_into(cst, ctt, |op| {
        let t_start = clock.start(&op);
        if window.is_none_or(|w| w.contains(t_start)) {
            sink(&op);
        }
    });
}

fn note_run(symbolic_records: u64, expanded_events: u64) {
    RUNS.inc();
    SYMBOLIC_RECORDS.add(symbolic_records);
    EXPANDED_EVENTS.add(expanded_events);
}

/// The reference oracle: fully decompress every rank to a materialized
/// record stream, then run the classic O(events) analyses over it. Matrix
/// and profile go through the production iterator-based builders; per-rank
/// totals and GID attribution are recomputed here from the replayed ops so
/// the oracle's arithmetic is independent of [`Accum`].
pub fn query_by_decompression<S: CttSource>(
    cst: &Cst,
    ctts: &[S],
) -> Result<QueryResult, QueryError> {
    query_by_decompression_windowed(cst, ctts, None)
}

/// The windowed reference oracle: decompress, reconstruct the replay clock,
/// drop every op starting outside `window`, then run the classic analyses
/// over what remains.
pub fn query_by_decompression_windowed<S: CttSource>(
    cst: &Cst,
    ctts: &[S],
    window: Option<Window>,
) -> Result<QueryResult, QueryError> {
    let nprocs = world_size(ctts)?;
    for c in ctts {
        check_shape(cst, c.vertex_count())?;
    }
    let mut matrix = CommMatrix::new(nprocs as usize);
    let mut profile = Profile::new(nprocs as usize);
    let mut totals = vec![crate::RankTotals::default(); nprocs as usize];
    let mut gid_calls = vec![0u64; cst.len()];
    let mut gid_bytes = vec![0u64; cst.len()];
    let mut trips = TripsFold { trips: 0 };
    for ctt in ctts {
        ctt.fold(&mut trips);
        let rank = ctt.rank() as usize;
        let mut ops = decompress(cst, ctt);
        let mut records = replay_to_records(&ops);
        if let Some(w) = window {
            let keep: Vec<bool> = records.iter().map(|r| w.contains(r.t_start)).collect();
            let mut it = keep.iter();
            ops.retain(|_| *it.next().unwrap());
            let mut it = keep.iter();
            records.retain(|_| *it.next().unwrap());
        }
        let mut raw = RawTrace::new(ctt.rank(), nprocs);
        raw.app_time = ctt.app_time();
        raw.events = records.into_iter().map(Event::Mpi).collect();
        matrix.add_rank_events(rank, raw.mpi_records());
        profile.set_app_time(rank, raw.app_time);
        profile.add_rank_events(rank, raw.mpi_records());
        for op in &ops {
            if let Some(t) = totals.get_mut(rank) {
                t.calls += 1;
                if op.op.is_send_like() {
                    t.send_bytes += op.params.count.max(0) as u64;
                }
                if op.op.is_recv_like() {
                    let posted = if op.op == MpiOp::Sendrecv {
                        op.params.rcount
                    } else {
                        op.params.count
                    };
                    t.recv_bytes += posted.max(0) as u64;
                }
            }
            let gid = op.gid as usize;
            if gid < gid_calls.len() {
                gid_calls[gid] += 1;
                if op.op.is_send_like()
                    && op.params.dest >= 0
                    && (op.params.dest as usize) < nprocs as usize
                {
                    gid_bytes[gid] += op.params.count.max(0) as u64;
                }
            }
        }
    }
    let mut hotspots: Vec<crate::HotSpot> = gid_calls
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(gid, &c)| crate::HotSpot::new(cst, gid as u32, c, gid_bytes[gid]))
        .collect();
    hotspots.sort_by(|a, b| {
        b.bytes
            .cmp(&a.bytes)
            .then(b.calls.cmp(&a.calls))
            .then(a.gid.cmp(&b.gid))
    });
    Ok(QueryResult {
        nprocs,
        strategy: StrategyUsed::Reference,
        matrix,
        profile,
        totals,
        hotspots,
        loop_trips: trips.trips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_core::{compress_trace, merge_all, CompressConfig, Ctt, VertexData};
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};

    fn compile(src: &str, nprocs: u32) -> (Cst, Vec<Ctt>) {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        let ctts = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        (info.cst, ctts)
    }

    const STENCIL: &str = r#"fn main() {
        for it in 0..30 {
            if rank() > 0 { send(rank() - 1, 2048, 0); }
            if rank() < size() - 1 {
                let h = irecv(any_source(), 2048, 0);
                waitall(h);
            }
            if it % 5 == 0 { allreduce(16); }
        }
        barrier();
    }"#;

    fn assert_equivalent(got: &QueryResult, want: &QueryResult) {
        assert_eq!(got.matrix, want.matrix);
        assert_eq!(got.profile, want.profile);
        assert_eq!(got.totals, want.totals);
        assert_eq!(got.hotspots, want.hotspots);
        assert_eq!(got.loop_trips, want.loop_trips);
        assert_eq!(got.nprocs, want.nprocs);
    }

    #[test]
    fn symbolic_equals_reference_per_rank() {
        let (cst, ctts) = compile(STENCIL, 5);
        let sym = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
        assert_eq!(sym.strategy, StrategyUsed::Symbolic);
        let reference = query_by_decompression(&cst, &ctts).unwrap();
        assert_equivalent(&sym, &reference);
        assert!(sym.total_volume() > 0);
        assert_eq!(sym.hotspot_volume(), sym.total_volume());
    }

    #[test]
    fn merged_symbolic_equals_reference() {
        let (cst, ctts) = compile(STENCIL, 6);
        let merged = merge_all(&ctts);
        let sym = query_merged(&cst, &merged, &QueryOptions::default()).unwrap();
        // Reference over the extracted per-rank views: timing in the merged
        // tree is group-aggregated, so the oracle must see the same data.
        let extracted: Vec<Ctt> = (0..6).map(|r| merged.extract_rank(r, &cst)).collect();
        let reference = query_by_decompression(&cst, &extracted).unwrap();
        assert_equivalent(&sym, &reference);
    }

    /// A window over all of time: the engine expands, and nothing is cut.
    fn full_span() -> QueryOptions {
        QueryOptions {
            window: Some(Window {
                start_ns: 0,
                end_ns: u64::MAX,
            }),
        }
    }

    #[test]
    fn partial_expansion_equals_symbolic() {
        let (cst, ctts) = compile(STENCIL, 4);
        let sym = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
        assert_eq!(sym.strategy, StrategyUsed::Symbolic);
        let exp = query_ctts(&cst, &ctts, &full_span()).unwrap();
        assert_eq!(exp.strategy, StrategyUsed::PartialExpansion);
        assert_equivalent(&sym, &exp);
    }

    /// One leaf record claiming 2^62 sends of 2^40 bytes each: its volume
    /// and time products saturate instead of overflowing (a panic in a
    /// debug-built queryd handler, a silent wrap in release).
    #[test]
    fn huge_record_counts_saturate_the_symbolic_fold() {
        let (cst, mut ctts) = compile("fn main() { send((rank() + 1) % size(), 8, 0); }", 2);
        for ctt in &mut ctts {
            for data in &mut ctt.data {
                if let VertexData::Leaf { records } = data {
                    for r in records.iter_mut() {
                        r.count = 1 << 62;
                        r.params.count = 1 << 40;
                    }
                }
            }
        }
        let q = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
        assert_eq!(q.strategy, StrategyUsed::Symbolic);
        assert_eq!(q.matrix.get(0, 1), u64::MAX);
        assert_eq!(q.totals[0].send_bytes, u64::MAX);
        assert_eq!(q.total_volume(), u64::MAX);
        assert_eq!(q.hotspot_volume(), u64::MAX);
        assert_eq!(q.total_calls(), 1 << 63);
        assert_eq!(q.profile.rank_mpi_time[0], u64::MAX);
        assert!(q.render(5).contains("MPI_Send"));
    }

    #[test]
    fn recursion_falls_back_and_matches_reference() {
        let (cst, ctts) = compile(
            r#"
            fn updown(n) {
                if n > 0 {
                    send((rank() + 1) % size(), 128, 0);
                    updown(n - 1);
                    recv((rank() + size() - 1) % size(), 128, 0);
                }
            }
            fn main() { updown(7); }
            "#,
            3,
        );
        assert!(needs_expansion(&cst));
        let auto = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
        assert_eq!(auto.strategy, StrategyUsed::PartialExpansion);
        let reference = query_by_decompression(&cst, &ctts).unwrap();
        assert_equivalent(&auto, &reference);
    }

    #[test]
    fn render_mentions_hotspots_and_ranks() {
        let (cst, ctts) = compile(STENCIL, 4);
        let q = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
        let text = q.render(5);
        assert!(text.contains("Hot spots by GID"));
        assert!(text.contains("Per-rank totals"));
        assert!(text.contains("MPI_Send"));
        assert!(text.contains("Loop#"));
    }

    #[test]
    fn windowed_query_matches_windowed_oracle_and_restricts() {
        let (cst, ctts) = compile(STENCIL, 4);
        let full = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
        // Find a midpoint that actually splits the op stream.
        let span: u64 = ctts.iter().map(|c| c.app_time).max().unwrap();
        let w = Window {
            start_ns: 0,
            end_ns: span / 2,
        };
        let opts = QueryOptions { window: Some(w) };
        let got = query_ctts(&cst, &ctts, &opts).unwrap();
        assert_eq!(got.strategy, StrategyUsed::PartialExpansion);
        let oracle = query_by_decompression_windowed(&cst, &ctts, Some(w)).unwrap();
        assert_eq!(got.matrix, oracle.matrix);
        assert_eq!(got.profile, oracle.profile);
        assert_eq!(got.totals, oracle.totals);
        assert_eq!(got.hotspots, oracle.hotspots);
        assert!(got.total_calls() < full.total_calls());
        assert!(got.total_calls() > 0);
        // Full-span window equals the unwindowed expansion result.
        let all = query_ctts(&cst, &ctts, &full_span()).unwrap();
        assert_eq!(all.matrix, full.matrix);
        assert_eq!(all.profile, full.profile);
        assert_eq!(all.totals, full.totals);
    }

    #[test]
    fn empty_input_is_an_error() {
        let (cst, _) = compile("fn main() { barrier(); }", 1);
        assert!(matches!(
            query_ctts::<Ctt>(&cst, &[], &QueryOptions::default()),
            Err(QueryError::Invalid(_))
        ));
    }
}
