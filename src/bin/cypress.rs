//! `cypress` — command-line driver for the trace-compression pipeline.
//!
//! ```text
//! cypress cst <prog.mpi>                      print the communication structure tree
//! cypress trace <prog.mpi> -n P -o DIR        write per-rank raw traces
//! cypress compress <prog.mpi> -n P -o FILE    compress online, merge, write a .cytc
//!   --per-rank                                also store each rank's CTT section
//!   --level fast|default|best                 DEFLATE container sections
//!   --threads N                               parallel section encoding workers
//! cypress decompress FILE [-r R]              replay rank R (default 0) of a .cytc
//! cypress inspect FILE [--json]               container header, sections, CRCs,
//!                                             per-section sizes + compression ratio
//!                                             (lazy view: raw sections are never
//!                                             copied, nothing is inflated up front)
//! cypress query FILE                          compressed-domain analysis of a .cytc
//!   [--limit N] [--window S:E] [--json]
//! cypress query --connect ADDR JOB            same analysis served by a queryd
//!                                             daemon (byte-identical to local)
//! cypress analyze predict FILE                CTT-native LogGP replay prediction
//!   [--window S:E] [--json]                   (no decompression of steady loops)
//! cypress analyze latesender FILE             wait-state detection: per-rank wait
//!   [--limit N] [--window S:E] [--json]       time + top offending call paths
//! cypress analyze diff FILE_A FILE_B          cross-job comparison: comm matrix,
//!   [--window S:E] [--json]                   profile and prediction deltas
//! cypress analyze ... --connect ADDR JOB...   any of the above served by queryd
//! cypress queryd --listen ADDR --store DIR    resident query daemon: LRU cache of
//!   [--max-jobs N] [--max-bytes B]            open containers, serves QueryRequest
//!                                             frames until killed
//! cypress stats <prog.mpi> -n P               op histogram + communication matrix
//! cypress stats --connect ADDR [--json]       poll a collector's live telemetry
//! cypress simulate <prog.mpi> -n P            measured vs predicted LogGP times
//! cypress serve --listen ADDR --out FILE      collector daemon: accept rank
//!   [--per-rank] [--timeout S]                submissions, merge incrementally,
//!                                             write a .cytc container; answers
//!                                             `stats --connect` on the same address
//! cypress submit <prog.mpi> --rank R -n P     run one rank and stream its trace
//!   --connect ADDR [--mode stream|ctt]        to a collector (with retry/backoff)
//! ```
//!
//! Program files contain MiniMPI source (see `cypress-minilang`). All
//! commands report failures through [`cypress::Error`] — no panics on bad
//! input files.

use cypress::analysis::{analyze_by_decompression, AnalyzeOptions, DiffReport, JobSummary};
use cypress::core::{
    compress_trace, merge_all, CompressConfig, CompressSession, Ctt, MergedCtt, SessionConfig,
};
use cypress::cst::{analyze_program, StaticInfo};
use cypress::deflate::Level as ZLevel;
use cypress::minilang::{check_program, parse, Program};
use cypress::net::{
    fetch_stats, spawn_tree, submit_ctt, submit_stream, Addr, ClientConfig, Collector,
    CollectorConfig, TreeConfig,
};
use cypress::obs::json_str;
use cypress::query::{QueryOptions, QueryResult, Window};
use cypress::runtime::{run_rank_with_sink, trace_program_parallel, InterpConfig};
use cypress::simmpi::{from_raw_traces, simulate, LogGp};
use cypress::store::{analyze_remote, query_remote, JobStore, QueryClient, StoreConfig, StoreJob};
use cypress::trace::codec::Codec;
use cypress::trace::commmatrix::CommMatrix;
use cypress::trace::raw::RawTrace;
use cypress::trace::{PayloadArena, SectionKind, SectionTable};
use cypress::{read_container, write_collected_container_with, Error, Pipeline};
use std::fmt::Display;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// `println!` that hands a failed write back instead of panicking, so a
/// closed stdout (`cypress decompress … | head -1`) ends the command
/// through `main`.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout().lock(), $($arg)*)
    };
}

/// `print!` with [`outln!`]'s failure path.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout().lock(), $($arg)*)
    };
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = if let Some(i) = args.iter().position(|a| a == "--metrics") {
        args.remove(i);
        cypress::obs::set_enabled(true);
        true
    } else {
        false
    };
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        Some(i) if i + 1 < args.len() => {
            let path = args.remove(i + 1);
            args.remove(i);
            Some(path)
        }
        Some(_) => {
            eprintln!("--trace-out needs a file argument");
            exit(2);
        }
        None => None,
    };
    let profile = if let Some(i) = args.iter().position(|a| a == "--profile") {
        args.remove(i);
        true
    } else {
        false
    };
    if trace_out.is_some() || profile {
        cypress::obs::set_trace_enabled(true);
    }
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let rest = &args[1..];
    // Root span for the whole command; the stage profiler attributes its
    // wall time across parse/ingest/merge/encode/io (inert when tracing
    // is off).
    let root = cypress::obs::trace_span("cli", "total");
    let mut result = match cmd.as_str() {
        "cst" => cmd_cst(rest),
        "trace" => cmd_trace(rest),
        "dump" => cmd_dump(rest),
        "compress" => cmd_compress(rest),
        "decompress" => cmd_decompress(rest),
        "inspect" => cmd_inspect(rest),
        "query" => cmd_query(rest),
        "analyze" => cmd_analyze(rest),
        "queryd" => cmd_queryd(rest),
        "stats" => cmd_stats(rest),
        "simulate" => cmd_simulate(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "-h" | "--help" | "help" => {
            usage();
            Ok(())
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            exit(2);
        }
    };
    drop(root);
    if trace_out.is_some() || profile {
        let dump = cypress::obs::trace_drain();
        if let Some(path) = &trace_out {
            match fs::write(path, dump.to_chrome_json()) {
                Ok(()) => eprintln!(
                    "trace written to {path} ({} events{}) — load in Perfetto or chrome://tracing",
                    dump.events.len(),
                    if dump.dropped > 0 {
                        format!(", {} dropped", dump.dropped)
                    } else {
                        String::new()
                    }
                ),
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
        if profile {
            let printed = outln!("\n== profile ==\n{}", dump.profile("total").to_text());
            result = result.and(printed.map_err(Error::from));
        }
    }
    if metrics {
        result = result.and(emit_metrics());
    }
    match result {
        Ok(()) => {}
        // The reader closed stdout (`| head`) and has what it wanted: end
        // quietly, with the exit code of an output left unfinished.
        Err(Error::Io(e)) if e.kind() == ErrorKind::BrokenPipe => exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

/// Dump the pipeline-wide metrics report: human table to stdout, JSON lines
/// appended to `results/metrics.jsonl` (best-effort — failure to write is
/// non-fatal). The append is atomic (temp + rename), so concurrent runs
/// never leave a torn file, and `results/` is created on demand — also
/// when stdout is closed, whose error is returned afterwards.
fn emit_metrics() -> CliResult {
    let report = cypress::obs::report();
    let printed = outln!("\n== metrics ==\n{}", report.to_text());
    let path = Path::new("results/metrics.jsonl");
    if cypress::obs::append_atomic(path, report.to_jsonl().as_bytes()).is_ok() {
        eprintln!("metrics appended to {}", path.display());
    } else {
        eprintln!("warning: could not write {}", path.display());
    }
    Ok(printed?)
}

fn usage() {
    eprintln!(
        "cypress — hybrid static-dynamic MPI trace compression

USAGE:
  cypress cst <prog.mpi>
  cypress trace <prog.mpi> -n <procs> -o <dir>
  cypress dump <prog.mpi> -n <procs> [-r <rank>]
  cypress compress <prog.mpi> -n <procs> -o <file> [--per-rank]
               [--level fast|default|best] [--threads <n>]
  cypress decompress <file> [-r <rank>]
  cypress inspect <file> [--json]
  cypress query <file> [--limit <n>] [--window <start>:<end>] [--json]
  cypress query --connect <addr> <job> [--limit <n>] [--window ...] [--json]
  cypress analyze predict <file> [--window <start>:<end>] [--json]
  cypress analyze latesender <file> [--limit <n>] [--window <start>:<end>] [--json]
  cypress analyze diff <fileA> <fileB> [--window <start>:<end>] [--json]
  cypress analyze <sub> --connect <addr> <job>... [same options]
  cypress queryd --listen <addr> --store <dir> [--max-jobs <n>] [--max-bytes <b>]
  cypress stats <prog.mpi> -n <procs>
  cypress stats --connect <addr> [--json]   (a serve or relay address)
  cypress simulate <prog.mpi> -n <procs>
  cypress serve --listen <addr> --out <file> [--per-rank] [--timeout <secs>]
               [--level fast|default|best] [--threads <n>]
               [--tree <relays> -n <procs>]
  cypress submit <prog.mpi> --rank <r> -n <procs> --connect <addr>
               [--mode stream|ctt] [--attempts <n>]

OPTIONS:
  --per-rank   compress/serve: add one CRC-framed CTT section per rank
  --level      compress/serve: DEFLATE container sections at this effort
               (fast, default, best; omitted = raw sections)
  --threads    compress/serve: workers for parallel section encoding
  --window     query/analyze: restrict to ops whose reconstructed start time
               falls in [start, end) nanoseconds (forces O(events) replay;
               0:18446744073709551615 keeps every op)
  --limit      query: GID hot spots to print; analyze latesender: wait
               sites to print (default 10)
  --metrics    collect pipeline metrics; print a report and append
               results/metrics.jsonl on exit
  --trace-out  record a structured timeline and write Chrome trace-event
               JSON (Perfetto / chrome://tracing) to this file on exit;
               compress also embeds a telemetry section
  --profile    print a per-stage wall-time attribution table on exit
               (implies tracing; combine with --trace-out to keep the
               timeline too)
  --tree       serve: spawn this many relay collectors in front of the
               root (requires -n; clients submit to the printed per-shard
               leaf endpoints; unix root at unix:P puts relay k at
               unix:P.rk)
  --json       inspect, query, stats --connect: machine-readable output
  --store      queryd: directory of `<job>.cytc` containers to serve
  --max-jobs   queryd: LRU entry budget for resident containers (default
               unbounded)
  --max-bytes  queryd: LRU byte budget for resident containers (default
               unbounded)
  --listen     collector/queryd address: host:port (host:0 = ephemeral)
               or unix:<path>
  --connect    collector or queryd address (same syntax as --listen)
  --timeout    serve: fail listing missing ranks after this many seconds
  --mode       submit: stream events for server-side compression (default)
               or compress locally and send the finished ctt
  --attempts   submit: connect/send attempts before giving up (default 5)
  CYPRESS_LOG=error|warn|info|debug|trace   structured logging to stderr"
    );
}

type CliResult = cypress::Result<()>;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value after `name`, parsed, when the flag is given.
fn parsed<T: FromStr>(args: &[String], name: &str) -> cypress::Result<Option<T>>
where
    T::Err: Display,
{
    flag(args, name)
        .map(|s| {
            s.parse()
                .map_err(|e| Error::Invalid(format!("bad {name} value: {e}")))
        })
        .transpose()
}

fn nprocs_of(args: &[String]) -> cypress::Result<u32> {
    match parsed(args, "-n")? {
        None => Err(Error::Invalid("missing -n <procs>".into())),
        Some(0) => Err(Error::Invalid("-n must be at least 1".into())),
        Some(n) => Ok(n),
    }
}

/// Parse `--level` into a container section compression level; without
/// the flag, sections are stored raw.
fn level_of(args: &[String]) -> cypress::Result<Option<ZLevel>> {
    flag(args, "--level")
        .map(|s| {
            ZLevel::from_name(&s).ok_or_else(|| {
                Error::Invalid(format!(
                    "unknown --level `{s}` (expected fast, default, or best)"
                ))
            })
        })
        .transpose()
}

/// `--limit`: rows of a ranked report to print (default 10).
fn limit_of(args: &[String]) -> cypress::Result<usize> {
    Ok(parsed(args, "--limit")?.unwrap_or(10))
}

/// Every flag the binary knows, and whether it consumes the following
/// argument (so positional scans skip flag *values* too).
const FLAGS: &[(&str, bool)] = &[
    ("--attempts", true),
    ("--connect", true),
    ("--json", false),
    ("--level", true),
    ("--limit", true),
    ("--listen", true),
    ("--max-bytes", true),
    ("--max-jobs", true),
    ("--metrics", false),
    ("--mode", true),
    ("--out", true),
    ("--per-rank", false),
    ("--profile", false),
    ("--rank", true),
    ("--store", true),
    ("--threads", true),
    ("--timeout", true),
    ("--trace-out", true),
    ("--tree", true),
    ("--window", true),
    ("-n", true),
    ("-o", true),
    ("-r", true),
];

/// All positional arguments, in order, skipping flags and their values. A
/// flag outside [`FLAGS`], or a value-taking one with nothing after it, is
/// an error.
fn positionals(args: &[String]) -> cypress::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            out.push(a.clone());
            continue;
        }
        match FLAGS.iter().find(|(name, _)| name == a) {
            None => return Err(Error::Invalid(format!("unknown flag {a}"))),
            Some((_, true)) if it.next().is_none() => {
                return Err(Error::Invalid(format!("{a} needs a value")))
            }
            Some(_) => {}
        }
    }
    Ok(out)
}

/// First positional argument.
fn positional(args: &[String], what: &str) -> cypress::Result<String> {
    positionals(args)?
        .into_iter()
        .next()
        .ok_or_else(|| Error::Invalid(format!("missing {what}")))
}

/// Parse `--window start:end` (nanoseconds, half-open).
fn window_of(args: &[String]) -> cypress::Result<Option<Window>> {
    let Some(s) = flag(args, "--window") else {
        return Ok(None);
    };
    let parsed = s.split_once(':').and_then(|(a, b)| {
        Some(Window {
            start_ns: a.parse().ok()?,
            end_ns: b.parse().ok()?,
        })
    });
    match parsed {
        Some(w) if w.start_ns <= w.end_ns => Ok(Some(w)),
        _ => Err(Error::Invalid(format!(
            "bad --window `{s}` (expected <start>:<end> in ns, start <= end)"
        ))),
    }
}

fn read_source(args: &[String]) -> cypress::Result<(String, String)> {
    let path = positional(args, "program file")?;
    let src = fs::read_to_string(&path).map_err(|e| Error::Invalid(format!("read {path}: {e}")))?;
    Ok((path, src))
}

fn load_program(args: &[String]) -> cypress::Result<(Program, StaticInfo)> {
    let (_, src) = read_source(args)?;
    let prog = parse(&src)?;
    check_program(&prog)?;
    let info = analyze_program(&prog);
    Ok((prog, info))
}

fn run_traces(args: &[String]) -> cypress::Result<(Program, StaticInfo, Vec<RawTrace>)> {
    let (prog, info) = load_program(args)?;
    let n = nprocs_of(args)?;
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4);
    let traces = trace_program_parallel(&prog, &info, n, &InterpConfig::default(), threads)?;
    Ok((prog, info, traces))
}

fn cmd_cst(args: &[String]) -> CliResult {
    let (_, info) = load_program(args)?;
    outln!("{}", info.cst.to_compact_string())?;
    outln!()?;
    out!("{}", info.cst.to_text())?;
    eprintln!(
        "\n{} vertices ({} MPI leaves), {} instrumentation entries",
        info.cst.len(),
        info.cst.mpi_leaf_count(),
        info.sitemap.entry_count()
    );
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    let (_, _, traces) = run_traces(args)?;
    let dir = flag(args, "-o").ok_or_else(|| Error::Invalid("missing -o <dir>".into()))?;
    fs::create_dir_all(&dir)?;
    let mut total = 0usize;
    for t in &traces {
        let path = format!("{dir}/rank{:05}.trace", t.rank);
        let bytes = t.to_bytes();
        total += bytes.len();
        fs::write(&path, &bytes)?;
    }
    outln!(
        "wrote {} raw traces to {dir}/ ({} bytes total)",
        traces.len(),
        total
    )?;
    Ok(())
}

fn cmd_dump(args: &[String]) -> CliResult {
    let (_, _, traces) = run_traces(args)?;
    let rank = parsed(args, "-r")?.unwrap_or(0usize);
    let t = traces
        .get(rank)
        .ok_or_else(|| Error::Invalid(format!("rank {rank} out of range")))?;
    out!("{}", cypress::trace::format_trace(t))?;
    Ok(())
}

/// Every rank feeds a session online (the raw trace never materializes) and
/// the result persists as a versioned container.
fn cmd_compress(args: &[String]) -> CliResult {
    let out = flag(args, "-o").ok_or_else(|| Error::Invalid("missing -o <file>".into()))?;
    let t0 = cypress::obs::trace_now_ns();
    let (_, src) = read_source(args)?;
    let n = nprocs_of(args)?;
    let threads: Option<usize> = parsed(args, "--threads")?;
    let mut cfg = cypress::PipelineConfig {
        level: level_of(args)?,
        ..cypress::PipelineConfig::default()
    };
    if let Some(t) = threads {
        cfg.threads = t.max(1);
    }
    let per_rank = has_flag(args, "--per-rank");
    let mut job = Pipeline::new(src).ranks(n).configure(cfg).run()?;
    let events: u64 = job.stats.iter().map(|s| s.events).sum();
    let peak = job.peak_ctt_bytes();
    // Every rank's section makes the merged tree redundant, so only a
    // merged-only container merges (here, inside the traced region).
    if !per_rank {
        job.merge();
    }
    // When the run traces itself, roll the compute phases (parse → merge)
    // into a compact summary and persist it as a trailing section; the
    // final encode/io spans still land in the full --trace-out timeline.
    let telemetry = if cypress::obs::trace_enabled() {
        let wall = cypress::obs::trace_now_ns().saturating_sub(t0);
        cypress::obs::trace_complete("cli", "compress", t0, wall, events);
        let p = cypress::obs::trace_snapshot().profile("compress");
        let threads = threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(4)
        });
        Some(cypress::TelemetrySummary::from_profile(
            &p,
            n,
            threads as u32,
            job.total_events(),
        ))
    } else {
        None
    };
    job.write_container_with(&out, per_rank, telemetry.as_ref())?;
    let written = fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    outln!("streamed {events} events across {n} ranks; peak resident CTT {peak} B/rank")?;
    let trees = if per_rank {
        format!("{n} rank sections")
    } else {
        "merged".into()
    };
    outln!("wrote {out} ({written} B container: cst + {trees})")?;
    Ok(())
}

fn cmd_decompress(args: &[String]) -> CliResult {
    let file = positional(args, "compressed trace file")?;
    let rank = parsed(args, "-r")?.unwrap_or(0);
    let ops = read_container(&file)?.decompress(rank)?;
    outln!("# rank {rank}: {} operations", ops.len())?;
    for o in &ops {
        let p = &o.params;
        let mut fields = Vec::new();
        if p.dest >= 0 {
            fields.push(format!("dest={}", p.dest));
        }
        if p.src != cypress::trace::event::NONE {
            fields.push(format!("src={}", p.src));
        }
        if p.count >= 0 {
            fields.push(format!("bytes={}", p.count));
        }
        if p.tag >= 0 {
            fields.push(format!("tag={}", p.tag));
        }
        if p.root >= 0 {
            fields.push(format!("root={}", p.root));
        }
        if !p.req_gids.is_empty() {
            fields.push(format!("reqs={:?}", p.req_gids));
        }
        outln!(
            "g{:<4} {:<14} {}  ~{}ns",
            o.gid,
            o.op.name(),
            fields.join(" "),
            o.mean_dur
        )?;
    }
    Ok(())
}

/// Print a container's header and section table through the reader pair
/// every opener uses, [`SectionTable`] + [`PayloadArena`]: framing and every
/// CRC are verified by the parse, raw section payloads are served zero-copy
/// out of the image, and only the deflated sections the report reads itself
/// (meta, a stored merged CTT, telemetry) are inflated and counted. Merged
/// counts derived from the rank sections come from [`StoreJob::open`], the
/// one job opener. For an all-raw container the command asserts that **no
/// inflation happened at all**.
fn cmd_inspect(args: &[String]) -> CliResult {
    let file = positional(args, "container file")?;
    let image = fs::read(&file)?;
    let file_bytes = image.len() as u64;
    let table = SectionTable::parse(&image)?;
    let arena = PayloadArena::new(table.len());
    let payload = |i: usize| arena.payload(&image, &table.sections()[i], i);
    let find_payload = |kind| table.find(kind).map(payload);
    let json = has_flag(args, "--json");

    let meta = match find_payload(SectionKind::Meta) {
        Some(payload) => Some(cypress::MetaInfo::from_bytes(payload?)?),
        None => None,
    };
    let raw_bytes = meta.as_ref().map_or(0, |m| m.raw_bytes);
    // A container whose rank sections cover every rank stores no merged
    // tree; its counts are those of `merge_all` over the rank sections, as
    // the job opener checks them and in rank order.
    let stored = table.find(SectionKind::MergedCtt);
    let derived = stored.is_none();
    let merged = match stored {
        Some(i) => Some(MergedCtt::from_bytes(payload(i)?)?),
        None if table.rank_indices().next().is_some() => Some(merge_all(
            StoreJob::open(Path::new(&file), &file)?.rank_ctts(),
        )),
        None => None,
    };
    let merged_stats = merged.map(|m| (m.vertices.len(), m.group_count()));

    if json {
        let mut out = String::from("{");
        out.push_str(&format!("\"file\":{},", json_str(&file)));
        out.push_str(&format!("\"version\":{},", table.version));
        out.push_str(&format!("\"nprocs\":{},", table.nprocs));
        if let Some(m) = &meta {
            out.push_str(&format!(
                "\"written_by\":{{\"tool\":{},\"version\":{}}},\"events\":{},\"raw_bytes\":{raw_bytes},",
                json_str(&m.tool),
                json_str(&m.version),
                m.events
            ));
        }
        out.push_str("\"sections\":[");
        for (i, s) in table.sections().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rank = match s.rank {
                Some(r) => r.to_string(),
                None => "null".into(),
            };
            out.push_str(&format!(
                "{{\"kind\":{},\"rank\":{rank},\"payload_bytes\":{},\"stored_bytes\":{},\"deflated\":{}}}",
                json_str(s.kind.name()),
                s.raw_len,
                s.stored_len(),
                s.is_deflated()
            ));
        }
        out.push_str("],");
        if let Some((vertices, groups)) = merged_stats {
            out.push_str(&format!(
                "\"merged_ctt\":{{\"vertices\":{vertices},\"rank_groups\":{groups},\"derived\":{derived}}},"
            ));
        }
        out.push_str(&format!(
            "\"payload_bytes\":{},\"file_bytes\":{file_bytes},\"crc_checks\":{},\"inflations\":{}}}",
            table.payload_bytes(),
            table.len(),
            arena.inflations()
        ));
        outln!("{out}")?;
        return Ok(());
    }

    outln!(
        "{file}: cypress container v{}, {} ranks",
        table.version,
        table.nprocs
    )?;
    if let Some(m) = &meta {
        outln!("written by {} {}", m.tool, m.version)?;
        outln!(
            "traced {} MPI events, raw record size {raw_bytes} B",
            m.events
        )?;
    }
    let payload = table.payload_bytes();
    outln!("{} sections, {payload} payload bytes:", table.len())?;
    // Every section frame carries its own crc32 over the stored bytes,
    // verified by the table parse (which fails before we get here if any
    // check misses), so "crc ok" below is a statement, not a hope.
    outln!(
        "integrity: {} per-section crc32 checks verified on load (coverage: every payload byte)",
        table.len()
    )?;
    for (i, s) in table.sections().iter().enumerate() {
        let scope = match s.rank {
            Some(r) => format!(" rank {r}"),
            None => String::new(),
        };
        let share = if payload == 0 {
            0.0
        } else {
            s.raw_len as f64 / payload as f64 * 100.0
        };
        let stored = if s.is_deflated() {
            format!("  (deflate {} B)", s.stored_len())
        } else {
            String::new()
        };
        outln!(
            "  [{i}] {:<10}{scope:<9} {:>8} B {share:>5.1}%  crc ok{stored}",
            s.kind.name(),
            s.raw_len
        )?;
    }
    if let Some((vertices, groups)) = merged_stats {
        let source = if derived {
            " (derived from the rank sections)"
        } else {
            ""
        };
        outln!("merged CTT{source}: {vertices} vertices, {groups} rank groups")?;
    }
    if let Some(s) = find_payload(SectionKind::Telemetry) {
        match cypress::TelemetrySummary::from_bytes(s?) {
            Ok(t) => out!("{}", t.to_text())?,
            Err(e) => outln!("telemetry section unreadable: {e}")?,
        }
    }
    if raw_bytes > 0 && file_bytes > 0 {
        outln!(
            "compression ratio: {:.1}x (raw {} B / container {} B)",
            raw_bytes as f64 / file_bytes as f64,
            raw_bytes,
            file_bytes
        )?;
    }
    // The lazy-view contract, pinned where it is most visible: inspecting a
    // raw-layout container must not inflate anything, ever.
    if table.sections().iter().any(|s| s.is_deflated()) {
        outln!(
            "lazy view: {} deflated sections inflated on demand, raw sections served zero-copy",
            arena.inflations()
        )?;
    } else {
        assert_eq!(arena.inflations(), 0, "raw-only inspect must not inflate");
        outln!("lazy view: no inflation performed (all sections served zero-copy)")?;
    }
    Ok(())
}

/// Analyze a container directly in the compressed domain — no decompression.
/// `--connect ADDR JOB` asks a resident `cypress queryd` daemon instead of
/// reading a local file; the answer is byte-identical either way.
fn cmd_query(args: &[String]) -> CliResult {
    let limit = limit_of(args)?;
    let opts = QueryOptions {
        window: window_of(args)?,
    };
    let (label, q) = if let Some(connect) = flag(args, "--connect") {
        let addr = Addr::parse(&connect)?;
        let job = positional(args, "job name")?;
        let q = query_remote(&addr, &job, &opts, Duration::from_secs(10))?;
        (format!("{job} @ {addr}"), q)
    } else {
        let file = positional(args, "container file")?;
        let q = StoreJob::open(Path::new(&file), &file)?.query(&opts)?;
        (file, q)
    };
    render_query(&label, &q, limit, has_flag(args, "--json"))
}

fn render_query(label: &str, q: &QueryResult, limit: usize, json: bool) -> CliResult {
    if json {
        outln!("{}", q.render_json())?;
        return Ok(());
    }
    outln!(
        "{label}: {} ranks, evaluated via {}\n",
        q.nprocs,
        q.strategy.name()
    )?;
    out!("{}", q.render(limit))?;
    if q.nprocs <= 64 && q.total_volume() > 0 {
        outln!("\nvolume heatmap (row = sender):")?;
        out!("{}", q.matrix.to_ascii())?;
    }
    Ok(())
}

/// Compressed-domain analysis: CTT-native LogGP replay prediction,
/// late-sender wait-state detection, and cross-job diffing — evaluated
/// without decompressing steady loops (symbolic lowering + trip
/// extrapolation), locally or against a resident queryd daemon. Remote
/// answers are byte-identical to local ones: the daemon runs the same
/// engine with the same canonical `LogGp::default()` model.
fn cmd_analyze(args: &[String]) -> CliResult {
    let pos = positionals(args)?;
    let sub = pos.first().map(String::as_str).ok_or_else(|| {
        Error::Invalid("missing analyze subcommand (predict, latesender, or diff)".into())
    })?;
    let json = has_flag(args, "--json");
    let window = window_of(args)?;
    let opts = AnalyzeOptions { window };
    let limit = limit_of(args)?;
    let connect = match flag(args, "--connect") {
        Some(c) => Some(Addr::parse(&c)?),
        None => None,
    };
    let operand = |i: usize, what: &str| -> cypress::Result<String> {
        pos.get(i)
            .cloned()
            .ok_or_else(|| Error::Invalid(format!("missing {what}")))
    };
    match sub {
        "predict" | "latesender" => {
            let target = operand(1, "container file (or job name with --connect)")?;
            // Keep the opened job alive so latesender can render call paths
            // from its CST; remote reports carry GIDs only.
            let (label, report, local_job) = match &connect {
                Some(addr) => {
                    let r = analyze_remote(addr, &target, &opts, Duration::from_secs(10))?;
                    (format!("{target} @ {addr}"), r, None)
                }
                None => {
                    let job = StoreJob::open(Path::new(&target), &target)?;
                    let r = job.analyze(&opts)?;
                    (target.clone(), r, Some(job))
                }
            };
            if json {
                outln!("{}", report.render_json())?;
            } else if sub == "predict" {
                outln!("{label}:")?;
                out!("{}", report.render_predict())?;
            } else {
                outln!("{label}:")?;
                out!(
                    "{}",
                    report.render_latesender(limit, local_job.as_ref().map(|j| j.cst()))
                )?;
            }
            Ok(())
        }
        "diff" => {
            let a = operand(1, "first container/job")?;
            let b = operand(2, "second container/job")?;
            let qopts = QueryOptions { window };
            let summarize = |name: &str| -> cypress::Result<JobSummary> {
                let (query, analyze) = match &connect {
                    Some(addr) => {
                        let mut c = QueryClient::connect(addr, Duration::from_secs(10))?;
                        (c.query(name, &qopts)?, c.analyze(name, &opts)?)
                    }
                    None => {
                        let job = StoreJob::open(Path::new(name), name)?;
                        (job.query(&qopts)?, job.analyze(&opts)?)
                    }
                };
                Ok(JobSummary {
                    label: name.to_string(),
                    query,
                    analyze,
                })
            };
            let d = DiffReport {
                a: summarize(&a)?,
                b: summarize(&b)?,
            };
            if json {
                outln!("{}", d.render_json())?;
            } else {
                out!("{}", d.render())?;
            }
            Ok(())
        }
        other => Err(Error::Invalid(format!(
            "unknown analyze subcommand `{other}` (expected predict, latesender, or diff)"
        ))),
    }
}

/// Resident query daemon: an LRU [`JobStore`] over a directory of `.cytc`
/// containers, served on the framed net transport until the process is
/// killed. Opened jobs stay hot across queries and connections.
fn cmd_queryd(args: &[String]) -> CliResult {
    let listen = flag(args, "--listen").ok_or_else(|| {
        Error::Invalid("missing --listen <addr> (host:port or unix:<path>)".into())
    })?;
    let dir = flag(args, "--store")
        .ok_or_else(|| Error::Invalid("missing --store <dir> of .cytc containers".into()))?;
    let unbounded = StoreConfig::default();
    let cfg = StoreConfig {
        max_jobs: parsed(args, "--max-jobs")?.unwrap_or(unbounded.max_jobs),
        max_bytes: parsed(args, "--max-bytes")?.unwrap_or(unbounded.max_bytes),
    };
    let store = Arc::new(JobStore::new(&dir, cfg)?);
    let jobs = store.list()?.len();
    let listener = cypress::net::Listener::bind(&Addr::parse(&listen)?)?;
    let addr = listener.local_addr()?;
    eprintln!(
        "cypress queryd serving {jobs} jobs from {dir} on {addr} (query with `cypress query --connect {addr} <job>`)"
    );
    // Runs until killed, event loop 0 on this thread.
    Ok(cypress::store::serve(store, &listener)?)
}

fn cmd_stats(args: &[String]) -> CliResult {
    // `stats --connect ADDR` polls a running collector's live telemetry
    // endpoint instead of profiling a local program.
    if let Some(connect) = flag(args, "--connect") {
        let addr = Addr::parse(&connect)?;
        let stats = fetch_stats(&addr, std::time::Duration::from_secs(5))?;
        if has_flag(args, "--json") {
            outln!("{}", stats.to_json())?;
        } else {
            out!("{}", stats.to_text())?;
        }
        return Ok(());
    }
    let (_, _, traces) = run_traces(args)?;
    out!("{}", cypress::trace::Profile::from_traces(&traces).report())?;
    let m = CommMatrix::from_traces(&traces);
    outln!(
        "\npoint-to-point volume: {} bytes across {} edges",
        m.total(),
        (0..traces.len())
            .map(|r| m.peers_of(r).len())
            .sum::<usize>()
    )?;
    if traces.len() <= 64 {
        outln!("\nheatmap (row = sender):")?;
        out!("{}", m.to_ascii())?;
    }
    Ok(())
}

/// Collector daemon: bind, serve until every rank of the job has merged
/// (or the deadline expires), then persist the collected job as a `.cytc`
/// container indistinguishable from a locally-compressed one.
fn cmd_serve(args: &[String]) -> CliResult {
    let listen = flag(args, "--listen").ok_or_else(|| {
        Error::Invalid("missing --listen <addr> (host:port or unix:<path>)".into())
    })?;
    let out = flag(args, "--out").ok_or_else(|| Error::Invalid("missing --out <file>".into()))?;
    let addr = Addr::parse(&listen)?;
    let mut per_rank = has_flag(args, "--per-rank");

    let mut cfg = CollectorConfig {
        keep_rank_ctts: per_rank,
        deadline: parsed(args, "--timeout")?
            .map(|s| {
                Duration::try_from_secs_f64(s)
                    .map_err(|e| Error::Invalid(format!("bad --timeout value: {e}")))
            })
            .transpose()?,
    };

    let level = level_of(args)?;
    let threads = parsed(args, "--threads")?.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    });

    let job = if let Some(relays) = parsed::<u32>(args, "--tree")? {
        if relays == 0 {
            return Err(Error::Invalid("--tree needs at least 1 relay".into()));
        }
        // The topology is sized up front: relays must know their shard
        // before the first client connects, so -n is mandatory here.
        let n = nprocs_of(args).map_err(|_| {
            Error::Invalid("serve --tree requires -n <procs> (shards are fixed up front)".into())
        })?;
        if per_rank {
            eprintln!(
                "warning: --per-rank is unavailable with --tree (relays forward merged \
                 blocks, not rank CTTs); writing the merged container only"
            );
            per_rank = false;
            cfg.keep_rank_ctts = false;
        }
        let tree = spawn_tree(
            &addr,
            &TreeConfig {
                relays,
                nprocs: n,
                collector: cfg,
                client: ClientConfig::default(),
            },
        )?;
        for (leaf, &(first, last)) in tree.leaves().iter().zip(tree.ranges()) {
            eprintln!("cypress relay for ranks {first}..{last} listening on {leaf}");
        }
        eprintln!("cypress collector tree root on {addr} ({relays} relays, {n} ranks)");
        tree.join()?
    } else {
        let collector = Collector::bind(&addr)?;
        eprintln!(
            "cypress collector listening on {} (job size set by the first client)",
            collector.local_addr()?
        );
        collector.run(&cfg)?
    };
    let merged_bytes = job.merged().to_bytes().len();
    write_collected_container_with(&job, &out, per_rank, level, threads)?;
    outln!(
        "collected {} ranks, {} MPI events; merged CTT {} B ({} rank groups)",
        job.nprocs,
        job.total_events,
        merged_bytes,
        job.merged().group_count()
    )?;
    outln!("wrote {out}")?;
    Ok(())
}

/// Run one simulated rank locally and submit its trace to a collector —
/// the per-process side of the paper's deployment, over a socket instead
/// of `MPI_Finalize`.
fn cmd_submit(args: &[String]) -> CliResult {
    // The flag table is global, so a stale script's `--level` would
    // otherwise be read by nobody.
    if has_flag(args, "--level") {
        return Err(Error::Invalid(
            "submit takes no --level: it sends the CTT raw, and serve --level \
             compresses the container"
                .into(),
        ));
    }
    let (prog, info) = load_program(args)?;
    let n = nprocs_of(args)?;
    let rank: u32 =
        parsed(args, "--rank")?.ok_or_else(|| Error::Invalid("missing --rank <r>".into()))?;
    if rank >= n {
        return Err(Error::Invalid(format!("rank {rank} out of 0..{n}")));
    }
    let connect =
        flag(args, "--connect").ok_or_else(|| Error::Invalid("missing --connect <addr>".into()))?;
    let addr = Addr::parse(&connect)?;
    let mut cfg = ClientConfig::default();
    if let Some(attempts) = parsed(args, "--attempts")? {
        cfg.attempts = attempts;
    }
    let cst_text = info.cst.to_text();
    let interp = InterpConfig::default();

    let outcome = match flag(args, "--mode").as_deref() {
        None | Some("stream") => submit_stream(&addr, &cfg, rank, n, &cst_text, |sink| {
            run_rank_with_sink(&prog, &info, rank, n, &interp, &mut &mut *sink)
                .map_err(|e| e.to_string())
        })?,
        Some("ctt") => {
            let mut session = CompressSession::new(
                &info.cst,
                rank,
                n,
                CompressConfig::default(),
                SessionConfig::default(),
            );
            let app_time = run_rank_with_sink(&prog, &info, rank, n, &interp, &mut session)?;
            let (ctt, _stats) = session.finish(app_time);
            submit_ctt(&addr, &cfg, &ctt, &cst_text)?
        }
        Some(other) => {
            return Err(Error::Invalid(format!(
                "unknown --mode `{other}` (expected stream or ctt)"
            )))
        }
    };

    if outcome.already_done {
        outln!("rank {rank}: collector already has this rank (previous attempt landed)")?;
    } else {
        outln!(
            "rank {rank}: submitted ({} events streamed, attempt {}/{}); collector has {} ranks",
            outcome.events_sent,
            outcome.attempts,
            cfg.attempts,
            outcome.ranks_done
        )?;
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> CliResult {
    let (_, info, traces) = run_traces(args)?;
    let model = LogGp::default();
    let measured =
        simulate(&from_raw_traces(&traces), &model).map_err(|e| Error::Invalid(e.to_string()))?;
    let cfg = CompressConfig::default();
    let ctts: Vec<Ctt> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    let predicted = analyze_by_decompression(&info.cst, &ctts, &model, &AnalyzeOptions::default())
        .map_err(|e| Error::Invalid(e.to_string()))?
        .predicted;
    outln!(
        "measured (raw traces):        {:.3} ms",
        measured.total as f64 / 1e6
    )?;
    outln!(
        "predicted (compressed):       {:.3} ms",
        predicted.total as f64 / 1e6
    )?;
    outln!(
        "prediction error:             {:.2}%",
        (predicted.total as f64 - measured.total as f64).abs() / measured.total.max(1) as f64
            * 100.0
    )?;
    outln!(
        "communication time share:     {:.2}%",
        measured.comm_fraction() * 100.0
    )?;
    Ok(())
}
