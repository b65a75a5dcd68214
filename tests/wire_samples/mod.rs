//! One fixed sample of every payload this build puts on a socket or into a
//! container section, next to the bytes the commit *before* the one-codec
//! refactor wrote for it (captured there; a row re-captured since says which
//! change moved it: the `Hello`/`HelloAck` version byte is 5 since the wire
//! stopped compressing, and `MergedBlock` lost its raw length then; `Stats`
//! is version 2 since it lost the buddy tree's merge depth). The golden test
//! in `wire_golden.rs` holds today's encoders to those bytes; `wire_sweep.rs`
//! feeds the same samples to the hostile-bytes sweep.
//!
//! Frames are listed by body (frame code, then payload); the length prefix
//! and crc32 trailer around a body are derived from it, not stored.
//!
//! Next to the samples sit inputs this build refuses, one for each check a
//! decoder of outside input makes, with the whole text of the error: a
//! decoder change that moves a refusal, or its words, shows there.

use cypress::analysis::{AnalysisStats, AnalyzeOptions, AnalyzeReport};
use cypress::core::{
    merge_all, Ctt, CttSlab, EncParams, IntSeq, LeafRecord, MergedCtt, TimeStats, VertexData,
};
use cypress::deflate::crc32;
use cypress::net::proto::{codes, Hello, MergedBlock};
use cypress::net::{
    ClientStat, ClientState, Frame, QuantileStat, Stats, SubmitMode, PROTO_VERSION, STATS_VERSION,
};
use cypress::query::{HotSpot, QueryResult, RankTotals, StrategyUsed, Window};
use cypress::simmpi::{SimResult, WaitReport, WaitSite};
use cypress::trace::container::{CONTAINER_MAGIC, CONTAINER_VERSION};
use cypress::trace::{
    Codec, CommMatrix, Encoder, Event, MpiOp, MpiParams, MpiRecord, Profile, SectionTable,
    ANY_SOURCE,
};
use cypress::{MetaInfo, QueryOptions, StageSummary, TelemetrySummary, TELEMETRY_VERSION};
use std::fmt::Debug;

/// What a test does with each `(sample, golden bytes)` pair. A rank CTT has
/// no `Codec` impl — `Ctt` only encodes, `CttSlab` decodes — so it has a
/// visit of its own.
pub trait Visitor {
    fn visit<T: Codec + PartialEq + Debug>(&mut self, name: &str, sample: &T, golden_hex: &str);
    fn visit_ctt(&mut self, name: &str, sample: &Ctt, golden_hex: &str);
    /// Rank-CTT bytes this build refuses, with what the error must say.
    fn refused_ctt(&mut self, name: &str, hex: &str, why: &str);
    /// Bytes this build refuses, `refuse` run on them (the text of the
    /// error it returns), and what that text must be, whole.
    fn refused(&mut self, _name: &str, _bytes: &[u8], _refuse: fn(&[u8]) -> String, _why: &str) {}
}

/// The text of the error `T::from_bytes` refuses `bytes` with.
fn refusal<T: Codec + Debug>(bytes: &[u8]) -> String {
    match T::from_bytes(bytes) {
        Ok(v) => format!("decoded {v:?}"),
        Err(e) => e.to_string(),
    }
}

/// The text of the error `SectionTable::parse` refuses `image` with.
fn container_refusal(image: &[u8]) -> String {
    match SectionTable::parse(image) {
        Ok(t) => format!("parsed {t:?}"),
        Err(e) => e.to_string(),
    }
}

/// `head`, then a sequence count of `n`, then `n` zero bytes: a count the
/// bytes left allow, so only a cap on the sequence can refuse it.
fn counted(head: &str, n: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_raw(&unhex(head));
    enc.put_uvar(n);
    let mut out = enc.finish();
    out.resize(out.len() + n as usize, 0);
    out
}

/// A container image whose body is `body`: magic, version, body, then the
/// whole-image CRC, so that parsing reaches the body.
fn container(body: &[u8]) -> Vec<u8> {
    let mut image = CONTAINER_MAGIC.to_vec();
    image.push(CONTAINER_VERSION);
    image.extend_from_slice(body);
    let crc = crc32(&image);
    image.extend_from_slice(&crc.to_le_bytes());
    image
}

pub fn unhex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn hello(rank: u32, nprocs: u32, mode: SubmitMode, cst_text: &str) -> Frame {
    Frame::Hello(Hello {
        version: PROTO_VERSION,
        rank,
        nprocs,
        mode,
        cst_text: cst_text.into(),
    })
}

fn merged_block() -> Frame {
    Frame::MergedBlock(MergedBlock {
        first_rank: 4,
        nranks: 4,
        events: 2048,
        raw_mpi_bytes: 1 << 20,
        bytes: vec![5, 4, 3, 2, 1],
    })
}

fn stats() -> Stats {
    Stats {
        version: STATS_VERSION,
        uptime_ns: 1_234_567_890,
        nprocs: 8,
        ranks_done: 5,
        events_total: 40_000,
        events_per_sec_x1000: 32_400_500,
        resident_blocks: 2,
        clients: vec![
            ClientStat {
                rank: 0,
                state: ClientState::Merged,
                events: 8_000,
            },
            ClientStat {
                rank: 1,
                state: ClientState::Streaming,
                events: 1_500,
            },
            ClientStat {
                rank: 7,
                state: ClientState::Aborted,
                events: 12,
            },
            ClientStat {
                rank: 300,
                state: ClientState::Duplicate,
                events: 0,
            },
        ],
        quantiles: vec![QuantileStat {
            name: "batch_events".into(),
            count: 79,
            p50: 512,
            p90: 4096,
            p99: 32_768,
        }],
    }
}

fn window() -> Option<Window> {
    Some(Window {
        start_ns: 1_000,
        end_ns: 9_999_999,
    })
}

fn windowed_query_options() -> QueryOptions {
    QueryOptions { window: window() }
}

fn query_result() -> QueryResult {
    let mut matrix = CommMatrix::new(3);
    matrix.add(0, 1, 150);
    matrix.add(2, 0, 70_000);
    let mut profile = Profile::new(3);
    profile.add_repeated(0, MpiOp::Send, 1024, 35, 12);
    profile.add_repeated(1, MpiOp::Recv, 1024, 90, 12);
    profile.add_repeated(2, MpiOp::Allreduce, 8, 2_000, 3);
    profile.set_app_time(0, 1_000_000);
    profile.set_app_time(2, 1_200_000);
    QueryResult {
        nprocs: 3,
        strategy: StrategyUsed::PartialExpansion,
        matrix,
        profile,
        totals: vec![
            RankTotals {
                send_bytes: 12_288,
                recv_bytes: 0,
                calls: 13,
            },
            RankTotals {
                send_bytes: 0,
                recv_bytes: 12_288,
                calls: 13,
            },
            RankTotals::default(),
        ],
        hotspots: vec![
            HotSpot {
                gid: 7,
                op: MpiOp::Send,
                calls: 12,
                bytes: 12_288,
                path: "Loop#3 > BrT#5".into(),
            },
            HotSpot {
                gid: 200,
                op: MpiOp::Allreduce,
                calls: 3,
                bytes: 0,
                path: String::new(),
            },
        ],
        loop_trips: 36,
    }
}

fn sim_result() -> SimResult {
    SimResult {
        finish: vec![100, 250, 175],
        total: 250,
        comm_time: vec![40, 90, 0],
        wildcard_sources: vec![vec![], vec![2, 0, 300], vec![]],
    }
}

fn wait_report() -> WaitReport {
    WaitReport {
        per_rank: vec![0, 130, 20],
        sites: vec![
            WaitSite {
                gid: 7,
                wait_ns: 130,
                count: 2,
            },
            WaitSite {
                gid: 300,
                wait_ns: 20,
                count: 1,
            },
        ],
    }
}

fn analyze_report() -> AnalyzeReport {
    AnalyzeReport {
        nprocs: 3,
        measured_app_ns: 1_000,
        predicted: sim_result(),
        waits: wait_report(),
        stats: AnalysisStats {
            symbolic_loops: 1,
            unrolled_loops: 2,
            flattened: false,
            windowed: true,
            fed_ops: 10,
            logical_ops: 100,
            extrapolated_trips: 90,
        },
    }
}

fn telemetry() -> TelemetrySummary {
    TelemetrySummary {
        version: TELEMETRY_VERSION,
        wall_ns: 12_345_678,
        events: 40_000,
        nprocs: 8,
        threads: 4,
        dropped_events: 3,
        stages: vec![
            StageSummary {
                name: "ingest".into(),
                wall_ns: 9_000_000,
                cpu_ns: 30_000_000,
                spans: 8,
            },
            StageSummary {
                name: "(untraced)".into(),
                wall_ns: 1_345_678,
                cpu_ns: 1_345_678,
                spans: 1,
            },
        ],
    }
}

fn meta() -> MetaInfo {
    MetaInfo {
        tool: "cypress".into(),
        version: "0.1.0".into(),
        nprocs: 4,
        events: 1_000,
        raw_bytes: 64_000,
    }
}

/// One rank of a four-rank job, written out by hand so the sample cannot move
/// with the compressor: an outer loop over a branch (relative-peer `isend`,
/// wildcard `irecv`, a `waitall` naming both requests) and a triangular inner
/// loop whose leaf holds two records, then a collective. Rank 0 takes the
/// branch on other iterations and rank 3's peer wraps, so the merge of all
/// four forms more than one group.
pub fn rank_ctt(rank: u32) -> Ctt {
    let mean = |xs: &[u64]| {
        let mut t = TimeStats::new();
        xs.iter().for_each(|&x| t.add(x));
        t
    };
    let rec = |op, p: &MpiParams, count, time, gap| LeafRecord {
        params: EncParams::encode(rank as i64, op, p),
        count,
        time,
        gap,
    };
    let r = rank as u64;
    let taken: &[i64] = if rank == 0 {
        &[1, 3, 5, 7, 9]
    } else {
        &[0, 2, 4, 6, 8]
    };
    Ctt {
        rank,
        nprocs: 4,
        app_time: 1_000_000 + 17 * r,
        data: vec![
            VertexData::Root,
            VertexData::Loop {
                counts: IntSeq::from_slice(&[10]),
            },
            VertexData::Branch {
                taken: IntSeq::from_slice(taken),
            },
            VertexData::Leaf {
                records: vec![rec(
                    MpiOp::Isend,
                    &MpiParams::send((rank as i64 + 1) % 4, 4096, 7),
                    5,
                    mean(&[120 + r, 130, 125, 140, 300_000]),
                    mean(&[1_000, 1_000, 1_010, 990, 1_000]),
                )],
            },
            VertexData::Leaf {
                records: vec![rec(
                    MpiOp::Irecv,
                    &MpiParams::recv(ANY_SOURCE, 4096, 7),
                    5,
                    mean(&[40, 41, 39, 40, 40]),
                    mean(&[0, 0, 0, 0, 0]),
                )],
            },
            VertexData::Leaf {
                records: vec![rec(
                    MpiOp::Waitall,
                    &MpiParams::completion(vec![3, 4]),
                    5,
                    mean(&[9_000, 8_500 + r, 70_000, 9_100, 9_050]),
                    mean(&[15, 15, 15, 15, 15]),
                )],
            },
            VertexData::Loop {
                counts: IntSeq::from_slice(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
            },
            VertexData::Leaf {
                records: vec![
                    rec(
                        MpiOp::Send,
                        &MpiParams::send((rank as i64 + 3) % 4, 64, 0),
                        40,
                        mean(&[55; 40]),
                        mean(&[200; 40]),
                    ),
                    rec(
                        MpiOp::Send,
                        &MpiParams::send((rank as i64 + 3) % 4, 128, 1),
                        5,
                        mean(&[60, 61, 62, 63, 64]),
                        TimeStats::new(),
                    ),
                ],
            },
            VertexData::Leaf {
                records: vec![rec(
                    MpiOp::Allreduce,
                    &MpiParams::collective(8),
                    1,
                    mean(&[70_000 + r]),
                    mean(&[3]),
                )],
            },
        ],
    }
}

/// The inter-process merge of [`rank_ctt`]`(0..4)`, as decoded slabs: what
/// a collector merges. Normalised through one encode/decode, as a decoded
/// tree is what every reader holds.
pub fn merged_ctt() -> MergedCtt {
    let slabs: Vec<CttSlab> = (0..4)
        .map(|rank| CttSlab::from_bytes(&rank_ctt(rank).to_bytes()).expect("own bytes decode"))
        .collect();
    let merged = merge_all(&slabs);
    MergedCtt::from_bytes(&merged.to_bytes()).expect("own bytes decode")
}

/// One frame of every kind, with the body bytes the pre-refactor commit
/// encoded for it.
pub fn frames() -> Vec<(&'static str, Frame, &'static str)> {
    vec![
        (
            "Hello",
            hello(3, 8, SubmitMode::Stream, "Root()"),
            "010503080006526f6f742829",
        ),
        (
            "Hello/blocks",
            hello(300, 70_000, SubmitMode::Blocks, ""),
            "0105ac02f0a2040200",
        ),
        (
            "HelloAck",
            Frame::HelloAck {
                version: PROTO_VERSION,
                already_done: true,
            },
            "020501",
        ),
        (
            "Events",
            Frame::Events {
                events: vec![
                    Event::Enter { gid: 1 },
                    Event::Mpi(MpiRecord {
                        gid: 2,
                        op: MpiOp::Send,
                        params: MpiParams::send(1, 4096, 7),
                        t_start: 100,
                        dur: 250,
                    }),
                    Event::Mpi(MpiRecord {
                        gid: 300,
                        op: MpiOp::Waitall,
                        params: MpiParams::completion(vec![2, 70_000]),
                        t_start: 400,
                        dur: 3,
                    }),
                    Event::Exit { gid: 1 },
                ],
            },
            "0304000102020002018040010e0101000064fa0102ac020501010101010101000202f0a2049003030101",
        ),
        (
            "Events/empty",
            Frame::Events { events: vec![] },
            "0300",
        ),
        (
            "Finish",
            Frame::Finish {
                app_time: 123_456,
                event_count: 3,
            },
            "04c0c40703",
        ),
        (
            "FinAck",
            Frame::FinAck { ranks_done: 300 },
            "05ac02",
        ),
        (
            "RankCtt",
            Frame::RankCtt {
                bytes: vec![1, 2, 3],
            },
            "0603010203",
        ),
        (
            "StatsRequest",
            Frame::StatsRequest,
            "09",
        ),
        (
            "Stats",
            Frame::Stats { stats: stats() },
            "0a3602d285d8cc040805c0b802f4c8b90f02040001c03e0100dc0b07020cac020300010c62617463685f6576656e74734f80048020808002",
        ),
        (
            "QueryRequest",
            Frame::QueryRequest {
                job: "jacobi-0042".into(),
                options: vec![1, 0, 10, 0],
            },
            "0b0b6a61636f62692d303034320401000a00",
        ),
        (
            "QueryResponse",
            Frame::QueryResponse {
                result: vec![1, 4, 0],
            },
            "0c03010400",
        ),
        (
            "AnalyzeRequest",
            Frame::AnalyzeRequest {
                job: "jacobi-0042".into(),
                options: vec![1, 1, 5, 9],
            },
            "0d0b6a61636f62692d303034320401010509",
        ),
        (
            "AnalyzeResponse",
            Frame::AnalyzeResponse {
                result: vec![1, 2, 0, 0],
            },
            "0e0401020000",
        ),
        (
            "MergedBlock",
            merged_block(),
            "0f04048010808040050504030201",
        ),
        (
            "Error",
            Frame::Error {
                code: codes::CST_MISMATCH,
                message: "structure differs".into(),
            },
            "0703117374727563747572652064696666657273",
        ),
    ]
}

/// Every sample: the frames above, then each self-versioned blob and
/// container-section payload.
pub fn for_each_sample(v: &mut impl Visitor) {
    for (name, frame, hex) in frames() {
        v.visit(name, &frame, hex);
    }
    v.visit(
        "Stats",
        &stats(),
        "02d285d8cc040805c0b802f4c8b90f02040001c03e0100dc0b07020cac020300010c62617463685f6576656e74734f80048020808002",
    );
    // Query blobs at query wire version 2, whose options carry the window alone.
    v.visit("QueryOptions", &QueryOptions::default(), "0200");
    v.visit(
        "QueryOptions+window",
        &windowed_query_options(),
        "0201e807fface204",
    );
    v.visit(
        "QueryResult",
        &query_result(),
        "0203010300960100000000f0a204000003000c8060a4032323010c8060b8085a5a090318f02ed00fd00f03a403b808f02e03c0843d00809f492800000000030000000000001800000000000000000000000000000000000000000000000000000000038060000d0080600d0000000207000c80600e4c6f6f702333203e204272542335c8010903000024",
    );
    v.visit("AnalyzeOptions", &AnalyzeOptions::default(), "0100");
    v.visit(
        "AnalyzeOptions+window",
        &AnalyzeOptions { window: window() },
        "0101e807fface204",
    );
    v.visit(
        "AnalyzeReport",
        &analyze_report(),
        "0103e807010364fa01af01fa0103285a000300030200ac02000103008201140207820102ac021401010200010a645a",
    );
    v.visit(
        "SimResult",
        &sim_result(),
        "010364fa01af01fa0103285a000300030200ac0200",
    );
    v.visit(
        "WaitReport",
        &wait_report(),
        "0103008201140207820102ac021401",
    );
    v.visit(
        "TelemetrySummary",
        &telemetry(),
        "01cec2f105c0b8020804030206696e67657374c0a8a5048087a70e080a28756e747261636564298e91528e915201",
    );
    v.visit(
        "MetaInfo",
        &meta(),
        "076379707265737305302e312e3004e80780f403",
    );
    // `crates/core`'s section payloads, captured on the commit before its
    // decoders moved onto the combinators and re-captured when the
    // collective's histogram timing became exact moments.
    v.visit_ctt("Ctt", &rank_ctt(1), "0104d1843d0900010114000101020100040501030102030200008040010e01000005030500e4ab1200ce91b0a3cf0279e0a7120305008827008898b102de07f2070301030001008040010e01000005030500c80100c23e27290305000000000000030105000000010101010002030405030500b3b90600ed9890b813b542f0a2040305004b00e5080f0f010100020a01030200030100008001010001000028032800981100a8b1073737032800c03e0080d461c801c80100030100008002010201000005030500b602009e96013c40030000000000000003010900000010010101000001030100f1a20400e1e7c8a012f1a204f1a2040301000300090303");
    // The same rank as the build with three time modes wrote it, its
    // collective timed by a histogram: refused, naming the tag.
    v.refused_ctt("Ctt/histogram", "0104d1843d0900010114000101020100040501030102030200008040010e01000005030500e4ab1200ce91b0a3cf0279e0a7120305008827008898b102de07f2070301030001008040010e01000005030500c80100c23e27290305000000000000030105000000010101010002030405030500b3b90600ed9890b813b542f0a2040305004b00e5080f0f010100020a01030200030100008001010001000028032800981100a8b1073737032800c03e0080d461c801c80100030100008002010201000005030500b602009e96013c4003000000000000000301090000001001010100000101010111010101010201", "TimeStats tag 1 ");
    v.visit("MergedCtt", &merged_ctt(), "040180897a220401090001010100020401010114000101010201000001010201020405010102020301020100040501020102010002030102030200008040010e01000005030f00ac833700ecb490eaed0778e0a712030f0098750098c89307de07f207010600010102030500008040010e01000005030500e6ab1200b695b0a3cf027be0a7120305008827008898b102de07f2070201010100020401030001008040010e01000005031400a0060088fa0127290314000000000000020101010002040105000000010101010002030405031400cee519008eedc2e04db442f0a204031400ac020094230f0f01010100020401010100020a01020202010000010100030600008001010001000028032800981100a8b1073737032800c03e0080d461c801c801010202030100030100008001010001000028037800c83300f893163737037800c0bb010080fca402c801c80102010000010100030600008002010201000005030500b602009e96013c400300000000000000010202030100030100008002010201000005030f00a20700dac2033c40030000000000000002010101000204010900000010010101000001030400c68b1100ceaab48249f0a204f3a2040304000c00240303");
    refusals(v);
}

/// One refused input for each check: a narrowing, a version, a byte
/// string running past the input, a string that is not UTF-8, a capped
/// count, an unknown code and a trailing byte.
fn refusals(v: &mut impl Visitor) {
    let frame = refusal::<Frame>;
    // Rank 2³² + 3 is not rank 3.
    v.refused(
        "Hello/rank 2^32+3",
        &unhex("01058380808010080000"),
        frame,
        "decode error: Hello rank 4294967299 does not fit in 32 bits",
    );
    v.refused(
        "Hello/mode 9",
        &unhex("0105030809"),
        frame,
        "decode error: bad submit mode 9",
    );
    v.refused(
        "Events/tag 7",
        &unhex("030107"),
        frame,
        "decode error: bad event tag 7",
    );
    v.refused(
        "Error/overrun",
        &unhex("07030561"),
        frame,
        "decode error: byte string of length 5 exceeds remaining 1",
    );
    v.refused(
        "Error/utf-8",
        &unhex("070302fffe"),
        frame,
        "decode error: invalid utf-8 string: invalid utf-8 sequence of 1 bytes from index 0",
    );
    v.refused(
        "StatsRequest/trailing",
        &unhex("0900"),
        frame,
        "decode error: 1 trailing bytes after decode",
    );
    v.refused(
        "Stats frame/version 1",
        &unhex("0a0101"),
        frame,
        "decode error: stats payload version 1 unsupported (expected 2)",
    );
    v.refused(
        "Stats frame/trailing",
        &unhex("0a3702d285d8cc040805c0b802f4c8b90f02040001c03e0100dc0b07020cac020300010c62617463685f6576656e74734f8004802080800200"),
        frame,
        "decode error: 1 trailing bytes after decode",
    );
    v.refused(
        "Stats/version 1",
        &unhex("01"),
        refusal::<Stats>,
        "decode error: stats payload version 1 unsupported (expected 2)",
    );
    v.refused(
        "Stats/clients 2^20+1",
        &counted("02000000000000", (1 << 20) + 1),
        refusal::<Stats>,
        "decode error: stats clients claims 1048577 entries, at most 1048576 allowed",
    );
    v.refused(
        "QueryOptions/version 3",
        &unhex("0300"),
        refusal::<QueryOptions>,
        "decode error: query options wire version 3 unsupported (expected 2)",
    );
    v.refused(
        "QueryOptions/trailing",
        &unhex("020000"),
        refusal::<QueryOptions>,
        "decode error: 1 trailing bytes after decode",
    );
    v.refused(
        "QueryResult/version 1",
        &unhex("01"),
        refusal::<QueryResult>,
        "decode error: query result wire version 1 unsupported (expected 2)",
    );
    v.refused(
        "AnalyzeOptions/version 2",
        &unhex("0200"),
        refusal::<AnalyzeOptions>,
        "decode error: analyze options wire version 2 unsupported (expected 1)",
    );
    v.refused(
        "AnalyzeReport/version 0",
        &unhex("00"),
        refusal::<AnalyzeReport>,
        "decode error: analyze report wire version 0 unsupported (expected 1)",
    );
    v.refused(
        "SimResult/version 2",
        &unhex("02"),
        refusal::<SimResult>,
        "decode error: sim result wire version 2 unsupported (expected 1)",
    );
    v.refused(
        "WaitReport/version 2",
        &unhex("02"),
        refusal::<WaitReport>,
        "decode error: wait report wire version 2 unsupported (expected 1)",
    );
    v.refused(
        "TelemetrySummary/version 2",
        &unhex("02"),
        refusal::<TelemetrySummary>,
        "decode error: telemetry payload version 2 unsupported (expected 1)",
    );
    v.refused(
        "TelemetrySummary/stages 4097",
        &counted("010000000000", 4097),
        refusal::<TelemetrySummary>,
        "decode error: telemetry stages claims 4097 entries, at most 4096 allowed",
    );
    v.refused(
        "container/sections 2^24+1",
        &container(&counted("04", (1 << 24) + 1)),
        container_refusal,
        "corrupt container: decode error: container sections claims 16777217 entries, \
         at most 16777216 allowed",
    );
}
