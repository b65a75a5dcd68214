//! End-to-end tests of the `cypress` command-line binary.

use std::fs;
use std::io::BufRead;
use std::process::{Command, Stdio};

fn cypress() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cypress"))
}

fn write_program(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("ring.mpi");
    fs::write(
        &path,
        r#"
        fn main() {
            for k in 0..30 {
                let a = isend((rank() + 1) % size(), 2048, 0);
                let b = irecv((rank() + size() - 1) % size(), 2048, 0);
                waitall(a, b);
                compute(5000);
            }
            allreduce(8);
        }
        "#,
    )
    .expect("write program");
    path
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cypress-cli-test-{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn cst_command_prints_tree() {
    let dir = tmpdir("cst");
    let prog = write_program(&dir);
    let out = cypress().arg("cst").arg(&prog).output().expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Root(Loop("));
    assert!(stdout.contains("MPI_Isend"));
    assert!(stdout.contains("MPI_Allreduce"));
}

#[test]
fn compress_then_decompress_round_trip() {
    let dir = tmpdir("compress");
    let prog = write_program(&dir);
    // No --per-rank: rank 5 is extracted from the merged section.
    let container = dir.join("ring.cytc");
    let out = cypress()
        .args(["compress"])
        .arg(&prog)
        .args(["-n", "8", "-o"])
        .arg(&container)
        .output()
        .expect("run compress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let header = fs::read(&container).expect("container");
    assert_eq!(&header[..4], b"CYTC");
    // The container is the only output: the CST travels inside it.
    assert!(!dir.join("ring.cytc.cst").exists());

    let out = cypress()
        .arg("decompress")
        .arg(&container)
        .args(["-r", "5"])
        .output()
        .expect("run decompress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 30 iterations × 3 ops + 1 allreduce = 91 operations for rank 5.
    assert!(stdout.contains("# rank 5: 91 operations"), "{stdout}");
    assert!(stdout.contains("MPI_Waitall"));

    // Anything else is refused by name, whatever flags come with it.
    let bare = dir.join("ring.ctt");
    fs::write(&bare, b"\x08\x01not a container").unwrap();
    let out = cypress()
        .arg("decompress")
        .arg(&bare)
        .args(["-r", "5"])
        .output()
        .expect("run decompress on a non-container");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a cypress container"), "{stderr}");
}

/// `inspect` reports the merged CTT's counts whether the container stores
/// the merged section (no `--per-rank`) or derives it from every rank's
/// section (`--per-rank`), and the two agree; `--json` says which it is.
#[test]
fn inspect_reports_merged_counts_with_or_without_the_section() {
    let dir = tmpdir("merged-counts");
    let prog = write_program(&dir);
    let run = |args: &[&str]| {
        let out = cypress().args(args).output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let (merged, ranks) = (dir.join("merged.cytc"), dir.join("ranks.cytc"));
    let (merged, ranks) = (merged.to_str().unwrap(), ranks.to_str().unwrap());
    let prog = prog.to_str().unwrap();
    let out = run(&["compress", prog, "-n", "8", "-o", merged]);
    assert!(out.contains("container: cst + merged)"), "{out}");
    run(&["compress", prog, "-n", "8", "-o", ranks, "--per-rank"]);

    let stored = run(&["inspect", merged]);
    assert!(stored.contains("merged-ctt"), "{stored}");
    assert!(!stored.contains("rank-ctt"), "{stored}");
    let derived = run(&["inspect", ranks]);
    let counts = |text: &str| {
        let line = text.lines().find(|l| l.starts_with("merged CTT")).unwrap();
        line.rsplit_once(": ").unwrap().1.to_string()
    };
    assert!(counts(&stored).ends_with("rank groups"), "{stored}");
    assert_eq!(counts(&stored), counts(&derived));

    let json = |path| run(&["inspect", path, "--json"]);
    assert!(json(merged).contains(",\"derived\":false}"));
    assert!(json(ranks).contains(",\"derived\":true}"));
}

/// A flag's value ahead of the file is not taken for the file: flags-first
/// spellings write and print what the flags-last ones do.
#[test]
fn flags_before_the_positional_are_skipped_with_their_values() {
    let dir = tmpdir("flags-first");
    let prog = write_program(&dir);
    let (last, first) = (dir.join("last.cytc"), dir.join("first.cytc"));
    let run = |cmd: &mut Command| {
        let out = cmd.output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    run(cypress()
        .arg("compress")
        .arg(&prog)
        .args(["-n", "4", "-o"])
        .arg(&last));
    run(cypress()
        .args(["compress", "-n", "4"])
        .arg(&prog)
        .arg("-o")
        .arg(&first));
    assert_eq!(fs::read(&last).unwrap(), fs::read(&first).unwrap());

    let flags_last = run(cypress().arg("decompress").arg(&last).args(["-r", "1"]));
    let flags_first = run(cypress().args(["decompress", "-r", "1"]).arg(&last));
    assert!(!flags_last.is_empty());
    assert_eq!(flags_last, flags_first);
}

#[test]
fn stream_compress_inspect_decompress_round_trip() {
    let dir = tmpdir("stream");
    let prog = write_program(&dir);
    let container = dir.join("ring.cytc");
    let out = cypress()
        .args(["compress"])
        .arg(&prog)
        .args(["-n", "8", "--per-rank", "-o"])
        .arg(&container)
        .output()
        .expect("run compress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("streamed"), "{stdout}");
    assert!(stdout.contains("peak resident CTT"), "{stdout}");
    assert!(
        stdout.contains("container: cst + 8 rank sections)"),
        "{stdout}"
    );

    let out = cypress()
        .arg("inspect")
        .arg(&container)
        .output()
        .expect("run inspect");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cypress container v3, 8 ranks"), "{stdout}");
    for kind in ["meta", "cst-text", "rank-ctt"] {
        assert!(stdout.contains(kind), "missing {kind} in:\n{stdout}");
    }
    // Every rank has its section, so no merged one is stored; the merged
    // counts are still reported, labelled as derived from the rank sections.
    assert!(!stdout.contains("merged-ctt"), "{stdout}");
    assert!(stdout.contains("rank groups"), "{stdout}");
    assert!(stdout.contains("merged CTT (derived"), "{stdout}");

    // With --per-rank the replay reads rank 5's own section.
    let out = cypress()
        .arg("decompress")
        .arg(&container)
        .args(["-r", "5"])
        .output()
        .expect("run decompress");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# rank 5: 91 operations"), "{stdout}");
}

#[test]
fn corrupt_container_is_rejected_cleanly() {
    let dir = tmpdir("corrupt");
    let prog = write_program(&dir);
    let container = dir.join("ring.cytc");
    let out = cypress()
        .args(["compress"])
        .arg(&prog)
        .args(["-n", "4", "-o"])
        .arg(&container)
        .output()
        .expect("run compress");
    assert!(out.status.success());
    let mut bytes = fs::read(&container).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(&container, &bytes).unwrap();
    let out = cypress()
        .arg("inspect")
        .arg(&container)
        .output()
        .expect("run inspect on corrupt file");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crc mismatch") || stderr.contains("corrupt"),
        "{stderr}"
    );
}

#[test]
fn simulate_reports_prediction() {
    let dir = tmpdir("simulate");
    let prog = write_program(&dir);
    let out = cypress()
        .arg("simulate")
        .arg(&prog)
        .args(["-n", "4"])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("measured"));
    assert!(stdout.contains("prediction error"));

    // The predicted line is the decompress-then-simulate oracle's total for
    // the same program and -n, to the three printed decimals.
    use cypress::analysis::{analyze_by_decompression, AnalyzeOptions};
    use cypress::core::{compress_trace, CompressConfig, Ctt};
    use cypress::runtime::{trace_program, InterpConfig};
    let p = cypress::minilang::parse(&fs::read_to_string(&prog).unwrap()).unwrap();
    cypress::minilang::check_program(&p).unwrap();
    let info = cypress::cst::analyze_program(&p);
    let ctts: Vec<Ctt> = trace_program(&p, &info, 4, &InterpConfig::default())
        .unwrap()
        .iter()
        .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
        .collect();
    let oracle = analyze_by_decompression(
        &info.cst,
        &ctts,
        &cypress::simmpi::LogGp::default(),
        &AnalyzeOptions::default(),
    )
    .unwrap();
    let want = format!("{:.3} ms", oracle.predicted.total as f64 / 1e6);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("predicted (compressed):"))
        .unwrap_or_else(|| panic!("no predicted line in {stdout}"));
    assert_eq!(
        line.trim_start_matches("predicted (compressed):").trim(),
        want
    );
}

#[test]
fn dump_prints_events() {
    let dir = tmpdir("dump");
    let prog = write_program(&dir);
    let out = cypress()
        .arg("dump")
        .arg(&prog)
        .args(["-n", "2", "-r", "1"])
        .output()
        .expect("run dump");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# rank 1/2"));
    assert!(stdout.contains("MPI_Isend"));
}

#[test]
fn metrics_flag_emits_report_and_jsonl() {
    let dir = tmpdir("metrics");
    let prog = write_program(&dir);
    let merged = dir.join("ring.cytc");
    let out = cypress()
        .current_dir(&dir)
        .args(["--metrics", "compress"])
        .arg(&prog)
        .args(["-n", "4", "-o"])
        .arg(&merged)
        .output()
        .expect("run compress --metrics");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== metrics =="), "{stdout}");
    // Every pipeline layer exercised by `compress` must be represented.
    for scope in ["interp", "compressor", "merge", "codec"] {
        assert!(
            stdout.contains(scope),
            "missing scope {scope} in:\n{stdout}"
        );
    }
    assert!(stdout.contains("events_emitted"));
    assert!(stdout.contains("leaf_fold_hits"));
    // The JSONL sidecar exists and every line is a flat JSON object.
    let jsonl = fs::read_to_string(dir.join("results/metrics.jsonl")).expect("metrics.jsonl");
    assert!(!jsonl.trim().is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"subsystem\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
    }
}

#[test]
fn bad_input_fails_cleanly() {
    let dir = tmpdir("bad");
    let path = dir.join("broken.mpi");
    fs::write(&path, "fn main() { send(0, 1 }").unwrap();
    let out = cypress().arg("cst").arg(&path).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let out = cypress().arg("nonsense").output().expect("run");
    assert!(!out.status.success());

    // A flag the binary does not know (one it never had, one it used to
    // have) or a value-taking flag with nothing after it: exit 1, the
    // message names the flag, nothing is written.
    let prog = write_program(&dir);
    let container = dir.join("never.cytc");
    for (extra, want) in [
        ("--bogus", "unknown flag --bogus"),
        ("--pipelined", "unknown flag --pipelined"),
        ("--level", "--level needs a value"),
    ] {
        let out = cypress()
            .arg("compress")
            .arg(&prog)
            .args(["-n", "4", "-o"])
            .arg(&container)
            .arg(extra)
            .output()
            .expect("run compress");
        assert_eq!(out.status.code(), Some(1), "{extra}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{extra}: {stderr}");
        assert!(!container.exists(), "{extra} still wrote the container");
    }

    // `--level` is the container's: `none` is no level (leaving the flag
    // out already stores raw sections), and submit, which sends its CTT
    // raw, refuses the flag instead of ignoring it.
    let prog = prog.to_str().unwrap();
    let file = container.to_str().unwrap();
    let compress = ["compress", prog, "-n", "4", "-o", file];
    let submit_ctt = ["submit", prog, "-n", "4", "--rank", "0", "--mode", "ctt"];
    for (argv, level, want) in [
        (&compress[..], "none", "unknown --level `none`"),
        (&compress[..], "max", "unknown --level `max`"),
        (&submit_ctt[..], "fast", "submit takes no --level"),
        (&submit_ctt[..], "none", "submit takes no --level"),
    ] {
        let out = cypress()
            .args(argv)
            .args(["--connect", "127.0.0.1:1", "--level", level])
            .output()
            .expect("run");
        let what = format!("{} --level {level}", argv[0]);
        assert_eq!(out.status.code(), Some(1), "{what}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{what}: {stderr}");
        assert!(!container.exists(), "{what} still wrote the container");
    }

    // A reader that closes the pipe early (`| head -1`) ends the command
    // quietly: no panic, no exit 101. The output is far larger than a pipe
    // buffer, so the writer is still writing when the pipe goes.
    let long = dir.join("long.mpi");
    fs::write(
        &long,
        "fn main() { for k in 0..20000 { send((rank() + 1) % size(), 8, 0); \
         recv((rank() + size() - 1) % size(), 8, 0); } }",
    )
    .unwrap();
    let long_cytc = dir.join("long.cytc");
    let out = cypress()
        .arg("compress")
        .arg(&long)
        .args(["-n", "4", "--per-rank", "-o"])
        .arg(&long_cytc)
        .output()
        .expect("run compress");
    assert!(out.status.success(), "{out:?}");
    let mut child = cypress()
        .arg("decompress")
        .arg(&long_cytc)
        .args(["-r", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn decompress");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("# rank 2: "), "{first}");
    let out = child.wait_with_output().expect("wait for decompress");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");

    // Rank sections from another program's run: the container's CST has
    // 2 vertices, its trees 7. Every command that opens the job refuses it
    // with exit 1, naming the section, never a panic in the replay.
    let tiny = dir.join("tiny.mpi");
    fs::write(&tiny, "fn main() { barrier(); }").unwrap();
    let tiny_cytc = dir.join("tiny.cytc");
    let ring_cytc = dir.join("ring.cytc");
    for (src, out) in [(&tiny, &tiny_cytc), (&dir.join("ring.mpi"), &ring_cytc)] {
        let run = cypress()
            .arg("compress")
            .arg(src)
            .args(["-n", "4", "--per-rank", "-o"])
            .arg(out)
            .output()
            .expect("run compress");
        assert!(run.status.success(), "{run:?}");
    }
    let misfit = dir.join("misfit.cytc");
    splice_cst(&tiny_cytc, &ring_cytc, &misfit);
    let misfit = misfit.to_str().unwrap();
    for argv in [
        vec!["decompress", misfit, "--rank", "0"],
        vec!["query", misfit],
        vec!["analyze", "predict", misfit],
        vec!["inspect", misfit],
    ] {
        let out = cypress().args(&argv).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(stderr.contains("rank-ctt section"), "{argv:?}: {stderr}");
        assert!(stderr.contains("the job's CST 2"), "{argv:?}: {stderr}");
    }

    // The same rank sections stored out of order, and with rank 0 stored in
    // rank 1's place: `inspect` opens them as `query` does. The swapped job
    // reports the in-order counts and answers alike; the repeated rank is
    // refused with exit 1, naming both sections, never a merge panic.
    let (nprocs, in_order) = sections(&ring_cytc);
    let ranks: Vec<usize> = (0..in_order.len())
        .filter(|&i| in_order[i].0 == cypress::trace::SectionKind::RankCtt)
        .collect();
    let mut swapped = in_order.clone();
    swapped.swap(ranks[0], ranks[1]);
    let mut repeated = in_order.clone();
    repeated[ranks[1]] = in_order[ranks[0]].clone();
    let (swapped_cytc, repeated_cytc) = (dir.join("swapped.cytc"), dir.join("repeated.cytc"));
    write_sections(&swapped_cytc, nprocs, &swapped);
    write_sections(&repeated_cytc, nprocs, &repeated);
    let stdout = |argv: &[&std::path::Path]| {
        let out = cypress().args(argv).output().expect("run");
        assert!(out.status.success(), "{argv:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let counts = |path: &std::path::Path| {
        let text = stdout(&["inspect".as_ref(), path]);
        let line = text.lines().find(|l| l.starts_with("merged CTT")).unwrap();
        line.to_string()
    };
    assert_eq!(counts(&swapped_cytc), counts(&ring_cytc));
    let query = |path: &std::path::Path| stdout(&["query".as_ref(), path]);
    assert_eq!(
        query(&swapped_cytc).replace("swapped.cytc", "ring.cytc"),
        query(&ring_cytc)
    );
    for cmd in ["inspect", "query"] {
        let out = cypress()
            .arg(cmd)
            .arg(&repeated_cytc)
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        let both = format!(
            "sections [{}] and [{}] both hold rank 0",
            ranks[0], ranks[1]
        );
        assert!(stderr.contains(&both), "{cmd}: {stderr}");
    }

    // A numeric flag whose value does not parse: exit 1 naming the flag,
    // before anything is read, bound or connected. The listen socket's
    // directory does not exist, so a value that slipped through would fail
    // at bind rather than serve.
    let sock = format!("unix:{}", dir.join("missing/c.sock").display());
    let store = dir.join("missing").display().to_string();
    let serve = ["serve", "--listen", &sock, "--out", file];
    let queryd = ["queryd", "--listen", &sock, "--store", &store];
    let submit = ["submit", prog, "-n", "4", "--connect", "127.0.0.1:1"];
    let cases: [(&str, Vec<&str>); 10] = [
        ("-n", vec!["compress", prog, "-o", file]),
        ("--threads", vec!["compress", prog, "-o", file, "-n", "4"]),
        ("-r", vec!["decompress", file]),
        ("--limit", vec!["query", file]),
        ("--max-jobs", queryd.to_vec()),
        ("--max-bytes", queryd.to_vec()),
        ("--timeout", serve.to_vec()),
        ("--tree", [&serve[..], &["-n", "4"]].concat()),
        ("--rank", submit.to_vec()),
        ("--attempts", [&submit[..], &["--rank", "0"]].concat()),
    ];
    for (flag, mut argv) in cases {
        argv.extend([flag, "x"]);
        let out = cypress().args(&argv).output().expect("run");
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad {flag} value")),
            "{flag}: {stderr}"
        );
    }
    // Seconds that parse but are no duration: refused the same way.
    for secs in ["-1", "nan", "1e300"] {
        let out = cypress()
            .args(serve)
            .args(["--timeout", secs])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(1), "--timeout {secs}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad --timeout value"),
            "--timeout {secs}: {stderr}"
        );
    }
    // A job of zero ranks is refused by every command that runs one, naming
    // -n, before anything is traced, simulated or written.
    let traces = dir.join("never-traces");
    let traces = traces.to_str().unwrap();
    for argv in [
        vec!["trace", prog, "-o", traces],
        vec!["dump", prog],
        vec!["stats", prog],
        vec!["simulate", prog],
        vec!["compress", prog, "-o", file],
    ] {
        let out = cypress()
            .args(&argv)
            .args(["-n", "0"])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(1), "{argv:?} -n 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("-n must be at least 1"),
            "{argv:?} -n 0: {stderr}"
        );
    }
    assert!(!dir.join("never-traces").exists());
    assert!(!container.exists());
}

/// Each section's `(kind, rank, payload)`.
type Sections = Vec<(cypress::trace::SectionKind, Option<u32>, Vec<u8>)>;

/// A container's job size and sections, payloads inflated.
fn sections(path: &std::path::Path) -> (u32, Sections) {
    use cypress::trace::{PayloadArena, SectionTable};
    let image = fs::read(path).expect("read container");
    let table = SectionTable::parse(&image).expect("container parses");
    let arena = PayloadArena::new(table.len());
    let all = (0..table.len())
        .map(|i| {
            let info = &table.sections()[i];
            let payload = arena.payload(&image, info, i).expect("payload");
            (info.kind, info.rank, payload.to_vec())
        })
        .collect();
    (table.nprocs, all)
}

/// Write `sections` as a container, raw, every frame sealed with its CRC.
fn write_sections(out: &std::path::Path, nprocs: u32, sections: &Sections) {
    use cypress::trace::{assemble, encode_payload, Container};
    let encoded: Vec<_> = sections
        .iter()
        .map(|(kind, rank, payload)| encode_payload(*kind, *rank, payload, None))
        .collect();
    Container::write_image(out, &assemble(nprocs, &encoded)).expect("write container");
}

/// Write to `out` the container of `cst_from`'s CST and `trees_from`'s rank
/// sections.
fn splice_cst(cst_from: &std::path::Path, trees_from: &std::path::Path, out: &std::path::Path) {
    use cypress::trace::SectionKind;
    let (nprocs, cst) = sections(cst_from);
    let (_, trees) = sections(trees_from);
    let spliced: Sections = cst
        .into_iter()
        .filter(|(kind, ..)| *kind == SectionKind::CstText)
        .chain(
            trees
                .into_iter()
                .filter(|(kind, ..)| *kind == SectionKind::RankCtt),
        )
        .collect();
    write_sections(out, nprocs, &spliced);
}
