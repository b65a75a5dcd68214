//! End-to-end identity across the three query paths: for bundled
//! workloads, the in-memory job ([`cypress::CompressedJob`], owned CTTs),
//! the zero-copy store ([`cypress::store::JobStore`], slabs decoded from the
//! file), and the resident daemon must produce byte-identical answers —
//! same canonical wire bytes, same JSON.
//! Also pins the analysis frames (protocol v3) and both directions of
//! version negotiation on the query port.

use cypress::analysis::AnalyzeOptions;
use cypress::net::proto::{codes, read_frame, write_frame, Frame};
use cypress::net::{Addr, Listener, Stream};
use cypress::query::Window;
use cypress::store::{
    analyze_remote, query_remote, JobStore, QueryClient, StoreConfig, StoreError,
};
use cypress::trace::Codec;
use cypress::workloads::{by_name, quick_procs, Scale};
use cypress::{Pipeline, QueryOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "cypress-store-queryd-{name}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn all_three_query_paths_agree_on_bundled_workloads() {
    let tmp = TempDir::new("identity");
    let names = ["jacobi", "cg", "dt", "mg"];
    let mut jobs = Vec::new();
    for name in names {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let mut job = Pipeline::new(w.source)
            .ranks(w.nprocs)
            .run()
            .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
        job.merge();
        job.write_container_with(tmp.0.join(format!("{name}.cytc")), true, None)
            .unwrap();
        jobs.push(job);
    }

    let store = Arc::new(JobStore::new(&tmp.0, StoreConfig::default()).unwrap());
    let addr = cypress::net::Addr::parse("127.0.0.1:0").unwrap();
    let server = cypress::store::spawn(store.clone(), &addr).unwrap();

    let opts = [
        QueryOptions::default(),
        QueryOptions {
            window: Some(cypress::query::Window {
                start_ns: 0,
                end_ns: u64::MAX,
            }),
        },
    ];
    for (name, local) in names.into_iter().zip(&jobs) {
        for opt in &opts {
            let reference = local.query_with(opt).unwrap();
            let via_store = store.open(name).unwrap().query(opt).unwrap();
            assert_eq!(via_store, reference, "{name}: store != in-memory");
            assert_eq!(
                via_store.to_bytes(),
                reference.to_bytes(),
                "{name}: store wire bytes differ"
            );
            let via_daemon =
                query_remote(server.addr(), name, opt, Duration::from_secs(20)).unwrap();
            assert_eq!(via_daemon, reference, "{name}: remote != local");
            assert_eq!(
                via_daemon.to_bytes(),
                reference.to_bytes(),
                "{name}: remote wire bytes differ"
            );
            assert_eq!(
                via_daemon.render_json(),
                reference.render_json(),
                "{name}: remote JSON differs"
            );
        }
    }
    server.stop();
}

/// One workload container in a fresh store, served by a daemon.
fn serve_one(tag: &str, name: &str) -> (TempDir, Arc<JobStore>, cypress::store::ServerHandle) {
    let tmp = TempDir::new(tag);
    let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
    let mut job = Pipeline::new(w.source)
        .ranks(w.nprocs)
        .run()
        .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
    job.merge();
    job.write_container_with(tmp.0.join(format!("{name}.cytc")), true, None)
        .unwrap();
    let store = Arc::new(JobStore::new(&tmp.0, StoreConfig::default()).unwrap());
    let addr = Addr::parse("127.0.0.1:0").unwrap();
    let server = cypress::store::spawn(store.clone(), &addr).unwrap();
    (tmp, store, server)
}

#[test]
fn analyze_remote_equals_local_including_windowed() {
    let (_tmp, store, server) = serve_one("analyze", "jacobi");
    let opts_list = [
        AnalyzeOptions::default(),
        AnalyzeOptions {
            window: Some(Window {
                start_ns: 0,
                end_ns: u64::MAX,
            }),
        },
    ];
    let handle = store.open("jacobi").unwrap();
    for opts in &opts_list {
        let local = handle.analyze(opts).unwrap();
        let remote =
            analyze_remote(server.addr(), "jacobi", opts, Duration::from_secs(20)).unwrap();
        assert_eq!(remote, local, "remote analysis != local");
        assert_eq!(
            remote.to_bytes(),
            local.to_bytes(),
            "analysis wire bytes differ"
        );
        assert_eq!(
            remote.render_json(),
            local.render_json(),
            "analysis JSON differs"
        );
    }
    server.stop();
}

/// New-client/old-server direction: a peer that answers a frame it does not
/// understand with a protocol `Error` frame (exactly what this server does
/// for unknown codes) must surface as `StoreError::Remote` in the client,
/// not as a transport failure.
#[test]
fn client_surfaces_protocol_error_from_older_server() {
    let listener = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        let mut s = listener.accept().unwrap();
        // An old server fails to decode the analysis frame and answers with
        // the stock protocol error, keeping the connection open.
        let _ = read_frame(&mut s);
        write_frame(
            &mut s,
            &Frame::Error {
                code: codes::PROTOCOL,
                message: "unsupported frame code 13".into(),
            },
        )
        .unwrap();
    });
    let err = analyze_remote(
        &addr,
        "jacobi",
        &AnalyzeOptions::default(),
        Duration::from_secs(20),
    )
    .unwrap_err();
    t.join().unwrap();
    match err {
        StoreError::Remote { code, .. } => assert_eq!(code, codes::PROTOCOL),
        other => panic!("expected Remote protocol error, got {other:?}"),
    }
}

/// Hand-craft a frame around any body: `[len u32][body = code +
/// payload][crc32(body)]`.
fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(body);
    wire.extend_from_slice(&cypress::deflate::crc32(body).to_le_bytes());
    wire
}

/// Old-client/new-server direction: the server answers frame codes from the
/// future with a protocol error frame *without dropping the connection*, so
/// an interleaved v2-style query on the same stream still succeeds.
#[test]
fn unknown_frame_gets_error_reply_and_connection_survives() {
    let (_tmp, store, server) = serve_one("unknown-frame", "jacobi");
    let mut s = Stream::connect(server.addr(), Duration::from_secs(5)).unwrap();
    s.set_io_timeout(Duration::from_secs(20)).unwrap();

    // A frame with a code this server has never heard of.
    s.write_all(&raw_frame(&[0xEE, 7, 7, 7])).unwrap();
    s.flush().unwrap();

    match read_frame(&mut s).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, codes::PROTOCOL);
            assert!(
                message.contains("238"),
                "error should name the offending code: {message}"
            );
        }
        other => panic!("expected protocol error frame, got {}", other.name()),
    }

    // The same connection must still answer a plain (v2-era) query...
    write_frame(
        &mut s,
        &Frame::QueryRequest {
            job: "jacobi".into(),
            options: QueryOptions::default().to_bytes(),
        },
    )
    .unwrap();
    let reference = store
        .open("jacobi")
        .unwrap()
        .query(&QueryOptions::default())
        .unwrap();
    match read_frame(&mut s).unwrap() {
        Frame::QueryResponse { result } => {
            assert_eq!(result, reference.to_bytes(), "query after unknown frame");
        }
        other => panic!("expected query response, got {}", other.name()),
    }

    // ...and an analysis request (v3) on the very same stream.
    write_frame(
        &mut s,
        &Frame::AnalyzeRequest {
            job: "jacobi".into(),
            options: AnalyzeOptions::default().to_bytes(),
        },
    )
    .unwrap();
    let want = store
        .open("jacobi")
        .unwrap()
        .analyze(&AnalyzeOptions::default())
        .unwrap();
    match read_frame(&mut s).unwrap() {
        Frame::AnalyzeResponse { result } => {
            assert_eq!(result, want.to_bytes(), "analysis after unknown frame");
        }
        other => panic!("expected analyze response, got {}", other.name()),
    }
    server.stop();
}

fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    cypress::net::proto::encode_frame_into(frame, &mut wire);
    wire
}

/// A request that arrives in pieces is still one request: the daemon waits
/// for the rest of the frame instead of resetting the connection. Then, on
/// the same connection, three pipelined requests get three replies in order.
#[test]
fn torn_and_pipelined_requests_are_answered_in_order() {
    let (_tmp, store, server) = serve_one("torn", "jacobi");
    let job = store.open("jacobi").unwrap();
    let want_query = job.query(&QueryOptions::default()).unwrap().to_bytes();
    let want_analyze = job.analyze(&AnalyzeOptions::default()).unwrap().to_bytes();
    let query = frame_bytes(&Frame::QueryRequest {
        job: "jacobi".into(),
        options: QueryOptions::default().to_bytes(),
    });
    let analyze = frame_bytes(&Frame::AnalyzeRequest {
        job: "jacobi".into(),
        options: AnalyzeOptions::default().to_bytes(),
    });
    let unknown = raw_frame(&[0xEE, 1, 2]);

    let mut s = Stream::connect(server.addr(), Duration::from_secs(5)).unwrap();
    s.set_io_timeout(Duration::from_secs(20)).unwrap();
    s.write_all(&query[..2]).unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150));
    s.write_all(&query[2..]).unwrap();
    match read_frame(&mut s).unwrap() {
        Frame::QueryResponse { result } => assert_eq!(result, want_query, "torn request"),
        other => panic!("expected query response, got {}", other.name()),
    }

    s.write_all(&[query, analyze, unknown].concat()).unwrap();
    match read_frame(&mut s).unwrap() {
        Frame::QueryResponse { result } => assert_eq!(result, want_query, "pipelined query"),
        other => panic!("first reply: got {}", other.name()),
    }
    match read_frame(&mut s).unwrap() {
        Frame::AnalyzeResponse { result } => assert_eq!(result, want_analyze, "pipelined analyze"),
        other => panic!("second reply: got {}", other.name()),
    }
    match read_frame(&mut s).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, codes::PROTOCOL);
            assert!(message.contains("238"), "{message}");
        }
        other => panic!("third reply: got {}", other.name()),
    }
    server.stop();
}

/// Connections cost no threads: 256 idle ones stay open while another is
/// served, and stopping the daemon closes every one of them.
#[test]
fn idle_connections_are_multiplexed_and_closed_on_stop() {
    let (_tmp, store, server) = serve_one("idle", "jacobi");
    let opts = QueryOptions::default();
    let want = store
        .open("jacobi")
        .unwrap()
        .query(&opts)
        .unwrap()
        .to_bytes();
    let connect = || QueryClient::connect(server.addr(), Duration::from_secs(20)).unwrap();
    let mut idle: Vec<QueryClient> = (0..256).map(|_| connect()).collect();

    let mut busy = connect();
    for i in 0..200 {
        let got = busy.query_raw("jacobi", &opts).unwrap();
        assert_eq!(got, want, "query {i} with 256 idle connections open");
    }
    // The idle ones were adopted, not left in a backlog: each still answers.
    for i in [0, 100, 255] {
        assert_eq!(idle[i].query_raw("jacobi", &opts).unwrap(), want);
    }

    server.stop();
    for (i, c) in idle.iter_mut().enumerate() {
        match c.query_raw("jacobi", &opts) {
            Err(StoreError::Net(cypress::net::NetError::Io(e))) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "idle connection {i} still open after stop: {e}"
            ),
            other => panic!("idle connection {i}: expected EOF, got {other:?}"),
        }
    }
}
