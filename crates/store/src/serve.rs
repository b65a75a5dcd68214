//! The resident query daemon: a [`JobStore`] served over the net
//! transport's framed protocol.
//!
//! One connection handles any number of `QueryRequest` and
//! `AnalyzeRequest` frames until the client disconnects — the handle stays
//! hot in the store across requests, which is the whole point of a
//! resident daemon. Failures map onto protocol error frames: unknown job →
//! `not-found`, malformed options → `protocol`, anything else →
//! `internal`; the connection stays open after an error reply, so a
//! scripted client can probe jobs cheaply. Frame codes this build does not
//! know (decoded as `Frame::Unknown`) also get a `protocol` error reply
//! with the connection kept alive — this port exchanges no `Hello`, so that
//! reply is how a peer speaking something else finds out.

use crate::{JobStore, StoreError};
use cypress_analysis::{AnalyzeOptions, AnalyzeReport};
use cypress_net::proto::{codes, read_frame, send_error, write_frame};
use cypress_net::{Addr, Frame, Listener, NetError, Stream};
use cypress_query::{QueryOptions, QueryResult};
use cypress_trace::Codec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll interval for the nonblocking accept loop and the per-connection
/// read timeout; both bound how long shutdown can take.
const POLL: Duration = Duration::from_millis(50);

/// A running daemon. Dropping (or calling [`ServerHandle::stop`]) signals
/// the accept loop and every connection handler, then joins them.
pub struct ServerHandle {
    addr: Addr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved listen address (useful with `host:0` ephemeral binds).
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Signal shutdown and wait for the accept loop and all connection
    /// handlers to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and serve `store` on a background thread.
pub fn spawn(store: Arc<JobStore>, addr: &Addr) -> Result<ServerHandle, StoreError> {
    let listener = Listener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::spawn(move || accept_loop(listener, store, stop2));
    Ok(ServerHandle {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop(listener: Listener, store: Arc<JobStore>, stop: Arc<AtomicBool>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let store = store.clone();
                let stop = stop.clone();
                handlers.push(std::thread::spawn(move || {
                    handle_conn(stream, store, stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Serve one connection until EOF, error, or shutdown.
fn handle_conn(mut stream: Stream, store: Arc<JobStore>, stop: Arc<AtomicBool>) {
    // A short read timeout doubles as the shutdown poll: an idle persistent
    // connection wakes every POLL to check the stop flag.
    if stream.set_io_timeout(POLL).is_err() {
        return;
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            stream.shutdown();
            return;
        }
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(NetError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return, // EOF, torn frame, or dead peer
        };
        match frame {
            Frame::QueryRequest { job, options } => {
                let opts = match QueryOptions::from_bytes(&options) {
                    Ok(o) => o,
                    Err(e) => {
                        send_error(&mut stream, codes::PROTOCOL, format!("bad options: {e}"));
                        continue;
                    }
                };
                match run_query(&store, &job, &opts) {
                    Ok(result) => {
                        if write_frame(&mut stream, &Frame::QueryResponse { result }).is_err() {
                            return;
                        }
                    }
                    Err(e) => reply_store_error(&mut stream, e),
                }
            }
            Frame::AnalyzeRequest { job, options } => {
                let opts = match AnalyzeOptions::from_bytes(&options) {
                    Ok(o) => o,
                    Err(e) => {
                        send_error(&mut stream, codes::PROTOCOL, format!("bad options: {e}"));
                        continue;
                    }
                };
                match run_analyze(&store, &job, &opts) {
                    Ok(result) => {
                        if write_frame(&mut stream, &Frame::AnalyzeResponse { result }).is_err() {
                            return;
                        }
                    }
                    Err(e) => reply_store_error(&mut stream, e),
                }
            }
            // A frame code from a newer client (e.g. an analysis kind this
            // build predates): answer with the ordinary protocol error frame
            // and keep serving — the client learns the capability is missing
            // without losing the connection.
            Frame::Unknown { code } => {
                send_error(
                    &mut stream,
                    codes::PROTOCOL,
                    format!("unsupported frame code {code}"),
                );
            }
            f => {
                send_error(
                    &mut stream,
                    codes::PROTOCOL,
                    format!("unexpected {} frame", f.name()),
                );
                return;
            }
        }
    }
}

fn reply_store_error(stream: &mut Stream, e: StoreError) {
    match e {
        StoreError::NotFound(name) => {
            send_error(stream, codes::NOT_FOUND, format!("job {name:?} not found"));
        }
        e => send_error(stream, codes::INTERNAL, e.to_string()),
    }
}

fn run_query(store: &JobStore, job: &str, opts: &QueryOptions) -> Result<Vec<u8>, StoreError> {
    let handle = store.open(job)?;
    let result: QueryResult = handle.query(opts)?;
    Ok(result.to_bytes())
}

fn run_analyze(store: &JobStore, job: &str, opts: &AnalyzeOptions) -> Result<Vec<u8>, StoreError> {
    let handle = store.open(job)?;
    let result: AnalyzeReport = handle.analyze(opts)?;
    Ok(result.to_bytes())
}
