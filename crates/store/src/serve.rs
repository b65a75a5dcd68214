//! The resident query daemon: a [`JobStore`] as a [`Handler`] on the net
//! crate's one server loop ([`cypress_net::server`]).
//!
//! A connection carries any number of `QueryRequest`/`AnalyzeRequest`
//! frames, pipelined or not, answered in order; the job stays hot in the
//! store across them. Failures are error frames and the connection stays
//! open: unknown job → `not-found`; malformed options → `protocol`; a frame
//! code this build does not know (`Frame::Unknown` — this port exchanges no
//! `Hello`, so that reply is how a foreign peer finds out) → `protocol`;
//! anything else that goes wrong → `internal`. Any other known frame is a
//! `protocol` error and the connection closes.
//!
//! A request evaluates on its loop's thread, so connections sharing a loop
//! wait for it; the thread count is the loop count, whatever the number of
//! connections.

use crate::{JobStore, StoreError, StoreJob};
use cypress_analysis::AnalyzeOptions;
use cypress_net::proto::codes::{INTERNAL, NOT_FOUND, PROTOCOL};
use cypress_net::{Addr, Frame, Handler, Listener, Outbox, Server};
use cypress_query::QueryOptions;
use cypress_trace::Codec;
use std::sync::Arc;
use std::thread::JoinHandle;

fn error(code: u16, message: String) -> Frame {
    Frame::Error { code, message }
}

impl JobStore {
    /// Decode the request's options, open the job, evaluate, and turn the
    /// outcome — answer or failure — into the one reply frame.
    fn answer<O: Codec, R: Codec>(
        &self,
        job: &str,
        options: &[u8],
        eval: fn(&StoreJob, &O) -> Result<R, StoreError>,
        reply: fn(Vec<u8>) -> Frame,
    ) -> Frame {
        let opts = match O::from_bytes(options) {
            Ok(o) => o,
            Err(e) => return error(PROTOCOL, format!("bad options: {e}")),
        };
        match self.open(job).and_then(|j| eval(&j, &opts)) {
            Ok(result) => reply(result.to_bytes()),
            Err(StoreError::NotFound(name)) => error(NOT_FOUND, format!("job {name:?} not found")),
            Err(e) => error(INTERNAL, e.to_string()),
        }
    }
}

impl Handler for JobStore {
    type Conn = ();

    fn on_frame(&self, _: &mut (), frame: Frame, out: &mut Outbox) {
        let reply = match frame {
            Frame::QueryRequest { job, options } => {
                let reply = |result| Frame::QueryResponse { result };
                self.answer::<QueryOptions, _>(&job, &options, StoreJob::query, reply)
            }
            Frame::AnalyzeRequest { job, options } => {
                let reply = |result| Frame::AnalyzeResponse { result };
                self.answer::<AnalyzeOptions, _>(&job, &options, StoreJob::analyze, reply)
            }
            Frame::Unknown { code } => error(PROTOCOL, format!("unsupported frame code {code}")),
            f => {
                out.close();
                error(PROTOCOL, format!("unexpected {} frame", f.name()))
            }
        };
        out.send(&reply);
    }
}

/// Serve `store` on `listener` from the calling thread (which runs event
/// loop 0) until the process ends.
pub fn serve(store: Arc<JobStore>, listener: &Listener) -> Result<(), StoreError> {
    Ok(Server::new(0)?.run(&*store, listener)?)
}

/// A running daemon. Dropping (or calling [`ServerHandle::stop`]) stops the
/// event loops and joins them; every open connection sees EOF.
pub struct ServerHandle {
    addr: Addr,
    server: Arc<Server>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved listen address (useful with `host:0` ephemeral binds).
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Signal shutdown and wait for the event loops to exit.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.server.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve `store` on a background thread.
pub fn spawn(store: Arc<JobStore>, addr: &Addr) -> Result<ServerHandle, StoreError> {
    let listener = Listener::bind(addr)?;
    let addr = listener.local_addr()?;
    let server = Arc::new(Server::new(0)?);
    let s = server.clone();
    let thread = std::thread::spawn(move || {
        if let Err(e) = s.run(&*store, &listener) {
            cypress_obs::obs_log!(cypress_obs::Level::Error, "store", "queryd failed: {e}");
        }
    });
    Ok(ServerHandle {
        addr,
        server,
        thread: Some(thread),
    })
}
