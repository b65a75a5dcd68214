//! Client side of the query daemon protocol.

use crate::StoreError;
use cypress_analysis::{AnalyzeOptions, AnalyzeReport};
use cypress_net::proto::{read_frame, write_frame};
use cypress_net::{Addr, Frame, Stream};
use cypress_query::{QueryOptions, QueryResult};
use cypress_trace::Codec;
use std::time::Duration;

/// A persistent connection to a `cypress queryd` daemon. One connection
/// serves any number of queries; the daemon keeps queried jobs hot across
/// requests on the same (or any other) connection.
pub struct QueryClient {
    stream: Stream,
}

impl QueryClient {
    /// Connect with `timeout` applied to the dial and to each request's
    /// reads/writes.
    pub fn connect(addr: &Addr, timeout: Duration) -> Result<QueryClient, StoreError> {
        let stream = Stream::connect(addr, timeout)?;
        stream.set_io_timeout(timeout)?;
        Ok(QueryClient { stream })
    }

    /// One request, one reply: the matching response's blob, or the
    /// daemon's error.
    fn request(&mut self, req: Frame) -> Result<Vec<u8>, StoreError> {
        write_frame(&mut self.stream, &req)?;
        match (req, read_frame(&mut self.stream)?) {
            (Frame::QueryRequest { .. }, Frame::QueryResponse { result })
            | (Frame::AnalyzeRequest { .. }, Frame::AnalyzeResponse { result }) => Ok(result),
            (_, Frame::Error { code, message }) => Err(StoreError::Remote { code, message }),
            (_, f) => Err(StoreError::Invalid(format!(
                "unexpected {} frame from daemon",
                f.name()
            ))),
        }
    }

    /// Query one job, returning the raw self-versioned result blob —
    /// exactly the bytes the daemon computed, for byte-identity checks
    /// against local evaluation.
    pub fn query_raw(&mut self, job: &str, opts: &QueryOptions) -> Result<Vec<u8>, StoreError> {
        self.request(Frame::QueryRequest {
            job: job.to_string(),
            options: opts.to_bytes(),
        })
    }

    /// Query one job and decode the answer.
    pub fn query(&mut self, job: &str, opts: &QueryOptions) -> Result<QueryResult, StoreError> {
        let blob = self.query_raw(job, opts)?;
        Ok(QueryResult::from_bytes(&blob)?)
    }

    /// Run the compressed-domain analysis suite on one job, returning the
    /// raw self-versioned report blob — exactly the bytes the daemon
    /// computed, for byte-identity checks against local evaluation.
    pub fn analyze_raw(&mut self, job: &str, opts: &AnalyzeOptions) -> Result<Vec<u8>, StoreError> {
        self.request(Frame::AnalyzeRequest {
            job: job.to_string(),
            options: opts.to_bytes(),
        })
    }

    /// Analyze one job and decode the report.
    pub fn analyze(
        &mut self,
        job: &str,
        opts: &AnalyzeOptions,
    ) -> Result<AnalyzeReport, StoreError> {
        let blob = self.analyze_raw(job, opts)?;
        Ok(AnalyzeReport::from_bytes(&blob)?)
    }
}

/// One-shot convenience: connect, query once, disconnect.
pub fn query_remote(
    addr: &Addr,
    job: &str,
    opts: &QueryOptions,
    timeout: Duration,
) -> Result<QueryResult, StoreError> {
    QueryClient::connect(addr, timeout)?.query(job, opts)
}

/// One-shot convenience: connect, analyze once, disconnect.
pub fn analyze_remote(
    addr: &Addr,
    job: &str,
    opts: &AnalyzeOptions,
    timeout: Duration,
) -> Result<AnalyzeReport, StoreError> {
    QueryClient::connect(addr, timeout)?.analyze(job, opts)
}
