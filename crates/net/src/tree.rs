//! Sharded collector trees: spawn a root plus a tier of relay collectors
//! locally so one process (tests, the bench harness, `cypress serve
//! --tree`) can stand up the whole topology.
//!
//! Ranks are split into `relays` contiguous shards of (near-)equal size;
//! each relay accepts its shard's clients on its own **leaf endpoint**,
//! holds each checked rank as a one-rank piece and acknowledges it at
//! once, merges the complete shard once with a global-sized
//! [`cypress_core::BinomialMerger`] (every piece entered through
//! [`cypress_core::BinomialMerger::add_block`], then one pass over the
//! pieces in rank order), and forwards the shard to the root as one
//! block. The merge is associative over contiguous pieces in rank order,
//! so the root's merged job is byte-identical to a flat collection — or a
//! local `merge_all` — over the same ranks, however the shards fall.
//!
//! Leaf endpoint naming is deterministic so external clients can find
//! their relay without a discovery protocol: a Unix root at
//! `unix:/run/cypress.sock` puts relay `k` at `unix:/run/cypress.sock.rk`;
//! a TCP root binds each relay on an ephemeral port of the root's host
//! (reported by [`Tree::leaves`]). Every endpoint, root and leaves alike,
//! also answers `cypress stats --connect` with its own progress.

use crate::client::ClientConfig;
use crate::collector::{CollectedJob, Collector, CollectorConfig};
use crate::transport::Addr;
use crate::NetError;
use std::thread::JoinHandle;

/// Topology knobs for [`spawn_tree`].
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Mid-tier relay collectors (the root's fanout). Clamped to `nprocs`.
    pub relays: u32,
    /// Global job size; fixed up front so relays can size their mergers
    /// and validate shard membership before the first client connects.
    pub nprocs: u32,
    /// Applied to the root; relays inherit it minus the root-only per-rank
    /// CTT retention.
    pub collector: CollectorConfig,
    /// Retry policy for relay → root submissions.
    pub client: ClientConfig,
}

/// A running collector tree. Submit each rank to
/// [`Tree::leaf_for_rank`], then [`Tree::join`] for the collected job.
pub struct Tree {
    leaves: Vec<Addr>,
    ranges: Vec<(u32, u32)>,
    root: JoinHandle<Result<CollectedJob, NetError>>,
    relays: Vec<JoinHandle<Result<(), NetError>>>,
}

impl Tree {
    /// The relay leaf endpoints, in shard order.
    pub fn leaves(&self) -> &[Addr] {
        &self.leaves
    }

    /// The rank ranges `[first, last)` served by each leaf, in shard order.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// The leaf endpoint rank `rank` must submit to.
    pub fn leaf_for_rank(&self, rank: u32) -> &Addr {
        let i = self
            .ranges
            .iter()
            .position(|&(first, last)| rank >= first && rank < last)
            .expect("rank within the job");
        &self.leaves[i]
    }

    /// Wait for the whole topology. Relay failures surface first (they are
    /// the cause when the root then misses a shard's ranks).
    pub fn join(self) -> Result<CollectedJob, NetError> {
        let mut relay_err = None;
        for h in self.relays {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    relay_err.get_or_insert(e);
                }
                Err(_) => {
                    relay_err.get_or_insert(NetError::Collect("relay panicked".into()));
                }
            }
        }
        let root = match self.root.join() {
            Ok(r) => r,
            Err(_) => Err(NetError::Collect("root collector panicked".into())),
        };
        match (root, relay_err) {
            (Ok(job), None) => Ok(job),
            // A failed relay is the root cause even if the root also
            // reports (its deadline naming the shard's missing ranks).
            (_, Some(e)) => Err(e),
            (Err(e), None) => Err(e),
        }
    }
}

/// Split `[0, nprocs)` into `relays` contiguous, near-equal shards.
fn shard_ranges(nprocs: u32, relays: u32) -> Vec<(u32, u32)> {
    let relays = relays.clamp(1, nprocs.max(1));
    let per = nprocs.div_ceil(relays);
    let mut out = Vec::new();
    let mut first = 0;
    while first < nprocs {
        let last = (first + per).min(nprocs);
        out.push((first, last));
        first = last;
    }
    out
}

/// The deterministic leaf endpoint for relay `k` under a given root
/// address: `unix:<path>.r<k>` for Unix roots, an ephemeral port on the
/// root's host for TCP (resolved at bind time).
fn leaf_addr(root: &Addr, k: usize) -> Result<Addr, NetError> {
    match root {
        Addr::Unix(path) => {
            let mut p = path.clone().into_os_string();
            p.push(format!(".r{k}"));
            Ok(Addr::Unix(p.into()))
        }
        Addr::Tcp(hp) => {
            let host = hp.rsplit_once(':').map(|(h, _)| h).unwrap_or("127.0.0.1");
            Addr::parse(&format!("{host}:0"))
        }
    }
}

/// Bind and launch a root plus `cfg.relays` relay collectors. The root
/// listens on `root_listen`; each relay's resolved leaf endpoint is in
/// [`Tree::leaves`] before this returns, so clients can connect
/// immediately.
pub fn spawn_tree(root_listen: &Addr, cfg: &TreeConfig) -> Result<Tree, NetError> {
    if cfg.nprocs == 0 {
        return Err(NetError::Collect("tree needs nprocs > 0".into()));
    }
    let root = Collector::bind(root_listen)?;
    let root_addr = root.local_addr()?;
    let ranges = shard_ranges(cfg.nprocs, cfg.relays);
    let mut leaves = Vec::with_capacity(ranges.len());
    let mut bound = Vec::with_capacity(ranges.len());
    for k in 0..ranges.len() {
        let c = Collector::bind(&leaf_addr(&root_addr, k)?)?;
        leaves.push(c.local_addr()?);
        bound.push(c);
    }
    let root_cfg = cfg.collector.clone();
    let root_handle = std::thread::spawn(move || root.run(&root_cfg));
    let mut relays = Vec::with_capacity(bound.len());
    for (c, &shard) in bound.into_iter().zip(&ranges) {
        let (nprocs, upstream) = (cfg.nprocs, root_addr.clone());
        let (client, collector) = (cfg.client.clone(), cfg.collector.clone());
        relays.push(std::thread::spawn(move || {
            c.run_relay(shard, nprocs, &upstream, &client, &collector)
        }));
    }
    Ok(Tree {
        leaves,
        ranges,
        root: root_handle,
        relays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_contiguously() {
        for nprocs in [1u32, 2, 5, 7, 16, 31, 256] {
            for relays in [1u32, 2, 3, 8, 300] {
                let r = shard_ranges(nprocs, relays);
                assert_eq!(r[0].0, 0);
                assert_eq!(r.last().unwrap().1, nprocs);
                for w in r.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap in {r:?}");
                    assert!(w[0].1 > w[0].0);
                }
                assert!(r.len() as u32 <= relays.min(nprocs));
            }
        }
    }

    #[test]
    fn unix_leaves_are_deterministic() {
        let root = Addr::parse("unix:/tmp/cy.sock").unwrap();
        assert_eq!(
            leaf_addr(&root, 3).unwrap(),
            Addr::parse("unix:/tmp/cy.sock.r3").unwrap()
        );
    }
}
