//! Bridging networked collection into the local job model.
//!
//! A [`CollectedJob`](cypress_net::CollectedJob) produced by `cypress serve`
//! carries exactly what a locally-run [`Pipeline`](crate::Pipeline) job
//! does — CST, merged CTT, optional per-rank CTT bytes, event accounting —
//! so this module writes it into the same `.cytc` container format
//! ([`write_collected_container`]), and [`read_container`](crate::read_container)
//! opens either the same way. Byte-identity between the two paths is pinned
//! by `tests/net_collect.rs`.

use crate::error::Result;
use crate::pipeline::{job_sections, write_job_container, MetaInfo, Payload};
use cypress_deflate::Level;
use cypress_net::CollectedJob;
use std::path::Path;

/// Persist a collected job as a versioned `.cytc` container with the same
/// section layout [`CompressedJob::write_container`](crate::CompressedJob::write_container)
/// uses: tool metadata, the CST text exactly as the clients submitted it,
/// (when `per_rank` is set and the collector kept them) every rank's CTT
/// bytes, as received, in their own CRC-framed sections, and the
/// binomially-merged CTT unless those sections cover every rank.
pub fn write_collected_container(
    job: &CollectedJob,
    path: impl AsRef<Path>,
    per_rank: bool,
) -> Result<()> {
    write_collected_container_with(job, path, per_rank, None, 1)
}

/// [`write_collected_container`] with a section compression level and a
/// worker count for parallel per-section (and per-rank CTT) encoding.
pub fn write_collected_container_with(
    job: &CollectedJob,
    path: impl AsRef<Path>,
    per_rank: bool,
    level: Option<Level>,
    threads: usize,
) -> Result<()> {
    let rank_ctts = job.rank_ctts.iter().filter(|_| per_rank);
    let sections = job_sections(
        &MetaInfo::new(job.nprocs, job.total_events, job.raw_mpi_bytes),
        &job.cst_text,
        || job.merged(),
        rank_ctts
            .map(|(rank, bytes)| (*rank, Payload::Bytes(bytes.into())))
            .collect(),
        None,
    );
    write_job_container(path.as_ref(), job.nprocs, &sections, level, threads)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::read_container;
    use crate::Pipeline;
    use cypress_core::merge_all;
    use cypress_query::QueryOptions;
    use cypress_trace::{Codec, PayloadArena, SectionKind, SectionTable};
    use std::path::PathBuf;

    const SRC: &str = r#"fn main() {
        for it in 0..24 {
            let up = isend((rank() + 1) % size(), 256, 7);
            let dn = irecv((rank() + size() - 1) % size(), 256, 7);
            waitall(up, dn);
        }
        allreduce(8);
    }"#;

    /// Build a CollectedJob out of a local pipeline run (the loopback
    /// network path itself is pinned in crates/net and tests/net_collect.rs;
    /// here we only exercise the container bridge).
    fn fake_collected(nprocs: u32) -> (CollectedJob, crate::CompressedJob) {
        let job = Pipeline::new(SRC).ranks(nprocs).run().unwrap();
        let merged = merge_all(&job.ctts);
        let collected = CollectedJob {
            nprocs,
            cst: cypress_cst::Cst::from_text(&job.info.cst.to_text()).unwrap(),
            cst_text: job.info.cst.to_text(),
            merged,
            rank_ctts: job.ctts.iter().map(|c| (c.rank, c.to_bytes())).collect(),
            total_events: job.total_events(),
            raw_mpi_bytes: job.raw_mpi_bytes(),
        };
        (collected, job)
    }

    /// Write `collected` with its per-rank sections into a directory of its
    /// own; returns the directory and the container path.
    fn written(collected: &CollectedJob, tag: &str) -> (PathBuf, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("cypress-collect-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collected.cytc");
        write_collected_container(collected, &path, true).unwrap();
        (dir, path)
    }

    #[test]
    fn collected_container_loads_like_a_local_one() {
        let (collected, job) = fake_collected(4);
        let (dir, path) = written(&collected, "load");

        let image = std::fs::read(&path).unwrap();
        let table = SectionTable::parse(&image).unwrap();
        let arena = PayloadArena::new(table.len());
        let i = table.find(SectionKind::Meta).unwrap();
        let meta = arena.payload(&image, &table.sections()[i], i).unwrap();
        let meta = MetaInfo::from_bytes(meta).unwrap();
        assert_eq!(meta.tool, "cypress");
        assert_eq!(meta.events, job.total_events());

        let loaded = read_container(&path).unwrap();
        assert_eq!(loaded.nprocs(), 4);
        assert_eq!(loaded.rank_count(), 4);
        for rank in 0..4 {
            assert_eq!(
                loaded.decompress(rank).unwrap(),
                job.decompress(rank).unwrap(),
                "rank {rank}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The merged section is stored exactly when the rank sections leave
    /// some rank without its own: a partial set {0, 1, 3} of 4 keeps it and
    /// answers from it, the complete set drops it.
    #[test]
    fn merged_section_is_written_unless_every_rank_has_a_section() {
        let (mut collected, job) = fake_collected(4);
        let merged_section = |path: &Path| {
            let table = SectionTable::parse(&std::fs::read(path).unwrap()).unwrap();
            (
                table.find(SectionKind::MergedCtt).is_some(),
                table.rank_indices().count(),
            )
        };
        let (dir, complete) = written(&collected, "partial");
        assert_eq!(merged_section(&complete), (false, 4));

        collected.rank_ctts.retain(|(rank, _)| *rank != 2);
        let partial = dir.join("partial.cytc");
        write_collected_container(&collected, &partial, true).unwrap();
        assert_eq!(merged_section(&partial), (true, 3));
        let loaded = read_container(&partial).unwrap();
        assert!(!loaded.has_complete_rank_set());
        assert_eq!(loaded.rank_count(), 3);
        // Rank 2 comes out of the merged tree, its timing that of its group.
        let ops = |ops: Vec<cypress_core::ReplayOp>| -> Vec<_> {
            ops.into_iter().map(|o| (o.gid, o.op, o.params)).collect()
        };
        assert_eq!(
            ops(loaded.decompress(2).unwrap()),
            ops(job.decompress(2).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collected_container_queries_like_local() {
        let (collected, job) = fake_collected(3);
        let (dir, path) = written(&collected, "query");
        let a = read_container(&path)
            .unwrap()
            .query(&QueryOptions::default())
            .unwrap();
        let b = job.query().unwrap();
        assert_eq!(a, b, "collected and local query results must match");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
