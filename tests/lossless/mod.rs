//! A per-rank container stores every rank's CTT and no merged tree, which
//! is `merge_all` of them: [`assert_per_rank_container_loses_nothing`]
//! checks that the merged tree, and every answer, survives that, and that a
//! container laid out the old way (merged section beside every rank
//! section) opens and answers the same.

use cypress::analysis::{analyze_ctts, AnalyzeOptions};
use cypress::core::{merge_all, CttSlab};
use cypress::query::QueryOptions;
use cypress::simmpi::LogGp;
use cypress::trace::{
    assemble, encode_payload, Codec, Container, PayloadArena, SectionKind, SectionTable,
};
use cypress::{read_container, CompressedJob};
use std::path::Path;

/// Write `job` with `--per-rank` sections into `dir` as `<tag>.cytc`, and
/// the same sections plus the merged one as `<tag>-both.cytc`; both must
/// rebuild the merged tree byte for byte and answer `query`, `decompress`
/// and `analyze` as `job` does in memory.
pub fn assert_per_rank_container_loses_nothing(tag: &str, job: &mut CompressedJob, dir: &Path) {
    let path = dir.join(format!("{tag}.cytc"));
    job.write_container(&path, true).unwrap();
    let image = std::fs::read(&path).unwrap();
    let table = SectionTable::parse(&image).unwrap();
    assert_eq!(
        table.find(SectionKind::MergedCtt),
        None,
        "{tag}: merged section stored"
    );
    let arena = PayloadArena::new(table.len());
    let payload = |i: usize| arena.payload(&image, &table.sections()[i], i).unwrap();
    let slabs: Vec<CttSlab> = table
        .rank_indices()
        .map(|i| CttSlab::from_bytes(payload(i)).unwrap())
        .collect();
    assert_eq!(slabs.len(), job.nprocs as usize, "{tag}");
    let merged = job.merge().to_bytes();
    assert_eq!(
        merge_all(&slabs).to_bytes(),
        merged,
        "{tag}: merge of the rank sections"
    );

    // The old layout: the merged section after the CST, then the rest.
    let both = dir.join(format!("{tag}-both.cytc"));
    let mut sections: Vec<_> = (0..table.len())
        .map(|i| {
            let s = &table.sections()[i];
            encode_payload(s.kind, s.rank, payload(i), None)
        })
        .collect();
    let cst = table.find(SectionKind::CstText).unwrap();
    sections.insert(
        cst + 1,
        encode_payload(SectionKind::MergedCtt, None, &merged, None),
    );
    Container::write_image(&both, &assemble(job.nprocs, &sections)).unwrap();

    let opts = AnalyzeOptions::default();
    let query = job.query().unwrap();
    let analysis =
        analyze_ctts(&job.info.cst, &job.ctts, &LogGp::default(), &opts).map_err(|e| e.to_string());
    for file in [&path, &both] {
        let opened = read_container(file).unwrap();
        let at = format!("{tag}: {}", file.display());
        assert!(opened.has_complete_rank_set(), "{at}");
        assert_eq!(
            opened.query(&QueryOptions::default()).unwrap(),
            query,
            "{at}"
        );
        for rank in 0..job.nprocs {
            let replay = opened.decompress(rank).unwrap();
            assert_eq!(replay, job.decompress(rank).unwrap(), "{at}: rank {rank}");
        }
        assert_eq!(
            opened.analyze(&opts).map_err(|e| e.to_string()),
            analysis,
            "{at}"
        );
    }
}
