//! A per-rank container of every bundled workload at quick scale loses
//! nothing by storing no merged section (`lossless` has the checks; the
//! random-program half runs in `random_programs.rs`).

mod lossless;

use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use cypress::Pipeline;
use lossless::assert_per_rank_container_loses_nothing;

#[test]
fn per_rank_containers_of_every_workload_lose_nothing() {
    let dir = std::env::temp_dir().join(format!("cypress-per-rank-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in NPB_NAMES.iter().copied().chain(["jacobi", "leslie3d"]) {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let mut job = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .run()
            .unwrap();
        assert_per_rank_container_loses_nothing(name, &mut job, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
