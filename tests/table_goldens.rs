//! Golden-file snapshot tests for the analytic paper tables.
//!
//! Tables II/III, both Fig. 5 panels, the Eq. 1-3 FLOP-reduction sweep and
//! the ablations are pure functions of the static cost model (FLOPs, MACs,
//! resources, latency, power), so their rendered text is pinned
//! byte-for-byte under `tests/golden/tables/`, with the same arguments the
//! `bnn-bench` binaries pass. A cost-model change that moves any figure
//! shows up as a readable text diff instead of a silent drift.
//!
//! To regenerate the goldens after an intentional cost-model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test table_goldens
//! ```
//!
//! then review the diff of `tests/golden/tables/` before committing.

use bnn_bench::experiments;
use std::path::PathBuf;

/// Compares `actual` against the checked-in golden file, or rewrites the
/// golden when `UPDATE_GOLDEN=1` is set.
fn check_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("tables")
        .join(file);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test table_goldens`",
            path.display()
        )
    });
    if expected != actual {
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| format!("first differing line {}", i + 1))
            .unwrap_or_else(|| "files differ in length".into());
        panic!(
            "{file} drifted from its golden ({mismatch}); if the cost-model \
             change is intentional, run `UPDATE_GOLDEN=1 cargo test --test \
             table_goldens` and review the diff"
        );
    }
}

#[test]
fn table2_is_stable() {
    check_golden("table2.txt", &experiments::table2().unwrap().render());
}

#[test]
fn table3_is_stable() {
    check_golden("table3.txt", &experiments::table3().unwrap().render());
}

#[test]
fn fig5_resources_is_stable() {
    check_golden(
        "fig5_resources.txt",
        &experiments::fig5_resources(7).unwrap().render(),
    );
}

#[test]
fn fig5_latency_is_stable() {
    check_golden(
        "fig5_latency.txt",
        &experiments::fig5_latency(8).unwrap().render(),
    );
}

#[test]
fn flop_reduction_is_stable() {
    check_golden(
        "flop_reduction.txt",
        &experiments::flop_reduction().unwrap().render(),
    );
}

#[test]
fn ablations_are_stable() {
    let rendered: String = experiments::ablations()
        .unwrap()
        .into_iter()
        .map(|(title, table)| format!("Ablation: {title}\n{}\n", table.render()))
        .collect();
    check_golden("ablations.txt", &rendered);
}
