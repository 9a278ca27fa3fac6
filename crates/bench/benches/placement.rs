//! Placement-kernel benchmark.
//!
//! Times a full multi-level placement of the largest smoke-scale
//! workload twice — serialised (`threads = 1`) and on the shared worker
//! pool (`threads = 0`) — and records their wall-clock ratio as the
//! **`placement_speedup`** metric gated by `benches/baseline.json`.
//! Like `suite_throughput`, the baseline is pinned at the single-core
//! floor (1.0): the gate catches the parallel placement path becoming
//! *slower* than the serial one anywhere (a lost `parallel_map`
//! fan-out, a serialising lock), without flaking on small runners.
//!
//! Also measures **`placement_stage_share`** — the fraction of total
//! flow wall time spent in the PlaceAndClock stage across a smoke-scale
//! suite run. The placement rework is a stage-profile claim ("the
//! placement wall"), so the share itself is gated (`better: lower`):
//! if placement grows back toward dominating the flow, the gate fails.
//!
//! The same profile yields **`signoff_stage_share`**, the Signoff
//! stage's fraction, also gated `lower`: it trips if signoff
//! equivalence again spends more on bookkeeping than on the check.
//!
//! ```text
//! cargo bench -p smt-bench --bench placement
//! ```

use smt_bench::harness::Harness;
use smt_cells::library::Library;
use smt_circuits::families::{generate, standard_suite, SuiteScale};
use smt_core::engine::{FlowConfig, StageId, Technique};
use smt_core::suite::WorkloadSuite;
use smt_place::{Placer, PlacerConfig};

fn main() {
    let lib = Library::industrial_130nm();
    let workload = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .max_by_key(|w| w.config.estimated_gates())
        .expect("smoke suite is non-empty");
    let netlist = generate(&lib, &workload.config).expect("smoke configs are valid");
    let config = PlacerConfig::default();
    let mut h = Harness::new();

    let mut g = h.group("placement");
    g.sample_size(5);
    let serial = g.bench("full_serial_threads1", || {
        Placer::with_threads(&netlist, &lib, &config, 1)
            .expect("default placer config is valid")
            .placement()
            .hpwl(&netlist)
    });
    let parallel = g.bench("full_parallel_pool", || {
        Placer::with_threads(&netlist, &lib, &config, 0)
            .expect("default placer config is valid")
            .placement()
            .hpwl(&netlist)
    });
    drop(g);

    let speedup = serial.median.as_secs_f64() / parallel.median.as_secs_f64().max(1e-9);
    h.metric("placement_speedup", speedup);

    // Stage share: one smoke suite pass, profiled per stage.
    let mut suite = WorkloadSuite::new(FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    })
    .with_equiv_cycles(0);
    for w in standard_suite(SuiteScale::Smoke) {
        suite.push(
            &w.name,
            generate(&lib, &w.config).expect("smoke configs are valid"),
        );
    }
    let report = suite.run(&lib);
    assert!(report.all_passed(), "{}", report.render());
    let profile = report.stage_profile();
    let total = profile.total().as_secs_f64().max(1e-9);
    let share_of = |id: StageId| {
        profile
            .rows
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.total.as_secs_f64())
            .unwrap_or(0.0)
            / total
    };
    let share = share_of(StageId::PlaceAndClock);
    let signoff_share = share_of(StageId::Signoff);
    println!(
        "stage shares of {:.2}s flow time: placement {:.1}%, signoff {:.1}%",
        total,
        100.0 * share,
        100.0 * signoff_share
    );
    h.metric("placement_stage_share", share);
    h.metric("signoff_stage_share", signoff_share);
    h.finish();
}
