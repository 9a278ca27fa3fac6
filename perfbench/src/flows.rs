//! `flow_cold`: standard-scale designs no cache has seen, one at a
//! time, through the design cache, the placement cache and the suite
//! runtime (Improved-SMT, slow/typ/fast corners, independent equivalence
//! re-check).
//!
//! An op realises one design through the `DesignCache` and flows it with
//! a one-design `WorkloadSuite` on one worker. Ops run in rounds of the
//! five `standard_suite` families, and a run measures whole rounds only,
//! so the family mix of every run is exact.

use crate::probes::{self, Env, Sample};
use crate::stats::{self, Summary};
use crate::{peak_rss_mb, Ledger, Metric, Outcome, Round, Settings};
use smt_circuits::families::{
    generate, standard_suite, FamilyConfig, FanoutConfig, FsmBankConfig, MultiplierConfig,
    PipelineConfig, SuiteScale, Workload,
};
use smt_circuits::gen::RandomLogicConfig;
use smt_core::cache::{DesignCache, PlacementCache};
use smt_core::suite::{SuiteOutcome, SuiteRow, WorkloadSuite};
use smt_netlist::netlist::Netlist;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// splitmix64: the benchmark's only source of seeded choices.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Size steps the rounds after the first apply to the standard designs,
/// in the same order on every seed so that runs compare like with like
/// (the seed orders the ops within each round). `+3` is left out: it
/// makes `multiplier_w27`, which misses setup timing at the slow corner
/// under the default period margin (recorded in `NOTES.md`); every
/// design these steps produce passes.
const STEPS: [i64; 11] = [1, -1, 2, -2, -3, 4, -4, 5, -5, 6, -6];

/// Round `round`'s designs, in their seeded order. Round 0 is the
/// standard suite (so the quality metrics cover the same designs every
/// run). In round *r* ≥ 1, family *i* takes step `STEPS[(r - 1 + i) %
/// 11]`: each family meets every step once, so no (family, config) key
/// repeats within a run, and every round mixes larger and smaller
/// designs. Stepping all five families alike made round times differ
/// by up to 1.7x, so how many rounds fitted in a run changed its mix of
/// sizes.
fn round_designs(seed: u64, round: usize) -> Vec<Workload> {
    let base = standard_suite(SuiteScale::Standard);
    let order = shuffled(
        base.len(),
        mix(seed ^ (round as u64).wrapping_mul(0x100_0193)),
    );
    order
        .into_iter()
        .map(|i| match round {
            0 => base[i].clone(),
            r => resized(&base[i], STEPS[(r - 1 + i) % STEPS.len()], r),
        })
        .collect()
}

/// A standard design with its size stepped by `step` units: pipeline
/// and multiplier width, FSM count, registers per fanout block, and 50
/// gates per unit of random logic. Generator seeds stay the standard
/// ones.
fn resized(w: &Workload, step: i64, round: usize) -> Workload {
    let by = |v: usize, unit: i64| (v as i64 + unit * step) as usize;
    let config = match &w.config {
        FamilyConfig::Pipeline(c) => FamilyConfig::Pipeline(PipelineConfig {
            width: by(c.width, 1),
            ..c.clone()
        }),
        FamilyConfig::Multiplier(c) => FamilyConfig::Multiplier(MultiplierConfig {
            width: by(c.width, 1),
        }),
        FamilyConfig::FsmBank(c) => FamilyConfig::FsmBank(FsmBankConfig {
            machines: by(c.machines, 1),
            ..c.clone()
        }),
        FamilyConfig::FanoutBlocks(c) => FamilyConfig::FanoutBlocks(FanoutConfig {
            regs_per_block: by(c.regs_per_block, 1),
            ..c.clone()
        }),
        FamilyConfig::RandomLogic(c) => FamilyConfig::RandomLogic(RandomLogicConfig {
            gates: by(c.gates, 50),
            ..c.clone()
        }),
    };
    Workload::new(format!("{}@{round}{step:+}", w.name), config)
}

fn design_key(w: &Workload) -> String {
    format!("{}-{:016x}", w.config.family(), w.config.fingerprint())
}

/// The process-global full-run counters of the placement, routing and
/// extraction layers, sampled around an op.
#[derive(Debug, Clone, Copy)]
pub struct Counters([u64; 4]);

impl Counters {
    const NAMES: [&'static str; 4] = [
        "place.full_place_runs",
        "route.full_route_runs",
        "route.full_cts_runs",
        "route.reextractions_avoided",
    ];

    pub fn now() -> Counters {
        Counters([
            smt_place::full_place_runs(),
            smt_route::full_route_runs(),
            smt_route::full_cts_runs(),
            smt_route::reextractions_avoided(),
        ])
    }

    /// Records the growth since `before` into `sample`.
    pub fn record_since(before: Counters, sample: &mut Sample) {
        let now = Counters::now();
        for (i, name) in Self::NAMES.iter().enumerate() {
            sample.insert((*name).to_owned(), (now.0[i] - before.0[i]) as f64);
        }
    }
}

/// One timed op and what was observed around it.
struct Op {
    workload: Workload,
    gates: usize,
    op_s: f64,
    row: Option<SuiteRow>,
    /// The canonical input netlist, kept for a traced op's probes.
    netlist: Option<Netlist>,
    /// Cache lookups, counter growth and stage spans; a traced op adds
    /// its kernel probes.
    sample: Sample,
    traced: bool,
}

impl Op {
    fn count(&self, key: &str) -> f64 {
        self.sample.get(key).copied().unwrap_or(0.0)
    }

    /// The expected verdict: the flow verified clean and the suite's
    /// independent re-check proved equivalence without simulating.
    fn verdict(&self) -> Result<&SuiteOutcome, String> {
        let name = &self.workload.name;
        let row = self
            .row
            .as_ref()
            .ok_or_else(|| format!("{name}: design not realised"))?;
        let o = row
            .outcome
            .as_ref()
            .map_err(|e| format!("{name}: flow failed: {e}"))?;
        if !o.passed() {
            return Err(format!("{name}: flow did not pass verification"));
        }
        if o.equivalent != Some(true) || o.equiv_cycles_run != Some(0) {
            return Err(format!(
                "{name}: independent equivalence check not proved (equivalent {:?}, cycles {:?})",
                o.equivalent, o.equiv_cycles_run
            ));
        }
        Ok(o)
    }
}

fn run_op(
    env: &Env,
    designs: &mut DesignCache,
    placements: &Arc<PlacementCache>,
    w: &Workload,
    traced: bool,
) -> Op {
    let (d0, p0, c0) = (designs.stats(), placements.stats(), Counters::now());
    let t0 = Instant::now();
    let realised = designs.get_or_insert(
        &w.name,
        w.config.family(),
        w.config.fingerprint(),
        &env.lib,
        || generate(&env.lib, &w.config).map_err(|e| e.to_string()),
    );
    let lookup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (mut row, mut gates, mut suite) = (None, 0, None);
    if let Ok(netlist) = realised {
        gates = netlist.num_instances();
        let mut s = WorkloadSuite::new(env.config.clone())
            .with_threads(1)
            .with_placement_cache(Arc::clone(placements));
        s.push(&w.name, netlist);
        row = s.run(&env.lib).rows.into_iter().next();
        suite = Some(s);
    }
    let op_s = t0.elapsed().as_secs_f64();

    let mut sample = Sample::new();
    Counters::record_since(c0, &mut sample);
    let (d1, p1) = (designs.stats(), placements.stats());
    for (key, value) in [
        ("core.cache.design_lookup_ms", lookup_ms),
        ("core.cache.design_hits", (d1.hits - d0.hits) as f64),
        ("core.cache.design_misses", (d1.misses - d0.misses) as f64),
        ("core.cache.placement_hits", (p1.hits - p0.hits) as f64),
        (
            "core.cache.placement_misses",
            (p1.misses - p0.misses) as f64,
        ),
    ] {
        sample.insert(key.to_owned(), value);
    }
    if let Some(r) = &row {
        let mut flow_ms = 0.0;
        for s in &r.stages {
            let ms = s.elapsed.as_secs_f64() * 1e3;
            sample.insert(format!("core.engine.{}_ms", s.id.key()), ms);
            flow_ms += ms;
        }
        sample.insert(
            "core.suite.equiv_recheck_ms".to_owned(),
            r.elapsed.as_secs_f64() * 1e3 - flow_ms,
        );
    }
    Op {
        workload: w.clone(),
        gates,
        op_s,
        row,
        netlist: suite
            .filter(|_| traced)
            .map(|s| s.designs()[0].netlist.clone()),
        sample,
        traced,
    }
}

/// What a run keeps between its set-up and its timed loop: the library
/// and corners, and both caches, opened empty on `dir`.
struct Prepared {
    env: Env,
    designs: DesignCache,
    placements: Arc<PlacementCache>,
}

fn prepare(dir: &Path) -> Result<Prepared, String> {
    let env = Env::new();
    let designs = DesignCache::open(dir, &env.lib).map_err(|e| e.to_string())?;
    let placements = Arc::new(PlacementCache::open(dir).map_err(|e| e.to_string())?);
    // Fault in code and allocator state with the smoke-scale design of
    // every family, which shares no cache with the timed stream. One
    // design alone was too little work for `setup_s` to time steadily.
    let mut warmup = WorkloadSuite::new(env.config.clone()).with_threads(1);
    for w in standard_suite(SuiteScale::Smoke) {
        let netlist = generate(&env.lib, &w.config).map_err(|e| e.to_string())?;
        warmup.push(&w.name, netlist);
    }
    if !warmup.run(&env.lib).all_passed() {
        return Err("set-up: a smoke-scale warm-up flow failed".to_owned());
    }
    Ok(Prepared {
        env,
        designs,
        placements,
    })
}

/// A traced op's probes: the design's stage checkpoints re-derived
/// through the engine (which must reproduce the op's outcome), then the
/// kernel probes on them.
fn probe(env: &Env, cache_dir: &Path, op: &mut Op) -> Result<(), String> {
    let name = op.workload.name.clone();
    let Some(netlist) = op.netlist.take() else {
        return Ok(());
    };
    let Ok(outcome) = op.verdict() else {
        return Ok(());
    };
    let mut expected = outcome.clone();
    expected.equivalent = None;
    expected.equiv_error = None;
    expected.equiv_cycles_run = None;
    expected.equiv_truncated = None;
    let st = probes::stages(env, &netlist, cache_dir).map_err(|e| format!("{name}: {e}"))?;
    if st.outcome.digest() != expected.digest() {
        return Err(format!(
            "{name}: traced flow does not reproduce the op's outcome"
        ));
    }
    probes::kernels(env, cache_dir, &op.workload, &netlist, &st, &mut op.sample)
        .map_err(|e| format!("{name}: {e}"))
}

/// Quality of a set of outcomes: typical-corner standby leakage and
/// cell area summed, and the worst setup slack over every corner, in ps
/// and as a share of the design's clock period.
pub fn quality(outcomes: &[&SuiteOutcome]) -> [Metric; 4] {
    let (mut leak, mut area) = (0.0, 0.0);
    let (mut wns, mut slack) = (f64::INFINITY, f64::INFINITY);
    for o in outcomes {
        let typ = o.corner_signoff.iter().find(|c| c.corner.is_identity());
        leak += typ.map_or(o.standby_leakage, |c| c.standby_leakage).ua();
        area += o.area.um2();
        for w in o.corner_signoff.iter().map(|c| c.wns).chain([o.wns]) {
            wns = wns.min(w.ps());
            slack = slack.min(w.ps() / o.clock_period.ps());
        }
    }
    let n = format!("over {} distinct designs or requests", outcomes.len());
    [
        Metric::new("standby_leak_ua", "uA", leak).with_detail(n.clone()),
        Metric::new("cell_area_um2", "um2", area).with_detail(n.clone()),
        Metric::new("min_slack_ratio", "ratio", slack).with_detail(n.clone()),
        Metric::new("min_wns_ps", "ps", wns).with_detail(n),
    ]
}

/// Runs whole rounds until the next one would overrun `seconds`, but at
/// least `min_rounds` and at most `max_rounds`, and returns each round's
/// wall time and whether it was traced. In a traced run, odd rounds are
/// traced and even rounds are not, so one invocation yields both sides
/// of `trace_overhead`.
pub fn run_rounds(
    s: &Settings,
    min_rounds: usize,
    max_rounds: usize,
    mut round: impl FnMut(usize, bool) -> Result<(), String>,
) -> Result<Vec<Round>, String> {
    // A traced run measures both sides of its overhead ratio.
    let min_rounds = if s.traced {
        min_rounds.max(2)
    } else {
        min_rounds
    };
    let t0 = Instant::now();
    let mut last = [None::<f64>; 2];
    let mut rounds = Vec::new();
    while rounds.len() < max_rounds {
        let r = rounds.len();
        let traced = s.traced && r % 2 == 1;
        if r >= min_rounds {
            let estimate = last[usize::from(traced)]
                .or(last[0].map(|t| t * 3.0))
                .unwrap_or(0.0);
            if t0.elapsed().as_secs_f64() + estimate > s.seconds {
                break;
            }
        }
        let t = Instant::now();
        round(r, traced)?;
        let secs = t.elapsed().as_secs_f64();
        last[usize::from(traced)] = Some(secs);
        rounds.push(Round { secs, traced });
    }
    Ok(rounds)
}

pub fn run(s: &Settings, ledger: &mut Ledger) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut prepared = None;
    let mut dir = s.scratch.clone();
    for rep in 0..SETUP_REPS {
        if prepared.take().is_some() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = s.scratch.join(format!("cache-{rep}"));
        let t0 = Instant::now();
        let p = prepare(&dir)?;
        setup.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let Prepared {
        env,
        mut designs,
        placements,
    } = prepared.expect("at least one set-up");

    let mut ops: Vec<Op> = Vec::new();
    // No design repeats: one standard round plus one round per size step.
    let rounds = run_rounds(s, 1, 1 + STEPS.len(), |round, traced| {
        for w in round_designs(s.seed, round) {
            let mut op = run_op(&env, &mut designs, &placements, &w, traced);
            check(&op, ledger, &mut out);
            if traced {
                probe(&env, &dir, &mut op)?;
            }
            ops.push(op);
        }
        Ok(())
    })?;

    out.attempted = ops.len();
    out.failed = ops.iter().filter(|op| op.verdict().is_err()).count();
    let plain: Vec<&Op> = ops
        .iter()
        .filter(|op| !op.traced && op.verdict().is_ok())
        .collect();
    let gates: usize = plain.iter().map(|op| op.gates).sum();
    let busy: f64 = plain.iter().map(|op| op.op_s).sum();
    out.common_metrics(
        &setup,
        peak_rss_mb(),
        &rounds,
        plain.len(),
        gates as f64,
        busy,
    );

    // Quality over the distinct designs of the fixed first round, never
    // over ops completed, so it does not depend on run length.
    let first: Vec<String> = round_designs(s.seed, 0).iter().map(design_key).collect();
    let mut distinct: BTreeMap<String, &SuiteOutcome> = BTreeMap::new();
    for op in &ops {
        let key = design_key(&op.workload);
        if let (true, Ok(o)) = (first.contains(&key), op.verdict()) {
            distinct.entry(key).or_insert(o);
        }
    }
    if distinct.len() != first.len() {
        out.error("quality set incomplete: a first-round design did not pass");
    }
    out.end_to_end
        .extend(quality(&distinct.values().copied().collect::<Vec<_>>()));
    for family in standard_suite(SuiteScale::Standard) {
        let fam = family.config.family();
        let t: Vec<f64> = plain
            .iter()
            .filter(|op| op.workload.config.family() == fam)
            .map(|op| op.op_s * 1e3)
            .collect();
        out.end_to_end.push(
            Metric::new(format!("op_p50_ms.{fam}"), "ms", stats::median(&t))
                .with_detail(Summary::of(&t).detail()),
        );
    }

    if s.traced {
        let traced: Vec<&Op> = ops.iter().filter(|op| op.traced).collect();
        let samples: Vec<Sample> = traced.iter().map(|op| op.sample.clone()).collect();
        out.per_layer = probes::aggregate(&samples);
        // Op time per input gate, traced rounds over untraced rounds
        // (probe time excluded from both).
        let per_gate = |ops: &[&Op]| {
            ops.iter().map(|op| op.op_s).sum::<f64>()
                / ops.iter().map(|op| op.gates).sum::<usize>() as f64
        };
        out.per_layer.push(
            Metric::new(
                "trace_overhead",
                "ratio",
                per_gate(&traced) / per_gate(&plain),
            )
            .with_detail(format!(
                "op time per gate, {} traced vs {} untraced ops",
                traced.len(),
                plain.len()
            )),
        );
    }
    Ok(out)
}

/// Correctness, digest and cache guards for one op.
fn check(op: &Op, ledger: &mut Ledger, out: &mut Outcome) {
    let name = &op.workload.name;
    let o = match op.verdict() {
        Ok(o) => o,
        Err(e) => return out.error(e),
    };
    let digest = format!("{:016x}", o.digest());
    if let Err(e) = ledger.check(&design_key(&op.workload), &digest) {
        out.error(e);
    }
    let hits = op.count("core.cache.design_hits") + op.count("core.cache.placement_hits");
    if hits > 0.0 {
        out.error(format!("{name}: flow_cold op hit a cache"));
    }
}
