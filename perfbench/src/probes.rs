//! The traced run's layer probes and the aggregation of their samples.
//!
//! A probe calls one layer's public entry point on a clone of a design's
//! stage-boundary checkpoint, between ops and outside every op timing.
//! Each traced op yields one [`Sample`]: values keyed by per-layer metric
//! name. Timings (`*_ms`) aggregate to their median per op, counts to
//! their mean per op.

use crate::stats::Summary;
use crate::Metric;
use smt_cells::corner::{CornerLibrary, CornerSet};
use smt_cells::library::Library;
use smt_circuits::families::{generate, Workload};
use smt_core::cache::PlacementCache;
use smt_core::engine::{
    Checkpoint, DesignState, FlowConfig, FlowEngine, FlowError, Observer, StageId, StageMetrics,
    Technique,
};
use smt_core::session::LibraryPool;
use smt_core::suite::SuiteOutcome;
use smt_core::verify::mirror_control_ports;
use smt_netlist::check::{analyze_with_threads, LintPolicy};
use smt_netlist::netlist::{Netlist, PortDir};
use smt_place::Placer;
use smt_power::{LeakageLedger, PricingMode};
use smt_route::{CtsSession, Parasitics, Router};
use smt_sim::{
    check_equivalence_cached, check_equivalence_with, EquivCache, EquivOptions, Mode, Simulator,
    Value,
};
use smt_sta::{analyze, Derating};
use smt_synth::snl;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One traced op's per-layer values, keyed by metric name.
pub type Sample = BTreeMap<String, f64>;

/// The flow configuration of every workload: Improved-SMT signed off at
/// slow/typ/fast.
pub fn flow_config() -> FlowConfig {
    FlowConfig {
        technique: Technique::ImprovedSmt,
        corners: CornerSet::slow_typ_fast(),
        ..FlowConfig::default()
    }
}

/// The library, the flow configuration and its corner libraries.
pub struct Env {
    pub lib: Library,
    pub config: FlowConfig,
    pub corner_libs: Vec<CornerLibrary>,
}

impl Env {
    pub fn new() -> Env {
        let lib = Library::industrial_130nm();
        let config = flow_config();
        let corner_libs = LibraryPool::new()
            .corner_libs(&lib, &config.corners)
            .0
            .to_vec();
        Env {
            lib,
            config,
            corner_libs,
        }
    }

    pub fn engine(&self, config: FlowConfig) -> FlowEngine<'_> {
        FlowEngine::with_corner_libraries(&self.lib, config, self.corner_libs.clone())
    }
}

/// A design's stage-boundary checkpoints: placed and clocked, before
/// CTS, and signed off.
pub struct Stages {
    pub prefix: Checkpoint,
    pub pre_cts: Checkpoint,
    pub finals: Checkpoint,
    pub outcome: SuiteOutcome,
}

fn flow_err(e: FlowError) -> String {
    format!("probe flow: {e}")
}

/// Flows `netlist` through the engine, stopping at each stage boundary
/// the probes fork from; placement comes from the cache in `cache_dir`.
pub fn stages(env: &Env, netlist: &Netlist, cache_dir: &Path) -> Result<Stages, String> {
    let cache = Arc::new(PlacementCache::open(cache_dir).map_err(|e| e.to_string())?);
    let mut engine = env.engine(env.config.clone()).with_placement_cache(cache);
    let seed = Checkpoint::new(DesignState::from_netlist(netlist.clone()));
    let prefix = engine
        .resume_until(&seed, StageId::PlaceAndClock)
        .map_err(flow_err)?;
    let pre_cts = engine
        .resume_until(&prefix, StageId::ClusterSwitches)
        .map_err(flow_err)?;
    let finals = engine
        .resume_until(&pre_cts, StageId::Signoff)
        .map_err(flow_err)?;
    let outcome = SuiteOutcome::from_flow(&engine.resume(&finals).map_err(flow_err)?);
    Ok(Stages {
        prefix,
        pre_cts,
        finals,
        outcome,
    })
}

/// A what-if fork, as the session layer makes one: the prefix restored,
/// with the warm routing, CTS, extraction, equivalence and power
/// sessions of the finals grafted on.
pub fn fork(stages: &Stages) -> DesignState {
    let mut state = stages.prefix.restore();
    let warm = stages.finals.state();
    state.router = warm.router.clone();
    state.cts_session = warm.cts_session.clone();
    state.extracted = warm.extracted.clone();
    state.equiv_cache = warm.equiv_cache.clone();
    state.power_ledger = warm.power_ledger.clone();
    state
}

/// Records every engine stage's wall time as `core.engine.<stage>_ms`.
pub struct StageSpans(pub Rc<RefCell<Sample>>);

impl Observer for StageSpans {
    fn on_stage_end(&mut self, stage: StageId, _: &StageMetrics, elapsed: Duration) {
        self.0.borrow_mut().insert(
            format!("core.engine.{}_ms", stage.key()),
            elapsed.as_secs_f64() * 1e3,
        );
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The standby-mode simulator snapshot the flow's leakage accounting
/// prices (alternating input vector, flip-flops at 0).
fn standby_sim(netlist: &Netlist, lib: &Library) -> Result<Simulator, String> {
    let mut sim = Simulator::new(netlist, lib).map_err(|e| e.to_string())?;
    for (i, (_, port)) in netlist
        .ports()
        .filter(|(_, p)| p.dir == PortDir::Input && !p.is_clock)
        .enumerate()
    {
        sim.set_input(port.net, Value::from_bool(i % 2 == 0));
    }
    for (id, inst) in netlist.instances() {
        if lib.cell(inst.cell).is_sequential() {
            sim.set_ff_state(id, Value::Zero);
        }
    }
    sim.set_mode(Mode::Standby);
    sim.propagate(netlist, lib);
    Ok(sim)
}

/// Kernel probes on one design: its input `netlist`, its generator
/// `workload` and its stage checkpoints.
pub fn kernels(
    env: &Env,
    cache_dir: &Path,
    workload: &Workload,
    netlist: &Netlist,
    st: &Stages,
    p: &mut Sample,
) -> Result<(), String> {
    let (lib, config) = (&env.lib, &env.config);
    let mut put = |name: &str, value: f64| {
        p.insert(name.to_owned(), value);
    };

    let cache = PlacementCache::open(cache_dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    black_box(
        cache
            .placer_for(netlist, lib, &config.placer)
            .map_err(|e| e.to_string())?,
    );
    put("core.cache.placement_lookup_ms", ms_since(t));

    let t = Instant::now();
    black_box(Placer::with_threads(netlist, lib, &config.placer, 0).map_err(|e| e.to_string())?);
    put("place.full_place_ms", ms_since(t));

    let t = Instant::now();
    black_box(fork(st));
    put("core.session.fork_ms", ms_since(t));

    let fin = st.finals.state();
    let placement = fin
        .placer
        .as_ref()
        .ok_or("finals without placement")?
        .placement();
    let extracted = fin.extracted.as_ref().ok_or("finals without extraction")?;
    let sta = fin.sta.as_ref().ok_or("finals without STA config")?;
    let derating = fin.derating.clone().unwrap_or_else(Derating::none);
    let t = Instant::now();
    for cl in &env.corner_libs {
        black_box(
            analyze(&fin.netlist, &cl.lib, extracted, sta, &derating).map_err(|e| e.to_string())?,
        );
    }
    put("sta.analyze_ms", ms_since(t));

    let t = Instant::now();
    let router = Router::route(&fin.netlist, lib, placement, &config.route, 0);
    put("route.route_ms", ms_since(t));
    let t = Instant::now();
    black_box(Parasitics::extract(
        &fin.netlist,
        lib,
        placement,
        router.global(),
    ));
    put("route.extract_ms", ms_since(t));

    let mut before = st.pre_cts.restore();
    let cts_placement = before
        .placer
        .as_mut()
        .ok_or("pre-CTS state without placement")?
        .placement_mut();
    let t = Instant::now();
    black_box(CtsSession::new().run(&mut before.netlist, cts_placement, lib, &config.cts));
    put("route.cts_ms", ms_since(t));

    let mut golden = fin.golden.clone();
    mirror_control_ports(&mut golden, &fin.netlist);
    let opts = EquivOptions {
        cycles: config.verify_cycles,
        seed: config.seed,
        ..EquivOptions::default()
    };
    let t = Instant::now();
    black_box(
        check_equivalence_cached(
            &golden,
            &fin.netlist,
            lib,
            &opts,
            &mut EquivCache::default(),
        )
        .map_err(|e| e.to_string())?,
    );
    put("sim.equiv_cached_ms", ms_since(t));
    let t = Instant::now();
    let equiv =
        check_equivalence_with(&golden, &fin.netlist, lib, &opts).map_err(|e| e.to_string())?;
    put("sim.equiv_plain_ms", ms_since(t));
    put("sim.outputs", equiv.outputs_compared as f64);
    put("sim.fraig_proven", equiv.outputs_proven as f64);
    put("sim.cycles_simulated", equiv.cycles as f64);

    let t = Instant::now();
    let lint = analyze_with_threads(&fin.netlist, lib, &LintPolicy::signoff(), 0);
    put("netlist.lint_ms", ms_since(t));
    put("netlist.lint_diagnostics", lint.counts().total() as f64);

    let sim = standby_sim(&fin.netlist, lib)?;
    let t = Instant::now();
    black_box(LeakageLedger::capture(&fin.netlist, lib, &sim).price(lib, PricingMode::Standby));
    put("power.ledger_ms", ms_since(t));

    let t = Instant::now();
    let generated = generate(lib, &workload.config).map_err(|e| e.to_string())?;
    put("circuits.generate_ms", ms_since(t));
    let t = Instant::now();
    let text = snl::write(&generated, lib).map_err(|e| e.to_string())?;
    put("synth.snl_write_ms", ms_since(t));
    let t = Instant::now();
    black_box(snl::load(&text, lib).map_err(|e| e.to_string())?);
    put("synth.snl_load_ms", ms_since(t));
    Ok(())
}

/// Per-layer metrics from the traced ops' samples: the median per op of
/// every timing, the mean per op of every count, and the two ratios
/// whose parts are counted.
pub fn aggregate(samples: &[Sample]) -> Vec<Metric> {
    let mut keys: Vec<&String> = samples.iter().flat_map(|s| s.keys()).collect();
    keys.sort();
    keys.dedup();
    let values =
        |key: &str| -> Vec<f64> { samples.iter().filter_map(|s| s.get(key)).copied().collect() };
    let total = |key: &str| -> f64 { values(key).iter().sum() };
    let mut out = Vec::new();
    for key in keys {
        let v = values(key);
        if key.ends_with("_ms") || key.contains("_ms.") {
            let s = Summary::of(&v);
            out.push(Metric::new(key.clone(), "ms", s.p50).with_detail(s.detail()));
        } else {
            let unit = if key.ends_with("_ratio") {
                "ratio"
            } else {
                "count"
            };
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            out.push(
                Metric::new(key.clone(), unit, mean)
                    .with_detail(format!("per op over {} ops", v.len())),
            );
        }
    }
    if !values("sim.outputs").is_empty() {
        out.push(Metric::new(
            "sim.fraig_proven_ratio",
            "ratio",
            total("sim.fraig_proven") / total("sim.outputs"),
        ));
    }
    let hits = total("core.cache.design_hits") + total("core.cache.placement_hits");
    let lookups = hits + total("core.cache.design_misses") + total("core.cache.placement_misses");
    out.push(Metric::new("core.cache.hit_ratio", "ratio", hits / lookups));
    out
}
