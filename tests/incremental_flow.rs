//! Whole-flow incrementality: warm what-if forks that graft the finals'
//! routing / CTS / extraction caches must be **bit-identical** to the
//! same fork run from scratch, while actually reusing the cached work:
//!
//! * after a Vth swap and an ECO hold-fix what-if, routed lengths,
//!   extracted RC, clock skew, leakage, the suite digest and the
//!   equivalence-report digest all match the cold fork exactly;
//! * `full_route_runs()` / `full_cts_runs()` stay at the single cold
//!   pass across session what-ifs — warm forks re-route and re-buffer
//!   incrementally, never from scratch;
//! * for every technique, and after hold-fix buffers go in, the routing
//!   and extraction the flow keeps in sync through its ECO edits equal
//!   a from-scratch route and extraction of the final design;
//! * the smoke-suite digests of all three techniques are pinned;
//! * the parallel re-route fan-out is worker-count invariant (this is
//!   the test the nightly ThreadSanitizer matrix runs).
//!
//! The counters are process-global, so every test here serializes on
//! one mutex and asserts counter *deltas*, never absolute values.

use selective_mt::base::fingerprint::Fnv64;
use selective_mt::base::geom::Point;
use selective_mt::base::units::Time;
use selective_mt::cells::corner::CornerSet;
use selective_mt::cells::library::Library;
use selective_mt::circuits::families::{generate, standard_suite, SuiteScale};
use selective_mt::circuits::rtl::circuit_b_rtl_sized;
use selective_mt::core::dualvth::DualVthConfig;
use selective_mt::core::engine::{
    Checkpoint, DesignState, FlowConfig, FlowEngine, FlowResult, StageId, Technique,
};
use selective_mt::core::session::{complete_flow, run_what_if, LibraryPool, Session, WhatIf};
use selective_mt::core::suite::{SuiteOutcome, WorkloadSuite};
use selective_mt::netlist::netlist::{NetId, Netlist};
use selective_mt::place::{place, PlacerConfig};
use selective_mt::route::{
    full_cts_runs, full_route_runs, reextractions_avoided, Parasitics, RouteConfig, Router,
};
use selective_mt::synth::{synthesize, SynthOptions};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Serializes the tests in this binary: the full-pass counters are
/// process-global, and concurrent flows would tear the deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lib() -> Library {
    Library::industrial_130nm()
}

/// Circuit B as an all-low-Vth netlist (the session API takes netlists,
/// not RTL).
fn circuit_b_netlist(l: &Library, width: usize) -> Netlist {
    synthesize(&circuit_b_rtl_sized(width), l, &SynthOptions::default())
        .expect("synthesize circuit B")
}

/// The session base configuration. FFs are excluded from Vth assignment
/// so a vth-swap what-if can never perturb the clock fabric — the CTS
/// replay gate below is then a guarantee, not a coincidence.
fn base_config() -> FlowConfig {
    let mut cfg = FlowConfig {
        technique: Technique::DualVth,
        ..FlowConfig::default()
    };
    cfg.dualvth.include_ffs = false;
    cfg
}

fn assert_results_match(warm: &FlowResult, cold: &FlowResult, what: &str) {
    assert_eq!(
        SuiteOutcome::from_flow(warm).digest(),
        SuiteOutcome::from_flow(cold).digest(),
        "{what}: suite digest"
    );
    assert_eq!(warm.timing.wns.ps(), cold.timing.wns.ps(), "{what}: WNS");
    assert_eq!(
        warm.cts.as_ref().map(|r| r.skew().ps()),
        cold.cts.as_ref().map(|r| r.skew().ps()),
        "{what}: clock skew"
    );
    assert_eq!(
        warm.standby_leakage.ua(),
        cold.standby_leakage.ua(),
        "{what}: standby leakage"
    );
    assert_eq!(
        warm.active_leakage.ua(),
        cold.active_leakage.ua(),
        "{what}: active leakage"
    );
    assert_eq!(
        warm.verify.equivalence.digest(),
        cold.verify.equivalence.digest(),
        "{what}: equivalence report digest"
    );
    assert_eq!(warm.hold_fix, cold.hold_fix, "{what}: hold fix");
}

#[test]
fn warm_what_ifs_are_bit_identical_and_skip_full_route_and_cts() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let cfg = base_config();
    let netlist = circuit_b_netlist(&l, 8);
    let mut pool = LibraryPool::new();
    let (corners, _) = pool.corner_libs(&l, &cfg.corners);
    let mut session =
        Session::open("inc", "circuit-b", 1, netlist, cfg.clone(), &l, &corners).expect("session");

    // The one and only full route + full CTS: the base flow.
    let route0 = full_route_runs();
    let cts0 = full_cts_runs();
    let (_, finals) = complete_flow(&l, &corners, &cfg, session.prefix()).expect("base flow");
    session.set_finals(finals);
    assert_eq!(full_route_runs() - route0, 1, "base flow routes once");
    assert_eq!(full_cts_runs() - cts0, 1, "base flow synthesizes one tree");

    let mut resolve = |set: &CornerSet| pool.corner_libs(&l, set).0.to_vec();
    let swap = WhatIf::VthSwap {
        dualvth: DualVthConfig {
            max_high_fraction: Some(0.10),
            ..cfg.dualvth.clone()
        },
    };
    let eco = WhatIf::Eco {
        hold_rounds: cfg.hold_rounds + 2,
    };

    // Warm what-ifs: the finals' caches ride along into the fork.
    let warm_swap = run_what_if(
        &l,
        &cfg,
        session.prefix(),
        session.finals(),
        &mut resolve,
        &swap,
        1,
    );
    let warm_eco = run_what_if(
        &l,
        &cfg,
        session.prefix(),
        session.finals(),
        &mut resolve,
        &eco,
        1,
    );
    assert_eq!(
        full_route_runs() - route0,
        1,
        "session what-ifs must re-route incrementally, not from scratch"
    );
    assert_eq!(
        full_cts_runs() - cts0,
        1,
        "session what-ifs must replay the recorded clock tree"
    );

    // From-scratch references: the same forks without warm caches.
    let cold_swap = run_what_if(&l, &cfg, session.prefix(), None, &mut resolve, &swap, 1);
    let cold_eco = run_what_if(&l, &cfg, session.prefix(), None, &mut resolve, &eco, 1);
    assert!(full_route_runs() - route0 > 1, "cold forks route in full");

    for (warm, cold, what) in [
        (&warm_swap, &cold_swap, "vth-swap"),
        (&warm_eco, &cold_eco, "eco"),
    ] {
        let w = warm[0].result.as_ref().expect(what);
        let c = cold[0].result.as_ref().expect(what);
        assert_results_match(w, c, what);
    }
}

#[test]
fn warm_fork_reuses_routes_and_extraction_bit_for_bit() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let cfg = base_config();
    let netlist = circuit_b_netlist(&l, 8);
    let mut pool = LibraryPool::new();
    let (corners, _) = pool.corner_libs(&l, &cfg.corners);
    let session =
        Session::open("inc2", "circuit-b", 1, netlist, cfg.clone(), &l, &corners).expect("session");
    let (_, finals) = complete_flow(&l, &corners, &cfg, session.prefix()).expect("base flow");

    // A Vth-swap fork, once warm (finals caches grafted into the prefix
    // fork, as `run_what_if` does) and once cold.
    let mut swap_cfg = cfg.clone();
    swap_cfg.dualvth.max_high_fraction = Some(0.10);
    let warm_from = {
        let mut state = session.prefix().restore();
        let warm = finals.restore();
        state.router = warm.router;
        state.cts_session = warm.cts_session;
        state.extracted = warm.extracted;
        Checkpoint::new(state)
    };

    let route0 = full_route_runs();
    let avoided0 = reextractions_avoided();
    let warm_finals = FlowEngine::with_corner_libraries(&l, swap_cfg.clone(), corners.to_vec())
        .resume_until(&warm_from, StageId::Signoff)
        .expect("warm fork");
    assert_eq!(
        full_route_runs() - route0,
        0,
        "warm fork never routes in full"
    );
    assert!(
        reextractions_avoided() - avoided0 > 0,
        "unmoved nets must keep their extracted RC entries"
    );
    let cold_finals = FlowEngine::with_corner_libraries(&l, swap_cfg, corners.to_vec())
        .resume_until(session.prefix(), StageId::Signoff)
        .expect("cold fork");

    let w = warm_finals.restore();
    let c = cold_finals.restore();
    let wr = w.router.expect("warm router");
    let cr = c.router.expect("cold router");
    // Routed lengths and paths: identical down to the digest.
    assert_eq!(wr.global().net_length, cr.global().net_length);
    assert_eq!(wr.digest(), cr.digest());
    // Extracted RC: every net's parasitics byte-identical.
    let we = w.extracted.expect("warm parasitics");
    let ce = c.extracted.expect("cold parasitics");
    for (id, _) in w.netlist.nets() {
        assert_eq!(we.net(id), ce.net(id), "net {id:?} parasitics");
    }
}

#[test]
fn reroute_fanout_is_worker_count_invariant() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let n = circuit_b_netlist(&l, 4);
    let p = place(&n, &l, &PlacerConfig::default());
    let cfg = RouteConfig::default();
    let base = Router::route(&n, &l, &p, &cfg, 1);

    // Shift a couple dozen instances; only their incident nets may be
    // re-routed.
    let mut moved = p.clone();
    let mut incident: BTreeSet<NetId> = BTreeSet::new();
    for (id, inst) in n.instances().take(24) {
        let loc = moved.loc(id);
        moved.set_loc(id, Point::new(loc.x + 8.0, loc.y + 4.0));
        incident.extend(inst.conns.iter().flatten().copied());
    }

    let reference = {
        let mut r = base.clone();
        r.refresh(&n, &l, &moved, &cfg, 1);
        assert!(
            r.last_rerouted <= incident.len(),
            "refresh re-routed unmoved nets"
        );
        r.digest()
    };
    for workers in [2, 4, 8] {
        let mut r = base.clone();
        r.refresh(&n, &l, &moved, &cfg, workers);
        assert_eq!(
            r.digest(),
            reference,
            "re-route fan-out must be invariant at {workers} workers"
        );
    }
    // And the incremental result equals routing the moved placement
    // from scratch.
    assert_eq!(
        Router::route(&n, &l, &moved, &cfg, 1).digest(),
        reference,
        "incremental re-route must match a from-scratch pass"
    );
}

/// The routing session and extraction a flow state carries equal a
/// from-scratch route and extraction of its netlist and placement.
fn assert_synced_to_scratch(state: &DesignState, l: &Library, cfg: &RouteConfig, what: &str) {
    let placement = state.placer.as_ref().expect("placed").placement();
    let router = state.router.as_ref().expect("routed");
    let scratch = Router::route(&state.netlist, l, placement, cfg, 0);
    assert_eq!(router.digest(), scratch.digest(), "{what}: route digest");
    let extracted = state.extracted.as_ref().expect("extracted");
    let fresh = Parasitics::extract(&state.netlist, l, placement, scratch.global());
    for (id, _) in state.netlist.nets() {
        assert_eq!(
            extracted.net(id),
            fresh.net(id),
            "{what}: net {id:?} parasitics"
        );
    }
}

#[test]
fn synced_routing_and_extraction_match_from_scratch_for_every_technique() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let rtl = circuit_b_rtl_sized(8);
    // ImprovedSmt is the row that re-syncs after post-route switch
    // sizing (ReoptSwitches → EcoHoldFix); every row syncs through the
    // setup-recovery passes.
    for technique in [
        Technique::DualVth,
        Technique::ConventionalSmt,
        Technique::ImprovedSmt,
    ] {
        let cfg = FlowConfig {
            technique,
            ..FlowConfig::default()
        };
        let finals = FlowEngine::new(&l, cfg.clone())
            .run_until(&rtl, StageId::Signoff)
            .unwrap_or_else(|e| panic!("{technique}: flow: {e}"));
        assert_synced_to_scratch(finals.state(), &l, &cfg.route, &technique.to_string());
    }
}

#[test]
fn hold_fix_buffers_are_routed_and_extracted() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let cfg = base_config();
    let routed = FlowEngine::new(&l, cfg.clone())
        .run_until(&circuit_b_rtl_sized(8), StageId::RouteExtract)
        .expect("route");
    // A skew far beyond what CTS built forces the hold fix to pad.
    let mut state = routed.restore();
    state.sta.as_mut().expect("STA config").clock_skew = Time::new(150.0);
    let fixed = FlowEngine::new(&l, cfg.clone())
        .resume_until(&Checkpoint::new(state), StageId::EcoHoldFix)
        .expect("hold fix");
    let state = fixed.state();
    let buffers = state.hold_fix.as_ref().expect("hold-fix report").buffers;
    assert!(buffers > 0, "the skew must force hold buffers");
    assert_synced_to_scratch(state, &l, &cfg.route, "hold fix");
}

/// The digests `suite --scale smoke --technique <t> --corners --jobs 1
/// --no-cache` prints. A change in how the flow learns what changed in
/// a netlist must leave every one of them alone.
#[test]
fn smoke_suite_digests_are_pinned() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let l = lib();
    let workloads = standard_suite(SuiteScale::Smoke);
    // The design-list identity the suite binary folds into the report.
    let mut list_fp = Fnv64::new();
    for w in &workloads {
        list_fp.write_str(&w.name);
        list_fp.write_str(w.config.family());
        list_fp.write_u64(w.config.fingerprint());
    }
    let list_fp = list_fp.finish();
    for (technique, digest) in [
        (Technique::DualVth, "b32bd37fe1272d88"),
        (Technique::ConventionalSmt, "468a64a5806cbc6a"),
        (Technique::ImprovedSmt, "4e1d156487e18525"),
    ] {
        let mut suite = WorkloadSuite::new(FlowConfig {
            technique,
            corners: CornerSet::slow_typ_fast(),
            ..FlowConfig::default()
        })
        .with_threads(1)
        .with_total_designs(workloads.len())
        .with_suite_fingerprint(list_fp);
        for (ordinal, w) in workloads.iter().enumerate() {
            let netlist = generate(&l, &w.config).expect("generate workload");
            suite.push_ordinal(&w.name, ordinal, netlist);
        }
        let report = suite.run(&l);
        assert!(report.all_passed(), "{technique}: {}", report.render());
        assert_eq!(
            format!("{:016x}", report.digest()),
            digest,
            "{technique}: smoke-suite digest"
        );
    }
}
