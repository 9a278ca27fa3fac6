//! Warm what-if sessions over the flow engine: the state the `smtd`
//! daemon keeps resident between requests.
//!
//! A one-shot flow pays three costs before it produces anything: corner
//! characterisation of the library, design realisation, and the
//! synthesis + placement + clock-probe prefix of the Fig. 4 plan. A
//! [`Session`] pays them once and keeps the results — the canonical
//! netlist, a [`Checkpoint`] through [`StageId::PlaceAndClock`], and
//! (after the first completed flow) a finals checkpoint through
//! [`StageId::Signoff`] — so every subsequent what-if forks a
//! checkpoint instead of rebuilding the world:
//!
//! * [`WhatIf::VthSwap`] / [`WhatIf::Eco`] fork the *prefix* with a
//!   modified [`DualVthConfig`] / hold-fix budget and run the remaining
//!   stages — with the finals' warm incremental caches (routing
//!   session, CTS recording, extracted parasitics) grafted in, so the
//!   back half of the flow re-computes only what the fork actually
//!   changed;
//! * [`WhatIf::Signoff`] forks the *finals*, strips only the signoff
//!   stage, and re-signs the finished design off at a different
//!   [`CornerSet`] — no re-implementation at all;
//! * [`WhatIf::Sweep`] fans the prefix across arbitrary configurations
//!   on the shared worker pool (the `run_sweep` shape, with warm
//!   corner libraries).
//!
//! Everything here is pure with respect to the daemon: no sockets, no
//! locks. [`LibraryPool`] memoises corner characterisations keyed by
//! `(Library::fingerprint(), corner-set fingerprint)`;
//! [`SessionRegistry`] is a named map with reuse accounting. The
//! daemon clones the cheap parts (checkpoints fork by design) out of
//! the registry, runs outside its locks, and writes results back.
//! Every forked run is wrapped in `catch_unwind`, so a panicking
//! what-if poisons only its own reply ([`FlowError::RunPanicked`]),
//! never the host.
//!
//! Determinism contract (asserted by the tests below and end-to-end by
//! `tests/serve_loopback.rs`): a flow completed from a session prefix
//! is bit-identical — same [`SuiteOutcome::digest`](crate::suite::SuiteOutcome::digest)
//! — to a cold `FlowEngine::run_netlist` on the same canonical netlist,
//! and re-signing off at the session's own corners reproduces the
//! stored finals exactly.

use crate::cache::PlacementCache;
use crate::config_io::JsonConfig;
use crate::dualvth::DualVthConfig;
use crate::engine::{
    build_corner_libs, Checkpoint, DesignState, FlowConfig, FlowEngine, FlowError, FlowResult,
    StageId, SweepRun,
};
use smt_base::fingerprint::Fnv64;
use smt_base::par::parallel_map;
use smt_cells::corner::{CornerLibrary, CornerSet};
use smt_cells::library::Library;
use smt_netlist::netlist::Netlist;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Library pool
// ---------------------------------------------------------------------------

/// Memoised corner characterisations: the expensive, immutable product
/// of `(base library, corner set)`, shared across sessions and
/// requests via [`Arc`].
#[derive(Debug, Default)]
pub struct LibraryPool {
    corners: BTreeMap<(u64, u64), Arc<Vec<CornerLibrary>>>,
    /// Cold characterisations performed.
    pub characterised: usize,
    /// Warm lookups served from the pool.
    pub hits: usize,
}

impl LibraryPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stable fingerprint of a corner set (via its canonical
    /// `config_io` JSON rendering, so every derate knob is covered).
    pub fn corner_set_fingerprint(set: &CornerSet) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&set.to_json());
        h.finish()
    }

    /// The characterised corner libraries for `(lib, set)`, and whether
    /// the pool already had them (`true` = warm).
    pub fn corner_libs(
        &mut self,
        lib: &Library,
        set: &CornerSet,
    ) -> (Arc<Vec<CornerLibrary>>, bool) {
        let key = (lib.fingerprint(), Self::corner_set_fingerprint(set));
        if let Some(libs) = self.corners.get(&key) {
            self.hits += 1;
            return (Arc::clone(libs), true);
        }
        let libs = Arc::new(build_corner_libs(lib, set));
        self.characterised += 1;
        self.corners.insert(key, Arc::clone(&libs));
        (libs, false)
    }

    /// Number of distinct characterisations held.
    pub fn len(&self) -> usize {
        self.corners.len()
    }

    /// True when nothing has been characterised yet.
    pub fn is_empty(&self) -> bool {
        self.corners.is_empty()
    }
}

/// Identity of a flow configuration against a library: what must match
/// for a session's warm checkpoints to be reusable for a request.
pub fn config_identity(config: &FlowConfig, lib: &Library) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&config.to_json());
    h.write_u64(lib.fingerprint());
    h.finish()
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// One design's warm state: canonical netlist, placed-and-clocked
/// prefix checkpoint, and (after the first full flow) the signed-off
/// finals checkpoint.
#[derive(Debug, Clone)]
pub struct Session {
    /// Registry key.
    pub name: String,
    /// Design label (workload name).
    pub design: String,
    /// Content fingerprint of the design (family config or SNL text).
    pub design_fp: u64,
    /// [`config_identity`] the checkpoints were built under.
    pub config_fp: u64,
    /// The session's flow configuration.
    pub config: FlowConfig,
    netlist: Netlist,
    prefix: Checkpoint,
    finals: Option<Checkpoint>,
    /// Checkpoint forks served (what-ifs and cold completions).
    pub forks: usize,
    /// Results served straight from the finals checkpoint.
    pub finals_reuses: usize,
}

impl Session {
    /// Opens a session: runs the synthesis/placement/clock prefix once
    /// and snapshots it.
    ///
    /// # Errors
    ///
    /// Any prefix-stage [`FlowError`].
    pub fn open(
        name: impl Into<String>,
        design: impl Into<String>,
        design_fp: u64,
        netlist: Netlist,
        config: FlowConfig,
        lib: &Library,
        corner_libs: &[CornerLibrary],
    ) -> Result<Session, FlowError> {
        Self::open_with_cache(
            name,
            design,
            design_fp,
            netlist,
            config,
            lib,
            corner_libs,
            None,
        )
    }

    /// [`Session::open`] with an optional shared [`PlacementCache`]: the
    /// prefix's placement stage is served from disk when the cache holds
    /// the `(netlist, placer config, library)` key, so reopening a
    /// session for a known design skips the placement kernel entirely.
    /// The resulting prefix checkpoint carries the warm
    /// [`Placer`](smt_place::Placer) session, which every what-if fork
    /// inherits — forks re-place incrementally, never from scratch.
    ///
    /// # Errors
    ///
    /// Any prefix-stage [`FlowError`].
    #[allow(clippy::too_many_arguments)]
    pub fn open_with_cache(
        name: impl Into<String>,
        design: impl Into<String>,
        design_fp: u64,
        netlist: Netlist,
        config: FlowConfig,
        lib: &Library,
        corner_libs: &[CornerLibrary],
        placement_cache: Option<Arc<PlacementCache>>,
    ) -> Result<Session, FlowError> {
        let config_fp = config_identity(&config, lib);
        let seed = Checkpoint::new(DesignState::from_netlist(netlist.clone()));
        let mut engine =
            FlowEngine::with_corner_libraries(lib, config.clone(), corner_libs.to_vec());
        if let Some(cache) = placement_cache {
            engine = engine.with_placement_cache(cache);
        }
        let prefix = engine.resume_until(&seed, StageId::PlaceAndClock)?;
        Ok(Session {
            name: name.into(),
            design: design.into(),
            design_fp,
            config_fp,
            config,
            netlist,
            prefix,
            finals: None,
            forks: 0,
            finals_reuses: 0,
        })
    }

    /// The placed-and-clocked prefix every what-if forks from.
    pub fn prefix(&self) -> &Checkpoint {
        &self.prefix
    }

    /// The signed-off finals checkpoint, once a full flow completed.
    pub fn finals(&self) -> Option<&Checkpoint> {
        self.finals.as_ref()
    }

    /// Stores the finals checkpoint of a completed flow.
    pub fn set_finals(&mut self, finals: Checkpoint) {
        self.finals = Some(finals);
    }

    /// The canonical input netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// True when this session's warm state is valid for a request
    /// against the same design content and configuration.
    pub fn matches(&self, design_fp: u64, config_fp: u64) -> bool {
        self.design_fp == design_fp && self.config_fp == config_fp
    }
}

/// Reuse accounting across a [`SessionRegistry`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions opened cold (prefix computed).
    pub created: usize,
    /// Requests served from an existing session's warm state.
    pub reused: usize,
    /// Sessions replaced because design or config changed under the
    /// same name.
    pub evicted: usize,
}

/// Named warm sessions, with reuse accounting.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: BTreeMap<String, Session>,
    /// Lifetime counters.
    pub stats: SessionStats,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks a session up without touching the counters.
    pub fn get(&self, name: &str) -> Option<&Session> {
        self.sessions.get(name)
    }

    /// Mutable lookup (for writing back finals/fork counters).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Session> {
        self.sessions.get_mut(name)
    }

    /// Inserts a freshly opened session, counting an eviction when it
    /// replaces a stale one under the same name.
    pub fn insert(&mut self, session: Session) {
        self.stats.created += 1;
        if self
            .sessions
            .insert(session.name.clone(), session)
            .is_some()
        {
            self.stats.evicted += 1;
        }
    }

    /// Counts one warm reuse.
    pub fn note_reuse(&mut self) {
        self.stats.reused += 1;
    }

    /// Removes a session.
    pub fn remove(&mut self, name: &str) -> Option<Session> {
        self.sessions.remove(name)
    }

    /// Session names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.sessions.keys().map(String::as_str).collect()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session is open.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Running from checkpoints
// ---------------------------------------------------------------------------

/// Completes a full flow from a session prefix, returning both the
/// result and the finals checkpoint (so the caller can store it for
/// warm re-reads).
///
/// # Errors
///
/// Any downstream-stage [`FlowError`].
pub fn complete_flow(
    lib: &Library,
    corner_libs: &[CornerLibrary],
    config: &FlowConfig,
    prefix: &Checkpoint,
) -> Result<(FlowResult, Checkpoint), FlowError> {
    let mut engine = FlowEngine::with_corner_libraries(lib, config.clone(), corner_libs.to_vec());
    let finals = engine.resume_until(prefix, StageId::Signoff)?;
    // Every stage is recorded complete in `finals`, so this resume is a
    // pure state→result conversion, not a re-run.
    let result = engine.resume(&finals)?;
    Ok((result, finals))
}

/// Reads a [`FlowResult`] back out of a finals checkpoint without
/// re-running anything.
///
/// # Errors
///
/// [`FlowError::MissingState`] when the checkpoint is not a completed
/// flow.
pub fn finals_result(
    lib: &Library,
    corner_libs: &[CornerLibrary],
    config: &FlowConfig,
    finals: &Checkpoint,
) -> Result<FlowResult, FlowError> {
    FlowEngine::with_corner_libraries(lib, config.clone(), corner_libs.to_vec()).resume(finals)
}

// ---------------------------------------------------------------------------
// What-ifs
// ---------------------------------------------------------------------------

/// A what-if request against a session's warm checkpoints.
#[derive(Debug, Clone)]
pub enum WhatIf {
    /// Fork the prefix with a different Dual-Vth assignment policy.
    VthSwap {
        /// The replacement assignment options.
        dualvth: DualVthConfig,
    },
    /// Fork the prefix with a different hold-fix budget.
    Eco {
        /// Replacement [`FlowConfig::hold_rounds`].
        hold_rounds: usize,
    },
    /// Re-sign the *finished* design off at a different corner set
    /// (forks the finals checkpoint; nothing is re-implemented).
    Signoff {
        /// The corners to sign off against.
        corners: CornerSet,
    },
    /// Fan the prefix across arbitrary configurations in parallel.
    Sweep {
        /// Labelled configurations to fork.
        runs: Vec<SweepRun>,
    },
}

/// One labelled what-if outcome.
#[derive(Debug)]
pub struct WhatIfRun {
    /// Which fork this is (`"vth-swap"`, `"eco"`, `"signoff"`, or the
    /// sweep run's label).
    pub label: String,
    /// The forked flow's result.
    pub result: Result<FlowResult, FlowError>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Forks the prefix for an implementation what-if, grafting the warm
/// incremental-session caches out of the finals checkpoint when one
/// exists: routing session, CTS recording and extracted parasitics.
/// Every one of these three caches is fingerprint-gated against the
/// netlist it is later asked about, so a fork whose implementation
/// diverges from the finals simply rebuilds the stale entries — reuse
/// can change how much work the re-run does, never its result (the
/// bit-identity the incremental-flow tests digest-assert).
fn fork_prefix_with_warm_caches(prefix: &Checkpoint, finals: Option<&Checkpoint>) -> Checkpoint {
    let mut state = prefix.restore();
    if let Some(finals) = finals {
        // Borrow the finals and clone only the three cache fields — the
        // rest of that state (netlist, placement, reports) is dead
        // weight for a fork that restarts from the prefix.
        let warm = finals.state();
        state.router = warm.router.clone();
        state.cts_session = warm.cts_session.clone();
        state.extracted = warm.extracted.clone();
    }
    Checkpoint::new(state)
}

/// Runs one forked engine pass with panic isolation.
fn run_forked(
    lib: &Library,
    corner_libs: Vec<CornerLibrary>,
    config: FlowConfig,
    from: &Checkpoint,
) -> Result<FlowResult, FlowError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        FlowEngine::with_corner_libraries(lib, config, corner_libs).resume(from)
    }))
    .unwrap_or_else(|payload| {
        Err(FlowError::RunPanicked {
            message: panic_message(payload),
        })
    })
}

/// Executes a what-if against a session's checkpoints.
///
/// `corner_libs_for` resolves characterised corner libraries for a
/// corner set — the daemon passes its warm [`LibraryPool`]; tests pass
/// a cold builder. `finals` is only needed by [`WhatIf::Signoff`];
/// without it that verb reports [`FlowError::Reported`] instead of
/// silently re-running the whole flow. Individual forks never panic
/// the caller ([`FlowError::RunPanicked`]).
pub fn run_what_if(
    lib: &Library,
    base: &FlowConfig,
    prefix: &Checkpoint,
    finals: Option<&Checkpoint>,
    corner_libs_for: &mut dyn FnMut(&CornerSet) -> Vec<CornerLibrary>,
    what: &WhatIf,
    threads: usize,
) -> Vec<WhatIfRun> {
    match what {
        WhatIf::VthSwap { dualvth } => {
            let mut config = base.clone();
            config.dualvth = dualvth.clone();
            let corners = corner_libs_for(&config.corners);
            let from = fork_prefix_with_warm_caches(prefix, finals);
            vec![WhatIfRun {
                label: "vth-swap".to_owned(),
                result: run_forked(lib, corners, config, &from),
            }]
        }
        WhatIf::Eco { hold_rounds } => {
            let mut config = base.clone();
            config.hold_rounds = *hold_rounds;
            let corners = corner_libs_for(&config.corners);
            let from = fork_prefix_with_warm_caches(prefix, finals);
            vec![WhatIfRun {
                label: "eco".to_owned(),
                result: run_forked(lib, corners, config, &from),
            }]
        }
        WhatIf::Signoff { corners } => {
            let result = match finals {
                None => Err(FlowError::Reported {
                    message: "session has no completed flow to re-sign off; run `flow` first"
                        .to_owned(),
                }),
                Some(finals) => {
                    // Rewind exactly one stage: drop the signoff verdict
                    // (and its metrics row) from the finished state, keep
                    // every implementation stage, and re-run signoff under
                    // the requested corners.
                    let mut state = finals.restore();
                    state.completed.retain(|&s| s != StageId::Signoff);
                    if let Some(pos) = state.stages.iter().rposition(|m| m.id == StageId::Signoff) {
                        state.stages.remove(pos);
                    }
                    state.corner_signoff.clear();
                    let mut config = base.clone();
                    config.corners = corners.clone();
                    let corner_libs = corner_libs_for(&config.corners);
                    run_forked(lib, corner_libs, config, &Checkpoint::new(state))
                }
            };
            vec![WhatIfRun {
                label: "signoff".to_owned(),
                result,
            }]
        }
        WhatIf::Sweep { runs } => {
            // Characterise each distinct corner set once, serially (the
            // resolver may be backed by a shared pool), then fork in
            // parallel on the shared pool.
            let mut corner_cache: Vec<(CornerSet, Vec<CornerLibrary>)> = Vec::new();
            for run in runs {
                if !corner_cache.iter().any(|(s, _)| *s == run.config.corners) {
                    corner_cache.push((
                        run.config.corners.clone(),
                        corner_libs_for(&run.config.corners),
                    ));
                }
            }
            let results = parallel_map(runs, threads, |run: &SweepRun| {
                let corners = corner_cache
                    .iter()
                    .find(|(s, _)| *s == run.config.corners)
                    .map(|(_, l)| l.clone())
                    .unwrap_or_default();
                run_forked(lib, corners, run.config.clone(), prefix)
            });
            runs.iter()
                .zip(results)
                .map(|(run, result)| WhatIfRun {
                    label: run.label.clone(),
                    result,
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteOutcome;
    use smt_circuits::families::{generate, standard_suite, SuiteScale};

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    /// The smallest Smoke workload keeps these full-flow tests fast.
    fn small_netlist(l: &Library) -> (String, Netlist) {
        let w = standard_suite(SuiteScale::Smoke)
            .into_iter()
            .min_by_key(|w| w.config.estimated_gates())
            .expect("smoke suite is non-empty");
        let n = generate(l, &w.config).expect("generate smallest smoke workload");
        (w.name, n)
    }

    fn config() -> FlowConfig {
        FlowConfig {
            technique: crate::engine::Technique::DualVth,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn session_flow_is_bit_identical_to_cold_run_and_finals_replay() {
        let l = lib();
        let (name, netlist) = small_netlist(&l);
        let cfg = config();
        let mut pool = LibraryPool::new();
        let (corners, warm) = pool.corner_libs(&l, &cfg.corners);
        assert!(!warm, "first characterisation is cold");

        // Cold reference: one-shot engine run on the same netlist.
        let cold = FlowEngine::with_corner_libraries(&l, cfg.clone(), corners.to_vec())
            .run_netlist(netlist.clone())
            .expect("cold flow");
        let cold_digest = SuiteOutcome::from_flow(&cold).digest();

        // Session path: prefix checkpoint, then complete.
        let mut session = Session::open(&name, &name, 1, netlist, cfg.clone(), &l, &corners)
            .expect("session prefix");
        let (result, finals) =
            complete_flow(&l, &corners, &cfg, session.prefix()).expect("complete from prefix");
        assert_eq!(
            SuiteOutcome::from_flow(&result).digest(),
            cold_digest,
            "a flow completed from the session prefix must be bit-identical to a cold run"
        );
        session.set_finals(finals);

        // Warm replay: reading the finals back re-runs nothing and
        // reproduces the result exactly.
        let replay = finals_result(&l, &corners, &cfg, session.finals().expect("finals stored"))
            .expect("finals replay");
        assert_eq!(SuiteOutcome::from_flow(&replay).digest(), cold_digest);

        // The pool is warm now.
        let (_, warm) = pool.corner_libs(&l, &cfg.corners);
        assert!(warm);
        assert_eq!((pool.characterised, pool.hits), (1, 1));
    }

    #[test]
    fn what_ifs_fork_without_disturbing_the_session() {
        let l = lib();
        let (name, netlist) = small_netlist(&l);
        let cfg = config();
        let mut pool = LibraryPool::new();
        let (corners, _) = pool.corner_libs(&l, &cfg.corners);
        let mut session =
            Session::open(&name, &name, 1, netlist, cfg.clone(), &l, &corners).expect("session");
        let (base_result, finals) =
            complete_flow(&l, &corners, &cfg, session.prefix()).expect("base flow");
        let base_digest = SuiteOutcome::from_flow(&base_result).digest();
        session.set_finals(finals);
        let mut resolve = |set: &CornerSet| pool.corner_libs(&l, set).0.to_vec();

        // Re-signing off at the session's own corners must reproduce
        // the stored result exactly — the strip-one-stage rewind is
        // lossless.
        let same = run_what_if(
            &l,
            &cfg,
            session.prefix(),
            session.finals(),
            &mut resolve,
            &WhatIf::Signoff {
                corners: cfg.corners.clone(),
            },
            1,
        );
        let same = same[0].result.as_ref().expect("signoff what-if");
        assert_eq!(SuiteOutcome::from_flow(same).digest(), base_digest);

        // Re-signing off a typical-implemented design at slow/typ/fast
        // honestly reports the slow-corner miss (the design was never
        // implemented against those corners) instead of inventing a
        // passing report — and the stored session state is untouched.
        let multi = run_what_if(
            &l,
            &cfg,
            session.prefix(),
            session.finals(),
            &mut resolve,
            &WhatIf::Signoff {
                corners: CornerSet::slow_typ_fast(),
            },
            1,
        );
        assert!(
            matches!(multi[0].result, Err(FlowError::TimingNotMet { .. })),
            "expected a slow-corner timing miss, got {:?}",
            multi[0].result.as_ref().map(|r| r.corner_signoff.len())
        );

        // A Vth-swap what-if forks the prefix under a tighter high-Vth
        // budget and still verifies clean.
        let swap = run_what_if(
            &l,
            &cfg,
            session.prefix(),
            session.finals(),
            &mut resolve,
            &WhatIf::VthSwap {
                dualvth: DualVthConfig {
                    max_high_fraction: Some(0.10),
                    ..cfg.dualvth.clone()
                },
            },
            1,
        );
        let swap = swap[0].result.as_ref().expect("vth-swap what-if");
        assert!(swap.verify.passed());
        let base_high = base_result.census.high;
        assert!(
            swap.census.high <= base_high,
            "a 10% cap must not raise the high-Vth count ({} vs {base_high})",
            swap.census.high
        );

        // Signoff without a completed flow is a reported error, not a
        // silent full re-run (and not a panic).
        let none = run_what_if(
            &l,
            &cfg,
            session.prefix(),
            None,
            &mut resolve,
            &WhatIf::Signoff {
                corners: cfg.corners.clone(),
            },
            1,
        );
        assert!(matches!(none[0].result, Err(FlowError::Reported { .. })));
    }

    #[test]
    fn registry_counts_creations_reuses_and_evictions() {
        let l = lib();
        let (name, netlist) = small_netlist(&l);
        let cfg = config();
        let corners = build_corner_libs(&l, &cfg.corners);
        let mut reg = SessionRegistry::new();
        let s = Session::open("a", &name, 7, netlist.clone(), cfg.clone(), &l, &corners)
            .expect("session");
        let fp = s.config_fp;
        reg.insert(s);
        assert!(reg.get("a").expect("present").matches(7, fp));
        assert!(!reg.get("a").unwrap().matches(8, fp), "design changed");
        reg.note_reuse();
        // Same name, different design content: replacing evicts.
        let s2 =
            Session::open("a", &name, 8, netlist, cfg, &l, &corners).expect("replacement session");
        reg.insert(s2);
        assert_eq!(
            reg.stats,
            SessionStats {
                created: 2,
                reused: 1,
                evicted: 1
            }
        );
        assert_eq!(reg.names(), vec!["a"]);
    }
}
