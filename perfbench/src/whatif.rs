//! `whatif_warm`: a closed loop of what-if requests from one client
//! connection against a warm `smtd` session, with the daemon running in
//! this process.
//!
//! Set-up boots a daemon on `127.0.0.1:0` over an empty cache directory
//! and completes one `flow` on the session design. Each round then sends
//! one `vth-swap`, one `eco` and one `signoff` in seeded order, so every
//! verb gets the same number of samples. The flow configuration always
//! travels as an explicit `config` object: the daemon also reads a
//! top-level `corners` as the flow-config shorthand, so a `signoff`
//! request that relied on the shorthand would re-key the session under a
//! typical-only config and evict the warm session (see `NOTES.md`).
//!
//! The daemon runs its engines without an observer, so a traced run
//! replays each what-if in this process from its own copy of the
//! session checkpoints, with stage spans on, and requires the replay to
//! reproduce the daemon's digest.

use crate::flows::{mix, quality, run_rounds, shuffled, Counters};
use crate::probes::{self, Env, Sample, StageSpans, Stages};
use crate::stats::{self, Summary};
use crate::{peak_rss_mb, Ledger, Metric, Outcome, Settings};
use smt_base::json::Json;
use smt_circuits::families::{generate, standard_suite, SuiteScale, Workload};
use smt_core::cache::DesignCache;
use smt_core::config_io::JsonConfig;
use smt_core::dualvth::DualVthConfig;
use smt_core::engine::{Checkpoint, StageId};
use smt_core::suite::SuiteOutcome;
use smt_netlist::netlist::Netlist;
use smt_serve::client::Client;
use smt_serve::daemon::{Daemon, DaemonConfig, DaemonHandle};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The session design.
const DESIGN: &str = "fanout_b16_r48";
const SESSION: &str = "bench";
const VERBS: [&str; 3] = ["vth_swap", "eco", "signoff"];
/// `dualvth.max_high_fraction` values a `vth-swap` draws from.
const FRACTIONS: [f64; 9] = [0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80];
/// `hold_rounds` values an `eco` draws from.
const HOLD_ROUNDS: [usize; 5] = [2, 3, 4, 5, 6];
const CALL_TIMEOUT: Duration = Duration::from_secs(120);
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rounds an untraced run makes at least, however slow the host: 100
/// samples per verb leave 10 beyond its p90.
const TAIL_ROUNDS: usize = 100;

fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// One what-if request.
#[derive(Debug, Clone, Copy)]
enum Ask {
    VthSwap(f64),
    Eco(usize),
    Signoff,
}

impl Ask {
    /// Round `round`'s request for verb slot `verb`: parameters cycle
    /// through seeded permutations, so every distinct request appears
    /// once every `FRACTIONS.len()` rounds.
    fn new(verb: usize, round: usize, seed: u64) -> Ask {
        let pick = |n: usize, salt: u64| shuffled(n, mix(seed ^ salt))[round % n];
        match verb {
            0 => Ask::VthSwap(FRACTIONS[pick(FRACTIONS.len(), 0xF5)]),
            1 => Ask::Eco(HOLD_ROUNDS[pick(HOLD_ROUNDS.len(), 0xEC0)]),
            _ => Ask::Signoff,
        }
    }

    fn verb(self) -> usize {
        match self {
            Ask::VthSwap(_) => 0,
            Ask::Eco(_) => 1,
            Ask::Signoff => 2,
        }
    }

    fn method(self) -> &'static str {
        match self {
            Ask::VthSwap(_) => "vth-swap",
            Ask::Eco(_) => "eco",
            Ask::Signoff => "signoff",
        }
    }

    /// The distinct-request key.
    fn key(self) -> String {
        match self {
            Ask::VthSwap(f) => format!("vth-swap:{f:.2}"),
            Ask::Eco(k) => format!("eco:{k}"),
            Ask::Signoff => "signoff:slow-typ-fast".to_owned(),
        }
    }

    fn dualvth(f: f64) -> Json {
        obj(vec![("max_high_fraction", Json::Num(f))])
    }

    fn params(self, config: &Json) -> Json {
        request(
            config,
            match self {
                Ask::VthSwap(f) => vec![("dualvth", Ask::dualvth(f))],
                Ask::Eco(k) => vec![("hold_rounds", Json::Num(k as f64))],
                Ask::Signoff => vec![("corners", Json::Str("slow-typ-fast".to_owned()))],
            },
        )
    }

    /// Replays the request in this process, as the session layer runs
    /// it, with stage spans recorded into `sample`.
    fn replay(self, env: &Env, st: &Stages, sample: &mut Sample) -> Result<SuiteOutcome, String> {
        let mut config = env.config.clone();
        let state = match self {
            Ask::VthSwap(f) => {
                config.dualvth = DualVthConfig::from_json_value(&Ask::dualvth(f), "dualvth")
                    .map_err(|e| e.to_string())?;
                probes::fork(st)
            }
            Ask::Eco(k) => {
                config.hold_rounds = k;
                probes::fork(st)
            }
            Ask::Signoff => {
                // Rewind exactly the signoff stage of the finished state.
                let mut state = st.finals.restore();
                state.completed.retain(|&s| s != StageId::Signoff);
                if let Some(pos) = state.stages.iter().rposition(|m| m.id == StageId::Signoff) {
                    state.stages.remove(pos);
                }
                state.corner_signoff.clear();
                state
            }
        };
        let spans = Rc::new(RefCell::new(Sample::new()));
        let result = env
            .engine(config)
            .observe(StageSpans(Rc::clone(&spans)))
            .resume(&Checkpoint::new(state))
            .map_err(|e| format!("replay: {e}"))?;
        sample.extend(spans.take());
        Ok(SuiteOutcome::from_flow(&result))
    }
}

/// A request against the session, with its explicit flow config.
fn request(config: &Json, extra: Vec<(&str, Json)>) -> Json {
    let mut entries = vec![
        ("design", Json::Str(DESIGN.to_owned())),
        ("scale", Json::Str("standard".to_owned())),
        ("session", Json::Str(SESSION.to_owned())),
        ("config", config.clone()),
    ];
    entries.extend(extra);
    obj(entries)
}

struct Booted {
    handle: DaemonHandle,
    client: Client,
    dir: PathBuf,
}

impl Booted {
    /// Drains the daemon, waits for its accept loop to stop, and removes
    /// its cache directory.
    fn shutdown(mut self) {
        let _ = self
            .client
            .call_timeout("shutdown", obj(vec![]), Some(CALL_TIMEOUT));
        drop(self.client);
        self.handle.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Boots a daemon over an empty cache and completes the session's base
/// flow.
fn boot(dir: &Path, config: &Json, ledger: &mut Ledger) -> Result<Booted, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let handle = Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: dir.to_path_buf(),
        threads,
        ..DaemonConfig::default()
    })?;
    let mut client = Client::connect(&handle.addr().to_string(), Duration::from_secs(10))
        .map_err(|e| e.to_string())?;
    let response = client
        .call_timeout("flow", request(config, vec![]), Some(CALL_TIMEOUT))
        .map_err(|e| format!("set-up flow: {e}"))?;
    let outcome = response
        .get("outcome")
        .ok_or_else(|| "set-up flow: response without an outcome".to_owned())
        .and_then(|o| SuiteOutcome::from_json(o, DESIGN))?;
    if !outcome.verify_passed {
        return Err("set-up flow did not verify".to_owned());
    }
    let digest = response.get("digest").and_then(Json::as_str).unwrap_or("");
    ledger.check("flow", digest)?;
    Ok(Booted {
        handle,
        client,
        dir: dir.to_path_buf(),
    })
}

fn session_workload() -> Result<Workload, String> {
    standard_suite(SuiteScale::Standard)
        .into_iter()
        .find(|w| w.name == DESIGN)
        .ok_or_else(|| "session design missing from the standard suite".to_owned())
}

fn realise(cache: &mut DesignCache, env: &Env, w: &Workload) -> Result<Netlist, String> {
    cache
        .get_or_insert(
            &w.name,
            w.config.family(),
            w.config.fingerprint(),
            &env.lib,
            || generate(&env.lib, &w.config).map_err(|e| e.to_string()),
        )
        .map_err(|e| e.to_string())
}

/// One timed request and what its response said.
struct Op {
    ask: Ask,
    rtt_ms: f64,
    reused: bool,
    outcome: Result<(SuiteOutcome, String), String>,
    sample: Sample,
    traced: bool,
}

fn call(client: &mut Client, config: &Json, ask: Ask, traced: bool) -> Op {
    let c0 = Counters::now();
    let t0 = Instant::now();
    let response = client.call_timeout(ask.method(), ask.params(config), Some(CALL_TIMEOUT));
    let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut sample = Sample::new();
    Counters::record_since(c0, &mut sample);
    let mut op = Op {
        ask,
        rtt_ms,
        reused: false,
        outcome: Err(String::new()),
        sample,
        traced,
    };
    let response = match response {
        Ok(r) => r,
        Err(e) => {
            op.outcome = Err(format!("{}: {e}", ask.key()));
            return op;
        }
    };
    let stat = |k: &str| response.get("stats").and_then(|s| s.get(k));
    op.reused = stat("session_reused").and_then(Json::as_bool) == Some(true);
    let server_ms = stat("elapsed_ms")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let verb = VERBS[ask.verb()];
    let count = |k: &str| {
        stat("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for (key, value) in [
        (format!("serve.server_ms.{verb}"), server_ms),
        (format!("serve.overhead_ms.{verb}"), rtt_ms - server_ms),
        (
            "serve.session_reused_ratio".to_owned(),
            f64::from(u8::from(op.reused)),
        ),
        ("core.cache.design_hits".to_owned(), count("hits")),
        ("core.cache.design_misses".to_owned(), count("misses")),
        // A what-if forks from the placed prefix: it never looks a
        // placement up.
        ("core.cache.placement_hits".to_owned(), 0.0),
        ("core.cache.placement_misses".to_owned(), 0.0),
    ] {
        op.sample.insert(key, value);
    }
    op.outcome = (|| {
        let run = response
            .get("runs")
            .and_then(Json::as_arr)
            .and_then(|r| r.first())
            .ok_or("response without a run")?;
        if let Some(e) = run.get("error").and_then(Json::as_str) {
            return Err(e.to_owned());
        }
        let outcome = SuiteOutcome::from_json(
            run.get("outcome").ok_or("run without an outcome")?,
            &ask.key(),
        )?;
        if !outcome.verify_passed {
            return Err("verification failed".to_owned());
        }
        let digest = run
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("run without a digest")?;
        if digest != format!("{:016x}", outcome.digest()) {
            return Err("digest does not match the outcome".to_owned());
        }
        Ok((outcome, digest.to_owned()))
    })()
    .map_err(|e| format!("{}: {e}", ask.key()));
    op
}

/// The session design in this process: its canonical netlist through a
/// design-cache handle on the daemon's directory, and (traced runs) this
/// process's own copy of the session checkpoints.
struct Design {
    env: Env,
    workload: Workload,
    netlist: Netlist,
    cache: DesignCache,
    dir: PathBuf,
}

impl Design {
    fn open(dir: &Path) -> Result<Design, String> {
        let env = Env::new();
        let workload = session_workload()?;
        let mut cache = DesignCache::open(dir, &env.lib).map_err(|e| e.to_string())?;
        let netlist = realise(&mut cache, &env, &workload)?;
        Ok(Design {
            env,
            workload,
            netlist,
            cache,
            dir: dir.to_path_buf(),
        })
    }

    /// Per-op probes: the design re-read and the replayed what-if, whose
    /// digest must match the daemon's. With `kernels` the op also
    /// carries the kernel probes on the session design.
    fn probe(&mut self, st: &Stages, op: &mut Op, kernels: bool) -> Result<(), String> {
        let t = Instant::now();
        realise(&mut self.cache, &self.env, &self.workload)?;
        op.sample.insert(
            "core.cache.design_lookup_ms".to_owned(),
            t.elapsed().as_secs_f64() * 1e3,
        );
        let replayed = op.ask.replay(&self.env, st, &mut op.sample)?;
        if let Ok((_, digest)) = &op.outcome {
            if *digest != format!("{:016x}", replayed.digest()) {
                return Err(format!(
                    "{}: in-process replay does not reproduce the daemon's digest",
                    op.ask.key()
                ));
            }
        }
        if kernels {
            probes::kernels(
                &self.env,
                &self.dir,
                &self.workload,
                &self.netlist,
                st,
                &mut op.sample,
            )?;
        }
        Ok(())
    }
}

pub fn run(s: &Settings, ledger: &mut Ledger) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = probes::flow_config().to_json_value();
    let timed_boot = |rep: usize, ledger: &mut Ledger| {
        let t0 = Instant::now();
        let booted = boot(&s.scratch.join(format!("daemon-{rep}")), &config, ledger)?;
        Ok::<_, String>((booted, t0.elapsed().as_secs_f64()))
    };
    // The measured daemon is the process's first, as a user's is. The
    // other set-up repetitions run after the timed rounds: memory their
    // daemons leave in the allocator's arenas would otherwise add up to
    // 13 MB to `peak_rss_mb` in some runs and not in others.
    let (mut daemon, secs) = timed_boot(0, ledger)?;
    let mut setup = vec![secs];
    let mut design = Design::open(&daemon.dir)?;
    let stages = if s.traced {
        Some(probes::stages(&design.env, &design.netlist, &daemon.dir)?)
    } else {
        None
    };

    let mut ops: Vec<Op> = Vec::new();
    let mut seen: BTreeMap<String, SuiteOutcome> = BTreeMap::new();
    // At least one full cycle of the parameter permutations, so every
    // distinct request is in the quality set; an untraced run also makes
    // enough rounds for each verb's p90.
    let min_rounds = if s.traced {
        FRACTIONS.len()
    } else {
        TAIL_ROUNDS
    };
    let rounds = run_rounds(s, min_rounds, usize::MAX, |round, traced| {
        let order = shuffled(VERBS.len(), mix(s.seed ^ mix(round as u64)));
        for (i, verb) in order.into_iter().enumerate() {
            let ask = Ask::new(verb, round, s.seed);
            let mut op = call(&mut daemon.client, &config, ask, traced);
            if let (true, Some(st)) = (traced, stages.as_ref()) {
                design.probe(st, &mut op, i == 0)?;
            }
            match &op.outcome {
                Ok((o, digest)) => {
                    if let Err(e) = ledger.check(&ask.key(), digest) {
                        out.error(e);
                    }
                    seen.entry(ask.key()).or_insert_with(|| o.clone());
                }
                Err(e) => out.error(e.clone()),
            }
            if !op.reused {
                out.error(format!(
                    "{}: request did not reuse the warm session",
                    ask.key()
                ));
            }
            if op.sample["place.full_place_runs"] > 0.0 {
                out.error(format!("{}: what-if ran a full placement", ask.key()));
            }
            ops.push(op);
        }
        Ok(())
    });
    daemon.shutdown();
    let rounds = rounds?;
    let peak_rss = peak_rss_mb();
    for rep in 1..SETUP_REPS {
        let (extra, secs) = timed_boot(rep, ledger)?;
        extra.shutdown();
        setup.push(secs);
    }

    out.attempted = ops.len();
    out.failed = ops.iter().filter(|op| op.outcome.is_err()).count();
    let plain: Vec<&Op> = ops
        .iter()
        .filter(|op| !op.traced && op.outcome.is_ok())
        .collect();
    let gates = design.netlist.num_instances();
    let busy_s = plain.iter().map(|op| op.rtt_ms).sum::<f64>() / 1e3;
    out.common_metrics(
        &setup,
        peak_rss,
        &rounds,
        plain.len(),
        (gates * plain.len()) as f64,
        busy_s,
    );

    let distinct = FRACTIONS.len() + HOLD_ROUNDS.len() + 1;
    if seen.len() != distinct {
        out.error(format!(
            "quality set incomplete: {} of {distinct} distinct requests succeeded",
            seen.len()
        ));
    }
    out.end_to_end
        .extend(quality(&seen.values().collect::<Vec<_>>()));
    // Per-verb round trips: the interactive latency a user feels.
    for (v, verb) in VERBS.iter().enumerate() {
        let t: Vec<f64> = plain
            .iter()
            .filter(|op| op.ask.verb() == v)
            .map(|op| op.rtt_ms)
            .collect();
        let sum = Summary::of(&t);
        out.end_to_end
            .push(Metric::new(format!("{verb}_p50_ms"), "ms", sum.p50).with_detail(sum.detail()));
        if let Some((pct, value)) = stats::tail(&t) {
            out.end_to_end.push(
                Metric::new(format!("{verb}_p{pct}_ms"), "ms", value)
                    .with_detail(format!("n={}, at least 10 samples beyond", t.len())),
            );
        }
    }

    if s.traced {
        let traced: Vec<&Op> = ops.iter().filter(|op| op.traced).collect();
        let samples: Vec<Sample> = traced.iter().map(|op| op.sample.clone()).collect();
        out.per_layer = probes::aggregate(&samples);
        let mean_rtt = |ops: &[&Op]| ops.iter().map(|op| op.rtt_ms).sum::<f64>() / ops.len() as f64;
        out.per_layer.push(
            Metric::new(
                "trace_overhead",
                "ratio",
                mean_rtt(&traced) / mean_rtt(&plain),
            )
            .with_detail(format!(
                "mean round trip, {} traced vs {} untraced requests",
                traced.len(),
                plain.len()
            )),
        );
    }
    Ok(out)
}
