//! The flow benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_cold|whatif_warm --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation sets one workload up,
//! measures it for `--seconds`, checks every output, prints a
//! human-readable report and, as its last stdout line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics declared in `BENCHMARK.json`; with
//! `--trace 1` they are its per-layer metrics (kernel probes run between
//! ops, outside the op timings). Any wrong output, guard violation or
//! digest mismatch makes the exit code non-zero. See `NOTES.md` for the
//! reasoning behind each workload and metric.

mod flows;
mod probes;
mod stats;
mod whatif;

use smt_base::json::Json;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where runs keep their scratch caches and digest ledgers, relative to
/// the repository root the benchmark runs from.
const WORK_DIR: &str = ".perfbench_work";

/// One measured value, as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and spread for the human-readable report.
    pub detail: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            detail: String::new(),
        }
    }

    pub fn with_detail(mut self, detail: impl Into<String>) -> Metric {
        self.detail = detail.into();
        self
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every wrong output, guard violation or digest mismatch.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// The end-to-end metrics every workload shares, from its set-up
    /// times, its peak resident memory in MB, its rounds, and its
    /// untraced ops that passed: `gates` input gates processed in
    /// `busy_s` seconds of op time.
    pub fn common_metrics(
        &mut self,
        setup: &[f64],
        peak_rss_mb: f64,
        rounds: &[Round],
        ok_ops: usize,
        gates: f64,
        busy_s: f64,
    ) {
        let plain: Vec<f64> = rounds
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.secs)
            .collect();
        let wall: f64 = plain.iter().sum();
        let setup_sum = Summary::of(setup);
        let round_sum = Summary::of(&plain.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        let passed = self.attempted - self.failed;
        self.end_to_end.extend([
            Metric::new("setup_s", "s", setup_sum.p50)
                .with_detail(format!("median of set-ups; {}", setup_sum.detail())),
            Metric::new("gates_per_s", "gates/s", gates / busy_s).with_detail(format!(
                "{ok_ops} ops, {gates} input gates in {busy_s:.3} s of op time"
            )),
            Metric::new("ok_ops_per_s", "1/s", ok_ops as f64 / wall)
                .with_detail(format!("{ok_ops} ops in {wall:.3} s")),
            Metric::new("round_p50_ms", "ms", round_sum.p50).with_detail(round_sum.detail()),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb).with_detail("VmHWM"),
            Metric::new("pass_rate", "ratio", passed as f64 / self.attempted as f64)
                .with_detail(format!("{passed} of {} ops", self.attempted)),
        ]);
    }
}

/// One round of a workload's op mix.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub secs: f64,
    pub traced: bool,
}

/// The run's settings, shared by every workload.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Private scratch directory of this run (removed on exit).
    pub scratch: PathBuf,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1` into the
/// workload name and the run's settings.
fn parse_args() -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: 30.0,
        traced: false,
        scratch: Path::new(WORK_DIR).join(format!("run-{}", std::process::id())),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{arg}` needs a value"))?;
        match arg.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => settings.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                settings.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !settings.seconds.is_finite() || settings.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                settings.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, settings))
}

/// The metric names and units `BENCHMARK.json` declares, in order.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn read_declared(path: &Path) -> Result<Declared, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = smt_base::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("BENCHMARK.json: `{key}` entry without `{f}`"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    Ok(Declared {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Picks the declared metrics, in declared order, out of what the
/// workload produced; every one must have been measured. What a workload
/// measures beyond them is printed but stays out of the JSON line.
fn select(declared: &[(String, String)], produced: &[Metric]) -> Result<Vec<Metric>, String> {
    declared
        .iter()
        .map(
            |(name, unit)| match produced.iter().find(|m| m.name == *name) {
                Some(m) if m.unit == unit => Ok(m.clone()),
                Some(m) => Err(format!(
                    "metric `{name}` measured in {} but declared in {unit}",
                    m.unit
                )),
                None => Err(format!("workload did not measure `{name}`")),
            },
        )
        .collect()
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of CPU time the hypervisor gave to other guests between two
/// `cpu_times` readings: the first thing to check when a run is slow.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "n/a".to_owned(),
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Expected output digests per request key, persisted across runs of
/// the same build: a traced run, a re-run and a run on another seed
/// must reproduce every digest an earlier run recorded for the same
/// key.
pub struct Ledger {
    path: PathBuf,
    known: BTreeMap<String, String>,
    fresh: BTreeMap<String, String>,
}

impl Ledger {
    fn open(workload: &str) -> Ledger {
        let path = Path::new(WORK_DIR).join(format!("digests-{workload}-{}.txt", build_stamp()));
        let known = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, d)| (k.to_owned(), d.to_owned()))
            .collect();
        Ledger {
            path,
            known,
            fresh: BTreeMap::new(),
        }
    }

    /// Records `digest` for `key`, or reports the earlier digest it
    /// contradicts.
    pub fn check(&mut self, key: &str, digest: &str) -> Result<(), String> {
        match self.known.get(key).or_else(|| self.fresh.get(key)) {
            Some(d) if d != digest => Err(format!(
                "digest mismatch for `{key}`: {digest}, recorded earlier as {d}"
            )),
            Some(_) => Ok(()),
            None => {
                self.fresh.insert(key.to_owned(), digest.to_owned());
                Ok(())
            }
        }
    }

    fn save(&self) {
        if self.fresh.is_empty() {
            return;
        }
        let mut text = String::new();
        for (k, d) in self.known.iter().chain(&self.fresh) {
            text.push_str(&format!("{k} {d}\n"));
        }
        let _ = std::fs::write(&self.path, text);
    }
}

/// Identity of the running executable, so a rebuilt benchmark starts a
/// fresh digest ledger.
fn build_stamp() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{:x}", modified, m.len())
        })
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Prints one section of the human-readable report; metrics that are
/// not declared in `BENCHMARK.json` are marked `*`.
fn print_section(title: &str, metrics: &[Metric], declared: &[(String, String)]) {
    println!("{title}:");
    for m in metrics {
        let mark = if declared.iter().any(|(n, _)| *n == m.name) {
            ' '
        } else {
            '*'
        };
        println!(
            " {mark}{:<34} {:>14.4} {:<8} {}",
            m.name, m.value, m.unit, m.detail
        );
    }
}

fn render_json(correct: bool, outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut ms = BTreeMap::new();
    for m in metrics {
        let mut entry = BTreeMap::new();
        entry.insert("value".to_owned(), Json::Num(m.value));
        entry.insert("unit".to_owned(), Json::Str(m.unit.to_owned()));
        ms.insert(m.name.clone(), Json::Obj(entry));
    }
    let mut top = BTreeMap::new();
    top.insert("correct".to_owned(), Json::Bool(correct));
    top.insert("attempted".to_owned(), Json::Num(outcome.attempted as f64));
    top.insert("failed".to_owned(), Json::Num(outcome.failed as f64));
    top.insert("metrics".to_owned(), Json::Obj(ms));
    Json::Obj(top).render()
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}

fn main() {
    let (workload, settings) = parse_args().unwrap_or_else(|e| fail(e));
    let declared = read_declared(Path::new("BENCHMARK.json")).unwrap_or_else(|e| fail(e));
    let scratch = &settings.scratch;
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch)
        .unwrap_or_else(|e| fail(format_args!("creating {}: {e}", scratch.display())));
    let mut ledger = Ledger::open(&workload);
    let started = Instant::now();
    let steal_before = cpu_times();
    let result = match workload.as_str() {
        "flow_cold" => flows::run(&settings, &mut ledger),
        "whatif_warm" => whatif::run(&settings, &mut ledger),
        other => Err(format!(
            "unknown workload `{other}` (flow_cold | whatif_warm)"
        )),
    };
    let _ = std::fs::remove_dir_all(scratch);
    let outcome = result.unwrap_or_else(|e| fail(e));
    ledger.save();

    println!(
        "== perfbench {workload} seed={} seconds={} trace={} ({:.1} s wall, available_parallelism={}, host steal {}) ==",
        settings.seed,
        settings.seconds,
        u8::from(settings.traced),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        steal_share(steal_before, cpu_times())
    );
    print_section("end-to-end", &outcome.end_to_end, &declared.end_to_end);
    if settings.traced {
        print_section("per-layer", &outcome.per_layer, &declared.per_layer);
    }
    println!(" (* printed only: not measured on every workload)");
    let selected = if settings.traced {
        select(&declared.per_layer, &outcome.per_layer)
    } else {
        select(&declared.end_to_end, &outcome.end_to_end)
    }
    .unwrap_or_else(|e| fail(e));
    for e in &outcome.errors {
        println!("ERROR: {e}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    println!("{}", render_json(correct, &outcome, &selected));
    if !correct {
        std::process::exit(1);
    }
}
