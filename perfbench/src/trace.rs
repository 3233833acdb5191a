//! The traced replay: every cell is re-run step by step through the
//! public layer functions (build, compile, scalarize, solve), each call
//! wrapped in a span. Spans stay in memory and are written out at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use bvc_bu::{rewards, AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
use bvc_cluster::jobs::JobSpec;
use bvc_journal::{encode_line, Durability, JournalEntry, JournalWriter};
use bvc_mdp::solve::eval::evaluate_policy_compiled;
use bvc_mdp::solve::{
    ratio::maximize_ratio_compiled, rvi::relative_value_iteration_compiled, EvalOptions,
    RatioOptions, RviOptions,
};
use bvc_mdp::{CompiledMdp, Policy};

/// One timed call at a layer boundary.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The cell's journal key (spans of one cell share it).
    pub cell: String,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, cell: &str) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span { id, parent, name, cell: cell.to_string(), start: now, end: now });
        id
    }

    /// Closes span `id` and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Writes one JSON line per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"cell\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                bvc_journal::json_escape(&s.cell),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Which solver a cell's objective takes.
#[derive(Clone, Copy, PartialEq)]
pub enum Solver {
    /// Ratio bisection (u1, u3).
    Ratio,
    /// Plain RVI (u2).
    Rvi,
}

/// One traced replay of one cell.
pub struct Replay {
    pub bits: u64,
    pub solver: Solver,
    pub cell: Duration,
    pub build: Duration,
    pub compile: Duration,
    pub scalarize: Duration,
    pub solve: Duration,
    pub states: usize,
    pub transitions: usize,
    /// Bytes one Jacobi sweep reads and writes, computed from the CSR
    /// array sizes (cache misses not counted).
    pub bytes_per_sweep: usize,
    /// RVI sweeps (u2 cells) or ratio inner solves (u1/u3 cells).
    pub iterations: usize,
    /// `|exact ratio (or rate) of the returned policy − value|` and the
    /// solver's stated tolerance for it, when the policy was evaluated.
    pub eval_gap: Option<(f64, f64)>,
    pub eval: Duration,
}

fn config_of(job: &JobSpec) -> (AttackConfig, Solver) {
    let setting = |s: u8| if s == 2 { Setting::Two } else { Setting::One };
    match *job {
        JobSpec::Table2 { alpha, ratio, setting: s } => (
            AttackConfig::with_ratio(
                alpha,
                ratio,
                setting(s),
                IncentiveModel::CompliantProfitDriven,
            ),
            Solver::Ratio,
        ),
        JobSpec::Table3 { alpha, ratio, setting: s } => (
            AttackConfig::with_ratio(
                alpha,
                ratio,
                setting(s),
                IncentiveModel::non_compliant_default(),
            ),
            Solver::Rvi,
        ),
        JobSpec::Table4 { ratio, setting: s } => (
            AttackConfig::with_ratio(0.01, ratio, setting(s), IncentiveModel::NonProfitDriven),
            Solver::Ratio,
        ),
        ref other => panic!("not a table cell: {}", other.key()),
    }
}

/// The solver options a first sweep attempt uses (the high-level
/// `SolveOptions` defaults, spelled out for the compiled entry points).
fn options() -> (RatioOptions, RviOptions) {
    let so = SolveOptions::default();
    let rvi = RviOptions {
        tolerance: so.gain_tolerance,
        max_iterations: so.max_iterations,
        aperiodicity_tau: so.aperiodicity_tau,
        budget: so.budget.clone(),
        solve_threads: 1,
        shard_min_states: so.shard_min_states,
        ..RviOptions::default()
    };
    (RatioOptions { tolerance: so.ratio_tolerance, rvi: rvi.clone(), initial_hi: 1.0 }, rvi)
}

/// Replays `job` as build → compile → scalarize → solve under one cell
/// span; with `eval`, then evaluates the returned policy exactly (a span
/// of its own, outside the cell).
pub fn replay(job: &JobSpec, tr: &mut Tracer, eval: bool) -> Result<Replay, String> {
    let key = job.key();
    let (cfg, solver) = config_of(job);
    let (ratio_opts, rvi_opts) = options();
    let (num, den) = match job {
        JobSpec::Table4 { .. } => (rewards::u3_numerator(), rewards::u3_denominator()),
        _ => (rewards::u1_numerator(), rewards::u1_denominator()),
    };
    let u2 = rewards::u2_objective();
    let err = |e: bvc_mdp::MdpError| format!("{key}: {e}");

    let cell = tr.open("cell", None, &key);
    let span = tr.open("core.build", Some(cell), &key);
    let model = AttackModel::build(cfg).map_err(err)?;
    let build = tr.close(span);

    let span = tr.open("mdp.compile", Some(cell), &key);
    let compiled = CompiledMdp::compile(model.mdp()).map_err(err)?;
    let compile = tr.close(span);

    // The ratio path validates both functionals here and scalarizes them
    // inside `maximize_ratio_compiled`; the RVI path scalarizes here.
    let span = tr.open("mdp.scalarize", Some(cell), &key);
    let exp_reward = match solver {
        Solver::Ratio => {
            compiled.validate_objective(&num).map_err(err)?;
            compiled.validate_objective(&den).map_err(err)?;
            Vec::new()
        }
        Solver::Rvi => {
            compiled.validate_objective(&u2).map_err(err)?;
            compiled.scalarize(&u2)
        }
    };
    let scalarize = tr.close(span);

    let (value, policy, iterations, solve): (f64, Policy, usize, Duration) = match solver {
        Solver::Ratio => {
            let span = tr.open("mdp.ratio", Some(cell), &key);
            let sol = maximize_ratio_compiled(&compiled, &num, &den, &ratio_opts).map_err(err)?;
            (sol.value, sol.policy, sol.inner_solves, tr.close(span))
        }
        Solver::Rvi => {
            let span = tr.open("mdp.rvi", Some(cell), &key);
            let sol = relative_value_iteration_compiled(&compiled, &exp_reward, &rvi_opts)
                .map_err(err)?;
            (sol.gain, sol.policy, sol.iterations, tr.close(span))
        }
    };
    let cell_time = tr.close(cell);

    let n = compiled.num_states();
    let arms = compiled.num_arms();
    let t = compiled.num_transitions();
    // Per sweep: arm and transition offsets (u32), the per-arm expected
    // reward (f64), next-state (u32) and probability (f64) per transition,
    // and the bias read plus the next bias written (f64 per state).
    let bytes_per_sweep = 4 * (n + 1) + 4 * (arms + 1) + 8 * arms + 12 * t + 16 * n;

    let (eval_gap, eval_time) = if eval {
        let span = tr.open("mdp.eval", None, &key);
        let ev =
            evaluate_policy_compiled(&compiled, &policy, &EvalOptions::default()).map_err(err)?;
        // The solver states its returned policy's own ratio (or gain) is
        // within its tolerance of the reported value.
        let (exact, bound) = match solver {
            Solver::Ratio => (ev.ratio(&num.weights, &den.weights), ratio_opts.tolerance),
            Solver::Rvi => (ev.rate(&u2.weights), rvi_opts.tolerance),
        };
        (Some(((exact - value).abs(), bound)), tr.close(span))
    } else {
        (None, Duration::ZERO)
    };

    Ok(Replay {
        bits: value.to_bits(),
        solver,
        cell: cell_time,
        build,
        compile,
        scalarize,
        solve,
        states: n,
        transitions: t,
        bytes_per_sweep,
        iterations,
        eval_gap,
        eval: eval_time,
    })
}

/// Times `JournalWriter::append_line` for the journal line of every
/// `(key, bits)` cell, `rounds` times into fresh journals under `dir`.
/// Returns the per-append times (ns, ascending) and one journal's size.
pub fn journal_appends(
    cells: &[(String, u64)],
    rounds: usize,
    dir: &Path,
) -> std::io::Result<(Vec<u64>, u64)> {
    let lines: Vec<String> = cells
        .iter()
        .map(|(key, bits)| {
            let entry = JournalEntry {
                fp: bvc_journal::cell_fingerprint(key, &crate::cells::bu_token()),
                key: key.clone(),
                ok: true,
                attempts: 1,
                bits: vec![*bits],
                reason: String::new(),
            };
            encode_line(&entry, &[f64::from_bits(*bits)])
        })
        .collect();
    let mut times = Vec::with_capacity(rounds * lines.len());
    let mut bytes = 0;
    for round in 0..rounds {
        let path = dir.join(format!("append-{round}.jsonl"));
        let mut writer = JournalWriter::append_to(&path, Durability::default())?;
        for line in &lines {
            let t0 = Instant::now();
            writer.append_line(line)?;
            times.push(t0.elapsed().as_nanos() as u64);
        }
        writer.sync()?;
        bytes = std::fs::metadata(&path)?.len();
    }
    times.sort_unstable();
    Ok((times, bytes))
}

/// `JobSpec::encode` + `JobSpec::decode` per cell, in µs (median of
/// `rounds` passes over `jobs`).
pub fn codec_us(jobs: &[JobSpec], rounds: usize) -> Result<f64, String> {
    let mut per_cell = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for job in jobs {
            let wire = std::hint::black_box(job.encode());
            let back = JobSpec::decode(std::hint::black_box(&wire));
            if back.as_ref() != Some(job) {
                return Err(format!("codec round trip changed {}", job.key()));
            }
        }
        per_cell.push(t0.elapsed().as_nanos() as f64 / 1e3 / jobs.len() as f64);
    }
    per_cell.sort_by(f64::total_cmp);
    Ok(crate::util::quantile(&per_cell, 0.5))
}
