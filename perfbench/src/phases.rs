//! The untraced table phases: local sweep passes through the repro sweep
//! runner, and distributed sweeps through an in-process coordinator with
//! single-threaded worker threads.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use bvc_cluster::{ClusterConfig, Coordinator, WorkerOptions};
use bvc_repro::sweep::{run_jobs, SweepOptions};

use crate::cells::{bu_token, Group, Table};

/// One cell's outcome in one pass: its runner-reported time and the bits
/// of its value (`None` when the cell failed).
#[derive(Clone, Copy)]
pub struct CellRun {
    pub elapsed: Duration,
    pub bits: Option<u64>,
}

/// One local pass over every group, cells in workload order.
pub struct Pass {
    pub wall: Duration,
    pub cells: Vec<CellRun>,
    pub journals: Vec<(Table, PathBuf)>,
}

/// A single-threaded local sweep of every group, each with a fresh
/// journal (a reused journal would replay instead of solving).
pub fn sweep_pass(groups: &[Group], dir: &Path, tag: &str) -> Pass {
    let started = Instant::now();
    let mut cells = Vec::new();
    let mut journals = Vec::new();
    for g in groups {
        let path = dir.join(format!("{tag}-{}.jsonl", g.table.name()));
        let opts = SweepOptions {
            journal: Some(path.clone()),
            threads: Some(1),
            config_token: bu_token(),
            ..SweepOptions::default()
        };
        let report = run_jobs(g.table.name(), &g.jobs, &opts);
        cells.extend(report.cells.iter().map(|c| CellRun {
            elapsed: c.elapsed,
            bits: c.outcome.as_ref().ok().and_then(|v| v.first()).map(|v| v.to_bits()),
        }));
        journals.push((g.table, path));
    }
    Pass { wall: started.elapsed(), cells, journals }
}

/// One distributed sweep: a coordinator run per group, each with default
/// configuration, a fresh journal and `workers` worker threads.
pub struct ClusterSweep {
    /// `Coordinator::run` wall time of each group.
    pub group_walls: Vec<Duration>,
    /// Sum of worker-reported cell times.
    pub busy: Duration,
    /// Sum over groups of coordinator return minus last worker return.
    pub tail: Duration,
    pub dispatches: u64,
    pub straggler_dispatches: u64,
    pub cells: Vec<CellRun>,
}

impl ClusterSweep {
    /// Sum over groups of `Coordinator::run` wall time.
    pub fn wall(&self) -> Duration {
        self.group_walls.iter().sum()
    }

    /// Worker time not spent on a cell: workers × wall − busy.
    pub fn idle(&self, workers: usize) -> f64 {
        workers as f64 * self.wall().as_secs_f64() - self.busy.as_secs_f64()
    }
}

fn stat(stats: &str, name: &str) -> u64 {
    stats.lines().find_map(|l| l.strip_prefix(name)?.trim().parse().ok()).unwrap_or(0)
}

pub fn cluster_sweep(
    groups: &[Group],
    workers: usize,
    dir: &Path,
    tag: &str,
) -> Result<ClusterSweep, String> {
    let mut out = ClusterSweep {
        group_walls: Vec::new(),
        busy: Duration::ZERO,
        tail: Duration::ZERO,
        dispatches: 0,
        straggler_dispatches: 0,
        cells: Vec::new(),
    };
    for g in groups {
        let cfg = ClusterConfig {
            config_token: bu_token(),
            journal: Some(dir.join(format!("{tag}-{}.jsonl", g.table.name()))),
            quiet: true,
            ..ClusterConfig::default()
        };
        let coordinator = Coordinator::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
        let addr = coordinator.local_addr().map_err(|e| e.to_string())?.to_string();
        let (report, wall, tail) = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let opts = WorkerOptions { threads: 1, ..WorkerOptions::default() };
                        let result = bvc_cluster::run_worker(&addr, &opts);
                        (result, Instant::now())
                    })
                })
                .collect();
            let started = Instant::now();
            let report = coordinator.run(g.table.name(), &g.jobs);
            let returned = Instant::now();
            let mut last_worker = started;
            for handle in handles {
                let (result, ended) = handle.join().map_err(|_| "worker panicked".to_string())?;
                result?;
                last_worker = last_worker.max(ended);
            }
            let report = report.map_err(|e| e.to_string())?;
            Ok::<_, String>((
                report,
                returned - started,
                returned.saturating_duration_since(last_worker),
            ))
        })?;
        out.group_walls.push(wall);
        out.tail += tail;
        out.dispatches += stat(&report.stats, "cluster_dispatches_total");
        out.straggler_dispatches += stat(&report.stats, "cluster_straggler_dispatches_total");
        for c in &report.cells {
            out.busy += c.elapsed;
            out.cells.push(CellRun {
                elapsed: c.elapsed,
                bits: c.outcome.as_ref().ok().and_then(|v| v.first()).map(|v| v.to_bits()),
            });
        }
    }
    Ok(out)
}
