//! The benchmark's cell sets, their HTTP routes, and the reference values
//! of the value gate.

use std::collections::HashMap;

use bvc_cluster::cell::CellContext;
use bvc_cluster::jobs::{table2_setting1_jobs, table3_jobs, table4_jobs, JobSpec};
use bvc_mdp::SolveBudget;

/// The published table a cell belongs to. Cells of different tables can
/// share key strings, so sweeps, journals and coordinator runs are split
/// per table, as the table binaries and `bvc cluster` do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    T2,
    T3,
    T4,
}

impl Table {
    pub fn of(job: &JobSpec) -> Table {
        match job {
            JobSpec::Table2 { .. } => Table::T2,
            JobSpec::Table3 { .. } => Table::T3,
            JobSpec::Table4 { .. } => Table::T4,
            other => panic!("not a table cell: {}", other.key()),
        }
    }

    /// The table whose [`Table::name`] is `name`.
    pub fn named(name: &str) -> Option<Table> {
        [Table::T2, Table::T3, Table::T4].into_iter().find(|t| t.name() == name)
    }

    /// Route and serve preload name.
    pub fn name(self) -> &'static str {
        match self {
            Table::T2 => "table2",
            Table::T3 => "table3",
            Table::T4 => "table4",
        }
    }
}

/// One table's cells, in workload order.
pub struct Group {
    pub table: Table,
    pub jobs: Vec<JobSpec>,
}

/// The 61 setting-1 cells of Tables 2, 3 and 4 (211 states each).
pub fn small_jobs() -> Vec<JobSpec> {
    let mut jobs = table2_setting1_jobs();
    jobs.extend(table3_jobs(1));
    jobs.extend(
        table4_jobs().into_iter().filter(|j| matches!(j, JobSpec::Table4 { setting: 1, .. })),
    );
    jobs
}

/// Setting-2 cells (30,595 states): u1 at alpha = 25% for beta:gamma =
/// 3:2, 1:1 and 2:3 and u3 at alpha = 1% for 4:1 and 1:1, by ratio
/// bisection, and the Table 3 row at alpha = 10% by plain RVI. Two cells
/// are too long to repeat often enough: `s2 b:g=1:2 a=25%` (279 s) and
/// the u3 cell `s2 b:g=2:3 a=1%` (4-5.5 s, as long as the others
/// together).
pub fn large_jobs() -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = [(3, 2), (1, 1), (2, 3)]
        .into_iter()
        .map(|ratio| JobSpec::Table2 { alpha: 0.25, ratio, setting: 2 })
        .collect();
    jobs.extend([(4, 1), (1, 1)].into_iter().map(|ratio| JobSpec::Table4 { ratio, setting: 2 }));
    jobs.extend(
        table3_jobs(2)
            .into_iter()
            .filter(|j| matches!(j, JobSpec::Table3 { alpha, .. } if *alpha == 0.10)),
    );
    jobs
}

/// Splits `jobs` by table, keeping the order within each table.
pub fn groups(jobs: &[JobSpec]) -> Vec<Group> {
    let mut out: Vec<Group> = Vec::new();
    for job in jobs {
        let table = Table::of(job);
        match out.iter_mut().find(|g| g.table == table) {
            Some(g) => g.jobs.push(job.clone()),
            None => out.push(Group { table, jobs: vec![job.clone()] }),
        }
    }
    out
}

/// The `GET` path that serves `job` from the table routes.
pub fn url(job: &JobSpec) -> String {
    match job {
        JobSpec::Table2 { alpha, ratio, setting } => {
            format!("/v1/table2?alpha={alpha}&ratio={}:{}&setting={setting}", ratio.0, ratio.1)
        }
        JobSpec::Table3 { alpha, ratio, setting } => {
            format!("/v1/table3?alpha={alpha}&ratio={}:{}&setting={setting}", ratio.0, ratio.1)
        }
        JobSpec::Table4 { ratio, setting } => {
            format!("/v1/table4?ratio={}:{}&setting={setting}", ratio.0, ratio.1)
        }
        other => panic!("not a table cell: {}", other.key()),
    }
}

/// Identity of a cell across tables: `table<TAB>key`.
pub fn ref_id(job: &JobSpec) -> String {
    format!("{}\t{}", Table::of(job).name(), job.key())
}

/// The solver fingerprint token every table sweep uses.
pub fn bu_token() -> String {
    bvc_bu::SolveOptions::default().fingerprint_token()
}

/// The context a first solve attempt gets from the sweep runner.
pub fn first_attempt() -> CellContext {
    CellContext {
        attempt: 0,
        budget: SolveBudget::unlimited(),
        iteration_scale: 1.0,
        tau_offset: 0.0,
        audit: false,
        solve_threads: 1,
        shard_min_states: 0,
    }
}

/// Reference values, taken from the code (not the paper) with
/// `--write-reference`. The value gate allows the paper's stated 1e-4.
pub const REFERENCE_TOLERANCE: f64 = 1e-4;

const REFERENCE: &str = include_str!("../reference/values.tsv");

pub fn reference() -> HashMap<String, f64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut parts = l.split('\t');
            let table = parts.next()?;
            let key = parts.next()?;
            let bits = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some((format!("{table}\t{key}"), f64::from_bits(bits)))
        })
        .collect()
}

/// Solves every small and large cell once and prints the reference file.
pub fn write_reference() {
    println!("# table\tkey\tvalue bits (hex)\tvalue");
    println!("# Written by `bvc-perfbench --write-reference` from the code, not the paper.");
    for job in small_jobs().iter().chain(large_jobs().iter()) {
        let vals = job.solve(&first_attempt()).expect("reference cell solves");
        println!("{}\t{:016x}\t{}", ref_id(job), vals[0].to_bits(), vals[0]);
    }
}
