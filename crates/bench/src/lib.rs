//! # netclus-bench — the paper's evaluation, regenerated
//!
//! One experiment module per table/figure of the NetClus paper (Sec. 8).
//! The binary `experiments` runs them individually or all together:
//!
//! ```text
//! cargo run -p netclus-bench --release --bin experiments -- all
//! cargo run -p netclus-bench --release --bin experiments -- fig5 --scale 0.5
//! ```
//!
//! Every experiment prints a paper-style table and writes
//! `results/<id>.csv`. Scales, seeds and the Inc-Greedy memory budget (the
//! stand-in for the paper's 32 GB testbed ceiling) are configurable.
//!
//! Everything the serving stack does (service, router, shard servers,
//! ingest) is measured by the crate's other binary, `netclus_benchmark`,
//! declared in the repository's `BENCHMARK.json`; see
//! `src/bin/netclus_benchmark/README.md`.

pub mod experiments;
pub(crate) mod runners;

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use netclus_datagen::{Scenario, ScenarioConfig};

/// Global harness configuration shared by all experiments.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Dataset scale multiplier (1.0 = harness default sizes; the paper's
    /// full Beijing corpus corresponds to roughly `--scale 6`).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for parallel build phases.
    pub threads: usize,
    /// Memory budget in bytes for Inc-Greedy's coverage sets; exceeding it
    /// marks the configuration "OOM" exactly like the paper's Table 9.
    pub memory_budget: usize,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.25,
            seed: 0x4E45_5443,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            memory_budget: 384 << 20, // 384 MiB at default scale
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Execution context: configuration plus a per-process scenario cache so
/// `experiments all` generates each dataset once.
pub struct Ctx {
    /// The harness configuration.
    pub cfg: HarnessConfig,
    cache: HashMap<String, Rc<Scenario>>,
}

impl Ctx {
    /// Creates a context.
    pub fn new(cfg: HarnessConfig) -> Self {
        std::fs::create_dir_all(&cfg.out_dir).ok();
        Ctx {
            cfg,
            cache: HashMap::new(),
        }
    }

    fn scenario_cfg(&self) -> ScenarioConfig {
        ScenarioConfig {
            seed: self.cfg.seed,
            scale: self.cfg.scale,
        }
    }

    /// The Beijing-like scenario (cached).
    pub fn beijing(&mut self) -> Rc<Scenario> {
        let cfg = self.scenario_cfg();
        self.cached("beijing", move || netclus_datagen::beijing_like(&cfg))
    }

    /// One of the three MNTG-analogue cities: "nyk", "atl", "bng".
    pub fn city(&mut self, which: &str) -> Rc<Scenario> {
        let cfg = self.scenario_cfg();
        match which {
            "nyk" => self.cached("nyk", move || netclus_datagen::new_york_like(&cfg)),
            "atl" => self.cached("atl", move || netclus_datagen::atlanta_like(&cfg)),
            "bng" => self.cached("bng", move || netclus_datagen::bangalore_like(&cfg)),
            other => panic!("unknown city {other:?}"),
        }
    }

    fn cached<F: FnOnce() -> Scenario>(&mut self, key: &str, build: F) -> Rc<Scenario> {
        if let Some(s) = self.cache.get(key) {
            return Rc::clone(s);
        }
        eprintln!("[data] generating {key} (scale {}) ...", self.cfg.scale);
        let t = std::time::Instant::now();
        let s = Rc::new(build());
        eprintln!("[data] {} in {:?}", s.summary(), t.elapsed());
        self.cache.insert(key.to_string(), Rc::clone(&s));
        s
    }

    /// Writes a CSV file under the output directory.
    pub(crate) fn write_csv(&self, id: &str, header: &[&str], rows: &[Vec<String>]) {
        let path = self.cfg.out_dir.join(format!("{id}.csv"));
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("[warn] cannot write {}: {e}", path.display());
        } else {
            eprintln!("[csv ] {}", path.display());
        }
    }
}

/// Prints an aligned table to stdout.
pub(crate) fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut lock = std::io::stdout().lock();
    let _ = writeln!(lock, "\n== {title} ==");
    let head: Vec<String> = header
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    let _ = writeln!(lock, "{}", head.join("  "));
    let _ = writeln!(
        lock,
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(lock, "{}", cells.join("  "));
    }
}

/// Formats a duration as seconds with millisecond precision.
pub(crate) fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats an optional value, with `"OOM"` for `None` (paper Table 9 style).
pub(crate) fn fmt_or_oom<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "OOM".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_caches_scenarios() {
        let mut ctx = Ctx::new(HarnessConfig {
            scale: 0.01,
            out_dir: std::env::temp_dir().join("netclus-bench-test"),
            ..Default::default()
        });
        let a = ctx.beijing();
        let b = ctx.beijing();
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("netclus-bench-csv");
        let ctx = Ctx::new(HarnessConfig {
            out_dir: dir.clone(),
            ..Default::default()
        });
        ctx.write_csv(
            "unit_test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let content = std::fs::read_to_string(dir.join("unit_test.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(fmt_or_oom(Some(5)), "5");
        assert_eq!(fmt_or_oom::<u32>(None), "OOM");
    }
}
