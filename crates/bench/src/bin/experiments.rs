//! Experiment harness CLI: regenerates every table and figure of the
//! NetClus paper.
//!
//! ```text
//! experiments <id>|all [--scale S] [--seed N] [--threads T]
//!                      [--memory-budget-mb M] [--out DIR] [--full]
//!
//!   <id>       one of: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!              table7 table8 table9 table10 table11 table12 | all | list
//!   --scale    dataset scale multiplier        (default 0.25)
//!   --full     shorthand for --scale 6 --memory-budget-mb 30000
//!              (approximately the paper's Beijing corpus and RAM ceiling;
//!              expect hours of runtime)
//! ```

use std::process::ExitCode;

use netclus_bench::experiments;
use netclus_bench::{Ctx, HarnessConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }

    let mut cfg = HarnessConfig::default();
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = parse_next(&args, &mut i, "scale");
            }
            "--seed" => {
                cfg.seed = parse_next(&args, &mut i, "seed");
            }
            "--threads" => {
                cfg.threads = parse_next(&args, &mut i, "threads");
            }
            "--memory-budget-mb" => {
                let mb: usize = parse_next(&args, &mut i, "memory budget");
                cfg.memory_budget = mb << 20;
            }
            "--out" => {
                i += 1;
                cfg.out_dir = args.get(i).expect("--out needs a directory").into();
            }
            "--full" => {
                cfg.scale = 6.0;
                cfg.memory_budget = 30_000 << 20;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                usage();
                return ExitCode::FAILURE;
            }
            id => targets.push(id.to_string()),
        }
        i += 1;
    }

    let registry = experiments::all();
    if targets.iter().any(|t| t == "list") {
        for e in &registry {
            println!("{:8}  {}", e.id, e.description);
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&experiments::Experiment> = if targets.iter().any(|t| t == "all") {
        // fig6 shares fig5's runner; run it once.
        registry.iter().filter(|e| e.id != "fig6").collect()
    } else {
        let mut out = Vec::new();
        for t in &targets {
            match registry.iter().find(|e| e.id == *t) {
                Some(e) => out.push(e),
                None => {
                    eprintln!("unknown experiment {t:?}; try `experiments list`");
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    if selected.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }

    eprintln!(
        "[cfg ] scale {} | seed {:#x} | {} threads | memory budget {} | out {}",
        cfg.scale,
        cfg.seed,
        cfg.threads,
        netclus::format_bytes(cfg.memory_budget),
        cfg.out_dir.display()
    );
    let mut ctx = Ctx::new(cfg);
    for e in selected {
        eprintln!("\n[run ] {} — {}", e.id, e.description);
        let t = std::time::Instant::now();
        (e.run)(&mut ctx);
        eprintln!("[done] {} in {:?}", e.id, t.elapsed());
    }
    ExitCode::SUCCESS
}

fn parse_next<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| panic!("missing value for {what}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {what}: {e:?}"))
}

fn usage() {
    eprintln!(
        "usage: experiments <id>|all|list [--scale S] [--seed N] [--threads T] \
         [--memory-budget-mb M] [--out DIR] [--full]"
    );
}
