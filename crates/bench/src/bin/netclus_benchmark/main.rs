//! `netclus_benchmark`: the repository's benchmark — six workloads, the
//! end-to-end metrics of `BENCHMARK.json`, per-layer probes and a traced
//! run. See `README.md` beside this file.
//!
//! ```text
//! netclus_benchmark --workload <name>|all --seed <u64> [--scale 0.25]
//!                   [--seconds 12] [--trace [0|1]] [--repeat N]
//! ```
//!
//! One workload runs in this process. `all` and `--repeat` re-execute
//! this binary once per workload and run, so set-up time, caches and
//! peak RSS are per workload. The last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`); the exit
//! code is non-zero when a check failed.

mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use workloads::{Metric, Report, RunCfg};

struct Args {
    workload: String,
    seed: u64,
    scale: f64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

const USAGE: &str = "usage: netclus_benchmark --workload <name>|all --seed <u64> \
                     [--scale <f64>] [--seconds <f64>] [--trace [0|1]] [--repeat <N>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        scale: 0.25,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => out.workload = value("a workload name")?,
            "--seed" => {
                let v = value("a number")?;
                out.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--scale" => {
                let v = value("a number")?;
                out.scale = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                out.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--repeat" => {
                let v = value("a number")?;
                out.repeat = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                // A bare `--trace` means on; the driver passes 0 or 1.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let known = out.workload == "all" || workloads::by_name(&out.workload).is_some();
    if !known {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    if !(out.scale > 0.0 && out.seconds > 0.0 && out.seconds <= 120.0 && out.repeat >= 1) {
        return Err(
            "scale and seconds must be positive, seconds at most 120, repeat at least 1".into(),
        );
    }
    Ok(out)
}

/// Traces and WALs go under the build's target directory, which is
/// inside the checkout and ignored by git.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

/// The metrics the result line carries: the end-to-end ones untraced,
/// the per-layer ones traced.
fn result_metrics(report: &Report, traced: bool) -> &[Metric] {
    let split = spec::END_TO_END.len();
    if traced {
        &report.metrics[split..]
    } else {
        &report.metrics[..split]
    }
}

/// What the last line of standard output says.
#[derive(Debug, PartialEq)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    fn render(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    /// Reads a line written by [`ResultLine::render`].
    fn parse(line: &str) -> Option<ResultLine> {
        let compact = line.replace("\": ", "\":");
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("}, ") {
            let entry = entry.trim_start_matches(['{', ' ']);
            let name = entry.strip_prefix('"')?.split('"').next()?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
            metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
        }
        Some(ResultLine {
            correct: line.contains("\"correct\": true"),
            attempted: layers::json_number(&compact, "attempted")? as u64,
            failed: layers::json_number(&compact, "failed")? as u64,
            metrics,
        })
    }
}

fn print_report(report: &Report, cfg: &RunCfg) {
    println!(
        "workload {} seed {} scale {} seconds {} trace {} ({} cores)",
        report.workload,
        cfg.seed,
        cfg.scale,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!(
        "  {:<42} {:>16} {:<6} {:>9} {:>6}",
        "metric", "value", "unit", "samples", "bound"
    );
    for m in &report.metrics {
        let bound = spec::END_TO_END
            .iter()
            .find(|s| s.name == m.name)
            .and_then(|s| s.bound)
            .map_or(String::new(), |b| format!("{b}"));
        println!(
            "  {:<42} {:>16.4} {:<6} {:>9} {:>6}",
            m.name, m.value, m.unit, m.samples, bound
        );
    }
    println!(
        "  attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
}

fn run_here(args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        scale: args.scale,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir(),
    };
    let run = workloads::by_name(&args.workload).expect("checked by parse_args");
    let report = run(&cfg);
    print_report(&report, &cfg);
    let line = ResultLine {
        correct: report.correct,
        attempted: report.attempted,
        failed: report.failed,
        metrics: result_metrics(&report, cfg.trace)
            .iter()
            .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
            .collect(),
    };
    println!("{}", line.render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh process and returns its result line.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{table}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(line.to_string())
}

/// `all` and `--repeat`: every workload in a child per run (repeat `r`
/// with seed `--seed + r`, as the driver varies it), then the per-metric
/// medians and, with repeats, the spreads and the bounds they suggest
/// (`max(0.05, 1.5 × half-range)`).
fn run_children(args: &Args) -> ExitCode {
    let names: Vec<&str> = if args.workload == "all" {
        spec::WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all = ResultLine {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for name in names {
        // One entry per metric: name, unit, one value per repeat.
        let mut runs: Vec<(String, String, Vec<f64>)> = Vec::new();
        for r in 0..args.repeat {
            let parsed = run_child(args, name, args.seed + r as u64).and_then(|line| {
                ResultLine::parse(&line)
                    .ok_or_else(|| format!("{name}: unreadable result {line:?}"))
            });
            let run = match parsed {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            all.correct &= run.correct;
            all.attempted += run.attempted;
            all.failed += run.failed;
            for (i, (metric, value, unit)) in run.metrics.into_iter().enumerate() {
                if runs.len() <= i {
                    runs.push((metric, unit, Vec::new()));
                }
                runs[i].2.push(value);
            }
        }
        if args.repeat > 1 {
            println!(
                "{name}: {} runs, seeds {}..={}",
                args.repeat,
                args.seed,
                args.seed + args.repeat as u64 - 1
            );
            println!(
                "  {:<42} {:>14} {:>14} {:>14} {:>9} {:>9} {:>9}",
                "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"
            );
        }
        for (metric, unit, values) in runs {
            if args.repeat > 1 {
                let s = stats::spread(&values);
                println!(
                    "  {:<42} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>9.4} {:>9.3}",
                    metric,
                    s.median,
                    s.q1,
                    s.q3,
                    s.iqr_frac(),
                    s.range_frac,
                    (1.5 * s.range_frac / 2.0).max(0.05)
                );
            }
            all.metrics
                .push((format!("{name}.{metric}"), stats::median(&values), unit));
        }
    }
    println!("{}", all.render());
    if all.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" || args.repeat > 1 {
        run_children(&args)
    } else {
        run_here(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_as_the_driver_and_a_person_pass_them() {
        let a = parse_args(&argv("--workload hot_mono --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hot_mono", 7, 10.0, false)
        );
        assert_eq!(a.scale, 0.25);
        assert!(
            parse_args(&argv("--workload churn --trace 1"))
                .unwrap()
                .trace
        );
        let bare = parse_args(&argv("--workload all --trace --repeat 5")).unwrap();
        assert!(bare.trace && bare.repeat == 5);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload build --seed x")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload build --scale 0")).is_err());
        assert!(parse_args(&argv("--workload churn --seconds 0")).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let line = ResultLine {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: vec![
                ("setup_s".to_string(), 0.812_734_5, "s".to_string()),
                ("queries_per_s".to_string(), 1.5e6, "1/s".to_string()),
            ],
        };
        let text = line.render();
        assert!(text
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(text.contains("\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}"));
        assert_eq!(ResultLine::parse(&text), Some(line));
        // Not-a-number never reaches the line, and `attempted` is at least 1.
        let odd = ResultLine {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: vec![("bad".to_string(), f64::NAN, "us".to_string())],
        };
        let parsed = ResultLine::parse(&odd.render()).unwrap();
        assert!(!parsed.correct && parsed.attempted == 1);
        assert_eq!(parsed.metrics, [("bad".to_string(), 0.0, "us".to_string())]);
    }
}
