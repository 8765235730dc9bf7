//! SLO health evaluation over flight-recorder history.
//!
//! A [`HealthEvaluator`] holds declarative [`SloRule`]s and renders a
//! single `healthy`/`degraded`/`unhealthy` verdict with per-rule detail,
//! reading everything from a [`FlightRecorder`] — the rules see the same
//! retained history the `history`/`rates` telemetry commands serve, so a
//! verdict is always explainable from the recorder's own data.
//!
//! Two rule shapes cover the SLOs this service cares about:
//!
//! * **Ceiling** — the newest value of a series must stay at or below a
//!   limit (hot-path p99, ingest→visible freshness lag). Fires on the
//!   instantaneous value, so it recovers as soon as the series does.
//! * **Burn rate** — SRE-style error-budget burn over *two* windows. The
//!   error fraction (increase of an error counter over the increase of a
//!   total counter) is divided by the budget; the rule fires only when
//!   **both** the fast and the slow window burn above the threshold.
//!   The slow window filters transient blips; the fast window ends the
//!   alert quickly once the spike stops (it recovers first, un-firing
//!   the conjunction) — the standard multi-window construction.
//!
//! Missing data never fires a rule: before a series exists (cold start,
//! recorder not yet sampling) the rule reports `no data` and stays
//! silent, so health cannot flap during startup.

#![deny(clippy::too_many_lines)]

use crate::flight::FlightRecorder;
use crate::jsonl;

/// Overall service health, the worst severity among firing rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No rule is firing.
    Healthy,
    /// At least one [`Severity::Degrading`] rule fires, nothing worse.
    Degraded,
    /// At least one [`Severity::Critical`] rule fires.
    Unhealthy,
}

impl Verdict {
    /// Lowercase wire name (`healthy`/`degraded`/`unhealthy`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded => "degraded",
            Verdict::Unhealthy => "unhealthy",
        }
    }
}

/// How bad a firing rule is for the overall verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Firing pulls the verdict to [`Verdict::Degraded`].
    Degrading,
    /// Firing pulls the verdict to [`Verdict::Unhealthy`].
    Critical,
}

impl Severity {
    fn verdict(self) -> Verdict {
        match self {
            Severity::Degrading => Verdict::Degraded,
            Severity::Critical => Verdict::Unhealthy,
        }
    }
}

#[derive(Clone, Debug)]
enum RuleKind {
    Ceiling {
        series: String,
        max: f64,
    },
    BurnRate {
        errors_series: String,
        total_series: String,
        /// Allowed error fraction (e.g. `0.01` = 1% error budget).
        budget: f64,
        fast_secs: f64,
        slow_secs: f64,
        /// Burn multiple both windows must exceed to fire.
        threshold: f64,
    },
}

/// One declarative SLO rule.
#[derive(Clone, Debug)]
pub struct SloRule {
    name: String,
    severity: Severity,
    kind: RuleKind,
}

impl SloRule {
    /// The newest value of `series` must stay `<= max`.
    pub fn ceiling(
        name: impl Into<String>,
        series: impl Into<String>,
        max: f64,
        severity: Severity,
    ) -> SloRule {
        SloRule {
            name: name.into(),
            severity,
            kind: RuleKind::Ceiling {
                series: series.into(),
                max,
            },
        }
    }

    /// Multi-window burn rate: fires when the error-budget burn
    /// (`Δerrors/Δtotal ÷ budget`) exceeds `threshold` over **both** the
    /// fast and the slow trailing window.
    // A burn-rate rule genuinely has this many knobs; a builder would
    // just smear one declaration across eight calls.
    #[allow(clippy::too_many_arguments)]
    pub fn burn_rate(
        name: impl Into<String>,
        errors_series: impl Into<String>,
        total_series: impl Into<String>,
        budget: f64,
        fast_secs: f64,
        slow_secs: f64,
        threshold: f64,
        severity: Severity,
    ) -> SloRule {
        SloRule {
            name: name.into(),
            severity,
            kind: RuleKind::BurnRate {
                errors_series: errors_series.into(),
                total_series: total_series.into(),
                budget: budget.max(f64::EPSILON),
                fast_secs,
                slow_secs,
                threshold,
            },
        }
    }

    /// The rule's name (appears in `firing` lists and JSON keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, recorder: &FlightRecorder) -> RuleOutcome {
        match &self.kind {
            RuleKind::Ceiling { series, max } => {
                let (firing, value, detail) = match recorder.last(series) {
                    Some(v) => (v > *max, Some(v), format!("{series}={v:.1} limit={max:.1}")),
                    None => (false, None, format!("{series}: no data")),
                };
                RuleOutcome {
                    name: self.name.clone(),
                    severity: self.severity,
                    firing,
                    value,
                    limit: *max,
                    detail,
                }
            }
            RuleKind::BurnRate {
                errors_series,
                total_series,
                budget,
                fast_secs,
                slow_secs,
                threshold,
            } => {
                let burn = |window: f64| -> Option<f64> {
                    let (errs, _) = recorder.window_increase(errors_series, window)?;
                    let (total, _) = recorder.window_increase(total_series, window)?;
                    if total <= 0.0 {
                        // No traffic in the window burns no budget.
                        return Some(0.0);
                    }
                    Some((errs / total) / budget)
                };
                match (burn(*fast_secs), burn(*slow_secs)) {
                    (Some(fast), Some(slow)) => RuleOutcome {
                        name: self.name.clone(),
                        severity: self.severity,
                        firing: fast > *threshold && slow > *threshold,
                        value: Some(fast.max(slow)),
                        limit: *threshold,
                        detail: format!(
                            "burn fast({fast_secs:.0}s)={fast:.2}x slow({slow_secs:.0}s)={slow:.2}x threshold={threshold:.2}x"
                        ),
                    },
                    _ => RuleOutcome {
                        name: self.name.clone(),
                        severity: self.severity,
                        firing: false,
                        value: None,
                        limit: *threshold,
                        detail: format!("{errors_series}/{total_series}: no data"),
                    },
                }
            }
        }
    }
}

/// The evaluated state of one rule.
#[derive(Clone, Debug)]
pub struct RuleOutcome {
    /// Rule name.
    pub name: String,
    /// Severity if firing.
    pub severity: Severity,
    /// Whether the rule is firing right now.
    pub firing: bool,
    /// The observed value compared against `limit` (ceiling value or
    /// worst-window burn multiple); `None` without data.
    pub value: Option<f64>,
    /// The configured limit (ceiling max or burn threshold).
    pub limit: f64,
    /// Human-readable evaluation detail.
    pub detail: String,
}

/// A full health evaluation: verdict plus every rule's outcome.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Overall verdict (worst firing severity).
    pub verdict: Verdict,
    /// One outcome per configured rule, in rule order.
    pub outcomes: Vec<RuleOutcome>,
}

impl HealthReport {
    /// Names of the rules currently firing.
    pub fn firing(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.firing)
            .map(|o| o.name.as_str())
            .collect()
    }

    /// Renders one flat JSON line:
    /// `{"verdict":"degraded","firing":["freshness"],"rule_freshness_firing":1,
    ///   "rule_freshness_value":…,"rule_freshness_limit":…,"rule_freshness_detail":"…",…}`.
    pub fn to_json_line(&self) -> String {
        jsonl::object(|o| {
            o.str("verdict", self.verdict.as_str());
            o.array("firing", |a| {
                self.firing().iter().for_each(|name| a.str(name))
            });
            for rule in &self.outcomes {
                let key = |field: &str| format!("rule_{}_{field}", rule.name);
                o.int(&key("firing"), u32::from(rule.firing));
                if let Some(v) = rule.value {
                    o.num(&key("value"), v);
                }
                o.num(&key("limit"), rule.limit);
                o.str(&key("detail"), &rule.detail);
            }
        })
    }
}

/// Declarative SLO rule set evaluated against a [`FlightRecorder`].
#[derive(Clone, Debug, Default)]
pub struct HealthEvaluator {
    rules: Vec<SloRule>,
}

impl HealthEvaluator {
    /// An evaluator with no rules (always healthy).
    pub fn new() -> Self {
        HealthEvaluator::default()
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: SloRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Evaluates every rule against the recorder's current history.
    pub fn evaluate(&self, recorder: &FlightRecorder) -> HealthReport {
        let outcomes: Vec<RuleOutcome> = self.rules.iter().map(|r| r.evaluate(recorder)).collect();
        let verdict = outcomes
            .iter()
            .filter(|o| o.firing)
            .map(|o| o.severity.verdict())
            .max()
            .unwrap_or(Verdict::Healthy);
        HealthReport { verdict, outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightConfig;
    use std::time::Duration;

    fn recorder() -> FlightRecorder {
        FlightRecorder::new(FlightConfig {
            tick: Duration::from_millis(1),
            capacity: 256,
            downsample_every: 1_000,
            coarse_capacity: 4,
        })
    }

    fn record(rec: &FlightRecorder, at: f64, pairs: &[(&str, f64)]) {
        let sample: Vec<(String, f64)> = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        rec.record_at(at, &sample);
    }

    #[test]
    fn ceiling_fires_on_last_value_and_recovers() {
        let rec = recorder();
        let eval = HealthEvaluator::new().with_rule(SloRule::ceiling(
            "freshness",
            "visibility_lag_us",
            1_000.0,
            Severity::Degrading,
        ));
        // No data yet: silent, healthy.
        let report = eval.evaluate(&rec);
        assert_eq!(report.verdict, Verdict::Healthy);
        assert!(report.outcomes[0].detail.contains("no data"));

        record(&rec, 0.0, &[("visibility_lag_us", 200.0)]);
        assert_eq!(eval.evaluate(&rec).verdict, Verdict::Healthy);

        record(&rec, 1.0, &[("visibility_lag_us", 5_000.0)]);
        let report = eval.evaluate(&rec);
        assert_eq!(report.verdict, Verdict::Degraded);
        assert_eq!(report.firing(), vec!["freshness"]);
        let json = report.to_json_line();
        assert!(json.contains("\"verdict\":\"degraded\""));
        assert!(json.contains("\"firing\":[\"freshness\"]"));
        assert!(json.contains("\"rule_freshness_firing\":1"));

        record(&rec, 2.0, &[("visibility_lag_us", 0.0)]);
        assert_eq!(eval.evaluate(&rec).verdict, Verdict::Healthy);
    }

    #[test]
    fn critical_rule_outranks_degrading_rule() {
        let rec = recorder();
        record(&rec, 0.0, &[("a", 10.0), ("b", 10.0)]);
        let eval = HealthEvaluator::new()
            .with_rule(SloRule::ceiling("soft", "a", 1.0, Severity::Degrading))
            .with_rule(SloRule::ceiling("hard", "b", 1.0, Severity::Critical));
        let report = eval.evaluate(&rec);
        assert_eq!(report.verdict, Verdict::Unhealthy);
        assert_eq!(report.firing(), vec!["soft", "hard"]);
    }

    #[test]
    fn burn_rate_needs_both_windows_and_recovers_fast_window_first() {
        let rec = recorder();
        // 1 Hz ticks; budget 10% errors, 2x threshold, fast=3s slow=10s.
        let eval = HealthEvaluator::new().with_rule(SloRule::burn_rate(
            "errors",
            "shed",
            "requests",
            0.10,
            3.0,
            10.0,
            2.0,
            Severity::Critical,
        ));
        // Phase 1 (t=0..5): clean traffic, 10 req/s, no errors.
        let mut shed = 0.0;
        let mut requests = 0.0;
        let mut t = 0.0;
        let step = |rec: &FlightRecorder,
                    t: &mut f64,
                    shed: &mut f64,
                    req: &mut f64,
                    err_per_tick: f64| {
            *req += 10.0;
            *shed += err_per_tick;
            record(rec, *t, &[("shed", *shed), ("requests", *req)]);
            *t += 1.0;
        };
        for _ in 0..5 {
            step(&rec, &mut t, &mut shed, &mut requests, 0.0);
        }
        assert_eq!(eval.evaluate(&rec).verdict, Verdict::Healthy);

        // Phase 2 (t=5..12): a spike sheds 50% of traffic — burn 5x over
        // the budget. The fast window crosses immediately; the slow
        // window needs enough spiky ticks before the conjunction fires.
        let mut fired_at = None;
        for i in 0..7 {
            step(&rec, &mut t, &mut shed, &mut requests, 5.0);
            if eval.evaluate(&rec).verdict == Verdict::Unhealthy && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        let report = eval.evaluate(&rec);
        assert_eq!(
            report.verdict,
            Verdict::Unhealthy,
            "sustained spike must fire"
        );
        assert_eq!(report.firing(), vec!["errors"]);
        assert!(
            fired_at.expect("spike never fired") > 0,
            "slow window must lag the spike onset (blip filtering)"
        );

        // Phase 3: the spike stops. The fast window recovers first and
        // un-fires the conjunction even while the slow window still
        // remembers the spike.
        let mut recovered_at = None;
        for i in 0..8 {
            step(&rec, &mut t, &mut shed, &mut requests, 0.0);
            let report = eval.evaluate(&rec);
            if report.verdict == Verdict::Healthy && recovered_at.is_none() {
                recovered_at = Some((i, report));
            }
        }
        let (i, report) = recovered_at.expect("never recovered after spike");
        assert!(
            i < 5,
            "fast window should recover well before the slow one drains"
        );
        // The slow window still shows burn in the detail even though the
        // rule is no longer firing.
        assert!(report.outcomes[0].detail.contains("slow"));
    }

    #[test]
    fn burn_rate_with_no_traffic_is_silent() {
        let rec = recorder();
        record(&rec, 0.0, &[("shed", 0.0), ("requests", 0.0)]);
        record(&rec, 1.0, &[("shed", 0.0), ("requests", 0.0)]);
        let eval = HealthEvaluator::new().with_rule(SloRule::burn_rate(
            "errors",
            "shed",
            "requests",
            0.01,
            2.0,
            5.0,
            1.0,
            Severity::Critical,
        ));
        assert_eq!(eval.evaluate(&rec).verdict, Verdict::Healthy);
    }
}
