//! The experiment registry: one entry per table, figure and in-text
//! estimate of the paper.

mod figures;
mod tables;

use crate::data::CampaignSet;
use mobitrace_core::AnalysisContext;
use serde::Serialize;

/// One compared quantity: what the paper reports vs what we measure.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// What is being compared.
    pub name: String,
    /// The paper's reported value (absent for context-only quantities).
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
}

impl Metric {
    /// A compared metric.
    pub fn new(name: impl Into<String>, paper: f64, measured: f64) -> Metric {
        Metric { name: name.into(), paper: Some(paper), measured }
    }

    /// A measured-only metric.
    pub fn measured(name: impl Into<String>, measured: f64) -> Metric {
        Metric { name: name.into(), paper: None, measured }
    }

    /// Relative error vs the paper value (None without a reference or for
    /// a zero reference).
    pub fn rel_error(&self) -> Option<f64> {
        let p = self.paper?;
        if p.abs() < 1e-12 {
            return None;
        }
        Some((self.measured - p) / p)
    }
}

/// The outcome of one experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentReport {
    /// Registry id (`table3`, `fig6`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Compared quantities.
    pub metrics: Vec<Metric>,
    /// Text rendering of the artefact.
    pub rendering: String,
}

impl ExperimentReport {
    /// Render the report including the paper-vs-measured table.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n\n{}\n", self.id, self.title, self.rendering);
        if !self.metrics.is_empty() {
            let mut t = crate::render::Table::new(vec!["metric", "paper", "measured", "rel.err"]);
            for m in &self.metrics {
                t.row(vec![
                    m.name.clone(),
                    m.paper.map(|p| format!("{p:.3}")).unwrap_or_else(|| "-".into()),
                    format!("{:.3}", m.measured),
                    m.rel_error()
                        .map(|e| format!("{:+.0}%", e * 100.0))
                        .unwrap_or_else(|| "-".into()),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

/// All experiment ids in paper order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "offload_potential",
        "implications",
        "home_inference",
        "home_rule_sweep",
        "carrier_ios",
        "interference",
        "light_apps",
    ]
}

/// Run one experiment by id against simulated campaigns. `ctxs` are the
/// per-year analysis contexts of `set` (build once via
/// [`CampaignSet::contexts`]).
pub fn run_experiment(
    id: &str,
    set: &CampaignSet,
    ctxs: &[AnalysisContext<'_>; 3],
) -> Option<ExperimentReport> {
    Some(match id {
        "table1" => tables::table1(set, ctxs),
        "table2" => tables::table2(set),
        "table3" => tables::table3(ctxs),
        "table4" => tables::table4(set, ctxs),
        "table5" => tables::table5(ctxs),
        "table6" => tables::table6(ctxs),
        "table7" => tables::table7(ctxs),
        "table8" => tables::table8(set),
        "table9" => tables::table9(set),
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(set, ctxs),
        "fig3" => figures::fig3(ctxs),
        "fig4" => figures::fig4(ctxs),
        "fig5" => figures::fig5(ctxs),
        "fig6" => figures::fig6(ctxs),
        "fig7" => figures::fig7(ctxs),
        "fig8" => figures::fig8(ctxs),
        "fig9" => figures::fig9(ctxs),
        "fig10" => figures::fig10(ctxs),
        "fig11" => figures::fig11(set, ctxs),
        "fig12" => figures::fig12(ctxs),
        "fig13" => figures::fig13(ctxs),
        "fig14" => figures::fig14(ctxs),
        "fig15" => figures::fig15(ctxs),
        "fig16" => figures::fig16(ctxs),
        "fig17" => figures::fig17(set, ctxs),
        "fig18" => figures::fig18(set, ctxs),
        "fig19" => figures::fig19(ctxs),
        "offload_potential" => figures::offload_potential(set, ctxs),
        "implications" => figures::implications_report(set, ctxs),
        "home_inference" => tables::home_inference(set, ctxs),
        "home_rule_sweep" => figures::home_rule_sweep_report(ctxs),
        "carrier_ios" => figures::carrier_ios(ctxs),
        "interference" => figures::interference_report(ctxs),
        "light_apps" => tables::light_apps(ctxs),
        _ => return None,
    })
}

/// Year labels used across renderings.
pub(crate) const YEAR_LABELS: [&str; 3] = ["2013", "2014", "2015"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonempty() {
        let ids = all_experiment_ids();
        assert!(ids.len() >= 32);
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn metric_rel_error() {
        let m = Metric::new("x", 2.0, 2.2);
        assert!((m.rel_error().unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(Metric::measured("y", 1.0).rel_error(), None);
        assert_eq!(Metric::new("z", 0.0, 1.0).rel_error(), None);
    }

    #[test]
    fn unknown_id_is_none() {
        let set = CampaignSet::simulate(0.012, 7);
        let ctxs = set.contexts();
        assert!(run_experiment("nope", &set, &ctxs).is_none());
    }

    /// Smoke-test every registered experiment on a tiny campaign set.
    #[test]
    fn every_experiment_runs() {
        let set = CampaignSet::simulate(0.02, 11);
        let ctxs = set.contexts();
        for id in all_experiment_ids() {
            let report =
                run_experiment(id, &set, &ctxs).unwrap_or_else(|| panic!("{id} not in registry"));
            assert_eq!(report.id, id);
            assert!(!report.rendering.is_empty(), "{id} rendered nothing");
            let rendered = report.render();
            assert!(rendered.contains(report.title), "{id} render broken");
        }
    }
}
