//! Shared harness utilities for the paper-reproduction bench targets.
//!
//! Each `benches/*.rs` target regenerates one table or figure of
//! Mao & Shen (CGO 2009); this library centralizes campaign running and
//! table formatting so the targets stay declarative.

use std::sync::Arc;

use evovm::{
    Bench, CampaignConfig, CampaignOutcome, CampaignService, EvolveConfig, Scenario, ShutdownMode,
};
use evovm_workloads as workloads;

/// One campaign of a paper-figure session: a (workload × scenario ×
/// seed) cell.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Workload name (as accepted by `evovm_workloads::by_name`).
    pub workload: String,
    /// The scenario to run.
    pub scenario: Scenario,
    /// Number of production runs.
    pub runs: usize,
    /// Input-arrival seed.
    pub seed: u64,
    /// Evolvable-VM parameters.
    pub evolve: EvolveConfig,
}

impl SessionRequest {
    /// A request with the default [`EvolveConfig`].
    pub fn new(workload: &str, scenario: Scenario, runs: usize, seed: u64) -> SessionRequest {
        SessionRequest {
            workload: workload.to_owned(),
            scenario,
            runs,
            seed,
            evolve: EvolveConfig::default(),
        }
    }

    /// Override the evolvable-VM parameters.
    pub fn evolve(mut self, evolve: EvolveConfig) -> SessionRequest {
        self.evolve = evolve;
        self
    }
}

/// Run a batch of campaigns through a [`CampaignService`] worker pool,
/// returning outcomes in request order. Campaigns on the same workload
/// share one loaded [`Bench`] — and therefore one memoized default-run
/// oracle, so each (input, sampling-interval) baseline executes once per
/// session no matter how many scenarios and seeds consume it.
///
/// # Panics
///
/// Panics on unknown workloads or failed runs — bench targets want loud
/// failures, not skipped rows.
pub fn session(requests: &[SessionRequest]) -> Vec<CampaignOutcome> {
    // One loaded bench per distinct workload name, shared by reference
    // with the service (no per-request reload or copy).
    let mut names: Vec<&str> = Vec::new();
    for request in requests {
        if !names.contains(&request.workload.as_str()) {
            names.push(&request.workload);
        }
    }
    let benches: Vec<Arc<Bench>> = names
        .iter()
        .map(|name| {
            workloads::by_name(name)
                .map(Arc::new)
                .unwrap_or_else(|| panic!("unknown workload `{name}`"))
        })
        .collect();

    let service = CampaignService::builder()
        .queue_bound(requests.len().max(1))
        .spawn();
    let handles: Vec<_> = requests
        .iter()
        .map(|request| {
            let bench_index = names
                .iter()
                .position(|n| *n == request.workload)
                .expect("interned above");
            let config = CampaignConfig::new(request.scenario)
                .runs(request.runs)
                .seed(request.seed)
                .evolve(request.evolve);
            service
                .submit(Arc::clone(&benches[bench_index]), config)
                .expect("a fresh service accepts submissions")
        })
        .collect();

    let outcomes = handles
        .into_iter()
        .zip(requests)
        .map(|(handle, request)| {
            handle
                .wait()
                .unwrap_or_else(|e| panic!("campaign failed for {}: {e}", request.workload))
        })
        .collect();
    service.shutdown(ShutdownMode::Drain);
    outcomes
}

/// Run one scenario campaign over a named workload (a session of one).
///
/// # Panics
///
/// Panics on unknown workloads or failed runs — bench targets want loud
/// failures, not skipped rows.
pub fn campaign(
    name: &str,
    scenario: Scenario,
    runs: usize,
    seed: u64,
    evolve: EvolveConfig,
) -> CampaignOutcome {
    session(&[SessionRequest::new(name, scenario, runs, seed).evolve(evolve)])
        .pop()
        .expect("one request yields one outcome")
}

/// The paper-style campaign length for a workload (70 for input-rich
/// programs, 30 otherwise).
pub fn paper_runs(name: &str) -> usize {
    workloads::info(name).map_or(30, |i| i.campaign_runs)
}

/// The Table I benchmark order.
pub const TABLE1_ORDER: [&str; 11] = [
    "mtrt",
    "compress",
    "db",
    "antlr",
    "bloat",
    "fop",
    "euler",
    "moldyn",
    "montecarlo",
    "search",
    "raytracer",
];

/// Print a banner for a bench target.
pub fn banner(title: &str, paper_ref: &str) {
    println!("\n=== {title} ===");
    println!("(reproduces {paper_ref} of Mao & Shen, CGO 2009)\n");
}

/// Format a speedup distribution as the paper's boxplot five numbers.
pub fn box_row(label: &str, speedups: &[f64]) -> String {
    match evovm::metrics::BoxStats::from_slice(speedups) {
        Some(s) => format!(
            "{label:<22} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            s.min, s.q25, s.median, s.q75, s.max
        ),
        None => format!("{label:<22} (no data)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_runs_distinguishes_rich_input_sets() {
        assert_eq!(paper_runs("mtrt"), 70);
        assert_eq!(paper_runs("fop"), 30);
        assert_eq!(paper_runs("nonexistent"), 30);
    }

    #[test]
    fn box_row_formats() {
        let row = box_row("x", &[1.0, 2.0, 3.0]);
        assert!(row.contains("1.000"));
        assert!(row.contains("3.000"));
        assert!(box_row("y", &[]).contains("no data"));
    }

    #[test]
    fn tiny_campaign_smoke() {
        let out = campaign("search", Scenario::Default, 3, 1, EvolveConfig::default());
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn session_preserves_request_order_and_shares_benches() {
        let requests = [
            SessionRequest::new("search", Scenario::Rep, 3, 1),
            SessionRequest::new("montecarlo", Scenario::Default, 2, 1),
            SessionRequest::new("search", Scenario::Default, 3, 1),
        ];
        let outcomes = session(&requests);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].scenario, Scenario::Rep);
        assert_eq!(outcomes[1].scenario, Scenario::Default);
        assert_eq!(outcomes[2].scenario, Scenario::Default);
        assert_eq!(outcomes[1].records.len(), 2);
        // Same workload + seed ⇒ same arrival order regardless of
        // scenario or service scheduling.
        for (a, b) in outcomes[0].records.iter().zip(&outcomes[2].records) {
            assert_eq!(a.input_index, b.input_index);
        }
    }
}
