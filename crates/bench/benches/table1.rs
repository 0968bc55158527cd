//! Table I: per-benchmark inputs, running-time ranges, feature counts and
//! Evolve's confidence/accuracy.
//!
//! Paper reference values: 11 programs, running times spanning roughly
//! 0.1–100 s per program, raw features mostly 2–8 with 1–4 used, mean
//! confidence/accuracy around 0.7–0.9 (87% mean accuracy overall).

use evovm::Scenario;
use evovm_bench::{banner, paper_runs, session, SessionRequest, TABLE1_ORDER};

fn main() {
    banner(
        "Table I — benchmark characteristics and prediction quality",
        "Table I",
    );
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "program", "#inputs", "min(s)", "max(s)", "features", "used", "conf", "acc"
    );
    // All eleven Evolve campaigns fan out across the service's workers.
    let requests: Vec<SessionRequest> = TABLE1_ORDER
        .iter()
        .map(|name| SessionRequest::new(name, Scenario::Evolve, paper_runs(name), 1))
        .collect();
    let outcomes = session(&requests);
    let mut accs = Vec::new();
    for (name, outcome) in TABLE1_ORDER.iter().zip(&outcomes) {
        let n_inputs = outcome.default_seconds_per_input.len();
        let (min_s, max_s) = outcome.default_time_range().unwrap_or((0.0, 0.0));
        // Mean confidence/accuracy over the second half of the campaign
        // (the paper reports steady-state values).
        let half = outcome.records.len() / 2;
        let conf = evovm::metrics::mean(
            &outcome.records[half..]
                .iter()
                .map(|r| r.confidence)
                .collect::<Vec<_>>(),
        );
        let acc = evovm::metrics::mean(
            &outcome.records[half..]
                .iter()
                .map(|r| r.accuracy)
                .collect::<Vec<_>>(),
        );
        accs.push(acc);
        println!(
            "{:<12} {:>7} {:>9.3} {:>9.3} {:>9} {:>7} {:>7.2} {:>7.2}",
            name, n_inputs, min_s, max_s, outcome.raw_features, outcome.used_features, conf, acc
        );
    }
    println!(
        "\nmean prediction accuracy: {:.1}% (paper: 87%)",
        100.0 * evovm::metrics::mean(&accs)
    );
}
