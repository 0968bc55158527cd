//! The repository-based baseline (`Rep`): Arnold et al.'s cross-run
//! profile repository, as described in the paper's §V-B.
//!
//! Rep learns across runs but does **not** tailor its strategy to the
//! input: from the history of profiles it derives, per method, a single
//! strategy of `<k, o>` pairs — "when the sampler sees the k-th sample of
//! the method, recompile it at level o" — chosen to maximize the *average*
//! performance over the history (with a compilation bound). Unlike the
//! evolvable VM, Rep predicts unconditionally from the very first run,
//! which is exactly what makes it sensitive to input order (§V-B.3).

use serde::{Deserialize, Serialize};

use crate::error::EvolveError;
use evovm_bytecode::program::Program;
use evovm_bytecode::FuncId;
use evovm_opt::OptLevel;
use evovm_vm::policy::{AosContext, AosPolicy, CostBenefitPolicy};
use evovm_vm::RunProfile;

/// Candidate sample counts for the `<k, o>` trigger (a geometric grid —
/// the trigger time is `k × sample_interval`, so the grid must span from
/// "immediately" to "well into a long run").
const CANDIDATE_KS: [u64; 14] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Maximum recompilations per method (the "compilation bound").
pub const COMPILATION_BOUND: usize = 2;

/// The cross-run profile repository.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RepRepository {
    /// Per run, per method: intrinsic work in baseline-normalized cycles.
    observations: Vec<Vec<f64>>,
    sample_interval_cycles: u64,
}

impl RepRepository {
    /// An empty repository.
    pub fn new(sample_interval_cycles: u64) -> RepRepository {
        RepRepository {
            observations: Vec::new(),
            sample_interval_cycles,
        }
    }

    /// Number of runs recorded.
    pub fn runs(&self) -> usize {
        self.observations.len()
    }

    /// Adopt the observations of a serialized repository, all or nothing.
    /// The sampling interval stays this one's: the importing config's.
    ///
    /// # Errors
    ///
    /// [`EvolveError::MalformedState`] when `json` is not a repository or
    /// holds a non-finite observation, which no repository records.
    pub(crate) fn import(&mut self, json: &str) -> Result<(), EvolveError> {
        let stored: RepRepository =
            serde_json::from_str(json).map_err(|e| EvolveError::MalformedState(e.to_string()))?;
        if stored.observations.iter().flatten().any(|w| !w.is_finite()) {
            return Err(EvolveError::MalformedState("non-finite observation".into()));
        }
        self.observations = stored.observations;
        Ok(())
    }

    /// Record a finished run's profile.
    pub fn observe(&mut self, program: &Program, profile: &RunProfile) {
        let mut intrinsic = Vec::with_capacity(profile.samples.len());
        for (i, &samples) in profile.samples.iter().enumerate() {
            let name = &program.function(FuncId(i as u32)).name;
            let final_level = profile
                .final_levels
                .get(i)
                .copied()
                .unwrap_or(OptLevel::Baseline);
            // Intrinsic work W such that time-at-level-L = W × quality(L).
            let w =
                samples as f64 * self.sample_interval_cycles as f64 / final_level.quality_for(name);
            intrinsic.push(w);
        }
        self.observations.push(intrinsic);
    }

    /// Derive the repository strategy for `program`: per method, the
    /// `<k, o>` pairs (up to [`COMPILATION_BOUND`]) minimizing the mean
    /// modelled run time across the recorded history — or no pairs when
    /// staying reactive-baseline is better on average. Two-stage
    /// strategies ("O1 at the 4th sample, O2 at the 64th") hedge between
    /// the short and long runs in the history, exactly the shape Arnold
    /// et al.'s repository produces.
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvariantViolated`] if the search ever produces a
    /// plan exceeding [`COMPILATION_BOUND`] — a bug in the candidate
    /// enumeration, checked in every build profile because an oversized
    /// plan would silently skew Rep's modelled compile costs.
    pub fn strategy(&self, program: &Program) -> Result<RepStrategy, EvolveError> {
        let n = program.functions().len();
        let mut pairs: Vec<Vec<(u64, OptLevel)>> = vec![Vec::new(); n];
        if self.observations.is_empty() {
            return Ok(RepStrategy { pairs });
        }
        let interval = self.sample_interval_cycles as f64;
        for (m, method_pairs) in pairs.iter_mut().enumerate() {
            let f = program.function(FuncId(m as u32));
            let q_base = OptLevel::Baseline.quality_for(&f.name);
            let size = f.code.len() as u64;
            let quality = |o: OptLevel| o.quality_for(&f.name);
            let compile = |o: OptLevel| (o.compile_cost_per_instr() * size) as f64;
            let works: Vec<f64> = self
                .observations
                .iter()
                .map(|run| run.get(m).copied().unwrap_or(0.0))
                .collect();
            let mean_time = |plan: &[(u64, OptLevel)]| -> f64 {
                let total: f64 = works
                    .iter()
                    .map(|&w| modelled_time(w, plan, interval, q_base, &quality, &compile))
                    .sum();
                total / works.len() as f64
            };

            // Baseline: no strategy at all.
            let mut best_time = mean_time(&[]);
            let mut best_plan: Vec<(u64, OptLevel)> = Vec::new();

            // Single-pair plans.
            for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
                for k in CANDIDATE_KS {
                    let plan = [(k, level)];
                    let t = mean_time(&plan);
                    if t < best_time {
                        best_time = t;
                        best_plan = plan.to_vec();
                    }
                }
            }
            // Two-stage plans (climbing levels at a later trigger). Only
            // adopted when clearly better, to keep strategies small.
            for first in [OptLevel::O0, OptLevel::O1] {
                for second in [OptLevel::O1, OptLevel::O2] {
                    if second <= first {
                        continue;
                    }
                    for (i, &k1) in CANDIDATE_KS.iter().enumerate() {
                        for &k2 in &CANDIDATE_KS[i + 1..] {
                            let plan = [(k1, first), (k2, second)];
                            let t = mean_time(&plan);
                            if t < best_time * 0.99 {
                                best_time = t;
                                best_plan = plan.to_vec();
                            }
                        }
                    }
                }
            }
            if best_plan.len() > COMPILATION_BOUND {
                return Err(EvolveError::InvariantViolated(format!(
                    "rep strategy for `{}` has {} stages, compilation bound is {COMPILATION_BOUND}",
                    f.name,
                    best_plan.len()
                )));
            }
            *method_pairs = best_plan;
        }
        Ok(RepStrategy { pairs })
    }
}

/// Modelled run time of one method with intrinsic work `w` under a staged
/// plan: before the first trigger the method runs at baseline quality;
/// between triggers at the previous stage's quality; compile costs charge
/// at each reached trigger.
fn modelled_time(
    w: f64,
    plan: &[(u64, OptLevel)],
    interval: f64,
    q_base: f64,
    quality: &impl Fn(OptLevel) -> f64,
    compile: &impl Fn(OptLevel) -> f64,
) -> f64 {
    let mut time = 0.0;
    let mut remaining = w;
    let mut q_cur = q_base;
    let mut samples_done = 0.0;
    for &(k, level) in plan {
        // Work executed before this trigger fires, at the current quality.
        let segment_cycles = (k as f64 - samples_done) * interval;
        let segment_work = segment_cycles / q_cur;
        if remaining <= segment_work {
            return time + remaining * q_cur;
        }
        time += segment_cycles + compile(level);
        remaining -= segment_work;
        samples_done = k as f64;
        q_cur = quality(level);
    }
    time + remaining * q_cur
}

/// A derived repository strategy: `<k, o>` pairs per method, sorted by
/// `k`, at most [`COMPILATION_BOUND`] each.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RepStrategy {
    /// Pairs per method, indexed by [`FuncId::index`].
    pub pairs: Vec<Vec<(u64, OptLevel)>>,
}

impl RepStrategy {
    /// Methods with at least one pair.
    pub fn covered_methods(&self) -> usize {
        self.pairs.iter().filter(|p| !p.is_empty()).count()
    }

    /// Total `<k, o>` pairs across all methods. A run only counts as
    /// *predicted* when the strategy that drove it had at least one pair
    /// — an empty strategy leaves every method reactive, which is
    /// indistinguishable from the default VM.
    pub fn predicted_count(&self) -> usize {
        self.pairs.iter().map(Vec::len).sum()
    }
}

/// The policy executing a [`RepStrategy`]: fires each pair when the
/// method's sample count reaches `k` (pairs with `k = 0` fire right after
/// the first compilation); methods without pairs stay reactive.
#[derive(Debug)]
pub struct RepPolicy {
    strategy: RepStrategy,
    fallback: CostBenefitPolicy,
}

impl RepPolicy {
    /// Create a policy from a derived strategy.
    pub fn new(strategy: RepStrategy) -> RepPolicy {
        RepPolicy {
            strategy,
            fallback: CostBenefitPolicy::new(),
        }
    }
}

impl AosPolicy for RepPolicy {
    fn fork_box(&self) -> Box<dyn AosPolicy> {
        Box::new(RepPolicy {
            strategy: self.strategy.clone(),
            fallback: self.fallback.clone(),
        })
    }

    fn on_first_compile(&mut self, method: FuncId, _ctx: AosContext<'_>) -> Option<OptLevel> {
        self.strategy
            .pairs
            .get(method.index())?
            .iter()
            .find(|(k, _)| *k == 0)
            .map(|&(_, o)| o)
    }

    fn on_sample(&mut self, method: FuncId, ctx: AosContext<'_>) -> Option<OptLevel> {
        let pairs = self.strategy.pairs.get(method.index())?;
        if pairs.is_empty() {
            return self.fallback.on_sample(method, ctx);
        }
        let samples = ctx.samples[method.index()];
        pairs.iter().find(|&&(k, _)| k == samples).map(|&(_, o)| o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evovm_minijava::compile;

    fn program() -> Program {
        compile(
            "fn work(n) { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i; } return s; }
             fn main() { print work(1000); }",
        )
        .unwrap()
    }

    fn profile(samples: Vec<u64>) -> RunProfile {
        let n = samples.len();
        let mut p = RunProfile::new(n);
        p.samples = samples;
        p
    }

    #[test]
    fn empty_repository_produces_no_pairs() {
        let p = program();
        let repo = RepRepository::new(100_000);
        let s = repo.strategy(&p).unwrap();
        assert_eq!(s.covered_methods(), 0);
    }

    #[test]
    fn consistently_hot_methods_get_aggressive_pairs() {
        let p = program();
        let mut repo = RepRepository::new(100_000);
        for _ in 0..5 {
            repo.observe(&p, &profile(vec![3_000, 2]));
        }
        let s = repo.strategy(&p).unwrap();
        assert!(!s.pairs[0].is_empty(), "hot method should have a pair");
        let (k, o) = s.pairs[0][0];
        assert!(o >= OptLevel::O1, "expected an optimizing level, got {o}");
        assert!(
            k <= 3,
            "history says it's always hot; trigger early (k={k})"
        );
    }

    #[test]
    fn consistently_cold_methods_get_none() {
        let p = program();
        let mut repo = RepRepository::new(100_000);
        for _ in 0..5 {
            repo.observe(&p, &profile(vec![0, 0]));
        }
        let s = repo.strategy(&p).unwrap();
        assert_eq!(s.covered_methods(), 0);
    }

    #[test]
    fn mixed_history_prefers_a_later_trigger_for_large_methods() {
        // A large method (expensive to compile) with nine short runs and
        // one long run: triggering at k=0 makes every short run pay a
        // compile cost it cannot amortize, so the averaged strategy must
        // delay the trigger past the short runs' lifetimes.
        let mut src = String::from("fn work(n) { let s = 0;\n");
        for i in 0..60 {
            src.push_str(&format!("  s = s + n * {i} + {i};\n"));
        }
        src.push_str("  return s; }\nfn main() { print work(10); }");
        let p = compile(&src).unwrap();
        assert!(
            p.function(FuncId(0)).code.len() > 120,
            "test needs a large method"
        );
        let mut repo = RepRepository::new(100_000);
        for _ in 0..9 {
            repo.observe(&p, &profile(vec![1, 0]));
        }
        repo.observe(&p, &profile(vec![10_000, 0]));
        let s = repo.strategy(&p).unwrap();
        assert!(!s.pairs[0].is_empty());
        let (k, _) = s.pairs[0][0];
        assert!(k >= 1, "k=0 would charge the nine short runs for nothing");
    }

    #[test]
    fn mixed_history_still_optimizes_the_dominant_long_run() {
        let p = program();
        let mut repo = RepRepository::new(100_000);
        for _ in 0..9 {
            repo.observe(&p, &profile(vec![2, 0]));
        }
        repo.observe(&p, &profile(vec![10_000, 0]));
        let s = repo.strategy(&p).unwrap();
        assert!(!s.pairs[0].is_empty());
        let (_, o) = s.pairs[0][0];
        assert!(o >= OptLevel::O1);
    }

    #[test]
    fn policy_fires_at_exactly_k_samples() {
        let p = program();
        let mut strategy = RepStrategy {
            pairs: vec![Vec::new(); 2],
        };
        strategy.pairs[0].push((5, OptLevel::O1));
        let mut policy = RepPolicy::new(strategy);
        let levels = vec![OptLevel::Baseline; 2];
        let mk = |samples: &'static [u64; 2]| AosContext {
            program: &p,
            samples,
            levels: &levels,
            sample_interval_cycles: 100_000,
        };
        assert_eq!(policy.on_sample(FuncId(0), mk(&[4, 0])), None);
        let levels2 = vec![OptLevel::Baseline; 2];
        let ctx = AosContext {
            program: &p,
            samples: &[5, 0],
            levels: &levels2,
            sample_interval_cycles: 100_000,
        };
        assert_eq!(policy.on_sample(FuncId(0), ctx), Some(OptLevel::O1));
    }

    #[test]
    fn k_zero_fires_on_first_compile() {
        let p = program();
        let mut strategy = RepStrategy {
            pairs: vec![Vec::new(); 2],
        };
        strategy.pairs[1].push((0, OptLevel::O2));
        let mut policy = RepPolicy::new(strategy);
        let samples = vec![0u64, 0];
        let levels = vec![OptLevel::Baseline; 2];
        let ctx = AosContext {
            program: &p,
            samples: &samples,
            levels: &levels,
            sample_interval_cycles: 100_000,
        };
        assert_eq!(policy.on_first_compile(FuncId(1), ctx), Some(OptLevel::O2));
        assert_eq!(policy.on_first_compile(FuncId(0), ctx), None);
    }

    #[test]
    fn importing_a_non_finite_observation_is_malformed_state() {
        let blob =
            |w: &str| format!(r#"{{"observations":[[1.5,{w}]],"sample_interval_cycles":7}}"#);
        let mut repo = RepRepository::new(100_000);
        repo.import(&blob("2.5")).unwrap();
        // JSON writes ±∞ and NaN as `null`; `1e999` reads as +∞.
        for hostile in ["null", "1e999", "-1e999"] {
            let imported = repo.import(&blob(hostile));
            assert!(matches!(imported, Err(EvolveError::MalformedState(_))));
        }
        assert_eq!(repo.observations, [[1.5, 2.5]]);
        assert_eq!(repo.sample_interval_cycles, 100_000, "the config's");
    }

    #[test]
    fn uncovered_methods_fall_back_to_reactive() {
        let p = program();
        let strategy = RepStrategy {
            pairs: vec![Vec::new(); 2],
        };
        let mut policy = RepPolicy::new(strategy);
        let samples = vec![500u64, 0];
        let levels = vec![OptLevel::Baseline; 2];
        let ctx = AosContext {
            program: &p,
            samples: &samples,
            levels: &levels,
            sample_interval_cycles: 100_000,
        };
        assert!(policy.on_sample(FuncId(0), ctx).is_some());
    }
}
