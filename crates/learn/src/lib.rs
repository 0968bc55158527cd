//! Learning substrate of the evolvable VM.
//!
//! Implements the statistical machinery of the paper's §IV:
//!
//! - [`dataset`] — encoded training sets with mixed numeric/categorical
//!   features (the XICL translator's output becomes rows here);
//! - [`tree`] — CART-style classification trees with entropy splits, the
//!   paper's model of choice for input→optimization-level mapping;
//! - [`cv`] — deterministic k-fold cross-validation;
//! - [`confidence`] — the decayed-accuracy confidence tracker gating
//!   discriminative prediction (`conf ← (1−γ)·conf + γ·acc`);
//! - [`baseline`] — input-oblivious majority classifiers, the information
//!   ceiling of repository-based optimization.
//!
//! # Example
//!
//! ```
//! use evovm_learn::dataset::{Dataset, Raw};
//! use evovm_learn::tree::{ClassificationTree, TreeParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut data = Dataset::new();
//! for (size, level) in [(10.0, 0u16), (20.0, 0), (500.0, 2), (900.0, 2)] {
//!     data.push(&[("input.SIZE".to_owned(), Raw::Num(size))], level)?;
//! }
//! let tree = ClassificationTree::fit(&data, &TreeParams::default());
//! let small = data.encode(&[("input.SIZE".to_owned(), Raw::Num(15.0))])?;
//! assert_eq!(tree.predict(&small), 0);
//! # Ok(())
//! # }
//! ```

pub mod baseline;
pub mod confidence;
pub mod cv;
pub mod dataset;
pub mod tree;

pub use baseline::MajorityClassifier;
pub use confidence::ConfidenceTracker;
pub use dataset::{CostDataset, CostSample, Dataset, DatasetError, Encoded, FeatureKind, Raw};
pub use tree::{ClassificationTree, FitScratch, TreeParams};
