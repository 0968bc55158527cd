//! Errors of the evolvable VM layer.

use std::fmt;

use evovm_learn::DatasetError;
use evovm_vm::VmError;
use evovm_xicl::XiclError;

/// Anything that can go wrong while running the evolvable VM.
#[derive(Debug, Clone, PartialEq)]
pub enum EvolveError {
    /// XICL feature extraction failed.
    Xicl(XiclError),
    /// The VM trapped or failed.
    Vm(VmError),
    /// Learning-side dataset problem (schema drift between runs).
    Dataset(DatasetError),
    /// The application's inputs have inconsistent program layouts.
    InconsistentPrograms,
    /// A campaign was configured with an empty input set.
    NoInputs,
    /// A campaign panicked on its worker. The panic is contained —
    /// surfaced on the submission's handle while the pool keeps serving
    /// other campaigns.
    CampaignPanicked {
        /// Submission index of the campaign that panicked within its
        /// [`CampaignService`](crate::CampaignService).
        spec_index: usize,
        /// Best-effort rendering of the panic payload.
        message: String,
    },
    /// A queued campaign was cancelled by an abort-mode service
    /// shutdown before it started.
    CampaignCancelled,
    /// The campaign service is shutting down (or stopped) and no longer
    /// accepts submissions.
    ServiceStopped,
    /// An internal planning invariant was violated — e.g. a strategy
    /// search produced a plan exceeding its compilation bound. Checked
    /// in every build profile (not just `debug_assert!`) because a
    /// violated bound would silently distort the cost model the paper's
    /// comparisons rest on.
    InvariantViolated(String),
}

impl fmt::Display for EvolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvolveError::Xicl(e) => write!(f, "input characterization failed: {e}"),
            EvolveError::Vm(e) => write!(f, "execution failed: {e}"),
            EvolveError::Dataset(e) => write!(f, "model building failed: {e}"),
            EvolveError::InconsistentPrograms => {
                write!(f, "inputs compile to inconsistent program layouts")
            }
            EvolveError::NoInputs => write!(f, "the application has no inputs"),
            EvolveError::CampaignPanicked {
                spec_index,
                message,
            } => {
                write!(f, "campaign {spec_index} panicked: {message}")
            }
            EvolveError::CampaignCancelled => {
                write!(
                    f,
                    "campaign cancelled by service shutdown before it started"
                )
            }
            EvolveError::ServiceStopped => {
                write!(
                    f,
                    "campaign service is stopped and not accepting submissions"
                )
            }
            EvolveError::InvariantViolated(what) => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for EvolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvolveError::Xicl(e) => Some(e),
            EvolveError::Vm(e) => Some(e),
            EvolveError::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XiclError> for EvolveError {
    fn from(e: XiclError) -> EvolveError {
        EvolveError::Xicl(e)
    }
}

impl From<VmError> for EvolveError {
    fn from(e: VmError) -> EvolveError {
        EvolveError::Vm(e)
    }
}

impl From<DatasetError> for EvolveError {
    fn from(e: DatasetError) -> EvolveError {
        EvolveError::Dataset(e)
    }
}
