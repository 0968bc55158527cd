//! Thread-safety audit for the VM layer: the campaign service executes
//! whole VMs on worker threads, and `RunPlan::Execute` carries a boxed
//! policy from the optimizer to the VM, so both must stay `Send`. The
//! `AosPolicy: Send` supertrait is what makes the boxed form `Send`;
//! removing it would only surface as an error here and in the service.

use evovm_vm::{AosPolicy, BaselineOnlyPolicy, CostBenefitPolicy, RunResult, VmConfig};

fn assert_send<T: Send>() {}

#[test]
fn vm_layer_crosses_threads() {
    assert_send::<Box<dyn AosPolicy>>();
    assert_send::<BaselineOnlyPolicy>();
    assert_send::<CostBenefitPolicy>();
    assert_send::<RunResult>();
    assert_send::<VmConfig>();
}
