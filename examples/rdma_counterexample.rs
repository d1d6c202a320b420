//! The Figure 4a counter-example, run under both reconfiguration modes.
//!
//! The naive per-shard reconfiguration combined with RDMA externalises
//! contradictory decisions on the scripted schedule; the correct
//! whole-system reconfiguration of §5 rejects the stale coordinator's late
//! write and keeps the history safe.
//!
//! Run with: `cargo run --example rdma_counterexample`

use ratc::rdma::ReconfigMode;
use ratc::workload::run_counterexample;

fn main() {
    println!("Figure 4a schedule, naive per-shard reconfiguration:");
    let naive = run_counterexample(ReconfigMode::NaivePerShard);
    println!("  {naive:?}");
    println!("Figure 4a schedule, correct global reconfiguration:");
    let correct = run_counterexample(ReconfigMode::GlobalCorrect);
    println!("  {correct:?}");

    assert!(naive.stale_commit_externalized && naive.client_violations > 0);
    assert!(!correct.stale_commit_externalized && correct.client_violations == 0);
    println!("\nThe naive protocol violates safety; the correct protocol does not.");
}
