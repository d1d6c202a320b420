//! Criterion benchmark for the batched certification pipeline (E8): the
//! wall-clock cost of driving a fixed workload through the simulated
//! message-passing cluster as the batch size grows.
//!
//! Batching coalesces the PREPARE/ACCEPT/DECISION rounds, so larger batches
//! execute fewer simulation events per committed transaction and the run
//! finishes faster. The leader msgs/tx figures behind the speedup are
//! reported by the `exp_e8_batching` experiment binary.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ratc_core::batch::BatchingConfig;
use ratc_core::harness::{Cluster, ClusterConfig, CoreStack, TcsCluster};
use ratc_types::prelude::*;

const TX_COUNT: usize = 64;

/// Runs one batched cluster to quiescence and returns the committed count.
fn run_cluster(batch: usize) -> usize {
    let mut cluster = Cluster::new(
        CoreStack::default(),
        ClusterConfig::default()
            .with_shards(2)
            .with_seed(7)
            .with_batching(BatchingConfig::with_batch(batch)),
    );
    let coordinator = cluster.roster_of(ShardId::new(1))[1];
    for i in 0..TX_COUNT {
        let key = Key::new(format!("k{i}"));
        let payload = Payload::builder()
            .read(key.clone(), Version::ZERO)
            .write(key, Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed");
        cluster.submit_via(TxId::new(i as u64 + 1), payload, coordinator);
    }
    cluster.run_to_quiescence();
    cluster.history().committed().count()
}

fn bench_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_batching");
    for batch in [1usize, 4, 16] {
        let committed = run_cluster(batch);
        assert_eq!(committed, TX_COUNT, "all disjoint transactions commit");
        group.bench_with_input(
            BenchmarkId::new("cluster_run", batch),
            &batch,
            |b, batch| {
                b.iter(|| black_box(run_cluster(*batch)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batching);
criterion_main!(benches);
