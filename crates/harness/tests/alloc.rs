//! Allocations per committed transaction, pinned as a ratchet.
//!
//! A counting allocator over `System` counts the `alloc` and `realloc` calls
//! (`alloc_zeroed` goes through `alloc`), and the bytes they ask for, that
//! the test's own thread makes while a seeded Sim deployment commits
//! disjoint transactions: single-key ones, and 4-key ones whose keys span
//! both shards (their placement, multi-shard progress and the fan-out to
//! both leaders). The simulator is
//! single-threaded and every table on the commit path hashes without a seed,
//! so both counts are a function of the run: each case runs twice in-process,
//! on a thread of its own (the cases run in parallel), and must count alike
//! before anything else is checked. A second table
//! counts the payload footprint: building a payload, and placing one on its
//! shards. The recorded constants are a ratchet: a change may lower them,
//! and then updates them and says so; it never raises them silently.
//!
//! `cargo test -p ratc-harness --test alloc -- --nocapture` prints the
//! tables.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ratc_core::batch::BatchingConfig;
use ratc_harness::{ClusterSpec, StackKind};
use ratc_types::sharding::{HashSharding, ShardMap};
use ratc_types::{Key, Payload, ShardId, TxId, Value, Version};

thread_local! {
    /// `(calls, bytes)` while this thread counts, `None` otherwise.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // A thread being torn down has no locals left and counts nothing.
    let _ = COUNTS.try_with(|counts| {
        if let Some((calls, total)) = counts.get() {
            counts.set(Some((calls + 1, total + bytes as u64)));
        }
    });
}

/// `System`, counting.
struct Counting;

// SAFETY: every method passes its caller's arguments to the same method of
// `System` unchanged and returns its result, so `System` upholds the
// contract; the counting beside it touches only a const-initialised
// thread-local `Cell`, which neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout`, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread asks for while `run` runs.
fn counted(run: impl FnOnce()) -> (u64, u64) {
    COUNTS.with(|counts| counts.set(Some((0, 0))));
    run();
    COUNTS.with(Cell::take).expect("counting")
}

const WARM_UP: u64 = 1_000;
const COUNTED: u64 = 4_000;

/// The shards of the deployments measured here.
const SHARDS: u32 = 2;

/// Transaction `n`, reading and writing keys of its own: one key, or four
/// keys, two on each shard.
fn disjoint(n: u64, spanning: bool) -> (TxId, Payload) {
    (TxId::new(n + 1), payload_of(keys_of(n, spanning)))
}

/// The keys of transaction `n`: one, or four, two on each shard.
fn keys_of(n: u64, spanning: bool) -> Vec<Key> {
    if spanning {
        let sharding = HashSharding::new(SHARDS);
        let candidates = (0..).map(|i| Key::new(format!("alloc-{n}-{i}")));
        let on = |shard: u32| {
            candidates
                .clone()
                .filter(move |key| sharding.shard_of(key) == ShardId::new(shard))
                .take(2)
        };
        on(0).chain(on(1)).collect()
    } else {
        vec![Key::new(format!("alloc-{n}"))]
    }
}

/// A payload reading and writing `keys`.
fn payload_of(keys: Vec<Key>) -> Payload {
    let mut payload = Payload::builder();
    for key in keys {
        payload = payload
            .read(key.clone(), Version::ZERO)
            .write(key, Value::from("v"));
    }
    payload
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

/// Allocations and bytes per committed transaction of `COUNTED` disjoint
/// transactions submitted after `WARM_UP` of them have committed. The
/// payloads are built before counting starts: this counts the protocol, not
/// the workload.
fn per_committed_tx(stack: StackKind, batch: usize, spanning: bool) -> (f64, f64) {
    let mut cluster = ClusterSpec::new(stack)
        .with_seed(7)
        .with_shards(SHARDS)
        .with_batching(BatchingConfig::with_batch(batch))
        .build();
    for (tx, payload) in (0..WARM_UP).map(|n| disjoint(n, spanning)) {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();
    let warm = cluster.history().committed().count();
    let submissions: Vec<_> = (WARM_UP..WARM_UP + COUNTED)
        .map(|n| disjoint(n, spanning))
        .collect();
    let (allocations, bytes) = counted(|| {
        for (tx, payload) in submissions {
            cluster.submit(tx, payload);
        }
        cluster.run_to_quiescence();
    });
    let committed = (cluster.history().committed().count() - warm) as u64;
    assert_eq!(committed, COUNTED, "{stack}: every transaction commits");
    let per_tx = |count: u64| count as f64 / committed as f64;
    (per_tx(allocations), per_tx(bytes))
}

#[test]
fn allocations_per_committed_transaction_hold_their_recorded_constants() {
    // `(stack, batch, spanning, allocations, bytes)` per committed
    // transaction, the allocations to two decimals and the bytes to the
    // unit. Every stack votes through its index alone, so one table holds in
    // debug and release builds.
    let recorded = [
        (StackKind::Core, 32, false, 4.23, 1695.0),
        (StackKind::Core, 1, false, 6.07, 1837.0),
        (StackKind::Rdma, 32, false, 5.13, 1719.0),
        (StackKind::Rdma, 1, false, 8.93, 1977.0),
        (StackKind::Baseline, 32, false, 5.45, 1700.0),
        (StackKind::Baseline, 1, false, 23.91, 4100.0),
        (StackKind::Core, 32, true, 11.43, 3216.0),
        (StackKind::Core, 1, true, 13.14, 3354.0),
        (StackKind::Rdma, 32, true, 13.04, 3247.0),
        (StackKind::Rdma, 1, true, 18.85, 3640.0),
        (StackKind::Baseline, 32, true, 9.84, 2867.0),
        (StackKind::Baseline, 1, true, 38.01, 6313.0),
    ];
    // The counters are per thread, so each case runs on a thread of its own,
    // both of its deployments one after the other, and the cases in parallel.
    #[expect(
        clippy::disallowed_methods,
        reason = "each case's Sim deployments run whole on one test thread; the threads only run cases side by side"
    )]
    let counts = std::thread::scope(|scope| {
        let cases = recorded.map(|(stack, batch, spanning, _, _)| {
            scope.spawn(move || {
                let first = per_committed_tx(stack, batch, spanning);
                assert_eq!(
                    first,
                    per_committed_tx(stack, batch, spanning),
                    "{stack}, batch {batch}, spanning {spanning}"
                );
                first
            })
        });
        let joined = cases.map(|case| case.join());
        joined.map(|case| case.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    });
    let mut measured = Vec::new();
    println!("per committed transaction, after {WARM_UP} warm-up, over {COUNTED}:");
    for ((stack, batch, spanning, _, _), (allocations, bytes)) in recorded.into_iter().zip(counts) {
        let name = stack.to_string();
        let keys = if spanning {
            "4 keys, 2 shards"
        } else {
            "1 key"
        };
        println!(
            "{name:>9}  batch {batch:>2}  {keys:<16}  {allocations:6.2} allocations  {bytes:6.0} bytes"
        );
        measured.push((
            stack,
            batch,
            spanning,
            (allocations * 100.0).round() / 100.0,
            bytes.round(),
        ));
    }
    assert_eq!(measured, recorded);
}

#[test]
fn a_payload_and_its_placement_hold_their_recorded_footprint() {
    // `(what, keys, allocations, bytes)`: building a payload from its keys
    // (a value each included), and placing the 4-key one on both shards,
    // which a coordinator does once per transaction.
    let recorded = [
        ("build", 1, 6, 377),
        ("build", 4, 7, 316),
        ("place on 2 shards", 4, 3, 144),
    ];
    let sharding = HashSharding::new(SHARDS);
    let mut measured = Vec::new();
    println!("per payload:");
    for (what, keys, _, _) in recorded {
        let chosen = keys_of(0, keys > 1);
        let (mut payload, mut placement) = (None, None);
        let counts = match what {
            "build" => counted(|| payload = Some(payload_of(chosen))),
            _ => {
                let payload = payload_of(chosen);
                counted(|| placement = Some(payload.place(&sharding)))
            }
        };
        assert!(placement.is_none_or(|placed| placed.len() == 2), "{what}");
        let (allocations, bytes) = counts;
        let noun = if keys == 1 { "key " } else { "keys" };
        println!("{what:>17}  {keys} {noun}  {allocations:3} allocations  {bytes:4} bytes");
        measured.push((what, keys, allocations, bytes));
    }
    assert_eq!(measured, recorded);
}
