//! Allocations per committed transaction, pinned as a ratchet.
//!
//! A counting allocator over `System` counts the `alloc` and `realloc` calls
//! (`alloc_zeroed` goes through `alloc`), and the bytes they ask for, that
//! the test's own thread makes while a seeded Sim deployment commits
//! disjoint single-key transactions. The simulator is
//! single-threaded and every table on the commit path hashes without a seed,
//! so both counts are a function of the run: each case runs twice in-process
//! and must count alike before anything else is checked. The recorded
//! constants are a ratchet: a change may lower them, and then updates them
//! and says so; it never raises them silently.
//!
//! `cargo test -p ratc-harness --test alloc -- --nocapture` prints the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ratc_core::batch::BatchingConfig;
use ratc_harness::{ClusterSpec, StackKind};
use ratc_types::{Key, Payload, TxId, Value, Version};

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

/// Transaction `n`: read and write a key of its own.
fn disjoint(n: u64) -> (TxId, Payload) {
    let key = Key::new(format!("alloc-{n}"));
    let payload = Payload::builder()
        .read(key.clone(), Version::ZERO)
        .write(key, Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed");
    (TxId::new(n + 1), payload)
}

/// Allocations and bytes per committed transaction of `COUNTED` disjoint
/// transactions submitted after `WARM_UP` of them have committed. The
/// payloads are built before counting starts: this counts the protocol, not
/// the workload.
fn per_committed_tx(stack: StackKind, batch: usize) -> (f64, f64) {
    let mut cluster = ClusterSpec::default()
        .with_stack(stack)
        .with_seed(7)
        .with_shards(2)
        .with_batching(BatchingConfig::with_batch(batch))
        .build();
    for (tx, payload) in (0..WARM_UP).map(disjoint) {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();
    let warm = cluster.history().committed().count();
    let submissions: Vec<_> = (WARM_UP..WARM_UP + COUNTED).map(disjoint).collect();
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
    // `(stack, batch, allocations, bytes)` per committed transaction, the
    // allocations to two decimals and the bytes to the unit. The baseline's
    // debug-only differential cross-check allocates too, so it has one pair
    // of constants per build.
    let baseline = if cfg!(debug_assertions) {
        [(45.69, 19683.0), (78.67, 22869.0)]
    } else {
        [(42.79, 7499.0), (75.74, 10685.0)]
    };
    let recorded = [
        (StackKind::Core, 32, 8.94, 3406.0),
        (StackKind::Core, 1, 14.41, 6807.0),
        (StackKind::Rdma, 32, 8.83, 3423.0),
        (StackKind::Rdma, 1, 15.12, 5902.0),
        (StackKind::Baseline, 32, baseline[0].0, baseline[0].1),
        (StackKind::Baseline, 1, baseline[1].0, baseline[1].1),
    ];
    let mut measured = Vec::new();
    println!("per committed transaction, after {WARM_UP} warm-up, over {COUNTED}:");
    for (stack, batch, _, _) in recorded {
        let first = per_committed_tx(stack, batch);
        assert_eq!(
            first,
            per_committed_tx(stack, batch),
            "{stack}, batch {batch}"
        );
        let (allocations, bytes) = first;
        let name = stack.to_string();
        println!("{name:>9}  batch {batch:>2}  {allocations:6.2} allocations  {bytes:6.0} bytes");
        measured.push((
            stack,
            batch,
            (allocations * 100.0).round() / 100.0,
            bytes.round(),
        ));
    }
    assert_eq!(measured, recorded);
}
