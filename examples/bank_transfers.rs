//! A small banking workload on top of the RATC stacks: optimistic execution
//! in a versioned key-value store (below), certification through the
//! unified `TcsCluster` facade — so the *same* banking code runs on the
//! message-passing protocol, the RDMA protocol and the 2PC-over-Paxos
//! baseline — and an end-to-end serializability check.
//!
//! The store is the transaction-processing layer the paper's system model
//! (§2) assumes in front of the TCS: it executes a transaction optimistically
//! — reading the latest *committed* version of each key and buffering
//! writes — and turns it into the payload `⟨R, W, Vc⟩` the TCS certifies,
//! with a commit version above every version read. The writes of a committed
//! transaction are then applied, idempotently.
//!
//! Run with: `cargo run --example bank_transfers`; `cargo test --example
//! bank_transfers` runs the store's tests.

use std::collections::{BTreeMap, BTreeSet};

use ratc::harness::{ClusterSpec, StackKind, TcsCluster};
use ratc::spec::check_conflict_serializable;
use ratc::types::prelude::*;
use ratc::types::PayloadBuilder;

const ACCOUNTS: u64 = 8;
const INITIAL_BALANCE: u64 = 100;
const TRANSFERS: u64 = 40;

/// A multi-versioned, transactional key-value store.
#[derive(Debug, Clone, Default)]
struct KvStore {
    /// Per key: committed versions in ascending order.
    data: BTreeMap<Key, BTreeMap<Version, Value>>,
    /// Highest version ever committed (used to pick fresh commit versions).
    high_water: Version,
    /// Transactions whose writes have already been applied (idempotence).
    applied: BTreeSet<TxId>,
}

impl KvStore {
    /// Seeds an initial value at version 1, bypassing certification.
    fn seed(&mut self, key: Key, value: Value) {
        let version = Version::new(1);
        self.data.entry(key).or_default().insert(version, value);
        self.high_water = self.high_water.max(version);
    }

    /// The latest committed `(version, value)` of `key`, if any.
    fn read_committed(&self, key: &Key) -> Option<(Version, Value)> {
        self.data
            .get(key)
            .and_then(|versions| versions.iter().next_back())
            .map(|(v, value)| (*v, value.clone()))
    }

    /// Begins an optimistic transaction against the current committed state.
    fn begin(&self) -> OptimisticTransaction<'_> {
        OptimisticTransaction {
            store: self,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
        }
    }

    /// Applies the writes of a transaction that the TCS decided to commit.
    /// Re-applying the same transaction is a no-op, matching the idempotent
    /// upcall a replica would perform when it learns a decision more than
    /// once.
    fn apply_commit(&mut self, tx: TxId, payload: &Payload) {
        if !self.applied.insert(tx) {
            return;
        }
        let version = payload.commit_version();
        for (key, value) in payload.writes() {
            self.data
                .entry(key.clone())
                .or_default()
                .insert(version, value.clone());
        }
        self.high_water = self.high_water.max(version);
    }

    /// A commit version strictly above everything committed so far and above
    /// every version in `reads`.
    fn next_commit_version<'a>(&self, reads: impl IntoIterator<Item = &'a Version>) -> Version {
        reads
            .into_iter()
            .fold(self.high_water, |max, v| max.max(*v))
            .next()
    }
}

/// An optimistic transaction: reads go to the latest committed versions, and
/// writes are buffered until certification.
#[derive(Debug)]
struct OptimisticTransaction<'a> {
    store: &'a KvStore,
    reads: BTreeMap<Key, Version>,
    writes: BTreeMap<Key, Value>,
}

impl OptimisticTransaction<'_> {
    /// The committed version of `key` (0 for a missing key, so that a
    /// concurrent creator conflicts with the reader).
    fn committed_version(&self, key: &Key) -> Version {
        self.store
            .read_committed(key)
            .map_or(Version::ZERO, |(v, _)| v)
    }

    /// Reads the latest committed value of `key`, recording the version in the
    /// read set. Reads of keys this transaction has already written return the
    /// buffered value ("read your own writes"), still recording the committed
    /// version for certification.
    fn read(&mut self, key: Key) -> Option<Value> {
        let version = self.committed_version(&key);
        let value = match self.writes.get(&key) {
            Some(value) => Some(value.clone()),
            None => self.store.read_committed(&key).map(|(_, value)| value),
        };
        self.reads.entry(key).or_insert(version);
        value
    }

    /// Buffers a write of `value` to `key`. The key is read first (if it has
    /// not been already) so the payload satisfies the "writes ⊆ reads"
    /// requirement of §2.
    fn write(&mut self, key: Key, value: Value) {
        if !self.reads.contains_key(&key) {
            let version = self.committed_version(&key);
            self.reads.insert(key.clone(), version);
        }
        self.writes.insert(key, value);
    }

    /// Finishes optimistic execution and produces the certification payload
    /// `⟨R, W, Vc⟩`.
    fn into_payload(self) -> Result<Payload, PayloadError> {
        let commit_version = self.store.next_commit_version(self.reads.values());
        let mut builder = PayloadBuilder::default();
        for (key, version) in self.reads {
            builder = builder.read(key, version);
        }
        for (key, value) in self.writes {
            builder = builder.write(key, value);
        }
        builder.commit_version(commit_version).build()
    }
}

fn account_key(i: u64) -> Key {
    Key::new(format!("account-{i}"))
}

fn balance_of(value: &Value) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(value.as_bytes());
    u64::from_be_bytes(bytes)
}

/// Executes a transfer of `amount` from `from` to `to` optimistically (the
/// source balance floors at zero) and returns its payload.
fn transfer(store: &KvStore, from: Key, to: Key, amount: u64) -> Payload {
    let mut t = store.begin();
    let from_balance = t.read(from.clone()).map_or(0, |v| balance_of(&v));
    let to_balance = t.read(to.clone()).map_or(0, |v| balance_of(&v));
    t.write(from, Value::from(from_balance.saturating_sub(amount)));
    t.write(to, Value::from(to_balance + amount));
    t.into_payload().expect("well-formed payload")
}

/// The sum of the balances of `accounts`.
fn total_balance(store: &KvStore, accounts: impl Iterator<Item = Key>) -> u64 {
    accounts
        .filter_map(|key| store.read_committed(&key))
        .map(|(_, v)| balance_of(&v))
        .sum()
}

/// Runs the banking workload against one cluster, whatever its stack.
fn run_bank(cluster: &mut dyn TcsCluster) {
    let mut store = KvStore::default();
    for i in 0..ACCOUNTS {
        store.seed(account_key(i), Value::from(INITIAL_BALANCE));
    }

    // Execute transfers optimistically against the *current* committed state,
    // submit each for certification, apply the writes of committed ones, and
    // re-try nothing: aborted transfers are simply reported.
    let mut submitted = 0;
    for i in 0..TRANSFERS {
        let from = i % ACCOUNTS;
        let to = (i * 7 + 3) % ACCOUNTS;
        let amount = 1 + i % 5;
        let from_balance = store
            .read_committed(&account_key(from))
            .map_or(0, |(_, v)| balance_of(&v));
        if from == to || from_balance < amount {
            continue;
        }
        let tx = TxId::new(i + 1);
        let payload = transfer(&store, account_key(from), account_key(to), amount);
        cluster.submit(tx, payload.clone());
        submitted += 1;

        // Certify each transfer before executing the next one, so reads always
        // observe committed state (the §2 system model).
        cluster.run_to_quiescence();
        if cluster.history().decision(tx) == Some(Decision::Commit) {
            store.apply_commit(tx, &payload);
        }
    }

    let history = cluster.history();
    let committed = history.committed().count();
    let aborted = history.aborted().count();
    println!("transfers submitted: {submitted}");
    println!("committed: {committed}, aborted: {aborted}");

    // Conservation: the sum of all balances is unchanged.
    let total = total_balance(&store, (0..ACCOUNTS).map(account_key));
    println!(
        "total balance: {total} (expected {})",
        ACCOUNTS * INITIAL_BALANCE
    );
    assert_eq!(total, ACCOUNTS * INITIAL_BALANCE);

    // The committed history is conflict-serializable.
    let order = check_conflict_serializable(&history).expect("serializable");
    println!("serialization order has {} transactions", order.len());
}

fn main() {
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        println!("=== {stack} ===");
        let mut cluster = ClusterSpec::new(stack).with_shards(4).with_seed(11).build();
        run_bank(cluster.as_mut());
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc::core::harness::{Cluster, ClusterConfig, CoreStack};
    use ratc::core::invariants::check_cluster;
    use ratc::spec::check_history;

    fn k(name: &str) -> Key {
        Key::new(name)
    }

    #[test]
    fn seed_and_read() {
        let mut store = KvStore::default();
        store.seed(k("x"), Value::from("10"));
        let (version, value) = store.read_committed(&k("x")).expect("seeded");
        assert_eq!(version, Version::new(1));
        assert_eq!(value, Value::from("10"));
        assert!(store.read_committed(&k("missing")).is_none());
    }

    #[test]
    fn optimistic_transaction_builds_wellformed_payload() {
        let mut store = KvStore::default();
        store.seed(k("a"), Value::from("1"));
        let mut tx = store.begin();
        assert_eq!(tx.read(k("a")), Some(Value::from("1")));
        tx.write(k("a"), Value::from("2"));
        tx.write(k("b"), Value::from("9"));
        let payload = tx.into_payload().expect("well-formed");
        assert!(payload.validate().is_ok());
        assert_eq!(payload.writes().count(), 2);
        assert!(payload.commit_version() > Version::new(1));
        assert_eq!(payload.read_version(&k("a")), Some(Version::new(1)));
        assert_eq!(payload.read_version(&k("b")), Some(Version::ZERO));
    }

    #[test]
    fn read_your_own_writes() {
        let mut store = KvStore::default();
        store.seed(k("a"), Value::from("old"));
        let mut tx = store.begin();
        tx.write(k("a"), Value::from("new"));
        assert_eq!(tx.read(k("a")), Some(Value::from("new")));
        // The recorded read version is still the committed one.
        let payload = tx.into_payload().expect("well-formed");
        assert_eq!(payload.read_version(&k("a")), Some(Version::new(1)));
    }

    #[test]
    fn apply_commit_is_idempotent_and_versions_advance() {
        let mut store = KvStore::default();
        store.seed(k("x"), Value::from("1"));
        let mut tx = store.begin();
        tx.read(k("x"));
        tx.write(k("x"), Value::from("2"));
        let payload = tx.into_payload().expect("well-formed");
        store.apply_commit(TxId::new(7), &payload);
        let (v1, value1) = store.read_committed(&k("x")).expect("committed");
        assert_eq!((v1, &value1), (payload.commit_version(), &Value::from("2")));
        store.apply_commit(TxId::new(7), &payload);
        let (v2, value2) = store.read_committed(&k("x")).expect("committed");
        assert_eq!((v1, value1), (v2, value2));
        assert!(
            store.next_commit_version([]) > v2,
            "the high water advanced"
        );
    }

    #[test]
    fn missing_key_reads_are_recorded_at_version_zero() {
        let store = KvStore::default();
        let mut tx = store.begin();
        assert_eq!(tx.read(k("ghost")), None);
        let payload = tx.into_payload().expect("well-formed");
        assert_eq!(payload.read_version(&k("ghost")), Some(Version::ZERO));
    }

    #[test]
    fn next_commit_version_exceeds_reads_and_high_water() {
        let mut store = KvStore::default();
        store.seed(k("x"), Value::from("1"));
        assert!(store.next_commit_version([&Version::new(5)]) > Version::new(5));
        assert!(store.next_commit_version([]) > Version::new(1));
    }

    #[test]
    fn kv_store_over_ratc_mp_is_serializable_and_conserves_money() {
        let acct = |i: u64| Key::new(format!("acct-{i}"));
        let mut store = KvStore::default();
        for i in 0..6 {
            store.seed(acct(i), Value::from(100u64));
        }
        let mut cluster = Cluster::new(
            CoreStack,
            ClusterConfig::default().with_shards(3).with_seed(21),
        );
        for i in 0..30u64 {
            let tx = TxId::new(i + 1);
            let payload = transfer(&store, acct(i % 6), acct((i + 1) % 6), 5);
            cluster.submit(tx, payload.clone());
            cluster.run_to_quiescence();
            if cluster.history().decision(tx) == Some(Decision::Commit) {
                store.apply_commit(tx, &payload);
            }
        }
        let history = cluster.history();
        assert!(history.is_complete());
        assert!(check_history(&history, &Serializability::new()).is_empty());
        assert!(check_conflict_serializable(&history).is_ok());
        assert!(check_cluster(&cluster).is_empty());
        assert_eq!(total_balance(&store, (0..6).map(acct)), 600);
    }
}
