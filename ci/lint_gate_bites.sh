#!/usr/bin/env bash
# Proves the determinism lint gate bites: appends one seeded mutation at a
# time to a scratch module at the end of ratc-core's crate root, asserts that
# `cargo clippy -p ratc-core -- -D warnings` fails and names the lint the
# mutation was written against, and restores the file. Finally checks that
# the unmodified crate passes. Run from the repository root:
#
#     ci/lint_gate_bites.sh
set -euo pipefail

root=crates/core/src/lib.rs
backup=$(mktemp)
cp "$root" "$backup"
trap 'cp "$backup" "$root"; rm -f "$backup"' EXIT

# Each entry: what clippy's report must name (the lint, or the disallowed
# method), a tab, the mutation's items.
mutations=(
    "std::time::Instant::now	pub fn stamp() -> std::time::Instant { std::time::Instant::now() }"
    "std::thread::spawn	pub fn go() { drop(std::thread::spawn(|| ())); }"
    "std::collections::HashMap::values	pub fn dump(m: &ratc_types::FxHashMap<u64, u64>) -> Vec<u64> { m.values().copied().collect() }"
    "clippy::iter_over_hash_type	pub fn fold(m: &ratc_types::FxHashMap<u64, u64>) -> u64 { let mut x = 0; for (k, v) in m { x ^= k ^ v; } x }"
    "clippy::disallowed_types	pub struct Vote { /** Its weight. */ pub weight: f64 }"
    "clippy::wildcard_enum_match_arm	pub fn kind(m: &crate::Msg) -> u8 { match m { crate::Msg::Certify { .. } => 0, _ => 1 } }"
    "clippy::wildcard_enum_match_arm	pub fn tag(m: crate::Msg) -> u8 { match m { crate::Msg::Certify { .. } => 0, other => { drop(other); 1 } } }"
    "clippy::allow_attributes_without_reason	#[allow(dead_code)] fn unused() {}"
    "unfulfilled_lint_expectations	#[expect(clippy::too_many_arguments, reason = \"nothing to expect\")] pub fn one(_: u8) {}"
)

failed=0
for entry in "${mutations[@]}"; do
    named=${entry%%$'\t'*}
    code=${entry#*$'\t'}
    cp "$backup" "$root"
    # Documented, so that ratc-core's `deny(missing_docs)` stays quiet and
    # only the lint under test can fail the build.
    printf '\n/// A seeded mutation.\npub mod gate_mutation {\n    /// A seeded mutation.\n    %s\n}\n' \
        "$code" >>"$root"
    if out=$(cargo clippy -q -p ratc-core -- -D warnings 2>&1); then
        echo "NOT CAUGHT: $code"
        failed=1
    elif grep -qF "$named" <<<"$out"; then
        echo "caught ($named): $code"
    else
        echo "FAILED WITHOUT NAMING $named: $code"
        echo "$out"
        failed=1
    fi
done

cp "$backup" "$root"
if cargo clippy -q -p ratc-core -- -D warnings; then
    echo "unmodified ratc-core: clean"
else
    echo "unmodified ratc-core: NOT clean"
    failed=1
fi
exit "$failed"
