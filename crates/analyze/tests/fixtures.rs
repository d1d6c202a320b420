//! Fixture self-tests: every known-bad snippet trips exactly its lint, and
//! the matching known-good snippet stays clean.

use ratc_analyze::{analyze_files, Finding, Lint, SourceFile};

/// Analyzes one snippet placed at `path`.
fn analyze_at(path: &str, text: &str) -> Vec<Finding> {
    analyze_files(&[SourceFile {
        path: path.to_owned(),
        text: text.to_owned(),
    }])
}

/// Analyzes a snippet in a protocol crate (determinism + clock scope).
fn analyze_protocol(text: &str) -> Vec<Finding> {
    analyze_at("crates/core/src/fixture.rs", text)
}

fn lints_of(findings: &[Finding]) -> Vec<Lint> {
    findings.iter().map(|f| f.lint).collect()
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_flags_for_loop_over_map_field() {
    let findings = analyze_protocol(
        r#"
        use std::collections::HashMap;
        struct Locks { by_key: HashMap<u64, u32> }
        impl Locks {
            fn broadcast(&self) -> Vec<u64> {
                let mut out = Vec::new();
                for (k, _) in &self.by_key { out.push(*k); }
                out
            }
        }
        "#,
    );
    assert_eq!(lints_of(&findings), vec![Lint::HashIter]);
}

#[test]
fn hash_iter_flags_values_on_let_binding() {
    let findings = analyze_protocol(
        r#"
        fn collect_all() -> Vec<u64> {
            let table = std::collections::HashMap::new();
            table.values().cloned().collect::<Vec<u64>>()
        }
        "#,
    );
    assert_eq!(lints_of(&findings), vec![Lint::HashIter]);
}

#[test]
fn hash_iter_sees_through_the_workspace_alias() {
    let findings = analyze_protocol(
        r#"
        use ratc_types::FxHashMap;
        struct Residue { newest: FxHashMap<u64, u64> }
        impl Residue {
            fn get(&self, k: u64) -> Option<u64> { self.newest.get(&k).copied() }
            fn newest_of_all(&self) -> Option<u64> { self.newest.values().copied().max() }
            fn dump(&self) -> Vec<u64> { self.newest.values().copied().collect() }
        }
        "#,
    );
    assert_eq!(lints_of(&findings), vec![Lint::HashIter], "{findings:?}");
    assert!(findings[0].message.contains("`.values()`"));
    assert_eq!(
        findings[0].line, 7,
        "`dump`, not the lookup or the reduction"
    );
}

#[test]
fn hash_iter_accepts_lookup_only_use() {
    let findings = analyze_protocol(
        r#"
        use std::collections::HashMap;
        struct Index { newest: HashMap<u64, u64> }
        impl Index {
            fn get(&self, k: u64) -> Option<u64> { self.newest.get(&k).copied() }
            fn put(&mut self, k: u64, v: u64) { self.newest.insert(k, v); }
        }
        "#,
    );
    assert!(
        findings.is_empty(),
        "lookup-only maps are fine: {findings:?}"
    );
}

#[test]
fn hash_iter_accepts_sorted_and_order_insensitive_iteration() {
    let findings = analyze_protocol(
        r#"
        use std::collections::HashMap;
        struct S { m: HashMap<u64, u64> }
        impl S {
            fn sorted_keys(&self) -> Vec<u64> {
                let mut keys: Vec<u64> = self.m.keys().copied().collect();
                keys.sort_unstable();
                keys
            }
            fn total(&self) -> u64 { self.m.values().sum() }
        }
        "#,
    );
    assert!(
        findings.is_empty(),
        "sorted/reduced iteration is fine: {findings:?}"
    );
}

#[test]
fn hash_iter_ignores_out_of_scope_crates_and_test_modules() {
    let bad = r#"
        use std::collections::HashMap;
        fn f(m: &HashMap<u64, u64>) -> Vec<u64> { m.values().copied().collect() }
    "#;
    // Out of determinism scope: the workload crate.
    assert!(analyze_at("crates/workload/src/fixture.rs", bad).is_empty());
    // In scope, but inside a #[cfg(test)] mod.
    let in_tests = format!("#[cfg(test)]\nmod tests {{ {bad} }}");
    assert!(analyze_protocol(&in_tests).is_empty());
}

// ------------------------------------------------- wall-clock / rng / thread

#[test]
fn wall_clock_flags_instant_now_and_system_time() {
    let findings = analyze_protocol(
        r#"
        fn stamp() -> std::time::Instant { std::time::Instant::now() }
        fn epoch() -> std::time::SystemTime { std::time::SystemTime::now() }
        "#,
    );
    // Instant::now once; SystemTime twice (type position and ::now).
    assert!(findings.len() >= 2);
    assert!(lints_of(&findings).iter().all(|&l| l == Lint::WallClock));
}

#[test]
fn wall_clock_exempts_the_rt_engine() {
    let findings = analyze_at(
        "crates/sim/src/rt.rs",
        "fn stamp() -> std::time::Instant { std::time::Instant::now() }",
    );
    assert!(
        findings.is_empty(),
        "rt.rs may use the wall clock: {findings:?}"
    );
}

#[test]
fn unseeded_rng_flags_thread_rng() {
    let findings = analyze_protocol("fn draw() -> u64 { rand::thread_rng().next_u64() }");
    assert_eq!(lints_of(&findings), vec![Lint::UnseededRng]);
}

#[test]
fn ad_hoc_thread_flags_spawn_and_mpsc() {
    let findings = analyze_protocol(
        r#"
        fn go() {
            let (tx, rx) = std::sync::mpsc::channel::<u64>();
            std::thread::spawn(move || tx.send(1));
            drop(rx);
        }
        "#,
    );
    assert!(findings.iter().any(|f| f.lint == Lint::AdHocThread));
    assert!(lints_of(&findings).iter().all(|&l| l == Lint::AdHocThread));
}

// -------------------------------------------------------------- float-state

#[test]
fn float_state_flags_float_fields_and_literals() {
    let findings = analyze_protocol(
        r#"
        struct Vote { weight: f64 }
        fn quorum() -> f64 { 0.5 }
        "#,
    );
    assert!(findings.iter().all(|f| f.lint == Lint::FloatState));
    assert!(findings.len() >= 2, "field type and literal both flagged");
}

#[test]
fn float_state_carves_out_observability_sinks() {
    let findings = analyze_protocol(
        r#"
        fn report(ctx: &mut Context, n: usize) {
            ctx.obs_gauge("obs_batch_occupancy", n as f64);
            ctx.record_sample("latency_ms", (n * 2) as f64);
        }
        "#,
    );
    assert!(
        findings.is_empty(),
        "obs sink floats are fine: {findings:?}"
    );
}

// -------------------------------------------------------- protocol surface

/// A minimal stack crate: an enum named `*Msg` plus a dispatch.
fn dispatch_fixture(match_body: &str) -> Vec<Finding> {
    analyze_at(
        "crates/core/src/fixture.rs",
        &format!(
            r#"
            pub enum FixMsg {{
                Certify,
                Prepare,
                Decide,
            }}
            fn dispatch(m: FixMsg) {{
                match m {{
                    {match_body}
                }}
            }}
            "#
        ),
    )
}

#[test]
fn wildcard_dispatch_flags_underscore_and_bare_binding() {
    let findings = dispatch_fixture("FixMsg::Certify => {}\n FixMsg::Prepare => {}\n _ => {}");
    assert!(findings.iter().any(|f| f.lint == Lint::WildcardDispatch));
    let findings =
        dispatch_fixture("FixMsg::Certify => {}\n FixMsg::Prepare => {}\n other => drop(other),");
    assert!(findings.iter().any(|f| f.lint == Lint::WildcardDispatch));
}

#[test]
fn missing_dispatch_arm_flags_uncovered_variant() {
    let findings = dispatch_fixture("FixMsg::Certify => {}\n FixMsg::Prepare => {}\n _ => {}");
    let missing: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == Lint::MissingDispatchArm)
        .collect();
    assert_eq!(missing.len(), 1);
    assert!(missing[0].message.contains("FixMsg::Decide"));
}

#[test]
fn explicit_or_pattern_dispatch_is_clean() {
    let findings =
        dispatch_fixture("FixMsg::Certify => {}\n FixMsg::Prepare | FixMsg::Decide => {}");
    assert!(
        findings.is_empty(),
        "explicit total dispatch is clean: {findings:?}"
    );
}

#[test]
fn dispatch_outside_owning_crate_does_not_count_as_coverage() {
    let decl = SourceFile {
        path: "crates/core/src/messages_fix.rs".to_owned(),
        text: "pub enum FixMsg { Certify, Prepare }".to_owned(),
    };
    // The owner dispatches only `Certify`; a foreign crate dispatches both.
    let own_dispatch = SourceFile {
        path: "crates/core/src/replica_fix.rs".to_owned(),
        text: "fn d(m: FixMsg) { match m { FixMsg::Certify => {} } }".to_owned(),
    };
    let foreign_dispatch = SourceFile {
        path: "crates/workload/src/probe_fix.rs".to_owned(),
        text: "fn d(m: FixMsg) { match m { FixMsg::Certify => {}, FixMsg::Prepare => {} } }"
            .to_owned(),
    };
    let findings = analyze_files(&[decl, own_dispatch, foreign_dispatch]);
    let missing: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == Lint::MissingDispatchArm)
        .collect();
    // `Prepare` is covered only outside the owning crate — still missing.
    assert_eq!(missing.len(), 1);
    assert!(missing[0].message.contains("FixMsg::Prepare"));
}

// --------------------------------------------------------- milestone parity

fn parity_files(baseline_stamps: bool, shared_stamps: bool) -> Vec<SourceFile> {
    let decl = SourceFile {
        path: "crates/obs/src/fix.rs".to_owned(),
        text: "pub enum TxMilestone { Submitted, Decided }".to_owned(),
    };
    let stamp = |krate: &str, body: &str| SourceFile {
        path: format!("crates/{krate}/src/fix.rs"),
        text: body.to_owned(),
    };
    let full = "fn s(ctx: &mut C) { ctx.m(TxMilestone::Submitted); ctx.m(TxMilestone::Decided); }";
    let partial = "fn s(ctx: &mut C) { ctx.m(TxMilestone::Submitted); }";
    let mut files = vec![
        decl,
        stamp("core", full),
        stamp("rdma", full),
        stamp("baseline", if baseline_stamps { full } else { partial }),
    ];
    if shared_stamps {
        files.push(stamp(
            "sim",
            "fn s(ctx: &mut C) { ctx.m(TxMilestone::Decided); }",
        ));
    }
    files
}

#[test]
fn milestone_parity_flags_stack_gap() {
    let findings = analyze_files(&parity_files(false, false));
    let parity: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == Lint::MilestoneParity)
        .collect();
    assert_eq!(parity.len(), 1);
    assert!(parity[0].message.contains("Decided"));
    assert!(parity[0].message.contains("baseline"));
}

#[test]
fn milestone_parity_accepts_full_or_shared_stamping() {
    assert!(analyze_files(&parity_files(true, false)).is_empty());
    // A stamp in the shared sim/chaos engines counts for every stack.
    assert!(analyze_files(&parity_files(false, true)).is_empty());
}

/// `Decided` is stamped by the baseline and otherwise only in `coord_path`.
fn coordinator_parity_files(coord_path: &str) -> Vec<SourceFile> {
    let file = |path: &str, text: &str| SourceFile {
        path: path.to_owned(),
        text: text.to_owned(),
    };
    vec![
        file(
            "crates/obs/src/fix.rs",
            "pub enum TxMilestone { Decided, Orphan }",
        ),
        file(coord_path, "fn s(c: &mut C) { c.m(TxMilestone::Decided); }"),
        file("crates/rdma/src/fix.rs", "fn nothing() {}"),
        file(
            "crates/baseline/src/fix.rs",
            "fn s(c: &mut C) { c.m(TxMilestone::Decided); }",
        ),
    ]
}

fn parity_messages(files: &[SourceFile]) -> Vec<String> {
    analyze_files(files)
        .into_iter()
        .filter(|f| f.lint == Lint::MilestoneParity)
        .map(|f| f.message)
        .collect()
}

#[test]
fn milestone_parity_credits_a_stamp_in_the_shared_coordinator_to_core_and_rdma() {
    let shared = parity_messages(&coordinator_parity_files("crates/core/src/coord.rs"));
    assert!(!shared.iter().any(|m| m.contains("Decided")), "{shared:?}");
    // The same stamp in any other core file counts for core alone.
    let elsewhere = parity_messages(&coordinator_parity_files("crates/core/src/replica.rs"));
    assert!(
        elsewhere
            .iter()
            .any(|m| m.contains("Decided") && m.contains("stack(s) rdma ")),
        "{elsewhere:?}"
    );
}

/// A `CtrlMilestone` stamped only by the shared reconfigurer satisfies core
/// and rdma; the baseline, which hosts neither shared file, still owes it
/// (in the live tree such variants carry a justified allow at their
/// declaration).
#[test]
fn milestone_parity_credits_a_stamp_in_the_shared_reconfigurer_to_core_and_rdma() {
    let file = |path: &str, text: &str| SourceFile {
        path: path.to_owned(),
        text: text.to_owned(),
    };
    let findings = parity_messages(&[
        file(
            "crates/obs/src/fix.rs",
            "pub enum CtrlMilestone { ProbeStarted }",
        ),
        file(
            "crates/core/src/recon.rs",
            "fn s(c: &mut C) { c.m(CtrlMilestone::ProbeStarted); }",
        ),
        file("crates/core/src/replica.rs", "fn nothing() {}"),
        file("crates/rdma/src/fix.rs", "fn nothing() {}"),
        file("crates/baseline/src/fix.rs", "fn nothing() {}"),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].contains("ProbeStarted") && findings[0].contains("stack(s) baseline "),
        "{findings:?}"
    );
}

/// `ClientLearned` is stamped in `stamp_path` and nowhere else.
fn client_parity_files(stamp_path: &str) -> Vec<SourceFile> {
    let file = |path: &str, text: &str| SourceFile {
        path: path.to_owned(),
        text: text.to_owned(),
    };
    vec![
        file(
            "crates/obs/src/fix.rs",
            "pub enum TxMilestone { ClientLearned }",
        ),
        file(
            stamp_path,
            "fn s(c: &mut C) { c.m(TxMilestone::ClientLearned); }",
        ),
        file("crates/rdma/src/fix.rs", "fn nothing() {}"),
        file("crates/baseline/src/fix.rs", "fn nothing() {}"),
    ]
}

/// The one client and the one deployment harness serve all three stacks: a
/// milestone only they stamp is stamped for core, rdma and baseline. Dropping
/// either file from the credit table makes its half of this test fail.
#[test]
fn milestone_parity_credits_a_stamp_in_the_shared_client_or_deployment_to_every_stack() {
    for shared in ["crates/core/src/client.rs", "crates/core/src/harness.rs"] {
        let findings = parity_messages(&client_parity_files(shared));
        assert!(findings.is_empty(), "{shared}: {findings:?}");
    }
    // The same stamp in any other core file counts for core alone.
    let elsewhere = parity_messages(&client_parity_files("crates/core/src/replica.rs"));
    assert_eq!(elsewhere.len(), 1, "{elsewhere:?}");
    assert!(
        elsewhere[0].contains("ClientLearned") && elsewhere[0].contains("stack(s) rdma, baseline "),
        "{elsewhere:?}"
    );
}

#[test]
fn milestone_parity_still_reports_a_variant_stamped_nowhere_for_all_three_stacks() {
    let findings = parity_messages(&coordinator_parity_files("crates/core/src/coord.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].contains("Orphan") && findings[0].contains("core, rdma, baseline"));
}

// ------------------------------------------------------------------ pragmas

#[test]
fn allow_pragma_suppresses_trailing_and_next_line() {
    let text = r#"
        fn stamp() -> std::time::Instant { std::time::Instant::now() } // analyze:allow(wall-clock): fixture justification
        // analyze:allow(wall-clock): fixture justification
        fn stamp2() -> std::time::Instant { std::time::Instant::now() }
    "#;
    let findings = analyze_protocol(text);
    assert!(findings.is_empty(), "both forms suppress: {findings:?}");
}

#[test]
fn allow_file_pragma_covers_whole_file() {
    let text = r#"
        // analyze:allow-file(float-state): fixture justification
        struct A { x: f64 }
        struct B { y: f32 }
    "#;
    assert!(analyze_protocol(text).is_empty());
}

#[test]
fn allow_pragma_does_not_cover_other_lines_or_lints() {
    let text = r#"
        // analyze:allow(wall-clock): fixture justification
        fn fine() {}
        fn stamp() -> std::time::Instant { std::time::Instant::now() }
    "#;
    let findings = analyze_protocol(text);
    // The pragma targeted `fn fine()`: the real finding survives, and the
    // pragma is reported as unused (findings sort by line, pragma first).
    assert_eq!(
        lints_of(&findings),
        vec![Lint::UnusedAllow, Lint::WallClock]
    );
}

#[test]
fn malformed_allow_flags_unknown_lint_and_missing_justification() {
    let unknown = "// analyze:allow(no-such-lint): why\nfn f() {}";
    let findings = analyze_protocol(unknown);
    assert_eq!(lints_of(&findings), vec![Lint::MalformedAllow]);

    let empty = "// analyze:allow(wall-clock):\nfn f() {}";
    let findings = analyze_protocol(empty);
    assert_eq!(lints_of(&findings), vec![Lint::MalformedAllow]);

    let no_colon = "// analyze:allow(wall-clock)\nfn f() {}";
    let findings = analyze_protocol(no_colon);
    assert_eq!(lints_of(&findings), vec![Lint::MalformedAllow]);
}

#[test]
fn unused_allow_is_reported() {
    let findings = analyze_protocol("// analyze:allow(hash-iter): nothing here\nfn f() {}");
    assert_eq!(lints_of(&findings), vec![Lint::UnusedAllow]);
}

#[test]
fn findings_format_as_file_line_lint_message() {
    let findings = analyze_protocol("struct A { x: f64 }");
    assert_eq!(findings.len(), 1);
    let s = findings[0].to_string();
    assert!(
        s.starts_with("crates/core/src/fixture.rs:1 float-state: "),
        "display format is file:line lint-name: message, got {s}"
    );
}
