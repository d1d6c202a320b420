//! The lint passes: per-file determinism lints and cross-file
//! protocol-surface lints. All passes work over the test-stripped token
//! streams produced in [`crate::prepare`].

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::lexer::{Tok, TokKind};
use crate::parse::{arm_is_wildcard, arm_variant_paths};
use crate::{
    in_clock_scope, in_determinism_scope, Finding, Lint, Prepared, SHARED_FILES, SHARED_STAMPERS,
    STACKS,
};

/// The identifiers that name a hash-ordered collection: `std`'s two and the
/// workspace's alias over its own hasher (`ratc_types::FxHashMap`), which has
/// no per-process seed but still iterates in an order no protocol may rely on.
const HASH_TYPES: [&str; 3] = ["HashMap", "HashSet", "FxHashMap"];

/// Methods on a hash-ordered collection whose result order depends on hash
/// state.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Identifiers that, seen shortly after an iteration site, prove the order
/// is re-established (sorting, collecting into an ordered map) or that the
/// reduction is order-insensitive.
const ORDER_OK: [&str; 15] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "count",
    "sum",
    "min",
    "max",
    "all",
    "any",
];

/// How far (in tokens) past an iteration site to look for [`ORDER_OK`]
/// evidence. Deliberately spans statement boundaries so the common
/// `let mut v: Vec<_> = m.keys().collect(); v.sort();` shape is recognized.
const ORDER_LOOKAHEAD: usize = 40;

/// Observability sink calls: floats flowing into these never re-enter
/// protocol state (metrics are recorded out-of-band and are
/// schedule-invisible per the PR 8 tests), so `float-state` carves out any
/// statement that mentions one.
const OBS_SINKS: [&str; 3] = ["obs_gauge", "record_sample", "record_ctrl_gauge"];

/// Per-file determinism lints: `hash-iter`, `float-state`, `wall-clock`,
/// `unseeded-rng`, `ad-hoc-thread`.
pub(crate) fn determinism(prep: &Prepared, findings: &mut Vec<Finding>) {
    if in_clock_scope(&prep.path) {
        clock_lints(prep, findings);
    }
    if in_determinism_scope(&prep.path) {
        hash_iter(prep, findings);
        float_state(prep, findings);
    }
}

fn push(findings: &mut Vec<Finding>, prep: &Prepared, line: u32, lint: Lint, message: String) {
    findings.push(Finding {
        file: prep.path.clone(),
        line,
        lint,
        message,
    });
}

/// `wall-clock`, `unseeded-rng`, `ad-hoc-thread`: straightforward token
/// patterns. The threaded engine (`rt.rs`) and vendor stubs are out of
/// scope by construction.
fn clock_lints(prep: &Prepared, findings: &mut Vec<Finding>) {
    let t = &prep.toks;
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.kind != TokKind::Ident {
            continue;
        }
        let followed_by_path = t.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && t.get(i + 2).is_some_and(|a| a.is_punct(':'));
        match tok.text.as_str() {
            "Instant" if followed_by_path && t.get(i + 3).is_some_and(|a| a.is_ident("now")) => {
                push(
                    findings,
                    prep,
                    tok.line,
                    Lint::WallClock,
                    "`Instant::now` reads the wall clock; protocol code must use sim time"
                        .to_owned(),
                );
            }
            "SystemTime" => {
                push(
                    findings,
                    prep,
                    tok.line,
                    Lint::WallClock,
                    "`SystemTime` reads the wall clock; protocol code must use sim time".to_owned(),
                );
            }
            "thread_rng" | "from_entropy" | "OsRng" => {
                push(
                    findings,
                    prep,
                    tok.line,
                    Lint::UnseededRng,
                    format!(
                        "`{}` draws OS entropy; all randomness must come from the seeded \
                         ChaCha stream",
                        tok.text
                    ),
                );
            }
            "thread" if followed_by_path => {
                push(
                    findings,
                    prep,
                    tok.line,
                    Lint::AdHocThread,
                    "`std::thread` outside the rt.rs engine breaks single-threaded determinism"
                        .to_owned(),
                );
            }
            "mpsc" => {
                push(
                    findings,
                    prep,
                    tok.line,
                    Lint::AdHocThread,
                    "`std::sync::mpsc` outside the rt.rs engine breaks single-threaded \
                     determinism"
                        .to_owned(),
                );
            }
            _ => {}
        }
    }
}

/// Collects the identifiers a file binds to one of [`HASH_TYPES`] — struct
/// fields and annotated bindings (`name: HashMap<…>`) plus constructor
/// bindings (`let name = HashMap::new()`), then flags iteration over them
/// unless [`ORDER_OK`] evidence follows within [`ORDER_LOOKAHEAD`] tokens.
fn hash_iter(prep: &Prepared, findings: &mut Vec<Finding>) {
    let t = &prep.toks;
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident || !HASH_TYPES.contains(&t[i].text.as_str()) {
            continue;
        }
        // Walk back over a leading path (`std :: collections ::`).
        let mut j = i;
        while j >= 2 && t[j - 1].is_punct(':') && t[j - 2].is_punct(':') {
            j -= 2;
            if j >= 1 && t[j - 1].kind == TokKind::Ident {
                j -= 1;
            }
        }
        if j == 0 {
            continue;
        }
        // `name : HashMap` (field / annotated binding). Requiring an ident
        // before the `:` also rules out the second half of a `::` path.
        if j >= 2 && t[j - 1].is_punct(':') && t[j - 2].kind == TokKind::Ident {
            names.insert(&t[j - 2].text);
            continue;
        }
        // `name = HashMap :: …` (constructor binding).
        if t[j - 1].is_punct('=') && j >= 2 && t[j - 2].kind == TokKind::Ident {
            names.insert(&t[j - 2].text);
        }
    }
    if names.is_empty() {
        return;
    }

    let order_ok_after = |from: usize| -> bool {
        t[from..]
            .iter()
            .take(ORDER_LOOKAHEAD)
            .any(|x| x.kind == TokKind::Ident && ORDER_OK.contains(&x.text.as_str()))
    };

    for i in 0..t.len() {
        // `name . method (` where name is hash-bound and method iterates.
        if t[i].kind == TokKind::Ident
            && names.contains(t[i].text.as_str())
            && t.get(i + 1).is_some_and(|a| a.is_punct('.'))
            && t.get(i + 2).is_some_and(|a| {
                a.kind == TokKind::Ident && ITER_METHODS.contains(&a.text.as_str())
            })
            && t.get(i + 3).is_some_and(|a| a.is_punct('('))
        {
            if !order_ok_after(i + 3) {
                push(
                    findings,
                    prep,
                    t[i].line,
                    Lint::HashIter,
                    format!(
                        "iteration over hash-ordered `{}` (`.{}()`) is \
                         schedule-order-dependent; sort, use a BTree map, or justify",
                        t[i].text,
                        t[i + 2].text
                    ),
                );
            }
            continue;
        }
        // `for pat in [&][mut] …name {` — direct for-loop over the map.
        if t[i].is_ident("for") {
            // Find the matching `in` at depth 0, then the loop body `{`.
            let mut depth = 0i32;
            let mut in_at = None;
            for (k, x) in t.iter().enumerate().skip(i + 1).take(64) {
                if x.is_punct('(') || x.is_punct('[') {
                    depth += 1;
                } else if x.is_punct(')') || x.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && x.is_ident("in") {
                    in_at = Some(k);
                    break;
                }
            }
            let Some(in_at) = in_at else { continue };
            let mut body_at = None;
            let mut d = 0i32;
            for (k, x) in t.iter().enumerate().skip(in_at + 1).take(64) {
                if x.is_punct('(') || x.is_punct('[') {
                    d += 1;
                } else if x.is_punct(')') || x.is_punct(']') {
                    d -= 1;
                } else if d == 0 && x.is_punct('{') {
                    body_at = Some(k);
                    break;
                }
            }
            let Some(body_at) = body_at else { continue };
            let seg = &t[in_at + 1..body_at];
            // Method-call iterables are handled by the rule above.
            if seg.iter().any(|x| x.is_punct('(')) {
                continue;
            }
            let Some(last_ident) = seg.iter().rev().find(|x| x.kind == TokKind::Ident) else {
                continue;
            };
            if names.contains(last_ident.text.as_str()) {
                push(
                    findings,
                    prep,
                    t[i].line,
                    Lint::HashIter,
                    format!(
                        "`for … in {}` iterates a hash-ordered collection in hash order; \
                         sort, use a BTree map, or justify",
                        last_ident.text
                    ),
                );
            }
        }
    }
}

/// Flags floating-point type tokens and literals in protocol state, except
/// inside statements that feed an observability sink ([`OBS_SINKS`]).
fn float_state(prep: &Prepared, findings: &mut Vec<Finding>) {
    let t = &prep.toks;
    let is_stmt_boundary = |x: &Tok| x.is_punct(';') || x.is_punct('{') || x.is_punct('}');
    for i in 0..t.len() {
        let tok = &t[i];
        let is_float = match tok.kind {
            TokKind::Ident => tok.text == "f64" || tok.text == "f32",
            TokKind::Num => {
                let s = tok.text.as_str();
                !s.starts_with("0x")
                    && (s.contains('.')
                        || s.ends_with("f64")
                        || s.ends_with("f32")
                        || s.contains("e-")
                        || s.contains("e+")
                        || s.contains("E-")
                        || s.contains("E+"))
            }
            _ => false,
        };
        if !is_float {
            continue;
        }
        // Statement region: back to the nearest boundary, forward likewise.
        let start = (0..i)
            .rev()
            .find(|&k| is_stmt_boundary(&t[k]))
            .map_or(0, |k| k + 1);
        let end = (i..t.len())
            .find(|&k| is_stmt_boundary(&t[k]))
            .unwrap_or(t.len());
        let feeds_sink = t[start..end]
            .iter()
            .any(|x| x.kind == TokKind::Ident && OBS_SINKS.contains(&x.text.as_str()));
        if !feeds_sink {
            push(
                findings,
                prep,
                tok.line,
                Lint::FloatState,
                format!(
                    "floating point (`{}`) in protocol state is not replay-stable across \
                     platforms; use integers or justify",
                    tok.text
                ),
            );
        }
    }
}

/// Cross-file protocol-surface lints: `wildcard-dispatch`,
/// `missing-dispatch-arm`, `milestone-parity`.
pub(crate) fn protocol_surface(preps: &[Prepared], findings: &mut Vec<Finding>) {
    // Message enums: any `*Msg` enum declared in a scanned crate. Key:
    // enum name → (owning crate, declaring file path, variants).
    struct MsgEnum<'a> {
        owner: String,
        decl_file: &'a str,
        variants: Vec<(String, u32)>,
    }
    let mut msg_enums: BTreeMap<&str, MsgEnum<'_>> = BTreeMap::new();
    for prep in preps {
        let Some(crate_name) = &prep.crate_name else {
            continue;
        };
        for e in &prep.enums {
            if e.name.ends_with("Msg") {
                msg_enums.insert(
                    &e.name,
                    MsgEnum {
                        owner: crate_name.clone(),
                        decl_file: &prep.path,
                        variants: e
                            .variants
                            .iter()
                            .map(|v| (v.name.clone(), v.line))
                            .collect(),
                    },
                );
            }
        }
    }

    // Walk every match everywhere: attribute it to a message enum when any
    // arm pattern references `ThatEnum::…`.
    let mut covered: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for prep in preps {
        for m in &prep.matches {
            let mut enums_here: BTreeSet<&str> = BTreeSet::new();
            for arm in &m.arms {
                for (e, _) in arm_variant_paths(arm) {
                    if let Some((k, _)) = msg_enums.get_key_value(e.as_str()) {
                        enums_here.insert(k);
                    }
                }
            }
            if enums_here.is_empty() {
                continue;
            }
            for arm in &m.arms {
                if arm_is_wildcard(arm) {
                    let names: Vec<&str> = enums_here.iter().copied().collect();
                    findings.push(Finding {
                        file: prep.path.clone(),
                        line: arm.line,
                        lint: Lint::WildcardDispatch,
                        message: format!(
                            "wildcard arm in a dispatch over `{}`: new variants would be \
                             silently swallowed — list every no-op variant explicitly",
                            names.join("`/`")
                        ),
                    });
                }
                for (e, v) in arm_variant_paths(arm) {
                    if let Some(info) = msg_enums.get(e.as_str()) {
                        // Only dispatches inside the owning crate count as
                        // stack coverage.
                        if prep.crate_name.as_deref() == Some(info.owner.as_str()) {
                            covered
                                .entry((e.clone(), info.owner.clone()))
                                .or_default()
                                .insert(v);
                        }
                    }
                }
            }
        }
    }

    for (name, info) in &msg_enums {
        let empty = BTreeSet::new();
        let got = covered
            .get(&((*name).to_owned(), info.owner.clone()))
            .unwrap_or(&empty);
        // A declaration with no dispatch at all in its crate is a fixture
        // or pure data definition; only enforce coverage once the crate
        // dispatches the enum somewhere.
        if got.is_empty() {
            continue;
        }
        for (v, line) in &info.variants {
            if !got.contains(v) {
                findings.push(Finding {
                    file: info.decl_file.to_owned(),
                    line: *line,
                    lint: Lint::MissingDispatchArm,
                    message: format!(
                        "`{name}::{v}` has no explicit arm in any `crates/{}` dispatch",
                        info.owner
                    ),
                });
            }
        }
    }

    milestone_parity(preps, findings);
}

/// `milestone-parity`: every `TxMilestone`/`CtrlMilestone` variant must be
/// stamped (referenced outside tests) by each of the three stacks. Stamps
/// in shared engine crates ([`SHARED_STAMPERS`]) count for every stack, and
/// stamps in a file written once for several stacks ([`SHARED_FILES`]) for
/// each of those stacks.
fn milestone_parity(preps: &[Prepared], findings: &mut Vec<Finding>) {
    for enum_name in ["TxMilestone", "CtrlMilestone"] {
        let Some((decl_file, variants)) = preps.iter().find_map(|p| {
            p.enums
                .iter()
                .find(|e| e.name == enum_name)
                .map(|e| (p.path.clone(), e.variants.clone()))
        }) else {
            continue;
        };

        // Which crates mention `Enum::Variant` outside tests?
        let mut stamped_in: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for prep in preps {
            let Some(crate_name) = prep.crate_name.as_deref() else {
                continue;
            };
            if !STACKS.contains(&crate_name) && !SHARED_STAMPERS.contains(&crate_name) {
                continue;
            }
            let own = [crate_name];
            let credited: &[&str] = SHARED_FILES
                .iter()
                .find(|(file, _)| *file == prep.path)
                .map_or(&own, |(_, stacks)| stacks);
            let t = &prep.toks;
            for i in 0..t.len() {
                if t[i].is_ident(enum_name)
                    && t.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && t.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && t.get(i + 3).is_some_and(|a| a.kind == TokKind::Ident)
                {
                    for stack in credited {
                        stamped_in
                            .entry(*stack)
                            .or_default()
                            .insert(t[i + 3].text.clone());
                    }
                }
            }
        }

        let empty = BTreeSet::new();
        for v in &variants {
            let shared = SHARED_STAMPERS
                .iter()
                .any(|c| stamped_in.get(c).unwrap_or(&empty).contains(&v.name));
            let missing: Vec<&str> = STACKS
                .iter()
                .copied()
                .filter(|s| !shared && !stamped_in.get(s).unwrap_or(&empty).contains(&v.name))
                .collect();
            if !missing.is_empty() {
                findings.push(Finding {
                    file: decl_file.clone(),
                    line: v.line,
                    lint: Lint::MilestoneParity,
                    message: format!(
                        "`{enum_name}::{}` is not stamped by stack(s) {} — cross-stack \
                         observability parity requires all of core/rdma/baseline",
                        v.name,
                        missing.join(", ")
                    ),
                });
            }
        }
    }
}
