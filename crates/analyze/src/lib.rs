//! `ratc-analyze`: determinism & protocol-surface static analysis for the
//! RATC workspace.
//!
//! Every guarantee the reproduction makes — same-seed bit-identical replays,
//! nemesis shrinking, obs schedule-invisibility, sim-vs-threads agreement —
//! rests on conventions (no wall clock, no unseeded randomness, no
//! order-dependent hash iteration, total message dispatch). This crate turns
//! those conventions into machine-checked invariants.
//!
//! The analyzer is entirely hand-rolled (lexer + lightweight item parser,
//! no dependencies) so the lint gate can never be blocked on registry
//! access.
//!
//! # Lint catalog
//!
//! Determinism lints (protocol crates: `types`, `config`, `core`, `rdma`,
//! `baseline`, `paxos`, `sim` — minus the `rt.rs` threaded engine):
//!
//! * `hash-iter` — iteration over a `HashMap`/`HashSet` (or the workspace's
//!   `FxHashMap` alias) unless the site visibly sorts or reduces
//!   order-insensitively.
//! * `float-state` — floating-point types/literals in protocol state
//!   (observability sink calls are carved out).
//!
//! Clock/thread lints (everywhere except `rt.rs` and vendor stubs):
//!
//! * `wall-clock` — `Instant::now` / `SystemTime`.
//! * `unseeded-rng` — `thread_rng` / `from_entropy` / `OsRng`.
//! * `ad-hoc-thread` — `std::thread` / `std::sync::mpsc` use.
//!
//! Protocol-surface lints (cross-file):
//!
//! * `wildcard-dispatch` — a `_ =>` (or bare-binding) arm in a match over a
//!   message enum.
//! * `missing-dispatch-arm` — a message-enum variant with no explicit arm
//!   anywhere in its owning crate.
//! * `milestone-parity` — a `TxMilestone`/`CtrlMilestone` variant not
//!   stamped by all three stacks (core, rdma, baseline; stamps in the shared
//!   `sim`/`chaos` engines count for every stack, stamps in the shared
//!   coordinator and reconfigurer `crates/core/src/{coord,recon}.rs` for
//!   core and rdma).
//!
//! Pragma hygiene:
//!
//! * `malformed-allow` — a suppression pragma with an unknown lint name or
//!   an empty justification.
//! * `unused-allow` — a well-formed pragma that suppressed nothing.
//!
//! Suppression syntax is documented in the README ("Static analysis"
//! section). A pragma names one lint and must carry a non-empty
//! justification after a colon; the `-file` form covers the whole file,
//! otherwise the pragma covers its own line (trailing form) or the next
//! code line. This crate itself is excluded from scanning — its docs and
//! fixtures are full of lint-name literals.

use std::fmt;
use std::io;
use std::path::Path;

pub mod lexer;
mod lints;
pub mod parse;

use lexer::{Comment, Tok};
use parse::{parse_enums, parse_matches, test_mod_ranges, EnumDef, MatchExpr};

/// One source file handed to the analyzer. `path` is workspace-relative
/// with forward slashes (e.g. `crates/core/src/replica.rs`) — scope rules
/// key off it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative, forward-slash path.
    pub path: String,
    /// Full file text.
    pub text: String,
}

/// The lint catalog. `name()` gives the kebab-case name used in findings
/// and pragmas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// Order-dependent `HashMap`/`HashSet` iteration in a protocol crate.
    HashIter,
    /// `Instant::now` / `SystemTime` outside the threaded engine.
    WallClock,
    /// `thread_rng` / `from_entropy` / `OsRng`.
    UnseededRng,
    /// `std::thread` / `std::sync::mpsc` outside the threaded engine.
    AdHocThread,
    /// Floating point in protocol state.
    FloatState,
    /// Wildcard arm in a match over a message enum.
    WildcardDispatch,
    /// Message-enum variant with no explicit arm in its owning crate.
    MissingDispatchArm,
    /// Milestone variant not stamped by all three stacks.
    MilestoneParity,
    /// Suppression pragma with unknown lint or empty justification.
    MalformedAllow,
    /// Suppression pragma that suppressed nothing.
    UnusedAllow,
}

impl Lint {
    /// Every lint, in severity-agnostic catalog order.
    pub const ALL: [Lint; 10] = [
        Lint::HashIter,
        Lint::WallClock,
        Lint::UnseededRng,
        Lint::AdHocThread,
        Lint::FloatState,
        Lint::WildcardDispatch,
        Lint::MissingDispatchArm,
        Lint::MilestoneParity,
        Lint::MalformedAllow,
        Lint::UnusedAllow,
    ];

    /// Kebab-case lint name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::HashIter => "hash-iter",
            Lint::WallClock => "wall-clock",
            Lint::UnseededRng => "unseeded-rng",
            Lint::AdHocThread => "ad-hoc-thread",
            Lint::FloatState => "float-state",
            Lint::WildcardDispatch => "wildcard-dispatch",
            Lint::MissingDispatchArm => "missing-dispatch-arm",
            Lint::MilestoneParity => "milestone-parity",
            Lint::MalformedAllow => "malformed-allow",
            Lint::UnusedAllow => "unused-allow",
        }
    }

    /// Parses a kebab-case lint name (pragma syntax).
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }

    /// Meta lints about pragmas themselves cannot be suppressed by pragmas.
    fn suppressible(self) -> bool {
        !matches!(self, Lint::MalformedAllow | Lint::UnusedAllow)
    }
}

/// One analyzer finding. Displays as `file:line lint-name: message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {}: {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// A file after lexing/parsing, with `#[cfg(test)] mod` bodies stripped —
/// the unit the lint passes consume.
pub(crate) struct Prepared {
    pub path: String,
    pub crate_name: Option<String>,
    /// Live (non-test) tokens.
    pub toks: Vec<Tok>,
    /// Live (non-test) line comments.
    pub comments: Vec<Comment>,
    pub enums: Vec<EnumDef>,
    pub matches: Vec<MatchExpr>,
}

/// Crates whose code is replayed protocol state: the determinism lints
/// (`hash-iter`, `float-state`) apply here.
const DETERMINISM_CRATES: [&str; 7] = [
    "types", "config", "core", "rdma", "baseline", "paxos", "sim",
];

/// The one file allowed to touch OS threads, channels and wall-clock: the
/// threaded execution engine.
const RT_ENGINE: &str = "crates/sim/src/rt.rs";

/// The three protocol stacks that must stamp every milestone.
pub(crate) const STACKS: [&str; 3] = ["core", "rdma", "baseline"];

/// Engine crates whose milestone stamps count for every stack (the sim
/// world and chaos harness stamp crash/fault lifecycle events on behalf of
/// whichever stack is running).
pub(crate) const SHARED_STAMPERS: [&str; 2] = ["sim", "chaos"];

/// The `core` files written once for several stacks, with the stacks a
/// milestone stamp in each is credited to. `core` and `rdma` both host the
/// one coordinator and the one reconfigurer, which stamp every commit-path
/// milestone and the reconfigurer's side of every reconfiguration; all three
/// are deployed by the one harness and answer to the one client, which stamp
/// a transaction's submission and the client learning its decision.
pub(crate) const SHARED_FILES: [(&str, &[&str]); 4] = [
    ("crates/core/src/coord.rs", &["core", "rdma"]),
    ("crates/core/src/recon.rs", &["core", "rdma"]),
    ("crates/core/src/harness.rs", &STACKS),
    ("crates/core/src/client.rs", &STACKS),
];

pub(crate) fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

pub(crate) fn in_determinism_scope(path: &str) -> bool {
    path != RT_ENGINE && crate_of(path).is_some_and(|c| DETERMINISM_CRATES.contains(&c))
}

pub(crate) fn in_clock_scope(path: &str) -> bool {
    path != RT_ENGINE
}

/// A parsed suppression pragma.
struct Allow {
    line: u32,
    lint: Lint,
    file_wide: bool,
    /// Line the pragma covers (pragma's own line if it trails code,
    /// otherwise the next code line). `None` for file-wide pragmas.
    target_line: Option<u32>,
    used: bool,
}

const PRAGMA: &str = "analyze:allow";

/// Parses pragmas out of a file's live comments. Malformed ones are
/// reported immediately; well-formed ones are returned for suppression.
fn parse_allows(prep: &Prepared, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &prep.comments {
        let Some(at) = c.text.find(PRAGMA) else {
            continue;
        };
        let rest = &c.text[at + PRAGMA.len()..];
        let (file_wide, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let mut malformed = |msg: &str| {
            findings.push(Finding {
                file: prep.path.clone(),
                line: c.line,
                lint: Lint::MalformedAllow,
                message: msg.to_owned(),
            });
        };
        let Some(rest) = rest.strip_prefix('(') else {
            malformed("pragma must name a lint in parentheses");
            continue;
        };
        let Some(close) = rest.find(')') else {
            malformed("unclosed lint name in pragma");
            continue;
        };
        let name = rest[..close].trim();
        let Some(lint) = Lint::from_name(name) else {
            malformed(&format!("unknown lint `{name}` in pragma"));
            continue;
        };
        if !lint.suppressible() {
            malformed(&format!("lint `{name}` cannot be suppressed"));
            continue;
        }
        let after = &rest[close + 1..];
        let Some(just) = after.strip_prefix(':') else {
            malformed("pragma must carry `: <justification>` after the lint name");
            continue;
        };
        if just.trim().is_empty() {
            malformed("pragma justification must not be empty");
            continue;
        }
        let target_line = if file_wide {
            None
        } else if prep.toks.iter().any(|t| t.line == c.line) {
            // Trailing form: covers its own line.
            Some(c.line)
        } else {
            // Standalone form: covers the next code line.
            prep.toks.iter().map(|t| t.line).find(|&l| l > c.line)
        };
        if !file_wide && target_line.is_none() {
            malformed("pragma is not followed by any code line");
            continue;
        }
        allows.push(Allow {
            line: c.line,
            lint,
            file_wide,
            target_line,
            used: false,
        });
    }
    allows
}

/// Analyzes a set of source files together (cross-file lints need the whole
/// set). Returns findings sorted by `(file, line, lint)`.
pub fn analyze_files(files: &[SourceFile]) -> Vec<Finding> {
    let preps: Vec<Prepared> = files.iter().map(prepare).collect();

    let mut findings: Vec<Finding> = Vec::new();
    for prep in &preps {
        lints::determinism(prep, &mut findings);
    }
    lints::protocol_surface(&preps, &mut findings);

    // Pragmas: parse per file, suppress matching findings, then report
    // pragmas that suppressed nothing.
    let mut all_allows: Vec<(String, Vec<Allow>)> = Vec::new();
    let mut pragma_findings: Vec<Finding> = Vec::new();
    for prep in &preps {
        let allows = parse_allows(prep, &mut pragma_findings);
        all_allows.push((prep.path.clone(), allows));
    }
    findings.retain(|f| {
        if !f.lint.suppressible() {
            return true;
        }
        let Some((_, allows)) = all_allows.iter_mut().find(|(p, _)| *p == f.file) else {
            return true;
        };
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.lint == f.lint && (a.file_wide || a.target_line == Some(f.line)) {
                a.used = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for (path, allows) in &all_allows {
        for a in allows {
            if !a.used {
                pragma_findings.push(Finding {
                    file: path.clone(),
                    line: a.line,
                    lint: Lint::UnusedAllow,
                    message: format!(
                        "pragma for `{}` suppressed nothing — remove it or fix the target",
                        a.lint.name()
                    ),
                });
            }
        }
    }
    findings.extend(pragma_findings);

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.lint,
            b.message.as_str(),
        ))
    });
    findings
}

/// Lexes and parses one file, stripping `#[cfg(test)] mod` bodies (the repo
/// keeps unit tests in such modules; test code may use clocks, threads and
/// hash iteration freely).
fn prepare(file: &SourceFile) -> Prepared {
    let lexed = lexer::lex(&file.text);
    let ranges = test_mod_ranges(&lexed.toks);
    let mut live = Vec::with_capacity(lexed.toks.len());
    let mut line_spans: Vec<(u32, u32)> = Vec::new();
    for &(a, b) in &ranges {
        if b > a {
            line_spans.push((lexed.toks[a].line, lexed.toks[b - 1].line));
        }
    }
    'tok: for (i, t) in lexed.toks.into_iter().enumerate() {
        for &(a, b) in &ranges {
            if i >= a && i < b {
                continue 'tok;
            }
        }
        live.push(t);
    }
    let comments = lexed
        .comments
        .into_iter()
        .filter(|c| !line_spans.iter().any(|&(a, b)| c.line >= a && c.line <= b))
        .collect();
    let enums = parse_enums(&live);
    let matches = parse_matches(&live);
    Prepared {
        path: file.path.clone(),
        crate_name: crate_of(&file.path).map(str::to_owned),
        toks: live,
        comments,
        enums,
        matches,
    }
}

/// Path prefixes excluded from scanning: offline vendor stubs and this tool
/// crate itself (its docs and fixtures are full of lint-name literals).
const SKIP_PREFIXES: [&str; 2] = ["crates/vendor/", "crates/analyze/"];

/// Walks the workspace at `root` and collects every `crates/*/src/**/*.rs`
/// (plus a root `src/` if present), excluding `SKIP_PREFIXES`. Files come
/// back sorted by path so analysis order is deterministic.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, root, &mut out)?;
    }
    out.retain(|f| !SKIP_PREFIXES.iter().any(|p| f.path.starts_with(p)));
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = std::fs::read_to_string(&p)?;
            out.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

/// Collects and analyzes the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_files(&collect_workspace(root)?))
}
