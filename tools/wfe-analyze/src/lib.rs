//! `wfe-analyze` — reclamation-aware static analysis for the WFE workspace.
//!
//! The suite's safety argument (wait-free bounded reclamation) rests on
//! invariants that ordinary tests cannot see: every synchronization site must
//! go through the `wfe-sync` interposition layer or the `--cfg wfe_model`
//! checker silently skips it; every weakened memory ordering is a proof
//! obligation; every `unsafe` block is a contract; and every data structure's
//! `REQUIRED_SLOTS` must equal the shields its widest operation actually
//! leases; and which shared words sit on one cache line is a decision, not an
//! accident of field order. This tool walks every `.rs` file under `crates/`,
//! `src/` and `tests/` of the workspace and enforces exactly those five rules
//! — see [`rules`] for the inventory and the allow-marker grammar.
//!
//! It is deliberately dependency-free (a hand-rolled [`lexer`], no `syn`):
//! the build container has no network, and the analyzer must never be the
//! thing that keeps the workspace from building.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod rules;
pub mod spans;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{OrderSite, ShieldAudit, Violation};

/// What to analyze and how.
pub struct Config {
    /// Workspace root; `crates/`, `src/` and `tests/` under it are scanned.
    pub root: PathBuf,
}

/// The outcome of one analysis run.
pub struct Report {
    /// All rule violations, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Every weak-ordering site found in shipped code (the ledger's rows).
    pub order_sites: Vec<OrderSite>,
    /// Shield-budget audit, one row per structure with a literal
    /// `REQUIRED_SLOTS`.
    pub audits: Vec<ShieldAudit>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Renders the ordering ledger for `docs/ORDERINGS.md`.
    pub fn ledger(&self) -> String {
        rules::render_ledger(&self.order_sites)
    }

    /// True when `docs/ORDERINGS.md` under `root` matches this report's
    /// ledger byte for byte.
    pub fn ledger_is_fresh(&self, root: &Path) -> bool {
        fs::read_to_string(root.join("docs/ORDERINGS.md"))
            .map(|on_disk| on_disk == self.ledger())
            .unwrap_or(false)
    }
}

/// The directories scanned, relative to the workspace root.
const SCAN_ROOTS: [&str; 3] = ["crates", "src", "tests"];

/// Runs the analysis over the workspace at `config.root`.
pub fn run(config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&config.root.join(dir), &mut files)?;
    }
    files.sort();

    let mut report = Report {
        violations: Vec::new(),
        order_sites: Vec::new(),
        audits: Vec::new(),
        files_scanned: files.len(),
    };
    for path in &files {
        let rel = path
            .strip_prefix(&config.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        let lexed = lexer::lex(&src);
        let tests = spans::test_spans(&lexed.toks);
        rules::check_atomics_hygiene(&rel, &lexed, &tests, &mut report.violations);
        rules::check_safety_coverage(&rel, &lexed, &mut report.violations);
        rules::check_orderings(
            &rel,
            &lexed,
            &tests,
            &mut report.order_sites,
            &mut report.violations,
        );
        rules::check_shield_budget(
            &rel,
            &lexed,
            &tests,
            &mut report.audits,
            &mut report.violations,
        );
        rules::check_shared_lines(&rel, &lexed, &tests, &mut report.violations);
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Recursively collects `.rs` files under `dir` (which may not exist —
/// fixture trees do not always have all three scan roots).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `target/` never holds sources we own.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking upward from `start` until a
/// `Cargo.toml` containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
