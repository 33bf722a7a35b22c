//! The fixture corpus: one passing and one failing tree per rule.
//!
//! Each fixture directory under `tests/fixtures/` is a miniature workspace
//! root (the analyzer scans `crates/`, `src/` and `tests/` beneath it), so
//! these tests exercise the whole pipeline — file walk, lexer, comment
//! attachment, rules, ledger rendering — not individual functions. The `.rs`
//! files inside the fixtures are data, not code: cargo never compiles them,
//! and they reference types (`Handle`, `wfe_sync`) that only exist in the
//! real workspace.

use std::path::PathBuf;

use wfe_analyze::{run, Config, Report};

fn fixture_root(fixture: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture)
}

fn analyze(fixture: &str) -> Report {
    run(&Config {
        root: fixture_root(fixture),
    })
    .expect("fixture tree is readable")
}

/// The violations as compact `(rule, file, line)` triples.
fn triples(report: &Report) -> Vec<(&str, &str, usize)> {
    report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect()
}

// ---------------------------------------------------------------------------
// Rule 1: atomics hygiene
// ---------------------------------------------------------------------------

#[test]
fn raw_atomic_pass() {
    let report = analyze("raw_atomic/pass");
    // Both escape hatches hold: the `crates/sync` exemption and the
    // allow-marker on the FFI type alias.
    assert_eq!(report.files_scanned, 2);
    assert_eq!(triples(&report), vec![]);
}

#[test]
fn raw_atomic_fail() {
    let report = analyze("raw_atomic/fail");
    assert_eq!(
        triples(&report),
        vec![
            ("raw-atomic", "src/lib.rs", 3),
            ("raw-atomic", "src/lib.rs", 11),
        ]
    );
    // The message says which world the site lives in, so deliberate oracle
    // atomics in tests can be marker-allowed with a clear conscience.
    assert!(report.violations[0].message.contains("shipped code"));
    assert!(report.violations[1].message.contains("test code"));
}

// ---------------------------------------------------------------------------
// Rule 2: SAFETY coverage
// ---------------------------------------------------------------------------

#[test]
fn safety_pass() {
    // `# Safety` doc section on the decl, `// SAFETY:` on the block and the
    // impl, allow-marker on the exempt fn: all four styles satisfy the rule.
    let report = analyze("safety/pass");
    assert_eq!(triples(&report), vec![]);
}

#[test]
fn safety_fail() {
    let report = analyze("safety/fail");
    assert_eq!(
        triples(&report),
        vec![
            ("undocumented-unsafe", "src/lib.rs", 5),
            ("undocumented-unsafe", "src/lib.rs", 10),
            ("undocumented-unsafe", "src/lib.rs", 13),
        ]
    );
    // Declarations are offered the `# Safety` alternative; blocks are not.
    assert!(report.violations[0].message.contains("# Safety"));
    assert!(!report.violations[1].message.contains("# Safety"));
}

// ---------------------------------------------------------------------------
// Rule 3: ordering ledger
// ---------------------------------------------------------------------------

#[test]
fn ordering_pass() {
    let report = analyze("ordering/pass");
    assert_eq!(triples(&report), vec![]);
    // Six sites reach the ledger (the test-module Relaxed pair does not),
    // the walk-up attaches the trailing AcqRel comment to the failure
    // ordering on the line below it, and the CAS over `len()` arguments is
    // named `compare_exchange`, not `len`.
    let rows: Vec<(usize, &str, &str)> = report
        .order_sites
        .iter()
        .map(|s| (s.line, s.op.as_str(), s.ordering.as_str()))
        .collect();
    assert_eq!(
        rows,
        vec![
            (7, "store", "Release"),
            (12, "load", "Acquire"),
            (19, "compare_exchange", "AcqRel"),
            (20, "compare_exchange", "Acquire"),
            (27, "compare_exchange", "AcqRel"),
            (27, "compare_exchange", "Acquire"),
        ]
    );
    assert!(report.order_sites.iter().all(|s| s.justification.is_some()));
    assert!(report
        .ledger()
        .contains("6 weak-ordering sites, 0 unjustified"));
}

#[test]
fn ordering_fail() {
    let report = analyze("ordering/fail");
    // The naked Relaxed is a violation; the marker-allowed shim is not —
    // but both are ledger rows, and both rows read as unjustified.
    assert_eq!(
        triples(&report),
        vec![("unjustified-ordering", "src/lib.rs", 6)]
    );
    assert_eq!(report.order_sites.len(), 2);
    let ledger = report.ledger();
    assert!(ledger.contains("**(unjustified)**"));
    assert!(ledger.contains("2 weak-ordering sites, 2 unjustified"));
    // No docs/ORDERINGS.md in the fixture tree: the freshness check must
    // report stale rather than erroring.
    assert!(!report.ledger_is_fresh(&fixture_root("ordering/fail")));
}

// ---------------------------------------------------------------------------
// Rule 4: shield-budget audit
// ---------------------------------------------------------------------------

#[test]
fn shield_budget_pass() {
    let report = analyze("shield_budget/pass");
    assert_eq!(triples(&report), vec![]);
    let audit = &report.audits[0];
    assert_eq!((audit.declared, audit.computed), (3, 3));
    // All three counting modes contribute: two direct leases + a same-file
    // helper (get = 3), a lease-closure invoked twice (insert = 2), and the
    // helper itself (1).
    assert_eq!(
        audit.breakdown,
        vec![
            (String::from("get"), 3),
            (String::from("insert"), 2),
            (String::from("helper"), 1),
        ]
    );
}

#[test]
fn shield_budget_fail() {
    let report = analyze("shield_budget/fail");
    assert_eq!(triples(&report), vec![("shield-budget", "src/lib.rs", 3)]);
    let audit = &report.audits[0];
    assert_eq!((audit.declared, audit.computed), (1, 2));
    assert!(report.violations[0].message.contains("leases 2 shields"));
}

#[test]
fn shield_budget_delegated_pass() {
    // `1 + ordered::REQUIRED_SLOTS`: the literal is audited against this
    // file's own leases, the rest in the file that declares it.
    let report = analyze("shield_budget/delegated_pass");
    assert_eq!(triples(&report), vec![]);
    let rows: Vec<_> = report
        .audits
        .iter()
        .map(|a| {
            (
                a.file.as_str(),
                a.declared,
                a.delegated.as_deref(),
                a.computed,
            )
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            ("src/map.rs", 1, Some("ordered::REQUIRED_SLOTS"), 1),
            ("src/ordered.rs", 2, None, 2),
        ]
    );
}

#[test]
fn shield_budget_delegated_fail() {
    let report = analyze("shield_budget/delegated_fail");
    assert_eq!(triples(&report), vec![("shield-budget", "src/map.rs", 4)]);
    let message = &report.violations[0].message;
    assert!(message.contains("adds 1 of this file's own to other::REQUIRED_SLOTS"));
    assert!(
        message.contains("leases 2 shields in this file"),
        "{message}"
    );
    // `bare.rs` declares a bare `other::REQUIRED_SLOTS`: not audited at all.
    assert_eq!(report.audits.len(), 1);
    assert_eq!(report.audits[0].file, "src/map.rs");
}

// ---------------------------------------------------------------------------
// Rule 5: shared cache lines
// ---------------------------------------------------------------------------

#[test]
fn shared_line_pass() {
    // All padded, a struct-level `LAYOUT:`, one per unpadded field, a lone
    // atomic, the allow-marker, test code, and a crate outside the rule's
    // scope: none is a finding.
    let report = analyze("shared_line/pass");
    assert_eq!(report.files_scanned, 2);
    assert_eq!(triples(&report), vec![]);
}

#[test]
fn shared_line_fail() {
    let report = analyze("shared_line/fail");
    assert_eq!(
        triples(&report),
        vec![
            ("shared-line", "crates/reclaim/src/lib.rs", 6),
            ("shared-line", "crates/reclaim/src/lib.rs", 14),
            ("shared-line", "crates/reclaim/src/lib.rs", 27),
        ]
    );
    // The finding names the fields that still need a reason: not the padded
    // one, not the justified one — and a blank line ends a justification's
    // reach. (The `(` of the where-clause's `Fn(u64)` is not a tuple body.)
    let map = &report.violations[1].message;
    assert!(map.contains("struct `Map` keeps 4 atomic fields"), "{map}");
    assert!(map.contains("`resizes`, `requests` may share"), "{map}");
    assert!(report.violations[2]
        .message
        .contains("`AtomicU64`, `AtomicPair`"));
}

// ---------------------------------------------------------------------------
// The workspace itself
// ---------------------------------------------------------------------------

#[test]
fn workspace_is_clean() {
    // The same gate CI's `--deny` run enforces, kept in `cargo test` reach:
    // the real workspace has no violations and a fresh ordering ledger.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = wfe_analyze::find_workspace_root(&manifest).expect("workspace root above tools/");
    let report = run(&Config { root: root.clone() }).expect("workspace tree is readable");
    assert_eq!(triples(&report), vec![]);
    assert!(
        report.ledger_is_fresh(&root),
        "docs/ORDERINGS.md is stale; run `cargo run -p wfe-analyze -- --write-ledger`"
    );
}
