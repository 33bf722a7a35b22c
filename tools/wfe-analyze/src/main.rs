//! CLI for the `wfe-analyze` static analyzer.
//!
//! ```text
//! cargo run -p wfe-analyze --             # report, exit 0
//! cargo run -p wfe-analyze -- --deny      # report, exit 1 on any violation
//!                                         # or a stale docs/ORDERINGS.md
//! cargo run -p wfe-analyze -- --write-ledger   # regenerate docs/ORDERINGS.md
//! cargo run -p wfe-analyze -- --root PATH      # analyze another tree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use wfe_analyze::{find_workspace_root, run, Config};

fn main() -> ExitCode {
    let mut deny = false;
    let mut write_ledger = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--write-ledger" => write_ledger = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "wfe-analyze: reclamation-aware static analysis\n\
                     \n\
                     USAGE: wfe-analyze [--root PATH] [--deny] [--write-ledger]\n\
                     \n\
                     Rules: raw-atomic, undocumented-unsafe, unjustified-ordering,\n\
                     shield-budget, shared-line. Allow markers: `// wfe-analyze: allow(<rule>)`\n\
                     attached to the offending line. See docs/ARCHITECTURE.md,\n\
                     \"Static analysis & sanitizers\"."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("could not locate a workspace root (looked for Cargo.toml with [workspace]); pass --root");
            return ExitCode::from(2);
        }
    };

    let report = match run(&Config { root: root.clone() }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    for v in &report.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }

    println!(
        "\nshield-budget audit ({} structures):",
        report.audits.len()
    );
    for a in &report.audits {
        let verdict = if a.computed == a.declared {
            "ok"
        } else {
            "MISMATCH"
        };
        let detail: Vec<String> = a
            .breakdown
            .iter()
            .map(|(name, n)| format!("{name}:{n}"))
            .collect();
        let delegation = a
            .delegated
            .as_ref()
            .map_or(String::new(), |path| format!(" + {path}"));
        println!(
            "  {}: declared {}{delegation} / computed {} [{verdict}] ({})",
            a.file,
            a.declared,
            a.computed,
            detail.join(" ")
        );
    }

    if write_ledger {
        let path = root.join("docs/ORDERINGS.md");
        if let Err(e) = std::fs::write(&path, report.ledger()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} sites)",
            path.display(),
            report.order_sites.len()
        );
    }

    let mut failures = report.violations.len();
    if deny && !write_ledger && !report.ledger_is_fresh(&root) {
        println!(
            "docs/ORDERINGS.md is stale; regenerate with `cargo run -p wfe-analyze -- --write-ledger`"
        );
        failures += 1;
    }

    println!(
        "\n{} files scanned, {} weak-ordering sites, {} violations",
        report.files_scanned,
        report.order_sites.len(),
        report.violations.len()
    );
    if deny && failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
