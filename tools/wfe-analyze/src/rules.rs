//! The five reclamation-specific rules.
//!
//! | rule | marker | what it enforces |
//! |------|--------|------------------|
//! | `raw-atomic` | `wfe-analyze: allow(raw-atomic)` | no `core::sync::atomic` / `std::sync::atomic` paths outside `crates/sync` — the `--cfg wfe_model` interposition must see every atomic |
//! | `undocumented-unsafe` | `wfe-analyze: allow(undocumented-unsafe)` | every `unsafe` block / `unsafe fn` / `unsafe impl` carries a `// SAFETY:` comment (or a `# Safety` doc section) |
//! | `unjustified-ordering` | `wfe-analyze: allow(unjustified-ordering)` | every non-`SeqCst` `Ordering` in shipped code carries an `// ORDER:` justification; all sites are emitted into `docs/ORDERINGS.md` |
//! | `shield-budget` | `wfe-analyze: allow(shield-budget)` | the statically-counted `.shield()` leases per operation equal the structure's declared `REQUIRED_SLOTS` — the literal of `<int>` or of `<int> + <path>::REQUIRED_SLOTS`, whose second term is audited in the file that declares it |
//! | `shared-line` | `wfe-analyze: allow(shared-line)` | a struct of the reclaimer, the scheme or the structures that keeps two or more atomic fields, not all of them `CachePadded`, says in a `// LAYOUT:` comment why they may share a cache line |

use std::collections::HashMap;
use std::collections::HashSet;

use crate::lexer::{Lexed, Tok, TokKind};
use crate::spans::{allowed, has_tag, TestSpans};

/// One rule violation, reported as `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (doubles as the allow-marker name).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// One non-`SeqCst` atomic-ordering site, destined for the ledger.
#[derive(Debug, Clone)]
pub struct OrderSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The atomic operation the ordering parameterizes (best-effort:
    /// the nearest preceding called identifier, e.g. `store`, `fetch_add`).
    pub op: String,
    /// The ordering itself (`Relaxed`, `Acquire`, `Release`, `AcqRel`).
    pub ordering: String,
    /// Text of the attached `// ORDER:` justification, if any.
    pub justification: Option<String>,
}

/// The shield-budget audit result for one data-structure file.
#[derive(Debug, Clone)]
pub struct ShieldAudit {
    /// Workspace-relative path.
    pub file: String,
    /// The declared `REQUIRED_SLOTS` literal: the leases of this file's own.
    pub declared: usize,
    /// For a `<int> + <path>::REQUIRED_SLOTS` declaration, the path the rest
    /// of the budget is delegated to (audited in the file that declares it).
    pub delegated: Option<String>,
    /// The statically-computed maximum simultaneous leases of any function.
    pub computed: usize,
    /// Per-function lease counts (only functions that lease at all).
    pub breakdown: Vec<(String, usize)>,
}

fn is_punct(t: &Tok, c: &str) -> bool {
    t.kind == TokKind::Punct && t.text == c
}

fn is_ident(t: &Tok, name: &str) -> bool {
    t.kind == TokKind::Ident && t.text == name
}

/// True when `toks[i..]` spells the path `seg0 :: seg1 :: ...`.
fn path_at(toks: &[Tok], i: usize, segments: &[&str]) -> bool {
    let mut j = i;
    for (n, seg) in segments.iter().enumerate() {
        if n > 0 {
            if !(toks.get(j).is_some_and(|t| is_punct(t, ":"))
                && toks.get(j + 1).is_some_and(|t| is_punct(t, ":")))
            {
                return false;
            }
            j += 2;
        }
        if !toks.get(j).is_some_and(|t| is_ident(t, seg)) {
            return false;
        }
        j += 1;
    }
    true
}

// ---------------------------------------------------------------------------
// Rule 1: atomics hygiene
// ---------------------------------------------------------------------------

/// Flags `core::sync::atomic` / `std::sync::atomic` paths anywhere outside
/// `crates/sync`. Inside test code the finding is still reported — the model
/// checker schedules test threads too — but the message says which world the
/// site lives in so deliberate oracle atomics can be marker-allowed with a
/// clear conscience.
pub fn check_atomics_hygiene(
    file: &str,
    lexed: &Lexed,
    tests: &TestSpans,
    out: &mut Vec<Violation>,
) {
    if file.starts_with("crates/sync/") {
        // The one crate allowed to touch the raw atomics: it *is* the
        // interposition layer.
        return;
    }
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        let head = &toks[i];
        if !(is_ident(head, "core") || is_ident(head, "std")) {
            continue;
        }
        if !path_at(toks, i, &[&head.text, "sync", "atomic"]) {
            continue;
        }
        if allowed(&lexed.lines, head.line, "raw-atomic") {
            continue;
        }
        let world = if tests.contains(i) {
            "test code"
        } else {
            "shipped code"
        };
        out.push(Violation {
            file: file.to_string(),
            line: head.line + 1,
            rule: "raw-atomic",
            message: format!(
                "`{}::sync::atomic` in {world} bypasses the `wfe_sync` interposition \
                 layer (the `--cfg wfe_model` checker will not schedule it); import \
                 through `wfe_sync::atomic` or add `// wfe-analyze: allow(raw-atomic)` \
                 with a justification",
                head.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule 2: SAFETY coverage
// ---------------------------------------------------------------------------

/// Flags `unsafe` blocks, functions, traits and impls that carry neither a
/// `// SAFETY:` comment nor (for declarations) a `# Safety` doc section.
pub fn check_safety_coverage(file: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "unsafe") {
            continue;
        }
        // Classify what this `unsafe` introduces.
        let mut j = i + 1;
        // `unsafe extern "C" fn` — skip the ABI tokens.
        if toks.get(j).is_some_and(|t| is_ident(t, "extern")) {
            j += 1;
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Other) {
                j += 1;
            }
        }
        let (what, is_decl) = match toks.get(j) {
            Some(t) if is_punct(t, "{") => ("unsafe block", false),
            // `unsafe fn name` is a declaration; `unsafe fn(` is a
            // function-pointer *type*, which carries no obligation here.
            Some(t)
                if is_ident(t, "fn")
                    && toks.get(j + 1).is_some_and(|n| n.kind == TokKind::Ident) =>
            {
                ("unsafe fn", true)
            }
            Some(t) if is_ident(t, "impl") => ("unsafe impl", true),
            Some(t) if is_ident(t, "trait") => ("unsafe trait", true),
            // `#[unsafe(no_mangle)]`-style attribute or a trait-bound
            // position — not a site this rule covers.
            _ => continue,
        };
        let line = toks[i].line;
        let documented = has_tag(&lexed.lines, line, "SAFETY:")
            || (is_decl && has_tag(&lexed.lines, line, "# Safety"));
        if documented || allowed(&lexed.lines, line, "undocumented-unsafe") {
            continue;
        }
        out.push(Violation {
            file: file.to_string(),
            line: line + 1,
            rule: "undocumented-unsafe",
            message: format!(
                "{what} without a `// SAFETY:` comment{}; state the obligation being \
                 discharged (or add `// wfe-analyze: allow(undocumented-unsafe)`)",
                if is_decl {
                    " or `# Safety` doc section"
                } else {
                    ""
                }
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule 3: ordering ledger
// ---------------------------------------------------------------------------

const WEAK_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// Collects every non-`SeqCst` ordering site in shipped (non-test) code and
/// flags the ones without an `// ORDER:` justification. Sites are recorded
/// for the ledger whether or not they are justified.
pub fn check_orderings(
    file: &str,
    lexed: &Lexed,
    tests: &TestSpans,
    sites: &mut Vec<OrderSite>,
    out: &mut Vec<Violation>,
) {
    // Integration/model test trees are test code wholesale.
    if file.starts_with("tests/") || file.contains("/tests/") {
        return;
    }
    let toks = &lexed.toks;

    // Pass 1: which weak orderings are imported as bare names?
    let mut imported: HashSet<&str> = HashSet::new();
    let mut use_spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(&toks[i], "use") {
            let start = i;
            let mut j = i + 1;
            let mut saw_ordering = false;
            while j < toks.len() && !is_punct(&toks[j], ";") {
                if is_ident(&toks[j], "Ordering") {
                    saw_ordering = true;
                }
                if saw_ordering {
                    if let Some(ord) = WEAK_ORDERINGS.iter().find(|o| is_ident(&toks[j], o)) {
                        imported.insert(ord);
                    }
                }
                j += 1;
            }
            use_spans.push((start, j));
            i = j;
        }
        i += 1;
    }
    let in_use = |idx: usize| use_spans.iter().any(|&(a, b)| a <= idx && idx <= b);

    // Pass 2: the sites themselves.
    for i in 0..toks.len() {
        let Some(ord) = WEAK_ORDERINGS.iter().find(|o| is_ident(&toks[i], o)) else {
            continue;
        };
        if tests.contains(i) || in_use(i) {
            continue;
        }
        let qualified = i >= 3
            && is_punct(&toks[i - 1], ":")
            && is_punct(&toks[i - 2], ":")
            && is_ident(&toks[i - 3], "Ordering");
        if !qualified && !imported.contains(*ord) {
            continue; // some unrelated identifier that happens to collide
        }
        let line = toks[i].line;
        let justification = crate::spans::tag_text(&lexed.lines, line, "ORDER:");
        sites.push(OrderSite {
            file: file.to_string(),
            line: line + 1,
            op: enclosing_call(toks, i),
            ordering: (*ord).to_string(),
            justification: justification.clone(),
        });
        if justification.is_none() && !allowed(&lexed.lines, line, "unjustified-ordering") {
            out.push(Violation {
                file: file.to_string(),
                line: line + 1,
                rule: "unjustified-ordering",
                message: format!(
                    "`Ordering::{ord}` without an `// ORDER:` justification; say why \
                     this access can be weaker than SeqCst (what pairs with it, or why \
                     no ordering is needed)"
                ),
            });
        }
    }
}

/// Best-effort name of the call the ordering at `i` parameterizes: the
/// nearest preceding identifier that is directly followed by `(`.
fn enclosing_call(toks: &[Tok], i: usize) -> String {
    let lo = i.saturating_sub(24);
    for j in (lo..i).rev() {
        if toks[j].kind == TokKind::Ident && toks.get(j + 1).is_some_and(|t| is_punct(t, "(")) {
            return toks[j].text.clone();
        }
    }
    String::from("?")
}

/// Renders the ordering ledger (`docs/ORDERINGS.md`) from the collected
/// sites. Deterministic: sites arrive in file-walk order, which is sorted.
pub fn render_ledger(sites: &[OrderSite]) -> String {
    let mut out = String::new();
    out.push_str("# Atomic-ordering ledger\n\n");
    out.push_str(
        "Every non-`SeqCst` atomic access in shipped (non-test) code, with its\n\
         `// ORDER:` justification. Generated by `cargo run -p wfe-analyze --\n\
         --write-ledger`; regenerate instead of editing (`--deny` fails CI when\n\
         this file is stale).\n",
    );
    let mut current_file = "";
    for site in sites {
        if site.file != current_file {
            current_file = &site.file;
            out.push_str(&format!("\n## `{}`\n\n", site.file));
            out.push_str("| line | op | ordering | justification |\n");
            out.push_str("|-----:|----|----------|---------------|\n");
        }
        out.push_str(&format!(
            "| {} | `{}` | `{}` | {} |\n",
            site.line,
            site.op,
            site.ordering,
            site.justification
                .as_deref()
                .unwrap_or("**(unjustified)**")
                .replace('|', "\\|"),
        ));
    }
    let total = sites.len();
    let unjustified = sites.iter().filter(|s| s.justification.is_none()).count();
    out.push_str(&format!(
        "\n---\n\n{total} weak-ordering sites, {unjustified} unjustified.\n"
    ));
    out
}

// ---------------------------------------------------------------------------
// Rule 4: shield-budget audit
// ---------------------------------------------------------------------------

/// A function body, for the intra-file lease analysis.
struct FnBody {
    name: String,
    /// Token range of the body, exclusive of the outer braces.
    range: (usize, usize),
}

/// Reads the initializer of a `REQUIRED_SLOTS` const starting at `toks[i]`.
/// Two forms are audited: `<int>;` — the whole budget is leased in this
/// file — and `<int> + <path>::REQUIRED_SLOTS;` — `<int>` leases of this
/// file's own on top of the budget of the file `<path>` names, where those
/// are leased and audited. Returns the literal and the delegation path;
/// `None` for anything else (a bare `<path>::REQUIRED_SLOTS` included).
fn declared_budget(toks: &[Tok], i: usize) -> Option<(usize, Option<String>)> {
    let num = toks.get(i).filter(|t| t.kind == TokKind::Number)?;
    let digits: String = num
        .text
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    let own = digits.parse().ok()?;
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| is_punct(t, ";")) {
        return Some((own, None));
    }
    if !toks.get(j).is_some_and(|t| is_punct(t, "+")) {
        return None;
    }
    j += 1;
    let mut path = String::new();
    loop {
        let seg = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
        path.push_str(&seg.text);
        j += 1;
        if toks.get(j).is_some_and(|t| is_punct(t, ";")) {
            break;
        }
        if !(toks.get(j).is_some_and(|t| is_punct(t, ":"))
            && toks.get(j + 1).is_some_and(|t| is_punct(t, ":")))
        {
            return None;
        }
        path.push_str("::");
        j += 2;
    }
    path.ends_with("::REQUIRED_SLOTS")
        .then_some((own, Some(path)))
}

/// Audits files that declare `REQUIRED_SLOTS` in one of the two forms of
/// `declared_budget`: statically counts the `.shield()` leases each
/// function acquires (directly, through lease-closures called N times, and
/// through same-file helper functions) and compares the per-operation
/// maximum against the declared literal.
pub fn check_shield_budget(
    file: &str,
    lexed: &Lexed,
    tests: &TestSpans,
    audits: &mut Vec<ShieldAudit>,
    out: &mut Vec<Violation>,
) {
    let toks = &lexed.toks;

    // The declared budget: `const REQUIRED_SLOTS: usize = <int>[ + <path>];`.
    let Some(decl_idx) = (0..toks.len()).find(|&i| {
        is_ident(&toks[i], "REQUIRED_SLOTS")
            && toks.get(i + 1).is_some_and(|t| is_punct(t, ":"))
            && toks.get(i + 2).is_some_and(|t| is_ident(t, "usize"))
            && toks.get(i + 3).is_some_and(|t| is_punct(t, "="))
    }) else {
        return;
    };
    // Any other initializer is out of scope for the audit.
    let Some((declared, delegated)) = declared_budget(toks, decl_idx + 4) else {
        return;
    };

    // Collect function bodies outside test code.
    let mut fns: Vec<FnBody> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(&toks[i], "fn")
            && !tests.contains(i)
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            // The body is the first top-level `{`..`}` after the signature;
            // a top-level `;` first means a trait-method declaration without
            // a body. Depth-tracked because return types like
            // `-> [Shield<..>; 2]` embed `;` inside brackets.
            let mut j = i + 2;
            let mut open = None;
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                let close = match_delim(toks, open);
                fns.push(FnBody {
                    name,
                    range: (open + 1, close),
                });
                i = open; // descend: nested fns are collected too
            }
        }
        i += 1;
    }

    // Per-function lease counts, memoized over the call graph. Same-named
    // functions (trait + inherent impls) merge to the larger count; cycles
    // contribute zero, which keeps self-delegating wrappers finite.
    let index: HashMap<&str, Vec<usize>> =
        fns.iter()
            .enumerate()
            .fold(HashMap::new(), |mut m, (n, f)| {
                m.entry(f.name.as_str()).or_default().push(n);
                m
            });
    let mut memo: HashMap<usize, usize> = HashMap::new();
    let mut active: HashSet<usize> = HashSet::new();
    let mut breakdown: Vec<(String, usize)> = Vec::new();
    let mut computed = 0usize;
    for n in 0..fns.len() {
        let leases = fn_leases(n, &fns, &index, toks, &mut memo, &mut active);
        if leases > 0 {
            computed = computed.max(leases);
            breakdown.push((fns[n].name.clone(), leases));
        }
    }

    audits.push(ShieldAudit {
        file: file.to_string(),
        declared,
        delegated: delegated.clone(),
        computed,
        breakdown: breakdown.clone(),
    });
    if computed != declared && !allowed(&lexed.lines, toks[decl_idx].line, "shield-budget") {
        let detail: Vec<String> = breakdown
            .iter()
            .map(|(name, n)| format!("{name}: {n}"))
            .collect();
        let budget = match &delegated {
            None => format!("is {declared}"),
            Some(path) => format!("adds {declared} of this file's own to {path}"),
        };
        out.push(Violation {
            file: file.to_string(),
            line: toks[decl_idx].line + 1,
            rule: "shield-budget",
            message: format!(
                "REQUIRED_SLOTS {budget} but the widest operation statically \
                 leases {computed} shields in this file ({}); fix the const or the leases",
                detail.join(", ")
            ),
        });
    }
}

/// Leases acquired by one invocation of `fns[n]`:
/// direct `.shield(` / `.shield::<..>(` calls, plus `sites × calls` for each
/// lease-closure defined in the body, plus the (memoized) leases of every
/// same-file function it calls, multiplied by the number of call sites.
fn fn_leases(
    n: usize,
    fns: &[FnBody],
    index: &HashMap<&str, Vec<usize>>,
    toks: &[Tok],
    memo: &mut HashMap<usize, usize>,
    active: &mut HashSet<usize>,
) -> usize {
    if let Some(&v) = memo.get(&n) {
        return v;
    }
    if !active.insert(n) {
        return 0; // recursion: the cycle itself leases nothing extra
    }
    let (start, end) = fns[n].range;
    // Nested fn bodies inside this range belong to the nested fn, not to us.
    let nested: Vec<(usize, usize)> = fns
        .iter()
        .enumerate()
        .filter(|&(m, f)| m != n && f.range.0 > start && f.range.1 < end)
        .map(|(_, f)| f.range)
        .collect();
    let owned = |idx: usize| !nested.iter().any(|&(a, b)| a <= idx && idx <= b);

    // Lease-closures: `let <name> = [move] |...| <body>`.
    struct Closure {
        name: String,
        def: (usize, usize),
        sites: usize,
    }
    let mut closures: Vec<Closure> = Vec::new();
    let mut i = start;
    while i < end {
        if is_ident(&toks[i], "let")
            && owned(i)
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| is_punct(t, "=")) {
                j += 1;
                if toks.get(j).is_some_and(|t| is_ident(t, "move")) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| is_punct(t, "|")) {
                    // Skip the parameter list to the closing `|`.
                    let mut k = j + 1;
                    while k < end && !is_punct(&toks[k], "|") {
                        k += 1;
                    }
                    k += 1;
                    // Body: a block, or an expression up to the let's `;`.
                    let body_end = if toks.get(k).is_some_and(|t| is_punct(t, "{")) {
                        match_delim(toks, k)
                    } else {
                        let mut d = 0i32;
                        let mut m = k;
                        while m < end {
                            match toks[m].text.as_str() {
                                "(" | "[" | "{" => d += 1,
                                ")" | "]" | "}" => d -= 1,
                                ";" if d == 0 => break,
                                _ => {}
                            }
                            m += 1;
                        }
                        m
                    };
                    let sites = count_shield_sites(toks, k, body_end);
                    closures.push(Closure {
                        name: toks[i + 1].text.clone(),
                        def: (i, body_end),
                        sites,
                    });
                    i = body_end;
                    continue;
                }
            }
        }
        i += 1;
    }
    let in_closure = |idx: usize, closures: &[Closure]| {
        closures.iter().any(|c| c.def.0 <= idx && idx <= c.def.1)
    };

    let mut total = 0usize;
    // Direct `.shield(` sites outside closure definitions.
    let mut i = start;
    while i < end {
        if is_punct(&toks[i], ".")
            && toks.get(i + 1).is_some_and(|t| is_ident(t, "shield"))
            && owned(i)
            && !in_closure(i, &closures)
        {
            total += 1;
        }
        i += 1;
    }
    // Closure invocations and same-file helper calls.
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|tt| is_punct(tt, "("))
            && owned(i)
            && !in_closure(i, &closures)
            // A method call `x.name(...)` resolves elsewhere; only bare /
            // path calls (`name(..)`, `Self::name(..)`) stay in this file.
            && !(i > 0 && is_punct(&toks[i - 1], "."))
        {
            if let Some(c) = closures.iter().find(|c| c.name == t.text) {
                total += c.sites;
            } else if let Some(callees) = index.get(t.text.as_str()) {
                let mut best = 0;
                for &m in callees {
                    if m != n {
                        best = best.max(fn_leases(m, fns, index, toks, memo, active));
                    }
                }
                total += best;
            }
        }
        i += 1;
    }

    active.remove(&n);
    memo.insert(n, total);
    total
}

/// Counts `.shield(` / `.shield::<..>(` call sites in `toks[start..end]`.
fn count_shield_sites(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut count = 0;
    for i in start..end.min(toks.len()) {
        if is_punct(&toks[i], ".") && toks.get(i + 1).is_some_and(|t| is_ident(t, "shield")) {
            count += 1;
        }
    }
    count
}

// ---------------------------------------------------------------------------
// Rule 5: shared cache lines
// ---------------------------------------------------------------------------

/// The crates whose structs are shared between threads on a hot path.
const LAYOUT_SCOPES: [&str; 3] = ["crates/reclaim/src/", "crates/wfe/src/", "crates/ds/src/"];

/// Types some thread writes through a shared reference: the `wfe_sync`
/// atomics and the wrappers the suite builds from them.
const ATOMIC_TYPES: [&str; 10] = [
    "Atomic",
    "AtomicUsize",
    "AtomicU64",
    "AtomicI64",
    "AtomicBool",
    "AtomicU8",
    "AtomicPtr",
    "AtomicPair",
    "EraSource",
    "TypeStableStack",
];

/// Flags structs that keep two or more fields of atomic type, at least one
/// of them outside `CachePadded<..>`, without saying why those may share a
/// cache line: a `// LAYOUT:` comment attached to the struct covers all of
/// its fields, one attached to a field covers that field. A field counts by
/// the identifiers of its type, so a boxed array of atomics counts like the
/// atomics it points at — whether its entries are padded is a layout decision
/// too.
pub fn check_shared_lines(file: &str, lexed: &Lexed, tests: &TestSpans, out: &mut Vec<Violation>) {
    if !LAYOUT_SCOPES.iter().any(|scope| file.starts_with(scope)) {
        return;
    }
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "struct")
            || tests.contains(i)
            || !toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            continue;
        }
        let Some((open, close)) = struct_body(toks, i + 2) else {
            continue; // unit struct
        };
        let struct_line = toks[i].line;
        if has_tag(&lexed.lines, struct_line, "LAYOUT:")
            || allowed(&lexed.lines, struct_line, "shared-line")
        {
            continue;
        }
        let fields = split_fields(toks, open + 1, close);
        let has_ident = |&(a, b): &(usize, usize), names: &[&str]| {
            toks[a..b]
                .iter()
                .any(|t| names.iter().any(|n| is_ident(t, n)))
        };
        let atomic: Vec<&(usize, usize)> = fields
            .iter()
            .filter(|field| has_ident(field, &ATOMIC_TYPES))
            .collect();
        let unjustified: Vec<String> = atomic
            .iter()
            .filter(|field| !has_ident(field, &["CachePadded"]))
            .filter(|field| !has_tag(&lexed.lines, toks[field.0].line, "LAYOUT:"))
            .map(|field| format!("`{}`", toks[field.0].text))
            .collect();
        if atomic.len() < 2 || unjustified.is_empty() {
            continue;
        }
        out.push(Violation {
            file: file.to_string(),
            line: struct_line + 1,
            rule: "shared-line",
            message: format!(
                "struct `{}` keeps {} atomic fields and {} may share a cache line with the \
                 others; pad what one thread writes while another reads its neighbour \
                 (`CachePadded`), or give the reason one line is right in a `// LAYOUT:` \
                 comment on the struct or the field",
                toks[i + 1].text,
                atomic.len(),
                unjustified.join(", "),
            ),
        });
    }
}

/// The token range of a struct's field list — exclusive of its `{}` or `()`
/// — given the index just past the struct's name; `None` for a unit struct.
fn struct_body(toks: &[Tok], after_name: usize) -> Option<(usize, usize)> {
    let mut angle = 0i32;
    // A `(` after `where` belongs to a bound (`F: Fn(u64) -> u64`), not to a
    // tuple struct, whose fields come before its where-clause.
    let mut in_where = false;
    for j in after_name..toks.len() {
        match toks[j].text.as_str() {
            "<" => angle += 1,
            ">" if !is_punct(&toks[j - 1], "-") => angle -= 1,
            "where" => in_where = true,
            "(" if angle == 0 && in_where => {}
            "{" | "(" if angle == 0 => return Some((j, match_delim(toks, j))),
            ";" if angle == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Index of the delimiter closing the `{`, `(` or `[` at `open`.
fn match_delim(toks: &[Tok], open: usize) -> usize {
    let opening = toks[open].text.as_str();
    let closing = match opening {
        "{" => "}",
        "(" => ")",
        _ => "]",
    };
    let mut depth = 0;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if is_punct(t, opening) {
            depth += 1;
        } else if is_punct(t, closing) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Splits `toks[start..end]` — a struct's field list — at its top-level
/// commas, and trims attributes and visibility off each field: what is left
/// starts at the field's name (its type, in a tuple struct).
fn split_fields(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut field_start = start;
    for j in start..=end {
        let text = if j < end { toks[j].text.as_str() } else { "," };
        match text {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ">" if !is_punct(&toks[j - 1], "-") => depth -= 1,
            "," if depth == 0 => {
                let mut a = field_start;
                loop {
                    if a + 1 < j && is_punct(&toks[a], "#") && is_punct(&toks[a + 1], "[") {
                        a = match_delim(toks, a + 1) + 1;
                    } else if a < j && is_ident(&toks[a], "pub") {
                        a += 1;
                        if a < j && is_punct(&toks[a], "(") {
                            a = match_delim(toks, a) + 1;
                        }
                    } else {
                        break;
                    }
                }
                if a < j {
                    fields.push((a, j));
                }
                field_start = j + 1;
            }
            _ => {}
        }
    }
    fields
}
