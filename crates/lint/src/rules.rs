//! The per-file rule engine: R1 `panic-in-lib`, R2
//! `nondeterministic-iteration`, R3 `float-eq`, R5 `pub-undocumented`,
//! R6 `map-on-query-path`, R7 `swallowed-result`, R8
//! `blocking-io-on-query-path`, R9 `unversioned-serialization`, R13
//! `unbounded-retry`, R14 `epoch-unguarded-mutation`, plus
//! suppression-pragma validation (`bad-pragma`). R4 `offline-deps`
//! lives in [`crate::toml_scan`] because it reads manifests, not Rust
//! source.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, Tok, TokKind};
use crate::Finding;

/// R1: no `unwrap()`/`expect()`/`panic!`/`unreachable!` in library code.
pub const R1_PANIC_IN_LIB: &str = "panic-in-lib";
/// R2: no iteration over `HashMap`/`HashSet` in materialization paths.
pub const R2_NONDET_ITERATION: &str = "nondeterministic-iteration";
/// R3: no `==`/`!=` against float expressions.
pub const R3_FLOAT_EQ: &str = "float-eq";
/// R4: every workspace dependency must be a workspace path dep.
pub const R4_OFFLINE_DEPS: &str = "offline-deps";
/// R5: public items need doc comments.
pub const R5_PUB_UNDOCUMENTED: &str = "pub-undocumented";
/// R6: no map lookups (`.get(&…)`, `[&…]`, `.contains_key(…)`) inside
/// query-path functions (`find_path*` / `route*` / `locate*`) — query
/// tables must be dense `Vec`/CSR layouts.
pub const R6_MAP_ON_QUERY_PATH: &str = "map-on-query-path";
/// R7: no `let _ = <call>;` in library code — discarding a call's
/// result swallows `Result`s (and every other must-use value) without
/// a trace; bind a name, `?` the error, or match on it.
pub const R7_SWALLOWED_RESULT: &str = "swallowed-result";
/// R8: no blocking I/O or lock acquisition inside query-path functions
/// (`find_path*` / `route*` / `locate*`): no `std::net` / `std::fs`
/// paths, no socket/file type names, no `.lock(…)` calls. Queries are
/// microsecond-scale pure reads over prebuilt tables; a blocking
/// syscall or mutex wait hidden inside one wrecks tail latency and
/// can deadlock batch workers. The serving layer's dispatcher
/// (`hopspan-serve`) owns sockets and queue locks by design and is
/// exempt via the crate policy lists.
pub const R8_BLOCKING_IO: &str = "blocking-io-on-query-path";
/// R9: no raw little-endian (de)serialization — `to_le_bytes` /
/// `from_le_bytes` — outside the section codec (`src/section.rs`) of a
/// snapshot crate. Every byte of an `HSNP` snapshot must flow through
/// the versioned `ByteWriter`/`ByteReader` layer so the format version
/// and the whole-file checksum cover it; an ad-hoc `to_le_bytes` call
/// elsewhere is a field the version gate cannot see and a silent
/// format fork waiting to happen.
pub const R9_UNVERSIONED_SERIALIZATION: &str = "unversioned-serialization";
/// R10: no allocating construct (`Vec::new`, `.collect()`, `format!`,
/// …) transitively reachable from a query entry point
/// (`find_path*`/`route*`/`locate*`) through the workspace call graph.
/// The per-file R6/R8 view sees only the entry function's own body;
/// R10 statically shadows the counting-allocator runtime check by
/// walking every callee, across crates.
pub const R10_ALLOC_ON_QUERY_PATH: &str = "alloc-on-query-path";
/// R11: every pair of locks must be acquired in one global order.
/// Per-function acquisition sequences are propagated through the call
/// graph; two functions observing opposite orders of the same pair are
/// flagged at both sites as a potential deadlock.
pub const R11_LOCK_ORDER_INVERSION: &str = "lock-order-inversion";
/// R12: in decode functions of the store/serve crates, `+`/`*`/`<<`
/// and bare `as` narrowing on values originating from
/// `ByteReader`/frame reads must go through `checked_*`/`try_from` —
/// a forged length or offset must land in a typed error, never in an
/// overflow or truncation.
pub const R12_UNCHECKED_ARITH: &str = "unchecked-arith-on-untrusted-input";
/// R13: every loop that makes a retry-shaped call (an identifier
/// containing `retry`/`backoff`/`resubmit` invoked as a function or
/// method) must reference a budget identifier — one containing
/// `deadline`/`budget`/`remaining`/`expires`/`timeout` — somewhere in
/// its condition or body. A retry loop with no budget in sight spins
/// forever when the fault is persistent and blows the caller's SLO
/// when it is not; the workspace contract is that any retry is
/// deadline-budgeted.
pub const R13_UNBOUNDED_RETRY: &str = "unbounded-retry";
/// R14: in the dynamic-navigator crate, every write to epoch-lifecycle
/// state — fields rooted at `published`/`tombstone`/`pending`/`dirty`/
/// `epoch`/`status` — must happen inside the `src/epoch.rs` funnel
/// (`Shared`/`Ledger` methods). A field assignment or mutating
/// container call on such state anywhere else bypasses the lock
/// discipline the swap-safety argument audits, so a query could
/// observe a half-swapped epoch or a tombstone could silently
/// resurrect.
pub const R14_EPOCH_UNGUARDED_MUTATION: &str = "epoch-unguarded-mutation";
/// Meta-rule: malformed `hopspan:allow` pragmas (never suppressible).
pub const BAD_PRAGMA: &str = "bad-pragma";
/// Meta-rule: a well-formed `hopspan:allow` that no longer suppresses
/// any finding (the code it excused was fixed or moved). Stale allows
/// are latent blind spots and must be deleted. Never suppressible.
pub const STALE_PRAGMA: &str = "stale-pragma";

/// All source-code rules (R4 is manifest-level and handled separately).
pub const CODE_RULES: [&str; 13] = [
    R1_PANIC_IN_LIB,
    R2_NONDET_ITERATION,
    R3_FLOAT_EQ,
    R5_PUB_UNDOCUMENTED,
    R6_MAP_ON_QUERY_PATH,
    R7_SWALLOWED_RESULT,
    R8_BLOCKING_IO,
    R9_UNVERSIONED_SERIALIZATION,
    R10_ALLOC_ON_QUERY_PATH,
    R11_LOCK_ORDER_INVERSION,
    R12_UNCHECKED_ARITH,
    R13_UNBOUNDED_RETRY,
    R14_EPOCH_UNGUARDED_MUTATION,
];

/// Function-name prefixes that mark the hot query path (R6, R8, R10).
/// Membership tests via `.contains(…)` are deliberately not flagged — a
/// `HashSet<usize>` fault set is O(1) per probe and order-free.
pub const QUERY_FN_PREFIXES: [&str; 3] = ["find_path", "route", "locate"];

/// Type names whose mere appearance in a query-path body marks
/// blocking I/O (R8) — sockets and files, whether `use`-imported or
/// path-qualified.
const BLOCKING_TYPES: [&str; 5] = [
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "File",
    "OpenOptions",
];

const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// A parsed `// hopspan:allow(<rule>) -- <reason>` pragma.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule the pragma suppresses.
    pub rule: String,
    /// 1-based line the pragma sits on (it covers this line and the
    /// next).
    pub line: u32,
}

impl Allow {
    /// Whether this pragma suppresses `f`: same rule, and the pragma
    /// sits on the finding's line or the line directly above.
    pub fn covers(&self, f: &Finding) -> bool {
        self.rule == f.rule && (self.line == f.line || self.line + 1 == f.line)
    }
}

/// Rules whose findings no pragma can silence: the meta-rules about
/// the pragma layer itself.
pub fn is_unsuppressible(rule: &str) -> bool {
    rule == BAD_PRAGMA || rule == STALE_PRAGMA
}

/// Runs the requested source rules over one lexed file and applies
/// suppression pragmas. `label` is the path reported in diagnostics.
pub fn run_rules(label: &str, lexed: &Lexed, rules: &[&str]) -> Vec<Finding> {
    let (mut findings, allows) = run_rules_raw(label, lexed, rules);
    findings.retain(|f| is_unsuppressible(&f.rule) || !allows.iter().any(|a| a.covers(f)));
    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
    findings
}

/// Runs the requested source rules over one lexed file **without**
/// applying suppression, returning the raw findings plus the parsed
/// pragmas. The workspace engine uses this so pragmas can also cover
/// interprocedural findings and so unused pragmas can be detected
/// (`stale-pragma`).
pub fn run_rules_raw(label: &str, lexed: &Lexed, rules: &[&str]) -> (Vec<Finding>, Vec<Allow>) {
    let toks = &lexed.tokens;
    let skip = test_ranges(toks);
    let in_test = |i: usize| skip.iter().any(|&(lo, hi)| i >= lo && i <= hi);

    let mut findings = Vec::new();
    let (allows, mut pragma_findings) = parse_pragmas(label, lexed);
    findings.append(&mut pragma_findings);

    if rules.contains(&R1_PANIC_IN_LIB) {
        rule_panic_in_lib(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R2_NONDET_ITERATION) {
        rule_nondet_iteration(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R3_FLOAT_EQ) {
        rule_float_eq(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R5_PUB_UNDOCUMENTED) {
        rule_pub_undocumented(label, lexed, &in_test, &mut findings);
    }
    if rules.contains(&R6_MAP_ON_QUERY_PATH) {
        rule_map_on_query_path(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R7_SWALLOWED_RESULT) {
        rule_swallowed_result(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R8_BLOCKING_IO) {
        rule_blocking_io_on_query_path(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R9_UNVERSIONED_SERIALIZATION) {
        rule_unversioned_serialization(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R13_UNBOUNDED_RETRY) {
        rule_unbounded_retry(label, toks, &in_test, &mut findings);
    }
    if rules.contains(&R14_EPOCH_UNGUARDED_MUTATION) {
        rule_epoch_unguarded_mutation(label, toks, &in_test, &mut findings);
    }
    (findings, allows)
}

/// Token-index ranges `#[cfg(test)]`/`#[test]` items cover in `toks`
/// — re-exported for the symbol indexer, which applies the same
/// exclusion.
pub fn test_ranges_of(toks: &[Tok]) -> Vec<(usize, usize)> {
    test_ranges(toks)
}

/// Extracts `hopspan:allow` pragmas from comments; malformed ones
/// (missing rule, unknown rule, or missing `-- <reason>`) become
/// `bad-pragma` findings.
fn parse_pragmas(label: &str, lexed: &Lexed) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        let Some(at) = c.text.find("hopspan:allow") else {
            continue;
        };
        let rest = &c.text[at + "hopspan:allow".len()..];
        let bad = |why: &str| Finding {
            rule: BAD_PRAGMA.to_string(),
            file: label.to_string(),
            line: c.line,
            message: format!("malformed hopspan:allow pragma: {why}"),
        };
        let Some(inner) = rest.strip_prefix('(') else {
            findings.push(bad("expected `(<rule>)` after hopspan:allow"));
            continue;
        };
        let Some(close) = inner.find(')') else {
            findings.push(bad("unclosed rule list"));
            continue;
        };
        let rule = inner[..close].trim().to_string();
        if !CODE_RULES.contains(&rule.as_str()) && rule != R4_OFFLINE_DEPS {
            findings.push(bad(&format!("unknown rule `{rule}`")));
            continue;
        }
        let after = inner[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix("--") else {
            findings.push(bad("a reason is required: `-- <reason>`"));
            continue;
        };
        if reason.trim().is_empty() {
            findings.push(bad("the reason after `--` must be non-empty"));
            continue;
        }
        allows.push(Allow { rule, line: c.line });
    }
    (allows, findings)
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items:
/// rules do not apply inside tests or test modules.
fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            if let Some((end, is_test)) = attr_is_test(toks, i + 1) {
                if is_test {
                    if let Some(body) = brace_block_after(toks, end + 1) {
                        ranges.push((i, body));
                        i = body + 1;
                        continue;
                    }
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Given the index of an attribute's `[`, returns the index of its
/// matching `]` and whether the attribute marks test-only code
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[bench]`).
fn attr_is_test(toks: &[Tok], open: usize) -> Option<(usize, bool)> {
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut is_test = false;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some((j, is_test));
                }
            }
            "cfg" => saw_cfg = true,
            "test" if saw_cfg || depth == 1 => is_test = true,
            "bench" if depth == 1 => is_test = true,
            _ => {}
        }
    }
    None
}

/// Index of the `}` closing the first `{` found at or after `from`.
fn brace_block_after(toks: &[Tok], from: usize) -> Option<usize> {
    let open = toks[from..]
        .iter()
        .position(|t| matches!(t.text.as_str(), "{" | ";"))
        .map(|p| p + from)?;
    if toks[open].text == ";" {
        // Item without a body, e.g. `#[cfg(test)] mod tests;`.
        return Some(open);
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn rule_panic_in_lib(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        if PANIC_METHODS.contains(&name) && prev == Some(".") && next == Some("(") {
            out.push(Finding {
                rule: R1_PANIC_IN_LIB.to_string(),
                file: label.to_string(),
                line: toks[i].line,
                message: format!(
                    "`.{name}()` in library code; propagate a typed error \
                     or add a reasoned hopspan:allow"
                ),
            });
        } else if PANIC_MACROS.contains(&name) && next == Some("!") {
            out.push(Finding {
                rule: R1_PANIC_IN_LIB.to_string(),
                file: label.to_string(),
                line: toks[i].line,
                message: format!(
                    "`{name}!` in library code; propagate a typed error \
                     or add a reasoned hopspan:allow"
                ),
            });
        }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: let
/// bindings (`let m = HashMap::new()`), typed bindings, struct fields
/// and fn params (`m: &HashMap<…>`). The tracking is name-based and
/// file-local — a deliberate over-approximation: membership-only maps
/// are fine to keep, but any *iteration* over a tracked name is
/// flagged.
fn hash_bound_names(toks: &[Tok], in_test: &dyn Fn(usize) -> bool) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if in_test(i)
            || t.kind != TokKind::Ident
            || !matches!(t.text.as_str(), "HashMap" | "HashSet")
        {
            continue;
        }
        // Walk back over the path / reference prefix (`std ::
        // collections ::`, `&`, `'a`, `mut`, `dyn`) to the `:` or `=`
        // that links this type/constructor to a name.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            let skip = matches!(p.text.as_str(), "::" | "&" | "mut" | "dyn")
                || p.kind == TokKind::Lifetime
                || (p.kind == TokKind::Ident && toks[j].text == "::");
            // Path segments before `HashMap` itself (e.g. `std`,
            // `collections`) are only reachable through `::`.
            if skip
                || (p.kind == TokKind::Ident && matches!(p.text.as_str(), "std" | "collections"))
            {
                j -= 1;
            } else {
                break;
            }
        }
        let Some(link) = j.checked_sub(1) else {
            continue;
        };
        match toks[link].text.as_str() {
            // `name: HashMap<…>` — field, param, or typed let.
            ":" => {
                if let Some(name) = ident_before(toks, link) {
                    names.insert(name);
                }
            }
            // `name = HashMap::new()` / `= HashSet::with_capacity(…)`.
            "=" => {
                if let Some(name) = ident_before(toks, link) {
                    names.insert(name);
                }
            }
            _ => {}
        }
    }
    names
}

fn ident_before(toks: &[Tok], idx: usize) -> Option<String> {
    let t = toks.get(idx.checked_sub(1)?)?;
    (t.kind == TokKind::Ident && !is_keyword(&t.text)).then(|| t.text.clone())
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let" | "mut" | "ref" | "pub" | "fn" | "if" | "else" | "in" | "for" | "return"
    )
}

fn rule_nondet_iteration(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let names = hash_bound_names(toks, in_test);
    if names.is_empty() {
        return;
    }
    let flag = |out: &mut Vec<Finding>, line: u32, what: &str| {
        out.push(Finding {
            rule: R2_NONDET_ITERATION.to_string(),
            file: label.to_string(),
            line,
            message: format!(
                "{what} iterates a HashMap/HashSet: order can leak into \
                 materialized output; use BTreeMap/BTreeSet or sort explicitly"
            ),
        });
    };
    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name.iter()` / `name.keys()` / … where `name` is hash-bound.
        if names.contains(&toks[i].text)
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(".")
            && toks
                .get(i + 2)
                .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 3).map(|t| t.text.as_str()) == Some("(")
        {
            let method = &toks[i + 2].text;
            flag(out, toks[i].line, &format!("`{}.{method}()`", toks[i].text));
        }
        // `for pat in [&][mut] [self.]name {` — iterating the
        // collection itself rather than an explicit iterator method.
        if toks[i].text == "in" {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| matches!(t.text.as_str(), "&" | "mut"))
            {
                j += 1;
            }
            if toks.get(j).map(|t| t.text.as_str()) == Some("self")
                && toks.get(j + 1).map(|t| t.text.as_str()) == Some(".")
            {
                j += 2;
            }
            let Some(name_tok) = toks.get(j) else {
                continue;
            };
            if name_tok.kind == TokKind::Ident
                && names.contains(&name_tok.text)
                && toks.get(j + 1).map(|t| t.text.as_str()) == Some("{")
            {
                flag(out, name_tok.line, &format!("`for … in {}`", name_tok.text));
            }
        }
    }
}

fn rule_float_eq(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Punct {
            continue;
        }
        let op = toks[i].text.as_str();
        if op != "==" && op != "!=" {
            continue;
        }
        let lhs_float = i
            .checked_sub(1)
            .is_some_and(|p| toks[p].kind == TokKind::FloatLit);
        let rhs_float = toks.get(i + 1).is_some_and(|t| t.kind == TokKind::FloatLit);
        if lhs_float || rhs_float {
            out.push(Finding {
                rule: R3_FLOAT_EQ.to_string(),
                file: label.to_string(),
                line: toks[i].line,
                message: format!(
                    "`{op}` against a float literal; use an exactness helper \
                     with a documented contract, or an epsilon comparison"
                ),
            });
        }
    }
}

fn rule_pub_undocumented(
    label: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    let doc_lines: BTreeSet<u32> = lexed.doc_lines().into_iter().collect();
    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Ident || toks[i].text != "pub" {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        // `pub(crate)` / `pub(super)` are not public API.
        if next.text == "(" {
            continue;
        }
        let item = match next.text.as_str() {
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod" | "union" => {
                let name = toks
                    .get(i + 2)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
                Some((next.text.clone(), name))
            }
            // Re-exports inherit upstream docs; `pub unsafe fn` is
            // forbidden workspace-wide anyway.
            "use" | "unsafe" | "async" => None,
            _ => {
                // `pub name: Type` — a public struct field.
                (next.kind == TokKind::Ident
                    && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":"))
                .then(|| ("field".to_string(), Some(next.text.clone())))
            }
        };
        let Some((kind, name)) = item else {
            continue;
        };
        // Walk back over any attribute block(s) directly above.
        let mut first = i;
        while first >= 2 && toks[first - 1].text == "]" {
            let mut depth = 0usize;
            let mut k = first - 1;
            loop {
                match toks[k].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            if k >= 1 && toks[k - 1].text == "#" {
                first = k - 1;
            } else {
                break;
            }
        }
        let first_line = toks[first].line;
        let documented = first_line >= 2 && doc_lines.contains(&(first_line - 1))
            || doc_lines.contains(&first_line);
        if !documented {
            let name = name.unwrap_or_else(|| "<unnamed>".to_string());
            out.push(Finding {
                rule: R5_PUB_UNDOCUMENTED.to_string(),
                file: label.to_string(),
                line: toks[i].line,
                message: format!("public {kind} `{name}` has no doc comment"),
            });
        }
    }
}

/// Token ranges of the bodies of query-path functions: `fn` whose name
/// starts with one of [`QUERY_FN_PREFIXES`], mapped to the span from
/// its signature to the `}` closing its body.
fn query_fn_bodies(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "fn" {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident
            || !QUERY_FN_PREFIXES
                .iter()
                .any(|p| name_tok.text.starts_with(p))
        {
            continue;
        }
        if let Some(end) = brace_block_after(toks, i + 2) {
            out.push((i + 2, end, name_tok.text.clone()));
        }
    }
    out
}

/// R7: flags `let _ = <expr>;` statements whose right-hand side
/// performs a call — the token shape of a discarded `Result` (or any
/// other must-use value). Plain re-binds of an already-computed value
/// (`let _ = lambda;`, a bare identifier with no `(`) carry no
/// swallowed effect and stay silent.
fn rule_swallowed_result(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if in_test(i)
            || toks[i].text != "let"
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("_")
            || toks.get(i + 2).map(|t| t.text.as_str()) != Some("=")
        {
            continue;
        }
        // Scan the right-hand side up to the statement's `;` (at
        // bracket depth zero); any `(` on the way marks a call (or a
        // tuple/parenthesized expression — also an effectful discard).
        let mut depth = 0usize;
        let mut has_call = false;
        let mut j = i + 3;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "(" => {
                    depth += 1;
                    has_call = true;
                }
                "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if has_call {
            out.push(Finding {
                rule: R7_SWALLOWED_RESULT.to_string(),
                file: label.to_string(),
                line: toks[i].line,
                message: "`let _ = <call>;` discards the call's result; bind a \
                          name, propagate with `?`, or add a reasoned \
                          hopspan:allow"
                    .to_string(),
            });
        }
    }
}

/// R6: flags keyed-container lookups inside query-path function bodies.
/// The token shapes `.get(&…)`, `[&…]` and `.contains_key(…)` are how
/// `BTreeMap`/`HashMap` reads look; dense `Vec`/slice reads (`[i]`,
/// `.get(i)`) index by value and stay silent.
fn rule_map_on_query_path(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let bodies = query_fn_bodies(toks);
    let flag = |out: &mut Vec<Finding>, line: u32, what: &str, fn_name: &str| {
        out.push(Finding {
            rule: R6_MAP_ON_QUERY_PATH.to_string(),
            file: label.to_string(),
            line,
            message: format!(
                "{what} in query fn `{fn_name}`: map lookups on the query \
                 path defeat the dense-layout guarantee; use a Vec/CSR \
                 table or add a reasoned hopspan:allow"
            ),
        });
    };
    for (start, end, fn_name) in bodies {
        let mut i = start;
        while i <= end.min(toks.len().saturating_sub(1)) {
            if in_test(i) {
                i += 1;
                continue;
            }
            let text = toks[i].text.as_str();
            let next = toks.get(i + 1).map(|t| t.text.as_str());
            if toks[i].kind == TokKind::Ident
                && i > start
                && toks[i - 1].text == "."
                && next == Some("(")
            {
                if text == "get" && toks.get(i + 2).map(|t| t.text.as_str()) == Some("&") {
                    flag(out, toks[i].line, "`.get(&…)`", &fn_name);
                } else if text == "contains_key" {
                    flag(out, toks[i].line, "`.contains_key(…)`", &fn_name);
                }
            } else if text == "[" && next == Some("&") {
                flag(out, toks[i].line, "`[&…]` indexing", &fn_name);
            }
            i += 1;
        }
    }
}

/// The raw byte-order primitives R9 confines to the section codec.
const SERIALIZATION_PRIMITIVES: [&str; 2] = ["to_le_bytes", "from_le_bytes"];

/// R9: flags `to_le_bytes` / `from_le_bytes` anywhere except the
/// section codec itself (`src/section.rs`), where the versioned
/// `ByteWriter`/`ByteReader` layer is implemented. The exemption is
/// path-based: the codec has to touch the primitives to exist; every
/// other file of a snapshot crate must go through it.
fn rule_unversioned_serialization(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if label.ends_with("src/section.rs") {
        return;
    }
    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if SERIALIZATION_PRIMITIVES.contains(&name) {
            out.push(Finding {
                rule: R9_UNVERSIONED_SERIALIZATION.to_string(),
                file: label.to_string(),
                line: toks[i].line,
                message: format!(
                    "raw `{name}` outside the section codec; route bytes \
                     through `src/section.rs` (ByteWriter/ByteReader) so the \
                     format version and checksum cover them, or add a \
                     reasoned hopspan:allow"
                ),
            });
        }
    }
}

/// Identifier fragments that mark a retry-shaped call (R13).
const RETRY_CALL_FRAGMENTS: [&str; 3] = ["retry", "backoff", "resubmit"];
/// Identifier fragments that prove a loop is budgeted (R13).
const BUDGET_FRAGMENTS: [&str; 5] = ["deadline", "budget", "remaining", "expires", "timeout"];

/// R13: flags loops that make retry-shaped calls without referencing
/// a budget identifier anywhere in their extent. The check is
/// innermost-wins: each retry call is charged to the tightest
/// enclosing loop, and that loop's full extent — `while` condition,
/// `for` iterator expression, body — must mention a budget name.
fn rule_unbounded_retry(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    // Loop extents as (keyword index, close-brace index). A `for` is
    // only a loop when an `in` appears at bracket depth zero before
    // the body brace — `impl X for Y {` and `for<'a>` bounds have
    // none.
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let is_for = toks[i].text == "for";
        if !is_for && toks[i].text != "loop" && toks[i].text != "while" {
            continue;
        }
        let mut depth = 0usize;
        let mut saw_in = false;
        let mut j = i + 1;
        let body_open = loop {
            match toks.get(j) {
                None => break None,
                Some(t) => match t.text.as_str() {
                    "{" if depth == 0 => break Some(j),
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break None; // not a loop header after all
                        }
                        depth -= 1;
                    }
                    "in" if depth == 0 && t.kind == TokKind::Ident => saw_in = true,
                    ";" if depth == 0 => break None,
                    _ => {}
                },
            }
            j += 1;
        };
        let Some(open) = body_open else { continue };
        if is_for && !saw_in {
            continue;
        }
        let mut depth = 1usize;
        let mut k = open + 1;
        let close = loop {
            match toks.get(k) {
                None => break None,
                Some(t) => match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break Some(k);
                        }
                    }
                    _ => {}
                },
            }
            k += 1;
        };
        if let Some(close) = close {
            loops.push((i, close));
        }
    }

    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let lower = toks[i].text.to_ascii_lowercase();
        if !RETRY_CALL_FRAGMENTS.iter().any(|f| lower.contains(f))
            || toks.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        // The tightest loop whose extent contains the call.
        let Some(&(start, end)) = loops
            .iter()
            .filter(|&&(s, e)| s < i && i < e)
            .max_by_key(|&&(s, _)| s)
        else {
            continue;
        };
        let budgeted = toks[start..=end].iter().any(|t| {
            t.kind == TokKind::Ident && {
                let id = t.text.to_ascii_lowercase();
                BUDGET_FRAGMENTS.iter().any(|f| id.contains(f))
            }
        });
        if !budgeted && flagged.insert(start) {
            out.push(Finding {
                rule: R13_UNBOUNDED_RETRY.to_string(),
                file: label.to_string(),
                line: toks[start].line,
                message: format!(
                    "loop makes a retry-shaped call (`{}`) but references no \
                     deadline/budget identifier; bound it by a retry budget \
                     or deadline",
                    toks[i].text
                ),
            });
        }
    }
}

/// Identifier fragments that mark epoch-lifecycle state (R14): the
/// published-epoch pointer, the tombstone/liveness table, the pending
/// mutation log and the per-tree dirty counters.
const EPOCH_STATE_ROOTS: [&str; 6] = [
    "published",
    "tombstone",
    "pending",
    "dirty",
    "epoch",
    "status",
];

/// Container methods that mutate their receiver in place (R14): a call
/// to one of these on an epoch-state field is a write, same as an
/// assignment.
const MUTATING_METHODS: [&str; 13] = [
    "push", "pop", "insert", "remove", "clear", "resize", "truncate", "extend", "retain", "drain",
    "fill", "swap", "sort",
];

/// R14: flags writes to epoch-lifecycle state outside the
/// `src/epoch.rs` funnel. A write is a field access rooted at one of
/// [`EPOCH_STATE_ROOTS`] — optionally through an index (`[…]`) or a
/// nested field chain — followed by `=` (or a compound `+=`-family
/// operator), or a [`MUTATING_METHODS`] call on such a field. Reads
/// (`.pending()`, `view.epoch.id`, `cfg.dirty_threshold`) stay silent:
/// no assignment, no mutation. The exemption is path-based, like R9's
/// section codec: the funnel has to write the state to exist.
fn rule_epoch_unguarded_mutation(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if label.ends_with("src/epoch.rs") {
        return;
    }
    for i in 0..toks.len() {
        if in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let lower = toks[i].text.to_ascii_lowercase();
        if i == 0 || toks[i - 1].text != "." || !EPOCH_STATE_ROOTS.iter().any(|r| lower.contains(r))
        {
            continue;
        }
        // Walk the access chain after the state root: `[index]` hops
        // and plain nested fields (`.epoch.id`). A `(` ends the chain —
        // that is a method call, handled below.
        let mut j = i + 1;
        loop {
            match toks.get(j).map(|t| t.text.as_str()) {
                Some("[") => {
                    let mut depth = 0usize;
                    while let Some(t) = toks.get(j) {
                        match t.text.as_str() {
                            "[" | "(" | "{" => depth += 1,
                            "]" | ")" | "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                Some(".") => {
                    let Some(field) = toks.get(j + 1) else { break };
                    if field.kind != TokKind::Ident {
                        break;
                    }
                    if toks.get(j + 2).map(|t| t.text.as_str()) == Some("(") {
                        // `.state.method(…)`: a write iff the method
                        // mutates in place; either way the chain ends.
                        if MUTATING_METHODS.contains(&field.text.as_str()) {
                            flag_epoch_write(
                                label,
                                out,
                                toks[i].line,
                                &toks[i].text,
                                &format!(".{}(…)", field.text),
                            );
                        }
                        j = usize::MAX; // no assignment check after a call
                        break;
                    }
                    j += 2;
                }
                _ => break,
            }
        }
        // Assignment after the chain: `=` is a real assignment (the
        // lexer folds `==`/`=>` into single tokens), and a one-char
        // arithmetic/bit operator directly before `=` is the compound
        // family (`+=`, `-=`, `|=`, …).
        let (op, assigns) = match toks.get(j).map(|t| t.text.as_str()) {
            Some("=") => ("=", true),
            Some(op @ ("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"))
                if toks.get(j + 1).map(|t| t.text.as_str()) == Some("=") =>
            {
                (op, true)
            }
            _ => ("", false),
        };
        if assigns {
            let shown = if op == "=" {
                "=".to_string()
            } else {
                format!("{op}=")
            };
            flag_epoch_write(label, out, toks[i].line, &toks[i].text, &shown);
        }
    }
}

fn flag_epoch_write(label: &str, out: &mut Vec<Finding>, line: u32, field: &str, how: &str) {
    out.push(Finding {
        rule: R14_EPOCH_UNGUARDED_MUTATION.to_string(),
        file: label.to_string(),
        line,
        message: format!(
            "`{field}` ({how}) is epoch-lifecycle state written outside the \
             src/epoch.rs funnel; route the write through a Shared/Ledger \
             method so the swap-safety audit covers it, or add a reasoned \
             hopspan:allow"
        ),
    });
}

/// Long-form documentation for `--explain <rule>`: what the rule
/// checks, why it exists, and how to fix or suppress a finding.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        R1_PANIC_IN_LIB => {
            "R1 panic-in-lib: library crates must propagate typed errors instead of\n\
             panicking (`unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`). The\n\
             workspace contract is panic-free serving; a panic in a worker thread\n\
             turns into `WorkerPanicked` at best, an abort at worst.\n\
             Fix: return a typed error. Suppress: a reasoned hopspan:allow when the\n\
             invariant is proven by construction."
        }
        R2_NONDET_ITERATION => {
            "R2 nondeterministic-iteration: no iteration over HashMap/HashSet on\n\
             paths that materialize spanner edges, labels, or routes — iteration\n\
             order would leak into the output and break bit-identical `H_X` builds.\n\
             Fix: BTreeMap/BTreeSet or an explicit sort."
        }
        R3_FLOAT_EQ => {
            "R3 float-eq: no `==`/`!=` against float expressions outside a\n\
             documented exactness contract. Fix: epsilon comparison or a documented\n\
             bit-exact helper."
        }
        R4_OFFLINE_DEPS => {
            "R4 offline-deps: every manifest dependency must be a workspace path\n\
             dep (vendored-compat policy; crates.io is unreachable in this\n\
             environment). Fix: vendor under crates/compat-* and reference by path."
        }
        R5_PUB_UNDOCUMENTED => {
            "R5 pub-undocumented: public items of the core/tree-spanner crates\n\
             carry doc comments. Fix: write the doc comment."
        }
        R6_MAP_ON_QUERY_PATH => {
            "R6 map-on-query-path: no keyed-container lookups (`.get(&…)`, `[&…]`,\n\
             `.contains_key`) inside query-path functions — query tables are dense\n\
             Vec/CSR layouts built at preprocessing time. Fix: densify the table."
        }
        R7_SWALLOWED_RESULT => {
            "R7 swallowed-result: no `let _ = <call>;` in library crates —\n\
             discarding a call's result swallows the typed errors R1 depends on.\n\
             Fix: bind a name, `?` the error, or match on it."
        }
        R8_BLOCKING_IO => {
            "R8 blocking-io-on-query-path: no sockets, files, or `.lock(…)` inside\n\
             query-path functions; queries are microsecond-scale pure reads. The\n\
             serve dispatcher owns sockets and queue locks and is exempt by crate."
        }
        R9_UNVERSIONED_SERIALIZATION => {
            "R9 unversioned-serialization: no raw to_le_bytes/from_le_bytes in the\n\
             store crate outside src/section.rs — every snapshot byte flows through\n\
             the versioned ByteWriter/ByteReader codec so the format version and\n\
             whole-file checksum cover it."
        }
        R10_ALLOC_ON_QUERY_PATH => {
            "R10 alloc-on-query-path: no allocating construct (Vec::new,\n\
             with_capacity, collect, to_vec, format!, Box::new, String::from,\n\
             vec!) transitively reachable from a query entry point (find_path*/\n\
             route*/locate*) through the workspace call graph. This statically\n\
             shadows the counting-allocator runtime check: the graph walks every\n\
             callee, across crates, so a Vec::new two calls below find_path_into\n\
             is found at analysis time. Resolution is conservative name-level\n\
             matching — false positives are expected and answered with a reasoned\n\
             hopspan:allow at the allocation site.\n\
             Fix: hoist the allocation into caller-owned scratch (*_into family)."
        }
        R11_LOCK_ORDER_INVERSION => {
            "R11 lock-order-inversion: every pair of locks must be acquired in one\n\
             global order. Per-function Mutex/RwLock acquisition sequences\n\
             (including the lock_resilient wrapper) are propagated through the\n\
             call graph; functions observing opposite orders of a pair are flagged\n\
             at both sites. Over-approximations: a lock is assumed held until its\n\
             function returns, and lock identity is the last path identifier —\n\
             two mutexes sharing a field name collide (rename one; grep-auditable\n\
             naming is the point).\n\
             Fix: pick one global acquisition order and restructure."
        }
        R12_UNCHECKED_ARITH => {
            "R12 unchecked-arith-on-untrusted-input: in decode functions of the\n\
             store/serve crates (decode_*/read_*/get_* names, ByteReader/FrameView\n\
             signatures), raw `+`/`*`/`<<` and bare `as` narrowing on values\n\
             originating from untrusted bytes must go through checked_*/try_from\n\
             with a typed error. A forged length or offset must never overflow,\n\
             truncate, or drive an attacker-sized allocation.\n\
             Fix: checked_add/checked_mul/usize::try_from + typed error."
        }
        R13_UNBOUNDED_RETRY => {
            "R13 unbounded-retry: a loop that makes a retry-shaped call (an\n\
             identifier containing retry/backoff/resubmit invoked as a call) must\n\
             reference a budget identifier — deadline/budget/remaining/expires/\n\
             timeout — in its condition or body. A budget-free retry loop spins\n\
             forever under a persistent fault and blows the caller's SLO under a\n\
             transient one; the workspace contract is that any retry is\n\
             deadline-budgeted (monotonic Instant math).\n\
             Fix: deduct every attempt from an explicit budget/deadline and stop\n\
             when it runs out."
        }
        R14_EPOCH_UNGUARDED_MUTATION => {
            "R14 epoch-unguarded-mutation: in the dynamic-navigator crate, every\n\
             write to epoch-lifecycle state (fields rooted at published/tombstone/\n\
             pending/dirty/epoch/status) must go through the src/epoch.rs funnel —\n\
             the Shared/Ledger methods that DESIGN.md §12's swap-safety argument\n\
             audits. A field assignment, compound assignment, or mutating\n\
             container call (push/insert/clear/…) on such state elsewhere bypasses\n\
             the lock discipline: a query could observe a half-swapped epoch, or a\n\
             tombstone could silently resurrect. Reads are always fine.\n\
             Fix: add (or use) a Shared/Ledger method and write through it."
        }
        BAD_PRAGMA => {
            "bad-pragma (meta): a hopspan:allow pragma that is malformed — missing\n\
             rule, unknown rule, or missing `-- <reason>`. Never suppressible."
        }
        STALE_PRAGMA => {
            "stale-pragma (meta): a well-formed hopspan:allow that no longer\n\
             suppresses any finding — the code it excused was fixed or moved.\n\
             Stale allows are latent blind spots; delete them. Never suppressible."
        }
        _ => return None,
    })
}

/// R8: flags blocking I/O and lock acquisition inside query-path
/// function bodies. Three token shapes: `std :: net`/`std :: fs` path
/// segments, the socket/file type names of [`BLOCKING_TYPES`], and
/// `.lock(` method calls (`Mutex`/`RwLock` acquisition — a queue wait
/// on the query path).
fn rule_blocking_io_on_query_path(
    label: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let bodies = query_fn_bodies(toks);
    let flag = |out: &mut Vec<Finding>, line: u32, what: &str, fn_name: &str| {
        out.push(Finding {
            rule: R8_BLOCKING_IO.to_string(),
            file: label.to_string(),
            line,
            message: format!(
                "{what} in query fn `{fn_name}`: queries must not block on \
                 sockets, files, or locks; hoist the I/O to the serving \
                 layer or add a reasoned hopspan:allow"
            ),
        });
    };
    for (start, end, fn_name) in bodies {
        let mut i = start;
        while i <= end.min(toks.len().saturating_sub(1)) {
            if in_test(i) || toks[i].kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let text = toks[i].text.as_str();
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let next = toks.get(i + 1).map(|t| t.text.as_str());
            if matches!(text, "net" | "fs")
                && prev == Some("::")
                && i >= 2
                && toks[i - 2].text == "std"
            {
                flag(out, toks[i].line, &format!("`std::{text}`"), &fn_name);
            } else if BLOCKING_TYPES.contains(&text) && prev != Some(".") {
                flag(out, toks[i].line, &format!("`{text}`"), &fn_name);
            } else if text == "lock" && prev == Some(".") && next == Some("(") {
                flag(out, toks[i].line, "`.lock(…)`", &fn_name);
            }
            i += 1;
        }
    }
}
