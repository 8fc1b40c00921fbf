//! Token-level repo-invariant linter (no `syn`; line/token scanning
//! over comment- and string-masked source, like real-world `xtask`
//! lints).
//!
//! Rules (see `docs/CHECKS.md` for the runbook):
//!
//! | rule             | scope                                   | enforces |
//! |------------------|-----------------------------------------|----------|
//! | `safety-comment` | every `.rs` file                        | each `unsafe` carries a `// SAFETY:` comment |
//! | `wall-clock`     | fc-core/fc-tiles/fc-array `src/`        | no ambient time (`Instant::now`, `SystemTime`, `.elapsed()`) — SimClock / `parking_lot::time` discipline |
//! | `std-sync`       | all `src/` outside `crates/shims`       | no `std::sync::{Mutex,RwLock,Condvar}` — the shim is the instrumented seam |
//! | `handler-unwrap` | fc-server `src/`                        | no `.unwrap()`/`.expect()`/`panic!` in client-reachable paths |
//! | `no-print`       | library `src/` (fc-bench and bins exempt) | no `println!`/`eprintln!`/`dbg!` in libraries |
//! | `wire-string`    | fc-server `src/`                        | wire writes go through the bounded-string helper (`wire_str`) |
//! | `parallelism-probe` | every `.rs` file outside `crates/shims/rayon` | no `available_parallelism` — ask `rayon::current_num_threads()`, resolved once per process |
//!
//! Every rule honours an explicit inline waiver on the same line or
//! the line above:
//!
//! ```text
//! // fc-check: allow(<rule>) -- <reason>
//! ```
//!
//! A waiver without a reason is itself a finding (`bad-waiver`), so
//! every exception in the tree stays visible and greppable.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint hit: rule id, file, 1-based line, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (what `allow(...)` must name to waive it).
    pub rule: &'static str,
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Counts accompanying a clean-or-not verdict.
#[derive(Debug, Default, Clone, Copy)]
pub struct LintSummary {
    /// Files scanned.
    pub files: usize,
    /// Findings emitted (waived ones excluded).
    pub findings: usize,
    /// Waivers that suppressed a finding.
    pub waivers_used: usize,
}

// ---------------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------------

/// Replaces the contents of comments, string/char literals (including
/// raw and byte forms) with spaces, preserving line structure — so
/// token scans over the result only ever see code.
pub fn mask_source(src: &str) -> String {
    mask_impl(src, false)
}

/// The inverse view: keeps comment text, blanks code and literals —
/// so "is there a `SAFETY:` comment here" cannot be satisfied by a
/// string literal that happens to contain the word.
fn comments_only(src: &str) -> String {
    mask_impl(src, true)
}

fn mask_impl(src: &str, keep_comments: bool) -> String {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out: Vec<char> = Vec::with_capacity(n);
    let mut i = 0;

    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };

    // Tracks what the *code-keeping* mask would have emitted last, so
    // the literal-prefix check below is identical in both views (in
    // the comments-only view `out` holds blanks where code was).
    let mut last_code: char = '\n';
    // True when the previous source char is an identifier character
    // (so `r` or `b` here is the tail of an identifier, not a literal
    // prefix).
    let prev_is_ident = |last: char| last.is_alphanumeric() || last == '_';

    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                out.push(if keep_comments { chars[i] } else { ' ' });
                last_code = ' ';
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            last_code = ' ';
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(if keep_comments {
                        chars[i]
                    } else {
                        blank(chars[i])
                    });
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw-byte) string literal: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || (c == 'b' && i + 1 < n && chars[i + 1] == 'r')) && !prev_is_ident(last_code)
        {
            let start = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            let mut j = start;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && chars[j] == '"' {
                // Mask from i through the closing quote+hashes.
                j += 1;
                loop {
                    if j >= n {
                        break;
                    }
                    if chars[j] == '"' {
                        let mut k = 0;
                        while k < hashes && j + 1 + k < n && chars[j + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break;
                        }
                    }
                    j += 1;
                }
                while i < j.min(n) {
                    out.push(blank(chars[i]));
                    last_code = ' ';
                    i += 1;
                }
                continue;
            }
            // Not a raw string after all: fall through as plain code.
        }
        // Plain (or byte) string literal.
        if c == '"' || (c == 'b' && i + 1 < n && chars[i + 1] == '"' && !prev_is_ident(last_code)) {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            while j < n {
                if chars[j] == '\\' {
                    j += 2;
                    continue;
                }
                if chars[j] == '"' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            while i < j.min(n) {
                out.push(blank(chars[i]));
                last_code = ' ';
                i += 1;
            }
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let is_char_lit = if i + 1 < n && chars[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && chars[i + 2] == '\''
            };
            if is_char_lit {
                let mut j = i + 1;
                if j < n && chars[j] == '\\' {
                    j += 2; // skip the escaped char
                            // \u{...} form
                    while j < n && chars[j] != '\'' {
                        j += 1;
                    }
                    j += 1;
                } else {
                    j += 2; // char + closing quote
                }
                while i < j.min(n) {
                    out.push(blank(chars[i]));
                    last_code = ' ';
                    i += 1;
                }
                continue;
            }
            // Lifetime: emit as-is.
        }
        out.push(if keep_comments { blank(c) } else { c });
        last_code = c;
        i += 1;
    }
    out.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Region helpers
// ---------------------------------------------------------------------------

/// Marks lines inside `#[cfg(test)]`-gated items (brace-matched on the
/// masked text). Test-only code is exempt from the runtime-discipline
/// rules (wall-clock, handler-unwrap, no-print).
fn test_region_lines(masked: &str) -> Vec<bool> {
    let nlines = masked.lines().count();
    let mut in_test = vec![false; nlines];
    let bytes: Vec<char> = masked.chars().collect();
    let mut line_of = Vec::with_capacity(bytes.len());
    {
        let mut ln = 0;
        for &c in &bytes {
            line_of.push(ln);
            if c == '\n' {
                ln += 1;
            }
        }
    }
    let text: String = masked.to_string();
    let mut search = 0;
    while let Some(pos) = text[search..].find("#[cfg(test)]") {
        let at = search + pos;
        // First '{' after the attribute opens the gated item.
        let Some(rel) = text[at..].find('{') else {
            break;
        };
        let open = at + rel;
        let mut depth = 0usize;
        let mut end = open;
        for (k, &c) in bytes.iter().enumerate().skip(open) {
            if c == '{' {
                depth += 1;
            } else if c == '}' {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
        }
        let (l0, l1) = (
            line_of[open.min(line_of.len() - 1)],
            line_of[end.min(line_of.len() - 1)],
        );
        for l in in_test.iter_mut().take(l1 + 1).skip(l0) {
            *l = true;
        }
        search = at + "#[cfg(test)]".len();
    }
    in_test
}

/// True when `hay[at..]` starts a standalone word match of `needle`
/// (identifier characters on either side defeat the match).
fn word_at(hay: &[char], at: usize, needle: &str) -> bool {
    let nd: Vec<char> = needle.chars().collect();
    if at + nd.len() > hay.len() || hay[at..at + nd.len()] != nd[..] {
        return false;
    }
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    if at > 0 && ident(hay[at - 1]) {
        return false;
    }
    if at + nd.len() < hay.len() && ident(hay[at + nd.len()]) {
        return false;
    }
    true
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

enum Waiver {
    /// `allow(rule) -- reason` found.
    Ok,
    /// `allow(rule)` without a reason.
    MissingReason(usize),
    None,
}

/// Looks for `fc-check: allow(<rule>)` on `line` (0-based) or the line
/// above, in the *raw* source.
fn waiver_for(raw_lines: &[&str], line: usize, rule: &str) -> Waiver {
    let needle = format!("fc-check: allow({rule})");
    let mut candidates = vec![line];
    if line > 0 {
        candidates.push(line - 1);
    }
    for l in candidates {
        let text = raw_lines[l];
        if let Some(pos) = text.find(&needle) {
            let rest = &text[pos + needle.len()..];
            let reason_ok = rest
                .trim_start()
                .strip_prefix("--")
                .is_some_and(|r| !r.trim().is_empty());
            return if reason_ok {
                Waiver::Ok
            } else {
                Waiver::MissingReason(l)
            };
        }
    }
    Waiver::None
}

// ---------------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    label: &'a str,
    raw_lines: Vec<&'a str>,
    masked_lines: Vec<String>,
    /// Comment text only (code and literals blanked) — the view the
    /// `SAFETY:` check reads.
    comment_lines: Vec<String>,
    in_test: Vec<bool>,
}

fn in_dir(label: &str, dir: &str) -> bool {
    label.starts_with(dir)
}

fn is_src(label: &str) -> bool {
    // A library/binary source file (not an integration test or bench).
    label.contains("/src/")
}

fn rule_applies(rule: &'static str, label: &str) -> bool {
    match rule {
        "safety-comment" => true,
        "wall-clock" => {
            is_src(label)
                && (in_dir(label, "crates/fc-core/")
                    || in_dir(label, "crates/fc-tiles/")
                    || in_dir(label, "crates/fc-array/"))
        }
        "std-sync" => is_src(label) && !in_dir(label, "crates/shims/"),
        "handler-unwrap" | "wire-string" => is_src(label) && in_dir(label, "crates/fc-server/"),
        "parallelism-probe" => !in_dir(label, "crates/shims/rayon/"),
        "no-print" => {
            is_src(label)
                && !in_dir(label, "crates/fc-bench/")
                && !label.contains("/bin/")
                && !label.ends_with("/main.rs")
                && !label.contains("/examples/")
        }
        _ => false,
    }
}

/// Emits a finding unless a waiver covers it; `summary` tracks usage.
#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut Vec<Finding>,
    summary: &mut LintSummary,
    ctx: &FileCtx<'_>,
    rule: &'static str,
    line0: usize,
    message: String,
) {
    match waiver_for(&ctx.raw_lines, line0, rule) {
        Waiver::Ok => summary.waivers_used += 1,
        Waiver::MissingReason(l) => out.push(Finding {
            rule: "bad-waiver",
            file: ctx.label.to_string(),
            line: l + 1,
            message: format!(
                "waiver for `{rule}` has no reason — write `fc-check: allow({rule}) -- <why>`"
            ),
        }),
        Waiver::None => out.push(Finding {
            rule,
            file: ctx.label.to_string(),
            line: line0 + 1,
            message,
        }),
    }
}

fn scan_safety_comments(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, summary: &mut LintSummary) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        let chars: Vec<char> = masked.chars().collect();
        let mut found = false;
        for i in 0..chars.len() {
            if word_at(&chars, i, "unsafe") {
                found = true;
                break;
            }
        }
        if !found {
            continue;
        }
        // A SAFETY: comment on the same line or within 8 lines above
        // (room for a multi-line comment plus attributes and a
        // multi-line signature between it and the `unsafe` token).
        let lo = l.saturating_sub(8);
        let documented = (lo..=l).any(|k| ctx.comment_lines[k].contains("SAFETY:"));
        if !documented {
            emit(
                out,
                summary,
                ctx,
                "safety-comment",
                l,
                "`unsafe` without a `// SAFETY:` comment (same line or ≤8 lines above)".to_string(),
            );
        }
    }
}

fn scan_tokens(
    ctx: &FileCtx<'_>,
    rule: &'static str,
    tokens: &[&str],
    skip_test_lines: bool,
    message: &str,
    out: &mut Vec<Finding>,
    summary: &mut LintSummary,
) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        if skip_test_lines && ctx.in_test.get(l).copied().unwrap_or(false) {
            continue;
        }
        for tok in tokens {
            if masked.contains(tok) {
                emit(
                    out,
                    summary,
                    ctx,
                    rule,
                    l,
                    format!("{message} (found `{tok}`)"),
                );
                break;
            }
        }
    }
}

fn scan_std_sync(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, summary: &mut LintSummary) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        let direct = [
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
        ]
        .iter()
        .any(|t| masked.contains(t));
        // Brace-import form: `use std::sync::{Arc, Condvar};`
        let braced = masked.find("std::sync::{").is_some_and(|pos| {
            let rest = &masked[pos + "std::sync::{".len()..];
            let list = rest.split('}').next().unwrap_or(rest);
            list.split(',')
                .any(|item| matches!(item.trim(), "Mutex" | "RwLock" | "Condvar"))
        });
        if direct || braced {
            emit(
                out,
                summary,
                ctx,
                "std-sync",
                l,
                "std::sync::{Mutex,RwLock,Condvar} outside crates/shims — use the \
                 parking_lot shim (instrumented: lock-order witness + model checker)"
                    .to_string(),
            );
        }
    }
}

fn scan_wire_string(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, summary: &mut LintSummary) {
    for (l, masked) in ctx.masked_lines.iter().enumerate() {
        if masked.contains(".as_bytes(") && !masked.contains("wire_str(") {
            emit(
                out,
                summary,
                ctx,
                "wire-string",
                l,
                "wire write bypasses the bounded-string helper — wrap the source \
                 string in `wire_str(...)` on this line"
                    .to_string(),
            );
        }
    }
}

/// Lints one source text under its repo-relative `label`; returns the
/// findings (waived ones excluded, broken waivers included).
pub fn lint_source(label: &str, src: &str) -> Vec<Finding> {
    let mut summary = LintSummary::default();
    lint_source_counted(label, src, &mut summary)
}

fn lint_source_counted(label: &str, src: &str, summary: &mut LintSummary) -> Vec<Finding> {
    let masked = mask_source(src);
    let ctx = FileCtx {
        label,
        raw_lines: src.lines().collect(),
        masked_lines: masked.lines().map(str::to_string).collect(),
        comment_lines: comments_only(src).lines().map(str::to_string).collect(),
        in_test: test_region_lines(&masked),
    };
    let mut out = Vec::new();
    if rule_applies("safety-comment", label) {
        scan_safety_comments(&ctx, &mut out, summary);
    }
    if rule_applies("wall-clock", label) {
        scan_tokens(
            &ctx,
            "wall-clock",
            &["Instant::now", "SystemTime", ".elapsed()"],
            true,
            "ambient wall clock in a SimClock-disciplined crate — use \
             `parking_lot::time::now()` or take a clock parameter",
            &mut out,
            summary,
        );
    }
    if rule_applies("std-sync", label) {
        scan_std_sync(&ctx, &mut out, summary);
    }
    if rule_applies("handler-unwrap", label) {
        scan_tokens(
            &ctx,
            "handler-unwrap",
            &[".unwrap(", ".expect(", "panic!("],
            true,
            "panic path in client-reachable server code — return an ErrorCode \
             or waive with the invariant that makes this unreachable",
            &mut out,
            summary,
        );
    }
    if rule_applies("no-print", label) {
        scan_tokens(
            &ctx,
            "no-print",
            &["println!(", "eprintln!(", "print!(", "eprint!(", "dbg!("],
            true,
            "stdout/stderr noise in a library crate",
            &mut out,
            summary,
        );
    }
    if rule_applies("wire-string", label) {
        scan_wire_string(&ctx, &mut out, summary);
    }
    if rule_applies("parallelism-probe", label) {
        scan_tokens(
            &ctx,
            "parallelism-probe",
            &["available_parallelism"],
            false,
            "per-call parallelism probe (affinity + cgroup file reads) — use \
             `rayon::current_num_threads()`, which resolves the count once",
            &mut out,
            summary,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Tree walk
// ---------------------------------------------------------------------------

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Lints every `.rs` file under `root` (skipping `target/` and
/// `.git/`); returns findings plus scan counts.
pub fn lint_tree(root: &Path) -> (Vec<Finding>, LintSummary) {
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    files.sort();
    let mut summary = LintSummary::default();
    let mut out = Vec::new();
    for f in &files {
        let Ok(src) = std::fs::read_to_string(f) else {
            continue;
        };
        let label = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        summary.files += 1;
        out.extend(lint_source_counted(&label, &src, &mut summary));
    }
    summary.findings = out.len();
    (out, summary)
}
