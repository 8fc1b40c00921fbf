//! Fixture coverage for every lint rule: each rule has a firing
//! fixture, a non-firing control, and a waiver pair (honoured waiver
//! plus reason-less `bad-waiver`). Fixtures are inline string
//! literals scanned through `lint_source` with a label that routes
//! them to the right rule set — nothing here touches the real tree,
//! so `repo_lint_clean` stays independent.

use fc_check::{lint_source, mask_source, Finding};

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// -------------------------------------------------------------------------
// safety-comment
// -------------------------------------------------------------------------

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let f = lint_source("crates/fc-x/src/lib.rs", src);
    assert_eq!(rules(&f), ["safety-comment"]);
    assert_eq!(f[0].line, 2);
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert!(lint_source("crates/fc-x/src/lib.rs", src).is_empty());
}

#[test]
fn safety_comment_within_window_above_attributes_is_honoured() {
    let src = "// SAFETY: callers uphold the contract described here,\n// spelled over several lines.\n#[inline(always)]\n#[target_feature(enable = \"avx2\")]\nunsafe fn f() {}\n";
    assert!(lint_source("crates/fc-x/src/lib.rs", src).is_empty());
}

#[test]
fn safety_in_string_literal_does_not_count() {
    // The comment scan runs on masked source: "SAFETY:" inside a
    // string must not satisfy the rule.
    let src = "fn f(p: *const u8) -> u8 {\n    let _s = \"SAFETY: not a comment\";\n    unsafe { *p }\n}\n";
    assert_eq!(
        rules(&lint_source("crates/fc-x/src/lib.rs", src)),
        ["safety-comment"]
    );
}

// -------------------------------------------------------------------------
// wall-clock
// -------------------------------------------------------------------------

#[test]
fn wall_clock_in_fc_core_fires_and_is_scoped() {
    let src = "fn f() { let t = Instant::now(); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["wall-clock"]
    );
    // Same token outside the SimClock-disciplined crates: no finding.
    assert!(lint_source("crates/fc-server/src/x.rs", src).is_empty());
    // Integration tests of the disciplined crates are exempt too.
    assert!(lint_source("crates/fc-core/tests/x.rs", src).is_empty());
}

#[test]
fn wall_clock_inside_cfg_test_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

#[test]
fn wall_clock_comment_mention_is_clean() {
    let src = "// Instant::now() is banned here; use SimClock.\nfn f() {}\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

// -------------------------------------------------------------------------
// std-sync
// -------------------------------------------------------------------------

#[test]
fn std_sync_import_fires_outside_shims() {
    let src = "use std::sync::Mutex;\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["std-sync"]
    );
    // The shims themselves are the one place std primitives live.
    assert!(lint_source("crates/shims/parking_lot/src/lib.rs", src).is_empty());
}

#[test]
fn std_sync_brace_import_fires_only_for_banned_items() {
    let banned = "use std::sync::{Arc, RwLock};\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", banned)),
        ["std-sync"]
    );
    let fine = "use std::sync::{Arc, atomic::AtomicUsize};\n";
    assert!(lint_source("crates/fc-core/src/x.rs", fine).is_empty());
}

// -------------------------------------------------------------------------
// handler-unwrap
// -------------------------------------------------------------------------

#[test]
fn unwrap_in_server_src_fires() {
    let src = "fn handle() { let v = parse().unwrap(); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-server/src/handler.rs", src)),
        ["handler-unwrap"]
    );
    // Other crates' unwraps are out of this rule's scope.
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

#[test]
fn unwrap_in_server_tests_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { parse().unwrap(); }\n}\n";
    assert!(lint_source("crates/fc-server/src/handler.rs", src).is_empty());
}

// -------------------------------------------------------------------------
// no-print
// -------------------------------------------------------------------------

#[test]
fn println_in_library_fires_but_main_is_exempt() {
    let src = "fn f() { println!(\"x\"); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["no-print"]
    );
    assert!(lint_source("crates/fc-server/src/main.rs", src).is_empty());
    assert!(lint_source("crates/fc-server/src/bin/tool.rs", src).is_empty());
    assert!(lint_source("crates/fc-bench/src/x.rs", src).is_empty());
}

// -------------------------------------------------------------------------
// wire-string
// -------------------------------------------------------------------------

#[test]
fn raw_as_bytes_on_wire_fires_and_helper_is_clean() {
    let raw = "fn enc(w: &mut W, s: &str) { w.put(s.as_bytes()); }\n";
    assert_eq!(
        rules(&lint_source("crates/fc-server/src/protocol.rs", raw)),
        ["wire-string"]
    );
    let helper = "fn enc(w: &mut W, s: &str) { wire_str(w, s.as_bytes()); }\n";
    assert!(lint_source("crates/fc-server/src/protocol.rs", helper).is_empty());
}

// -------------------------------------------------------------------------
// parallelism-probe
// -------------------------------------------------------------------------

#[test]
fn parallelism_probe_fires_everywhere_but_the_rayon_shim() {
    let src = "fn n() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n";
    for label in [
        "crates/fc-core/src/signature.rs",
        "crates/fc-bench/src/bin/exp.rs",
        "crates/fc-core/tests/x.rs",
        "perfbench/src/main.rs",
    ] {
        assert_eq!(
            rules(&lint_source(label, src)),
            ["parallelism-probe"],
            "{label}"
        );
    }
    // Test modules pay the probe per call too: no exemption.
    let in_test = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
    assert_eq!(
        rules(&lint_source("crates/fc-array/src/ops.rs", &in_test)),
        ["parallelism-probe"]
    );
    // The shim is where the count is resolved, once.
    assert!(lint_source("crates/shims/rayon/src/lib.rs", src).is_empty());
    // The sanctioned accessor and comment mentions are clean.
    let ok =
        "// not available_parallelism per call\nfn n() -> usize { rayon::current_num_threads() }\n";
    assert!(lint_source("crates/fc-core/src/x.rs", ok).is_empty());
}

// -------------------------------------------------------------------------
// Waivers
// -------------------------------------------------------------------------

#[test]
fn waiver_with_reason_suppresses_finding() {
    let src = "fn f() { let t = Instant::now(); } // fc-check: allow(wall-clock) -- fixture needs real time\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

#[test]
fn waiver_on_line_above_suppresses_finding() {
    let src = "// fc-check: allow(no-print) -- progress output is this tool's UI\nfn f() { println!(\"x\"); }\n";
    assert!(lint_source("crates/fc-core/src/x.rs", src).is_empty());
}

#[test]
fn waiver_without_reason_is_a_bad_waiver() {
    let src = "fn f() { let t = Instant::now(); } // fc-check: allow(wall-clock)\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["bad-waiver"]
    );
}

#[test]
fn waiver_for_wrong_rule_does_not_suppress() {
    let src = "fn f() { let t = Instant::now(); } // fc-check: allow(no-print) -- wrong rule\n";
    assert_eq!(
        rules(&lint_source("crates/fc-core/src/x.rs", src)),
        ["wall-clock"]
    );
}

// -------------------------------------------------------------------------
// Masking
// -------------------------------------------------------------------------

#[test]
fn masking_hides_comments_strings_and_nested_blocks() {
    let src = "let a = \"Instant::now()\"; // Instant::now()\n/* outer /* Instant::now() */ still masked */ let b = 1;\n";
    let masked = mask_source(src);
    assert!(!masked.contains("Instant"));
    assert!(masked.contains("let a ="));
    assert!(masked.contains("let b = 1;"));
    assert_eq!(
        masked.lines().count(),
        src.lines().count(),
        "line structure preserved"
    );
}

#[test]
fn masking_keeps_lifetimes_and_raw_strings_straight() {
    let src = "fn f<'a>(x: &'a str) {}\nlet r = r#\"println!(\"x\")\"#;\n";
    let masked = mask_source(src);
    assert!(
        masked.contains("fn f<'a>(x: &'a str)"),
        "lifetime mistaken for char: {masked}"
    );
    assert!(!masked.contains("println"));
}
