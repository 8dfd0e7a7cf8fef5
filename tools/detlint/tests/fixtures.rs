//! Integration tests over the fixture corpus: one known-bad and one
//! allowed twin per rule, driven through the real binary with `--json`.
//!
//! Positions are pinned exactly (line AND column) so a lexer or scanner
//! regression that shifts diagnostics — even while still "finding" the
//! site — fails loudly.

use std::process::Command;

const MANIFEST: &str = "tests/fixtures/manifest.toml";

/// Run the detlint binary on one fixture and return (exit_code, stdout).
fn run(fixture: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["--json", "--manifest", MANIFEST, fixture])
        .output()
        .expect("spawn detlint");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    (out.status.code().expect("exit code"), stdout)
}

/// Assert the JSON output contains an entry at exactly (line, col) for `rule`.
fn assert_finding(json: &str, fixture: &str, line: u32, col: u32, rule: &str) {
    let needle =
        format!("\"file\":\"{fixture}\",\"line\":{line},\"col\":{col},\"rule\":\"{rule}\"");
    assert!(
        json.contains(&needle),
        "expected {rule} at {fixture}:{line}:{col}, got:\n{json}"
    );
}

/// Count findings in the JSON output.
fn count_findings(json: &str) -> usize {
    json.matches("\"rule\":").count()
}

fn assert_clean(fixture: &str) {
    let (code, json) = run(fixture);
    assert_eq!(code, 0, "{fixture} should be clean, got:\n{json}");
    assert_eq!(
        count_findings(&json),
        0,
        "{fixture}: unexpected findings:\n{json}"
    );
}

#[test]
fn hash_iter_bad_flags_method_and_for_loop_forms() {
    let f = "tests/fixtures/hash_iter_bad.rs";
    let (code, json) = run(f);
    assert_eq!(code, 1);
    assert_finding(&json, f, 10, 20, "hash-iter"); // self.flows.values()
    assert_finding(&json, f, 14, 24, "hash-iter"); // for k in &self.flows
    assert_finding(&json, f, 23, 14, "hash-iter"); // for s in seen (let-bound HashSet)
    assert_eq!(count_findings(&json), 3, "{json}");
}

#[test]
fn hash_iter_allowed_is_clean() {
    assert_clean("tests/fixtures/hash_iter_allowed.rs");
}

#[test]
fn wall_clock_bad_flags_instant_and_system_time() {
    let f = "tests/fixtures/wall_clock_bad.rs";
    let (code, json) = run(f);
    assert_eq!(code, 1);
    assert_finding(&json, f, 2, 26, "wall-clock"); // use ... SystemTime
    assert_finding(&json, f, 5, 13, "wall-clock"); // Instant::now()
    assert_finding(&json, f, 6, 13, "wall-clock"); // SystemTime::now()
    assert_eq!(count_findings(&json), 3, "{json}");
}

#[test]
fn wall_clock_allowed_is_clean() {
    assert_clean("tests/fixtures/wall_clock_allowed.rs");
}

#[test]
fn wall_clock_exempt_path_needs_no_annotation() {
    assert_clean("tests/fixtures/wall_clock_exempt.rs");
}

#[test]
fn rng_bad_flags_thread_rng_and_rand_random() {
    let f = "tests/fixtures/rng_bad.rs";
    let (code, json) = run(f);
    assert_eq!(code, 1);
    assert_finding(&json, f, 3, 25, "ad-hoc-rng"); // rand::thread_rng()
    assert_finding(&json, f, 4, 18, "ad-hoc-rng"); // rand::random()
    assert_eq!(count_findings(&json), 2, "{json}");
}

#[test]
fn rng_allowed_is_clean() {
    assert_clean("tests/fixtures/rng_allowed.rs");
}

#[test]
fn float_accum_bad_flags_sum_and_fold() {
    let f = "tests/fixtures/float_accum_bad.rs";
    let (code, json) = run(f);
    assert_eq!(code, 1);
    // Each site fires twice: the hash iteration itself, then the float
    // accumulation layered on top of it.
    assert_finding(&json, f, 11, 18, "hash-iter");
    assert_finding(&json, f, 11, 27, "float-accum"); // .sum::<f64>()
    assert_finding(&json, f, 15, 18, "hash-iter");
    assert_finding(&json, f, 15, 27, "float-accum"); // .fold(0.0f64, ..)
    assert_eq!(count_findings(&json), 4, "{json}");
}

#[test]
fn float_accum_allowed_one_annotation_covers_both_rules() {
    assert_clean("tests/fixtures/float_accum_allowed.rs");
}

#[test]
fn hot_alloc_bad_flags_all_six_forms_only_in_hot_fn() {
    let f = "tests/fixtures/hot_alloc_bad.rs";
    let (code, json) = run(f);
    assert_eq!(code, 1);
    assert_finding(&json, f, 4, 13, "hot-alloc"); // Vec::new
    assert_finding(&json, f, 5, 20, "hot-alloc"); // .to_vec()
    assert_finding(&json, f, 6, 13, "hot-alloc"); // Box::new
    assert_finding(&json, f, 7, 13, "hot-alloc"); // format!
    assert_finding(&json, f, 8, 19, "hot-alloc"); // .clone()
    assert_finding(&json, f, 9, 7, "hot-alloc"); // .reserve()

    // cold_fn allocates identically but is not in the manifest: no findings.
    assert_eq!(count_findings(&json), 6, "{json}");
}

#[test]
fn hot_alloc_allowed_is_clean() {
    assert_clean("tests/fixtures/hot_alloc_allowed.rs");
}

#[test]
fn stale_allow_is_itself_a_finding() {
    let f = "tests/fixtures/stale_allow.rs";
    let (code, json) = run(f);
    assert_eq!(code, 1);
    assert_finding(&json, f, 4, 5, "stale-allow");
    assert_eq!(count_findings(&json), 1, "{json}");
}

/// `--workspace` over the mini workspace under `tests/fixtures/stale_ws`.
fn run_stale_ws(manifest: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .current_dir("tests/fixtures/stale_ws")
        .args(["--workspace", "--json", "--manifest", manifest])
        .output()
        .expect("spawn detlint");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    (out.status.code().expect("exit code"), stdout)
}

#[test]
fn stale_manifest_flags_unmatched_paths_and_undefined_hot_fns() {
    let (code, json) = run_stale_ws("stale.toml");
    assert_eq!(code, 1);
    assert_finding(&json, "stale.toml", 4, 1, "stale-manifest"); // [sim-crates] crates/ghost
    assert_finding(&json, "stale.toml", 7, 1, "stale-manifest"); // [wall-clock-exempt] gone.rs
    assert_finding(&json, "stale.toml", 11, 1, "stale-manifest"); // [hot] moved.rs
    assert_finding(&json, "crates/demo/src/lib.rs", 1, 1, "stale-manifest"); // fn vanished
    assert_eq!(count_findings(&json), 4, "{json}");
}

#[test]
fn fresh_manifest_is_clean() {
    let (code, json) = run_stale_ws("fresh.toml");
    assert_eq!(code, 0, "{json}");
    assert_eq!(count_findings(&json), 0, "{json}");
}

#[test]
fn bad_allow_missing_reason_and_unknown_rule_suppress_nothing() {
    let f = "tests/fixtures/bad_allow.rs";
    let (code, json) = run(f);
    assert_eq!(code, 1);
    assert_finding(&json, f, 7, 5, "bad-allow"); // no reason
    assert_finding(&json, f, 8, 5, "wall-clock"); // NOT suppressed by the bad allow
    assert_finding(&json, f, 11, 1, "bad-allow"); // unknown rule id
    assert_eq!(count_findings(&json), 3, "{json}");
}

#[test]
fn whole_corpus_totals_are_stable() {
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["--json", "--manifest", MANIFEST, "tests/fixtures"])
        .output()
        .expect("spawn detlint");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(count_findings(&json), 22, "{json}");
}

#[test]
fn usage_error_exits_2() {
    // --workspace and explicit paths are mutually exclusive.
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["--workspace", "tests/fixtures"])
        .output()
        .expect("spawn detlint");
    assert_eq!(out.status.code(), Some(2));
}
