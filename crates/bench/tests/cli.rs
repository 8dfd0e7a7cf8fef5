//! CLI behaviour of the `all_experiments` driver: a `--filter` that
//! matches nothing (or is empty) must fail loudly (listing the known
//! experiment ids and exiting non-zero), even when other filters do
//! match; `--help` agrees with the argument parser and the doc table; and
//! `--json` writes the profile's folded stacks exactly when the build is
//! traced.

use std::process::Command;

fn driver() -> Command {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
}

#[test]
fn unmatched_filter_lists_ids_and_exits_nonzero() {
    let out = driver()
        .args(["--quick", "--filter", "no_such_experiment"])
        .output()
        .expect("run all_experiments");
    assert!(!out.status.success(), "dead filter must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no_such_experiment"),
        "names the dead filter: {stderr}"
    );
    assert!(
        stderr.contains("known ids:") && stderr.contains("e1_escalation"),
        "lists the known ids: {stderr}"
    );
}

#[test]
fn dead_filter_fails_even_next_to_a_live_one() {
    let out = driver()
        .args(["--quick", "--filter", "e6", "--filter", "zzz_nope"])
        .output()
        .expect("run all_experiments");
    assert!(
        !out.status.success(),
        "a partially-dead filter set must not silently shrink"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("zzz_nope"), "{stderr}");
}

#[test]
fn empty_filter_fails_instead_of_running_everything() {
    // What `--filter "$UNSET"` expands to: a substring of every id.
    let out = driver()
        .args(["--quick", "--filter", ""])
        .output()
        .expect("run all_experiments");
    assert!(!out.status.success(), "empty filter must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("known ids:"), "{stderr}");
}

#[test]
fn matching_filter_still_runs() {
    let out = driver()
        .args(["--quick", "--filter", "e6", "--threads", "2"])
        .output()
        .expect("run all_experiments");
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("e6_handshake_security") || stdout.contains("E6"),
        "{stdout}"
    );
}

/// `--help` must exit 0 and name every flag in `expected` — which must in
/// turn be exactly the flags the binary's parser accepts and exactly the
/// flags its module-doc table lists, both read from `source`.
fn assert_help_matches(exe: &str, source: &str, expected: &[&str]) {
    // Lines of the form `<lead>--name...`, minus `--help` itself.
    let flags_after = |lead: &str| -> Vec<String> {
        let mut flags: Vec<String> = source
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix(lead)?.strip_prefix("--"))
            .map(|rest| rest.chars().take_while(char::is_ascii_lowercase).collect())
            .filter(|name: &String| !name.is_empty() && name != "help")
            .map(|name| format!("--{name}"))
            .collect();
        flags.sort_unstable();
        flags
    };
    let mut expected = expected.to_vec();
    expected.sort_unstable();
    assert_eq!(flags_after("\""), expected, "parser match arms");
    assert_eq!(flags_after("//! - `"), expected, "module-doc flag table");

    let out = Command::new(exe)
        .arg("--help")
        .output()
        .expect("run --help");
    assert!(out.status.success(), "--help must exit 0: {out:?}");
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in &expected {
        assert!(help.contains(flag), "--help omits {flag}: {help}");
    }
    assert!(
        !help.contains("SUBSTR") && help.contains("boundary"),
        "--filter is boundary-matched, not a plain substring: {help}"
    );
}

#[test]
fn all_experiments_help_names_every_flag() {
    assert_help_matches(
        env!("CARGO_BIN_EXE_all_experiments"),
        include_str!("../src/bin/all_experiments.rs"),
        &[
            "--quick",
            "--filter",
            "--threads",
            "--json",
            "--seed",
            "--shards",
        ],
    );
}

#[test]
fn json_carries_the_profile_exactly_when_the_build_is_traced() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_profile_e1");
    let _ = std::fs::remove_dir_all(&dir);
    let out = driver()
        .args(["--quick", "--filter", "e1", "--threads", "1", "--json"])
        .arg(&dir)
        .output()
        .expect("run all_experiments");
    assert!(out.status.success(), "{out:?}");

    let document =
        std::fs::read_to_string(dir.join("BENCH_e1_escalation.json")).expect("BENCH document");
    let records: Vec<&str> = document
        .lines()
        .filter(|l| l.starts_with("    {"))
        .collect();
    let traced = cfg!(feature = "trace");
    assert!(!records.is_empty(), "{document}");
    assert!(
        records
            .iter()
            .all(|r| r.contains("\"subsystems\":") == traced),
        "every record has a subsystems block exactly when traced: {document}"
    );
    // A traced run writes non-empty folded stacks; an untraced one none.
    let folded = std::fs::read_to_string(dir.join("PROFILE_e1_escalation.folded"));
    assert_eq!(folded.ok().map(|f| f.is_empty()), traced.then_some(false));
}
