//! detlint — workspace determinism & hot-path static analysis.
//!
//! The repo's load-bearing invariant is bit-identical records at any
//! `--threads` and any `--shards`. The equivalence fixtures enforce that
//! dynamically; detlint enforces the source-level contracts that make it
//! hold *statically*, before a 100k-net world shakes a hazard out:
//!
//! ```text
//! detlint --workspace [--json] [--manifest tools/detlint/detlint.toml]
//! detlint path/to/file.rs dir/ ...
//! ```
//!
//! Exit codes: 0 clean, 1 findings (including stale allows and stale
//! manifest entries), 2 usage or I/O error. Suppress a finding with an
//! in-source annotation carrying a mandatory reason:
//!
//! ```text
//! // detlint::allow(hash-iter): u64 sum over values is order-independent
//! ```
//!
//! An allow that no longer suppresses anything is itself an error
//! (`stale-allow`), so the annotation set stays honest. See
//! ARCHITECTURE.md "Determinism contract & static analysis".

mod lexer;
mod manifest;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use manifest::Manifest;
use rules::{Finding, Rule};

struct Args {
    workspace: bool,
    paths: Vec<PathBuf>,
    manifest: Option<PathBuf>,
    json: bool,
}

const DEFAULT_MANIFEST: &str = "tools/detlint/detlint.toml";

fn usage() -> String {
    "usage: detlint (--workspace | PATH...) [--manifest FILE] [--json]".to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        paths: Vec::new(),
        manifest: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--manifest" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--manifest needs a path".to_string())?;
                args.manifest = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if args.workspace != args.paths.is_empty() {
        // Exactly one of --workspace / explicit paths.
        return Err(usage());
    }
    Ok(args)
}

/// Workspace scan: every `.rs` under a `src` directory of `crates/*`,
/// `tools/*` or the umbrella `src/`, skipping vendored shims and build
/// output. Test fixtures (known-bad snippets) live under `tests/` and are
/// deliberately out of scope.
fn workspace_files() -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for root in ["crates", "tools", "src"] {
        let root = Path::new(root);
        if root.is_dir() {
            walk(root, &mut files, true)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>, require_src: bool) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | ".git") {
                continue;
            }
            walk(&path, out, require_src)?;
        } else if name.ends_with(".rs") {
            let p = path.to_string_lossy().replace('\\', "/");
            if !require_src || p.split('/').any(|c| c == "src") {
                out.push(path);
            }
        }
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn emit(findings: &[Finding], json: bool) {
    if json {
        println!("[");
        for (i, f) in findings.iter().enumerate() {
            let comma = if i + 1 < findings.len() { "," } else { "" };
            println!(
                "  {{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\"}}{comma}",
                json_escape(&f.file),
                f.line,
                f.col,
                f.rule.id(),
                json_escape(&f.message)
            );
        }
        println!("]");
    } else {
        for f in findings {
            println!(
                "{}:{}:{}: detlint[{}]: {}",
                f.file,
                f.line,
                f.col,
                f.rule.id(),
                f.message
            );
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    let manifest_path = args
        .manifest
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_MANIFEST));
    let manifest = if args.manifest.is_some() || manifest_path.is_file() {
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        Manifest::parse(&text).map_err(|e| format!("{}: {e}", manifest_path.display()))?
    } else {
        Manifest::default()
    };

    let files = if args.workspace {
        workspace_files()?
    } else {
        let mut files = Vec::new();
        for p in &args.paths {
            if p.is_dir() {
                walk(p, &mut files, false)?;
            } else if p.is_file() {
                files.push(p.clone());
            } else {
                return Err(format!("{}: no such file or directory", p.display()));
            }
        }
        files.sort();
        files
    };

    let mut findings = Vec::new();
    let mut scanned = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        findings.extend(rules::check_file(&rel, &src, &manifest));
        scanned.push(rel);
    }
    // Only a whole-workspace scan sees every file a manifest path can
    // name; a scan of explicit paths would report the rest as stale.
    if args.workspace {
        for (line, entry) in manifest.unmatched_entries(&scanned) {
            findings.push(Finding {
                file: manifest_path.to_string_lossy().replace('\\', "/"),
                line,
                col: 1,
                rule: Rule::StaleManifest,
                message: format!("`{entry}` matches no file in the workspace; repoint or drop it"),
            });
        }
    }

    emit(&findings, args.json);
    if findings.is_empty() {
        if !args.json {
            println!(
                "detlint: clean — {} file(s), 0 findings, 0 stale allows",
                files.len()
            );
        }
        Ok(ExitCode::SUCCESS)
    } else {
        if !args.json {
            eprintln!(
                "detlint: {} finding(s) in {} file(s)",
                findings.len(),
                files.len()
            );
        }
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("detlint: {msg}");
            ExitCode::from(2)
        }
    }
}
