//! The detlint manifest: which files are simulation code, which belong to
//! the profiling subsystem, and which functions sit on the pinned
//! allocation-free hot path.
//!
//! Hand-parsed INI-style file (`tools/detlint/detlint.toml`):
//!
//! ```text
//! [sim-crates]            # hash-iter applies under these path prefixes
//! crates/netsim
//!
//! [wall-clock-exempt]     # the profiling subsystem: Instant/SystemTime ok
//! crates/trace/src
//!
//! [hot]                   # file = comma-separated hot function names
//! crates/netsim/src/sim.rs = run_window, dispatch_packet
//! ```
//!
//! Path entries match a scanned file when they are a component-aligned
//! substring of its normalized relative path, so the manifest works from
//! any checkout root. An entry that matches no file of a `--workspace`
//! scan, or a `[hot]` function its file no longer defines, is a
//! `stale-manifest` finding: a moved file must not silently un-pin itself.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Manifest {
    /// Path prefixes where the `hash-iter` / `float-accum` rules apply.
    pub sim_crates: Vec<String>,
    /// Path prefixes exempt from `wall-clock` (the profiling subsystem).
    pub wall_clock_exempt: Vec<String>,
    /// `path -> hot function names` for the `hot-alloc` rule.
    pub hot: BTreeMap<String, Vec<String>>,
    /// Every path entry of every section with its 1-based manifest line,
    /// for the `stale-manifest` check.
    pub entries: Vec<(u32, String)>,
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::default();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let path = line.split('=').next().unwrap_or(line).trim();
            m.entries.push((i as u32 + 1, path.to_string()));
            match section.as_str() {
                "sim-crates" => m.sim_crates.push(line.to_string()),
                "wall-clock-exempt" => m.wall_clock_exempt.push(line.to_string()),
                "hot" => {
                    let (path, fns) = line
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: [hot] entry needs `path = fns`", i + 1))?;
                    let fns: Vec<String> = fns
                        .split(',')
                        .map(|f| f.trim().to_string())
                        .filter(|f| !f.is_empty())
                        .collect();
                    if fns.is_empty() {
                        return Err(format!("line {}: [hot] entry lists no functions", i + 1));
                    }
                    m.hot.insert(path.trim().to_string(), fns);
                }
                "" => return Err(format!("line {}: entry before any [section]", i + 1)),
                other => return Err(format!("line {}: unknown section [{other}]", i + 1)),
            }
        }
        Ok(m)
    }

    pub fn is_sim_path(&self, path: &str) -> bool {
        self.sim_crates.iter().any(|p| path_matches(path, p))
    }

    pub fn is_wall_clock_exempt(&self, path: &str) -> bool {
        self.wall_clock_exempt.iter().any(|p| path_matches(path, p))
    }

    /// Path entries, with their manifest line, that match none of `files`.
    pub fn unmatched_entries<'a>(
        &'a self,
        files: &'a [String],
    ) -> impl Iterator<Item = (u32, &'a str)> {
        self.entries
            .iter()
            .filter(|(_, entry)| !files.iter().any(|f| path_matches(f, entry)))
            .map(|(line, entry)| (*line, entry.as_str()))
    }

    /// Hot function names declared for `path`, empty if none.
    pub fn hot_fns(&self, path: &str) -> &[String] {
        for (p, fns) in &self.hot {
            if path_matches(path, p) {
                return fns;
            }
        }
        &[]
    }
}

/// Component-aligned substring match: `entry` must appear in `path` with
/// `/` (or string boundaries) on both sides, so `crates/core` matches
/// `crates/core/src/world.rs` but not `crates/core2/src/lib.rs`.
pub fn path_matches(path: &str, entry: &str) -> bool {
    let path = path.replace('\\', "/");
    let entry = entry.trim_matches('/');
    let mut from = 0;
    while let Some(i) = path[from..].find(entry) {
        let start = from + i;
        let end = start + entry.len();
        let left_ok = start == 0 || path.as_bytes()[start - 1] == b'/';
        let right_ok = end == path.len() || path.as_bytes()[end] == b'/';
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections() {
        let m = Manifest::parse(
            "# header comment\n\
             [sim-crates]\n crates/netsim\n crates/core # inline\n\
             [wall-clock-exempt]\n crates/trace/src\n\
             [hot]\n crates/netsim/src/sim.rs = run_window, dispatch_packet\n",
        )
        .unwrap();
        assert_eq!(m.sim_crates, ["crates/netsim", "crates/core"]);
        assert!(m.is_sim_path("crates/core/src/world.rs"));
        assert!(!m.is_sim_path("crates/scenario/src/probe.rs"));
        assert!(m.is_wall_clock_exempt("crates/trace/src/profile.rs"));
        assert_eq!(
            m.hot_fns("crates/netsim/src/sim.rs"),
            ["run_window", "dispatch_packet"]
        );
        assert!(m.hot_fns("crates/netsim/src/link.rs").is_empty());
        // Every path entry is recorded with its line; an entry no scanned
        // file matches is reported back.
        let lines: Vec<u32> = m.entries.iter().map(|e| e.0).collect();
        assert_eq!(lines, [3, 4, 6, 8]);
        let files = [
            "crates/netsim/src/sim.rs".to_string(),
            "crates/trace/src/lib.rs".to_string(),
        ];
        assert_eq!(
            m.unmatched_entries(&files).collect::<Vec<_>>(),
            [(4, "crates/core")]
        );
    }

    #[test]
    fn component_alignment() {
        assert!(path_matches("a/b/c.rs", "b"));
        assert!(path_matches("a/b/c.rs", "a/b"));
        assert!(path_matches("b/c.rs", "b"));
        assert!(!path_matches("a/bb/c.rs", "b"));
        assert!(!path_matches("a/xb/c.rs", "b"));
        assert!(path_matches("tests/fixtures/x.rs", "fixtures/x.rs"));
    }

    #[test]
    fn errors_are_line_numbered() {
        let e = Manifest::parse("[hot]\nno-equals-here\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = Manifest::parse("stray\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        let e = Manifest::parse("[bogus]\nx\n").unwrap_err();
        assert!(e.contains("bogus"), "{e}");
    }
}
