//! JSON telemetry emitter: one `BENCH_<experiment>.json` per sweep.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::params::json_string;
use crate::record::RunRecord;
use crate::spec::ScenarioSpec;

/// Schema version stamped into every file; bump on breaking changes.
pub const SCHEMA_VERSION: u32 = 2;

/// Renders the full JSON document for one sweep.
pub fn render_document(
    spec: &ScenarioSpec,
    records: &[RunRecord],
    base_seed: u64,
    threads: usize,
    quick: bool,
) -> String {
    let total_wall: f64 = records.iter().map(|r| r.wall_secs).sum();
    let total_events: u64 = records.iter().map(|r| r.events).sum();
    let mut out = String::with_capacity(256 + records.len() * 160);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"experiment\": {},\n", json_string(spec.id)));
    out.push_str(&format!("  \"title\": {},\n", json_string(&spec.title)));
    out.push_str(&format!("  \"paper\": {},\n", json_string(spec.paper)));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"base_seed\": {base_seed},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"total_events\": {total_events},\n"));
    // Sum of whole-point walls: build + partition + loop + collect.
    out.push_str(&format!(
        "  \"total_wall_secs\": {},\n",
        if total_wall.is_finite() {
            format!("{total_wall}")
        } else {
            "null".into()
        }
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&r.to_json());
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the sweep's JSON document to `<dir>/BENCH_<experiment>.json`,
/// creating `dir` if needed. Returns the written path.
pub fn write_document(
    dir: &Path,
    spec: &ScenarioSpec,
    records: &[RunRecord],
    base_seed: u64,
    threads: usize,
    quick: bool,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", spec.id));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(render_document(spec, records, base_seed, threads, quick).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::spec::Outcome;
    use crate::Runner;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("j1", "json test", "§x")
            .point(Params::new().with("a", 1u64))
            .point(Params::new().with("a", 2u64))
            .runner(|p, ctx| {
                Outcome::new(
                    Params::new()
                        .with("b", p.u64("a") * 2)
                        .with("note", "ok \"quoted\""),
                )
                .with_events(ctx.seed % 5)
            })
    }

    /// A deliberately minimal JSON validator: enough to guarantee the
    /// emitter produces well-formed documents (balanced structure, quoted
    /// strings, no trailing commas).
    fn validate_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escape = false;
        let mut last_significant = ' ';
        for c in s.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    assert_ne!(last_significant, ',', "trailing comma before close in {s}");
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close");
                }
                _ => {}
            }
            if !c.is_whitespace() {
                last_significant = c;
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced document");
    }

    #[test]
    fn document_is_well_formed_and_complete() {
        let spec = spec();
        let recs = Runner::new(2).run(&spec);
        let doc = render_document(&spec, &recs, 42, 2, false);
        validate_json(&doc);
        assert!(doc.contains("\"experiment\":\"j1\"") || doc.contains("\"experiment\": \"j1\""));
        assert!(doc.contains("\"records\""));
        assert!(doc.contains("ok \\\"quoted\\\""));
        assert_eq!(doc.matches("\"index\"").count(), 2);
        assert!(doc.contains("\"schema\": 2,"));
        // One whole-point wall per record, their sum at sweep level, and
        // no throughput derived from either.
        assert_eq!(doc.matches("\"wall_secs\"").count(), 2);
        assert_eq!(doc.matches("\"total_wall_secs\"").count(), 1);
        assert!(!doc.contains("events_per_sec"));
    }

    #[test]
    fn write_document_creates_bench_file() {
        let spec = spec();
        let recs = Runner::new(1).run(&spec);
        let dir = std::env::temp_dir().join(format!("aitf_engine_json_{}", std::process::id()));
        let path = write_document(&dir, &spec, &recs, 42, 1, true).expect("write");
        assert_eq!(path.file_name().unwrap(), "BENCH_j1.json");
        let body = std::fs::read_to_string(&path).expect("read back");
        validate_json(&body);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_record_set_is_still_valid() {
        let spec = ScenarioSpec::new("j2", "t", "p").runner(|_, _| unreachable!());
        let doc = render_document(&spec, &[], 1, 1, true);
        validate_json(&doc);
    }
}
