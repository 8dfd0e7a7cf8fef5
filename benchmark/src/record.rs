//! The simulated record of a pass — every value that must repeat exactly —
//! and its golden-file form.
//!
//! A record is an ordered list of named values: exact counts (`u64`) and
//! simulated ratios (`f64`, compared and stored by bit pattern, so NaN and
//! −0.0 round-trip and compare like any other value). A speed-up that
//! changes what was simulated changes the record, and a pass whose record
//! differs from the golden file (or from the reference pass) is a failed
//! operation, not a gain.

use std::fmt::Write as _;

#[derive(Clone, Copy, Debug)]
pub enum Val {
    U(u64),
    F(f64),
}

impl PartialEq for Val {
    fn eq(&self, other: &Val) -> bool {
        match (self, other) {
            (Val::U(a), Val::U(b)) => a == b,
            (Val::F(a), Val::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record(pub Vec<(String, Val)>);

impl Record {
    pub fn push_u(&mut self, name: impl Into<String>, v: u64) {
        self.0.push((name.into(), Val::U(v)));
    }

    pub fn push_f(&mut self, name: impl Into<String>, v: f64) {
        self.0.push((name.into(), Val::F(v)));
    }

    pub fn get(&self, name: &str) -> Option<Val> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The count stored under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is missing or not a count — a benchmark bug.
    pub fn u(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Val::U(v)) => v,
            other => panic!("record has no count {name:?} (found {other:?})"),
        }
    }

    /// Appends `other`'s entries under `prefix/`.
    pub fn extend_prefixed(&mut self, prefix: &str, other: Record) {
        for (name, v) in other.0 {
            self.0.push((format!("{prefix}/{name}"), v));
        }
    }

    /// The first few differences from `expected`, for the failure message
    /// (empty = identical).
    pub fn diff(&self, expected: &Record) -> Vec<String> {
        let mut out = Vec::new();
        if self.0.len() != expected.0.len() {
            out.push(format!(
                "{} entries, expected {}",
                self.0.len(),
                expected.0.len()
            ));
        }
        for ((name, got), (want_name, want)) in self.0.iter().zip(&expected.0) {
            if name != want_name {
                out.push(format!("entry {name:?} where {want_name:?} was expected"));
            } else if got != want {
                out.push(format!("{name}: got {got:?}, expected {want:?}"));
            }
            if out.len() >= 8 {
                break;
            }
        }
        out
    }

    /// Golden-file text: one `name<TAB>u<TAB>count` or
    /// `name<TAB>f<TAB>0xBITS<TAB>readable` line per entry.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.0 {
            match v {
                Val::U(v) => writeln!(out, "{name}\tu\t{v}"),
                Val::F(v) => writeln!(out, "{name}\tf\t{:#018x}\t{v}", v.to_bits()),
            }
            .expect("writing to a String");
        }
        out
    }

    pub fn from_tsv(text: &str) -> Result<Record, String> {
        let mut rec = Record::default();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("golden line {}: {what}: {line:?}", i + 1);
            let mut cols = line.split('\t');
            let name = cols.next().ok_or_else(|| bad("no name"))?;
            let ty = cols.next().ok_or_else(|| bad("no type"))?;
            let raw = cols.next().ok_or_else(|| bad("no value"))?;
            match ty {
                "u" => rec.push_u(name, raw.parse().map_err(|_| bad("bad count"))?),
                "f" => {
                    let bits = raw
                        .strip_prefix("0x")
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(|| bad("bad f64 bits"))?;
                    rec.push_f(name, f64::from_bits(bits));
                }
                _ => return Err(bad("unknown type")),
            }
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_round_trips_nan_and_negative_zero_by_bit_pattern() {
        let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut rec = Record::default();
        rec.push_u("events", u64::MAX);
        rec.push_f("nan", odd_nan);
        rec.push_f("neg_zero", -0.0);
        rec.push_f("ratio", 0.1 + 0.2);
        let back = Record::from_tsv(&rec.to_tsv()).expect("own output parses");
        assert_eq!(back, rec);
        match back.get("nan") {
            Some(Val::F(v)) => assert_eq!(v.to_bits(), odd_nan.to_bits()),
            other => panic!("{other:?}"),
        }
        // Bit-pattern equality: -0.0 is not 0.0, NaN equals itself.
        assert_ne!(Val::F(-0.0), Val::F(0.0));
        assert_eq!(Val::F(f64::NAN), Val::F(f64::NAN));
        assert_ne!(Val::U(0), Val::F(0.0));
    }

    #[test]
    fn diff_names_the_entry_that_moved() {
        let mut a = Record::default();
        a.push_u("events", 10);
        a.push_f("leak", 0.5);
        let mut b = a.clone();
        assert!(a.diff(&b).is_empty());
        b.0[1].1 = Val::F(0.5000000000000001);
        let d = a.diff(&b);
        assert_eq!(d.len(), 1);
        assert!(d[0].starts_with("leak"), "{d:?}");
    }

    #[test]
    fn malformed_golden_lines_are_rejected() {
        assert!(Record::from_tsv("events\tu\tten\n").is_err());
        assert!(Record::from_tsv("leak\tf\t0.5\n").is_err());
        assert!(Record::from_tsv("x\tq\t1\n").is_err());
        assert!(Record::from_tsv("# comment\n\nevents\tu\t3\n").is_ok());
    }
}
