//! Typed scenario parameters and metric values.
//!
//! A [`Params`] is an *ordered* list of `(name, Value)` pairs: order is
//! preserved so tables and JSON render columns in the order the scenario
//! author declared them, and equality is structural so run records can be
//! compared bit-for-bit across thread counts.

use std::fmt;

/// A parameter or metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Floating point (rates, ratios, seconds).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form label.
    Str(String),
    /// A numeric series (per-bin time series and other machine-readable
    /// vectors). Rendered as a JSON array; tables show only its length, so
    /// series metrics are conventionally named with a leading `_` to stay
    /// JSON-only.
    F64List(Vec<f64>),
    /// An unsigned-integer series — sketch-backed aggregates (heavy-hitter
    /// keys and estimated counts) whose values are exact integers that must
    /// not round-trip through `f64`. Same table/JSON conventions as
    /// [`Value::F64List`].
    U64List(Vec<u64>),
}

impl Value {
    /// Renders the value for a results table: floats are compacted the way
    /// the paper's tables print them, everything else verbatim.
    pub fn render(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) => fmt_compact(*v),
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => s.clone(),
            Value::F64List(v) => format!("[{} pts]", v.len()),
            Value::U64List(v) => format!("[{} pts]", v.len()),
        }
    }

    /// Renders the value as a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(_) => "null".to_string(),
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => json_string(s),
            Value::F64List(v) => {
                let body: Vec<String> = v
                    .iter()
                    .map(|x| {
                        if x.is_finite() {
                            format!("{x}")
                        } else {
                            "null".to_string()
                        }
                    })
                    .collect();
                format!("[{}]", body.join(","))
            }
            Value::U64List(v) => {
                let body: Vec<String> = v.iter().map(u64::to_string).collect();
                format!("[{}]", body.join(","))
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u8> for Value {
    fn from(v: u8) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::F64List(v)
    }
}

impl From<Vec<u64>> for Value {
    fn from(v: Vec<u64>) -> Self {
        Value::U64List(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Compact float formatting (shared with the bench tables): 6-ish
/// significant digits, no trailing noise.
pub fn fmt_compact(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An ordered set of named values (scenario parameters or run metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    entries: Vec<(&'static str, Value)>,
}

impl Params {
    /// An empty set.
    pub fn new() -> Self {
        Params::default()
    }

    /// Builder-style insert.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already present — a spec bug worth failing loudly
    /// on.
    pub fn with(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Inserts a value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already present.
    pub fn set(&mut self, name: &'static str, value: impl Into<Value>) {
        assert!(
            self.get(name).is_none(),
            "duplicate parameter/metric name {name:?}"
        );
        self.entries.push((name, value.into()));
    }

    /// Looks a value up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// The entries in declaration order.
    pub fn entries(&self) -> &[(&'static str, Value)] {
        &self.entries
    }

    /// Returns `true` if no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Typed accessor for `U64` entries.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not a `U64` — scenario code reads
    /// back parameters it declared itself, so a mismatch is a spec bug.
    pub fn u64(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::U64(v)) => *v,
            other => panic!("param {name:?}: expected U64, got {other:?}"),
        }
    }

    /// Typed accessor for `U64` entries narrowed to `usize`.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not a `U64`.
    pub fn usize(&self, name: &str) -> usize {
        self.u64(name) as usize
    }

    /// Typed accessor for `F64` entries.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not an `F64`.
    pub fn f64(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Value::F64(v)) => *v,
            other => panic!("param {name:?}: expected F64, got {other:?}"),
        }
    }

    /// Typed accessor for `Bool` entries.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not a `Bool`.
    pub fn bool(&self, name: &str) -> bool {
        match self.get(name) {
            Some(Value::Bool(v)) => *v,
            other => panic!("param {name:?}: expected Bool, got {other:?}"),
        }
    }

    /// Typed accessor for `Str` entries.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not a `Str`.
    pub fn str(&self, name: &str) -> &str {
        match self.get(name) {
            Some(Value::Str(v)) => v,
            other => panic!("param {name:?}: expected Str, got {other:?}"),
        }
    }

    /// Typed accessor for `F64List` entries.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not an `F64List`.
    pub fn f64_list(&self, name: &str) -> &[f64] {
        match self.get(name) {
            Some(Value::F64List(v)) => v,
            other => panic!("param {name:?}: expected F64List, got {other:?}"),
        }
    }

    /// Typed accessor for `U64List` entries.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not a `U64List`.
    pub fn u64_list(&self, name: &str) -> &[u64] {
        match self.get(name) {
            Some(Value::U64List(v)) => v,
            other => panic!("param {name:?}: expected U64List, got {other:?}"),
        }
    }

    /// Renders the entries as a JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v)| format!("{}:{}", json_string(n), v.to_json()))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_and_typed() {
        let p = Params::new()
            .with("flows", 40usize)
            .with("r1", 10.0)
            .with("label", "x")
            .with("on", true);
        assert_eq!(p.usize("flows"), 40);
        assert_eq!(p.f64("r1"), 10.0);
        assert_eq!(p.str("label"), "x");
        assert!(p.bool("on"));
        let names: Vec<&str> = p.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["flows", "r1", "label", "on"]);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_names_are_rejected() {
        let _ = Params::new().with("a", 1u64).with("a", 2u64);
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn type_mismatch_panics() {
        let p = Params::new().with("a", 1u64);
        let _ = p.f64("a");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        let p = Params::new().with("x", 1.5).with("s", "hi");
        assert_eq!(p.to_json(), r#"{"x":1.5,"s":"hi"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::F64(f64::NAN).to_json(), "null");
        assert_eq!(Value::F64(1.25).to_json(), "1.25");
    }

    #[test]
    fn u64_lists_render_as_json_arrays() {
        let v = Value::U64List(vec![167772161, 42]);
        assert_eq!(v.to_json(), "[167772161,42]");
        assert_eq!(v.render(), "[2 pts]");
        let p = Params::new().with("_hh_counts", vec![9u64, 3u64]);
        assert_eq!(p.u64_list("_hh_counts"), &[9, 3]);
        assert_eq!(p.to_json(), r#"{"_hh_counts":[9,3]}"#);
    }

    #[test]
    fn f64_lists_render_as_json_arrays() {
        let v = Value::F64List(vec![1.0, 2.5, f64::NAN]);
        assert_eq!(v.to_json(), "[1,2.5,null]");
        assert_eq!(v.render(), "[3 pts]");
        let p = Params::new().with("_series_y", vec![0.5, 1.5]);
        assert_eq!(p.f64_list("_series_y"), &[0.5, 1.5]);
        assert_eq!(p.to_json(), r#"{"_series_y":[0.5,1.5]}"#);
    }
}
