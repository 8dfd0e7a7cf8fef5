//! The scenario registry: the driver's ordered catalogue of sweeps.

use crate::spec::ScenarioSpec;

/// An ordered collection of scenario specs with substring filtering.
#[derive(Debug, Default)]
pub struct Registry {
    specs: Vec<ScenarioSpec>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a spec.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id — two experiments writing the same
    /// `BENCH_*.json` would silently clobber each other.
    pub fn register(&mut self, spec: ScenarioSpec) {
        assert!(
            self.specs.iter().all(|s| s.id != spec.id),
            "duplicate scenario id {:?}",
            spec.id
        );
        self.specs.push(spec);
    }

    /// All specs, in registration order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Number of registered specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Specs matching any of `filters` (all specs when `filters` is
    /// empty), cloned in registration order.
    ///
    /// Each filter first tries **boundary matching** — the whole id, or a
    /// prefix ending at a `_` separator — so `e1` selects exactly
    /// `e1_escalation`, not `e10_scaling`/`e11_detection`. Only a filter
    /// with no boundary match at all falls back to substring matching
    /// (`escalation` still finds `e1_escalation`).
    pub fn select(&self, filters: &[String]) -> Vec<ScenarioSpec> {
        if filters.is_empty() {
            return self.specs.to_vec();
        }
        let matches = |id: &str| {
            filters.iter().any(|f| {
                if self.specs.iter().any(|s| boundary(s.id, f)) {
                    boundary(id, f)
                } else {
                    substring(id, f)
                }
            })
        };
        self.specs
            .iter()
            .filter(|s| matches(s.id))
            .cloned()
            .collect()
    }

    /// The filters that select nothing at all (under the same matching
    /// rules as [`Registry::select`]) — a driver should refuse these
    /// loudly rather than silently running everything else.
    pub fn unmatched<'a>(&self, filters: &'a [String]) -> Vec<&'a str> {
        filters
            .iter()
            .filter(|f| {
                !self
                    .specs
                    .iter()
                    .any(|s| boundary(s.id, f) || substring(s.id, f))
            })
            .map(String::as_str)
            .collect()
    }
}

/// The `_`-boundary match rule shared by [`Registry::select`] and
/// [`Registry::unmatched`]: the whole id, or a prefix ending exactly at a
/// `_` separator.
fn boundary(id: &str, f: &str) -> bool {
    id == f || (id.starts_with(f) && id.as_bytes().get(f.len()) == Some(&b'_'))
}

/// The substring fallback shared by [`Registry::select`] and
/// [`Registry::unmatched`]. An empty filter names no experiment (it is
/// what an unset shell variable expands to), so it matches nothing rather
/// than every id.
fn substring(id: &str, f: &str) -> bool {
    !f.is_empty() && id.contains(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &'static str) -> ScenarioSpec {
        ScenarioSpec::new(id, "t", "p")
    }

    #[test]
    fn select_prefers_boundary_matches() {
        let mut r = Registry::new();
        r.register(spec("e1_escalation"));
        r.register(spec("e10_scaling"));
        r.register(spec("e2_bandwidth"));
        assert_eq!(r.len(), 3);
        // `e1` has a boundary match, so e10 is NOT dragged in.
        let ids: Vec<&str> = r.select(&["e1".to_string()]).iter().map(|s| s.id).collect();
        assert_eq!(ids, vec!["e1_escalation"]);
        // No boundary match anywhere -> substring fallback.
        let ids: Vec<&str> = r
            .select(&["scaling".to_string()])
            .iter()
            .map(|s| s.id)
            .collect();
        assert_eq!(ids, vec!["e10_scaling"]);
        // Exact full-id match works too.
        assert_eq!(r.select(&["e10_scaling".to_string()]).len(), 1);
        assert_eq!(r.select(&[]).len(), 3);
        assert!(r.select(&["nope".to_string()]).is_empty());
        assert!(r.select(&[String::new()]).is_empty());
    }

    #[test]
    fn unmatched_reports_only_dead_filters() {
        let mut r = Registry::new();
        r.register(spec("e1_escalation"));
        r.register(spec("e10_scaling"));
        let filters = vec![
            "e1".to_string(),
            "scaling".to_string(),
            "nope".to_string(),
            "e99".to_string(),
            String::new(),
        ];
        assert_eq!(r.unmatched(&filters), vec!["nope", "e99", ""]);
        assert!(r.unmatched(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate scenario id")]
    fn duplicate_ids_are_rejected() {
        let mut r = Registry::new();
        r.register(spec("x"));
        r.register(spec("x"));
    }
}
