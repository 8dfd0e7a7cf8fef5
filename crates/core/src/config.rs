//! Protocol configuration: timers, contracts and per-node policies.
//!
//! The names follow Section IV of the paper: `T` is the blocking horizon of
//! every filtering request, `Ttmp ≪ T` the lifetime of the victim-gateway's
//! temporary filter, `Td` the attack-detection time and the *grace period*
//! the time an attacker (or attacker's gateway) is given to stop before
//! disconnection.

use aitf_filter::EvictionPolicy;
use aitf_netsim::SimDuration;

use crate::detector::DetectionMode;
use crate::policy::DefensePolicy;

/// A filtering contract: the request rate one party may impose on another
/// (Section II-A). `rate` is requests per second, `burst` the bucket depth.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Contract {
    /// Sustained filtering-request rate, requests/second.
    pub rate: f64,
    /// Token-bucket burst, requests.
    pub burst: u32,
}

impl Contract {
    /// Builds a contract.
    pub const fn new(rate: f64, burst: u32) -> Self {
        Contract { rate, burst }
    }
}

/// Global protocol parameters, shared by every AITF node in a world.
#[derive(Clone, Debug)]
pub struct AitfConfig {
    /// `T`: how long a filtering request asks the flow to be blocked.
    pub t_long: SimDuration,
    /// `Ttmp ≪ T`: lifetime of the victim-gateway's temporary filter. Must
    /// cover traceback plus the 3-way handshake (Section IV-B).
    pub t_tmp: SimDuration,
    /// Grace period the attacker (or a downstream gateway) gets to stop the
    /// flow before disconnection.
    pub grace: SimDuration,
    /// `Td`: oracle detection delay for a *new* undesired flow. Reappearing
    /// flows are detected instantly from the request log (footnote 8).
    pub detection_delay: SimDuration,
    /// How victims identify undesired flows (oracle vs rate threshold).
    pub detection: DetectionMode,
    /// `R1` default: contract between an AD and each of its end-hosts /
    /// client networks (client → provider request rate).
    pub client_contract: Contract,
    /// `R2` default: contract between a provider and a client for requests
    /// flowing *down* (provider → client), and between peering ADs.
    pub peer_contract: Contract,
    /// Wire-speed filter table capacity per border router.
    pub filter_capacity: usize,
    /// DRAM shadow cache capacity per border router.
    pub shadow_capacity: usize,
    /// What a full filter table does.
    pub eviction: EvictionPolicy,
    /// Run the 3-way verification handshake (Section II-E). Turning this
    /// off is the E6 ablation: forged requests then succeed.
    pub verification: bool,
    /// Hard bound on escalation rounds (paths are short; this is a loop
    /// guard, not a policy knob).
    pub max_round: u8,
    /// A flow that reappears after it was blocked is blocked again at once,
    /// from both ends of the victim's tail circuit.
    ///
    /// Victim-gateway shadow assist: a data packet hitting a live shadow
    /// (after its temporary filter expired) immediately reinstalls the
    /// filter and escalates. Turning this off is the E7 ablation — the
    /// victim must then re-detect each on-off cycle itself, which is the
    /// conservative model behind the paper's `r ≈ n(Td+Tr)/T` formula.
    ///
    /// Fast re-detection: victims detect a *reappearing* logged flow
    /// instantly instead of waiting `Td` again (footnote 8 of the paper).
    pub fast_reblock: bool,
    /// Which defense populates every border router's hook chains. The
    /// default is the paper's AITF protocol; E19 sweeps the axis
    /// (pushback baseline, per-prefix rate-limiting, path stamping)
    /// through identical topologies and seeds.
    pub defense: DefensePolicy,
}

impl Default for AitfConfig {
    /// The paper's running example: `T` = 1 min, `Ttmp` = 1 s,
    /// `R1` = 100 req/s, `R2` = 1 req/s.
    fn default() -> Self {
        AitfConfig {
            t_long: SimDuration::from_secs(60),
            t_tmp: SimDuration::from_secs(1),
            grace: SimDuration::from_millis(500),
            detection_delay: SimDuration::from_millis(100),
            detection: DetectionMode::Oracle,
            client_contract: Contract::new(100.0, 100),
            peer_contract: Contract::new(1.0, 60),
            filter_capacity: 4096,
            shadow_capacity: 1 << 20,
            eviction: EvictionPolicy::Reject,
            verification: true,
            max_round: 16,
            fast_reblock: true,
            defense: DefensePolicy::Aitf,
        }
    }
}

impl AitfConfig {
    /// Paper Section IV-B sizing for the victim's provider:
    /// `nv = R1 · Ttmp` filters.
    pub fn nv(&self) -> f64 {
        self.client_contract.rate * self.t_tmp.as_secs_f64()
    }

    /// Paper Section IV-B sizing for the shadow cache: `mv = R1 · T`.
    pub fn mv(&self) -> f64 {
        self.client_contract.rate * self.t_long.as_secs_f64()
    }

    /// Paper Section IV-C/D: filters the attacker side needs, `na = R2 · T`.
    pub fn na(&self) -> f64 {
        self.peer_contract.rate * self.t_long.as_secs_f64()
    }
}

/// Per-border-router behaviour knobs (experiments flip these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterPolicy {
    /// Participates in AITF at all. Non-AITF routers forward blindly (the
    /// "no defense" baseline) and do not stamp route records.
    pub aitf_enabled: bool,
    /// Honours filtering requests addressed to it. A non-cooperating
    /// gateway (Section II-D) ignores them, forcing escalation.
    pub cooperating: bool,
    /// Drops client packets whose source is outside the client's prefix
    /// (the ingress-filtering incentive of Section III-A).
    pub ingress_filtering: bool,
    /// Compromised: snoops verification nonces passing through and forges
    /// confirming replies (the on-path attack of Section III-B).
    pub compromised: bool,
}

impl Default for RouterPolicy {
    fn default() -> Self {
        RouterPolicy {
            aitf_enabled: true,
            cooperating: true,
            ingress_filtering: true,
            compromised: false,
        }
    }
}

impl RouterPolicy {
    /// A router that ignores filtering requests (but still forwards and
    /// stamps route records).
    pub fn non_cooperating() -> Self {
        RouterPolicy {
            cooperating: false,
            ..Self::default()
        }
    }

    /// A legacy router: no AITF participation at all.
    pub fn legacy() -> Self {
        RouterPolicy {
            aitf_enabled: false,
            cooperating: false,
            ..Self::default()
        }
    }

    /// A compromised on-path router.
    pub fn compromised() -> Self {
        RouterPolicy {
            compromised: true,
            ..Self::default()
        }
    }
}

/// How an end-host responds to a filtering request addressed to it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HostPolicy {
    /// Stops the flow when asked (a well-provisioned legitimate node,
    /// Section IV-D).
    #[default]
    Compliant,
    /// Ignores requests (a zombie); its gateway will disconnect it.
    Malicious,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_examples() {
        let c = AitfConfig::default();
        // Section IV-B: nv = R1 · Ttmp = 100 filters at Ttmp = 1 s.
        assert_eq!(c.nv(), 100.0);
        // mv = R1 · T: R1 = 100/s, T = 60 s → 6000 (also Section IV-A.2's Nv).
        assert_eq!(c.mv(), 6000.0);
        // Section IV-C: na = R2 · T = 60 filters.
        assert_eq!(c.na(), 60.0);
    }

    #[test]
    fn policy_constructors() {
        assert!(!RouterPolicy::non_cooperating().cooperating);
        assert!(RouterPolicy::non_cooperating().aitf_enabled);
        assert!(!RouterPolicy::legacy().aitf_enabled);
        assert!(RouterPolicy::compromised().compromised);
        assert!(RouterPolicy::default().cooperating);
        assert_eq!(HostPolicy::default(), HostPolicy::Compliant);
    }
}
