//! Fault-injection scenarios: the deterministic failure plane exercised
//! end to end.
//!
//! Two scenarios drive [`faults::FaultPlan`] timelines through the full
//! synthesis stack:
//!
//! * [`faults_sweep`] — one fault class at a time against the cohort's
//!   NAT64 line, so each class's casualty signature (drops by cause,
//!   gateway rejections) is visible in isolation against a clean run of
//!   identical demand.
//! * [`adoption_under_stress`] — the combined stress timeline over the
//!   whole five-technology cohort, reporting how each line's
//!   translated/native composition shifts under failures, plus a RIB churn
//!   leg replayed against a clone of the session's routing table.
//!
//! Both scenarios honour the fault plane's determinism contract: every
//! number here is a pure function of `(world seed, days)` and invariant to
//! `--threads` — [`adoption_under_stress`] attaches its dataset to the
//! report precisely so that invariance stays testable.

use crate::report::Report;
use crate::session::Session;
use crate::transition_exps::cohort_under;
use bgpsim::AsId;
use faults::{ChurnOp, DnsFailure, FaultPlan, PoolTarget, Window};
use flowmon::{DropCause, DropCounters, NullSink};
use iputil::Family;
use ipv6view_core::report::TextTable;
use serde::Serialize;
use trafficgen::{synthesize_residence_into, transition_residences, TrafficConfig};
use transition::{AccessTech, GatewayConfig};

/// The combined stress timeline both scenarios derive theirs from: DNS
/// SERVFAIL bursts, a daily business-hours gateway outage, a pool shrink
/// over the back half of the run, IPv6 path degradation, and RIB churn.
/// Windows scale with `days` so the plan bites at any `--days`.
pub fn stress_plan(seed: u64, days: u32) -> FaultPlan {
    let last = days.saturating_sub(1);
    let mid = days / 2;
    FaultPlan::new(seed ^ 0x7374_7265_7373) // "stress"
        .dns_burst(DnsFailure::ServFail, 0.4, Window::days(0, last))
        .gateway_outage(PoolTarget::Both, Window::new(0, last, 9, 15))
        .pool_shrink(0.25, Window::days(mid, last))
        .path_degrade(Family::V6, 60, 0.15, 0.2, Window::days(0, last))
        .rib_churn(40, 0.5, Window::days(0, last))
}

/// One row of the per-class fault sweep: what one fault class did to the
/// NAT64 line relative to the clean run of identical demand.
#[derive(Debug, Clone, Serialize)]
pub struct FaultClassRow {
    /// Fault class label (`clean`, `dns-burst`, ...).
    pub class: String,
    /// Sampled flow records that survived to the log.
    pub flows: u64,
    /// Gateway bindings granted over the run.
    pub granted: u64,
    /// Gateway rejections (pool exhausted or shrunk).
    pub rejected: u64,
    /// Flows lost to the fault plane, by cause.
    pub drops: DropCounters,
}

/// Run the per-class sweep: the cohort's NAT64 line, dense sampling, one
/// fault class per run (plus the clean baseline), identical demand
/// throughout — the same synthesis seed is used for every run, so every
/// delta is attributable to the injected class.
pub fn faults_sweep_rows(s: &Session, days: u32) -> Vec<FaultClassRow> {
    let profile = transition_residences()
        .into_iter()
        .find(|p| p.access_tech == AccessTech::Ipv6OnlyNat64)
        .expect("cohort has a NAT64 line");
    let last = days.saturating_sub(1);
    let plan_seed = s.world.config.seed ^ 0x6661_756c_7473; // "faults"
    let classes: Vec<(&str, FaultPlan)> = vec![
        ("clean", FaultPlan::default()),
        (
            "dns-burst",
            FaultPlan::new(plan_seed).dns_burst(DnsFailure::ServFail, 0.5, Window::days(0, last)),
        ),
        (
            "gateway-outage",
            FaultPlan::new(plan_seed).gateway_outage(PoolTarget::Both, Window::new(0, last, 8, 16)),
        ),
        (
            "pool-shrink",
            FaultPlan::new(plan_seed).pool_shrink(0.25, Window::days(0, last)),
        ),
        (
            "path-degrade",
            FaultPlan::new(plan_seed).path_degrade(Family::V6, 50, 0.1, 0.2, Window::days(0, last)),
        ),
    ];
    classes
        .into_iter()
        .map(|(class, plan)| {
            let cfg = TrafficConfig {
                seed: s.world.config.seed ^ 0x6661_6c74, // "falt"
                num_days: days,
                // Dense sampling + a small pool with CGN-style binding
                // lifetimes: the regime where shrinks and outages actually
                // show up in the counters.
                scale: 1.0 / 50.0,
                gateway: GatewayConfig {
                    capacity: 16,
                    binding_timeout: 3_600 * 1_000_000,
                },
                faults: plan,
                ..s.traffic_config()
            };
            let mut sink = NullSink::default();
            let summary = synthesize_residence_into(&s.world, profile.clone(), &cfg, 0, &mut sink);
            let gw = summary.gateway.unwrap_or_default();
            FaultClassRow {
                class: class.to_string(),
                flows: sink.flows,
                granted: gw.granted,
                rejected: gw.rejected,
                drops: summary.drops,
            }
        })
        .collect()
}

/// `faults-sweep`: each fault class in isolation against the NAT64 line —
/// the casualty signature (drops by cause, gateway rejections) of DNS
/// bursts, gateway outages, pool shrinks and path degradation.
pub fn faults_sweep(s: &mut Session) -> Report {
    let days = s.config.days.clamp(1, 10);
    let mut r = Report::new("faults-sweep");
    r.heading("Faults — per-class casualty signatures on the NAT64 line");
    let rows = faults_sweep_rows(s, days);
    let mut t = TextTable::new(vec![
        "class",
        "flows",
        "granted",
        "rejected",
        "dns-failure",
        "gw-outage",
        "pool-exhausted",
        "path-loss",
    ]);
    for row in &rows {
        t.row(vec![
            row.class.clone(),
            row.flows.to_string(),
            row.granted.to_string(),
            row.rejected.to_string(),
            row.drops.get(DropCause::DnsFailure).to_string(),
            row.drops.get(DropCause::GatewayOutage).to_string(),
            row.drops.get(DropCause::PoolExhausted).to_string(),
            row.drops.get(DropCause::PathLoss).to_string(),
        ]);
    }
    r.table(t);
    r.line(
        "(identical demand on every row: the clean baseline draws the same flows,\n\
         so each class's drop column is exactly the traffic that class destroyed;\n\
         an empty plan is byte-identical to no plan by the determinism contract)",
    );
    r.dataset(
        "faults_sweep.json",
        serde_json::to_string_pretty(&rows).expect("serializable"),
    );
    r
}

/// One cohort line under the combined stress timeline: clean vs stressed
/// composition, rejections and the fault plane's per-cause casualties.
#[derive(Debug, Clone, Serialize)]
pub struct StressRow {
    /// Residence key.
    pub key: char,
    /// Access-technology label.
    pub tech: String,
    /// Clean-run translated byte share.
    pub clean_translated_bytes: f64,
    /// Stressed translated byte share.
    pub stress_translated_bytes: f64,
    /// Clean-run native IPv6 byte share.
    pub clean_native_v6_bytes: f64,
    /// Stressed native IPv6 byte share.
    pub stress_native_v6_bytes: f64,
    /// Clean-run gateway rejections (0 on gateway-less lines).
    pub clean_rejected: u64,
    /// Stressed gateway rejections.
    pub stress_rejected: u64,
    /// Flows lost to the fault plane, by cause.
    pub drops: DropCounters,
}

/// The RIB churn leg: what replaying the plan's announce/withdraw timeline
/// against a clone of the session RIB did to the routing table.
#[derive(Debug, Clone, Serialize)]
pub struct RibChurnSummary {
    /// Routes before any churn.
    pub baseline_routes: usize,
    /// Routes after the full timeline (withdrawals of the final day's
    /// batch land on the day after the window).
    pub final_routes: usize,
    /// Announcements applied.
    pub announced: u64,
    /// Withdrawals applied.
    pub withdrawn: u64,
}

/// The exportable adoption-under-stress dataset: per-line rows plus the
/// RIB churn summary. Byte-identical at any `--threads`.
#[derive(Debug, Clone, Serialize)]
pub struct StressReport {
    /// Days simulated.
    pub days: u32,
    /// Per-residence clean-vs-stressed rows, cohort order.
    pub rows: Vec<StressRow>,
    /// The RIB churn leg.
    pub rib: RibChurnSummary,
}

/// Replay the plan's RIB churn timeline against a clone of the session's
/// routing table. Day `days` is included so the final covered day's
/// withdrawals (which land one day later) are applied too.
fn replay_rib_churn(s: &Session, plan: &FaultPlan, days: u32) -> RibChurnSummary {
    let mut rib = s.world.rib.clone();
    let baseline_routes = rib.len();
    let (mut announced, mut withdrawn) = (0u64, 0u64);
    for day in 0..=days {
        for op in plan.churn_for_day(day) {
            match op {
                ChurnOp::Announce(prefix, asn) => {
                    rib.announce(prefix, AsId(asn));
                    announced += 1;
                }
                ChurnOp::Withdraw(prefix) => {
                    rib.withdraw(prefix);
                    withdrawn += 1;
                }
            }
        }
    }
    RibChurnSummary {
        baseline_routes,
        final_routes: rib.len(),
        announced,
        withdrawn,
    }
}

/// Build the adoption-under-stress dataset for a session at `days`.
pub fn adoption_under_stress_data(s: &Session, days: u32) -> StressReport {
    let plan = stress_plan(s.world.config.seed, days);
    let clean = cohort_under(s, days, FaultPlan::default());
    let stressed = cohort_under(s, days, plan.clone());
    let rows = clean
        .iter()
        .zip(&stressed)
        .map(|((c, _), (x, drops))| StressRow {
            key: c.key,
            tech: c.tech.clone(),
            clean_translated_bytes: c.translated_bytes,
            stress_translated_bytes: x.translated_bytes,
            clean_native_v6_bytes: c.native_v6_bytes,
            stress_native_v6_bytes: x.native_v6_bytes,
            clean_rejected: c.gateway.map(|g| g.rejected).unwrap_or(0),
            stress_rejected: x.gateway.map(|g| g.rejected).unwrap_or(0),
            drops: *drops,
        })
        .collect();
    StressReport {
        days,
        rows,
        rib: replay_rib_churn(s, &plan, days),
    }
}

/// `adoption-under-stress`: the combined stress timeline over the whole
/// five-technology cohort — how each line's adoption picture degrades when
/// DNS, gateways, paths and the RIB all misbehave at once.
pub fn adoption_under_stress(s: &mut Session) -> Report {
    let days = s.config.days.clamp(1, 20);
    let mut r = Report::new("adoption-under-stress");
    r.heading("Adoption under stress — the cohort on a failing infrastructure");
    let data = adoption_under_stress_data(s, days);
    let mut t = TextTable::new(vec![
        "Res",
        "Access tech",
        "translated",
        "native v6",
        "gw rejected",
        "drops (dns/gw/pool/path)",
    ]);
    for row in &data.rows {
        t.row(vec![
            row.key.to_string(),
            row.tech.clone(),
            format!(
                "{:.3} -> {:.3}",
                row.clean_translated_bytes, row.stress_translated_bytes
            ),
            format!(
                "{:.3} -> {:.3}",
                row.clean_native_v6_bytes, row.stress_native_v6_bytes
            ),
            format!("{} -> {}", row.clean_rejected, row.stress_rejected),
            format!(
                "{}/{}/{}/{}",
                row.drops.get(DropCause::DnsFailure),
                row.drops.get(DropCause::GatewayOutage),
                row.drops.get(DropCause::PoolExhausted),
                row.drops.get(DropCause::PathLoss)
            ),
        ]);
    }
    r.table(t);
    r.line(format!(
        "RIB churn: {} routes -> {} ({} announced, {} withdrawn over {} days)",
        data.rib.baseline_routes,
        data.rib.final_routes,
        data.rib.announced,
        data.rib.withdrawn,
        days
    ));
    // The report digest is pinned in e2ebench/pins.txt, so this text keeps
    // a since-deleted flag name until the pins are next re-cut.
    r.line(
        "(identical demand clean vs stressed: every shift is a fault effect —\n\
         v6-only lines lose translated bytes to DNS bursts and outages while\n\
         dual-stack lines shift races to v4; the dataset is byte-identical at\n\
         any --threads / --day-threads by the determinism contract)",
    );
    r.dataset(
        "adoption_under_stress.json",
        serde_json::to_string_pretty(&data).expect("serializable"),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunConfig;

    #[test]
    fn faults_sweep_shows_per_class_casualties() {
        let s = Session::new(RunConfig::default().sites(400).seed(77).days(6));
        let rows = faults_sweep_rows(&s, 6);
        assert_eq!(rows.len(), 5);
        let by_class = |class: &str| rows.iter().find(|r| r.class == class).expect(class);
        let clean = by_class("clean");
        // A small pool rejects (= PoolExhausted drops) even without a
        // plan; what a clean run must never show is an injected cause.
        for cause in [
            DropCause::DnsFailure,
            DropCause::GatewayOutage,
            DropCause::PathLoss,
        ] {
            assert_eq!(clean.drops.get(cause), 0, "clean run shows {cause:?}");
        }
        assert!(
            by_class("dns-burst").drops.get(DropCause::DnsFailure) > 0,
            "a 50% SERVFAIL burst must cost some races"
        );
        assert!(
            by_class("gateway-outage")
                .drops
                .get(DropCause::GatewayOutage)
                > 0,
            "an 8-hour daily outage must refuse some flows"
        );
        assert!(
            by_class("path-degrade").drops.get(DropCause::PathLoss) > 0,
            "a 20% drop-rate degradation must lose some flows"
        );
        let shrink = by_class("pool-shrink");
        assert!(
            shrink.rejected > clean.rejected,
            "a quartered pool must reject more ({} vs {})",
            shrink.rejected,
            clean.rejected
        );
    }

    #[test]
    fn adoption_under_stress_dataset_is_layout_invariant() {
        let base = RunConfig::default().sites(400).seed(77).days(6);
        let s1 = Session::new(base.clone().threads(1));
        let s2 = Session::new(base.threads(4));
        let d1 = adoption_under_stress_data(&s1, 6);
        let d2 = adoption_under_stress_data(&s2, 6);
        let j1 = serde_json::to_string_pretty(&d1).expect("serializable");
        let j2 = serde_json::to_string_pretty(&d2).expect("serializable");
        assert_eq!(j1, j2, "stress dataset must be layout-invariant");
        // The stress timeline really bites: some line drops something, and
        // the churn leg moved the cloned RIB.
        assert!(d1.rows.iter().any(|r| !r.drops.is_empty()));
        assert!(d1.rib.announced > 0 && d1.rib.withdrawn > 0);
        assert!(d1.rib.final_routes > d1.rib.baseline_routes);
        // The session's own RIB is untouched by the replay.
        assert_eq!(s1.world.rib.len(), d1.rib.baseline_routes);
    }

    #[test]
    fn stress_session_faults_flow_through_traffic_config() {
        let plan = stress_plan(7, 4);
        let s = Session::new(
            RunConfig::default()
                .sites(200)
                .seed(7)
                .days(4)
                .faults(plan.clone()),
        );
        assert_eq!(s.traffic_config().faults, plan);
        assert!(
            Session::new(RunConfig::default().sites(200).seed(7).days(4))
                .traffic_config()
                .faults
                .is_empty()
        );
    }
}
