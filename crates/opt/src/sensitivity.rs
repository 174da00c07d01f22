//! WCET sensitivity analysis: how much can each process grow before the
//! system becomes unschedulable?
//!
//! This is a natural design-space-exploration companion to the paper's
//! synthesis flow: once `OptimizeSchedule` produces a schedulable
//! configuration, the per-process WCET slack tells the designer which
//! functions sit on the critical path (slack ≈ 0) and which have headroom
//! for future features. Computed by binary search over re-analysis with
//! [`Application::with_wcet`](mcs_model::Application::with_wcet); the
//! per-process searches are independent and [`criticality_ranking`] fans
//! them out across rayon workers (`RAYON_NUM_THREADS` caps them), with
//! results collected in process order so the ranking is deterministic.

use rayon::prelude::*;

use mcs_core::AnalysisParams;
use mcs_model::{ProcessId, System, SystemConfig, Time};

use crate::cost::evaluate;

/// The WCET slack of one process under a fixed configuration ψ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WcetSlack {
    /// The analyzed process.
    pub process: ProcessId,
    /// Its current WCET.
    pub wcet: Time,
    /// The largest WCET (within the searched range) for which the system
    /// stays schedulable.
    pub max_wcet: Time,
}

impl WcetSlack {
    /// The slack `max_wcet − wcet`.
    pub fn slack(&self) -> Time {
        self.max_wcet.saturating_sub(self.wcet)
    }

    /// The growth headroom in per-mille of the current WCET.
    pub fn headroom_permille(&self) -> u64 {
        self.slack().ticks() * 1_000 / self.wcet.ticks().max(1)
    }
}

/// Computes the WCET slack of `process` by binary search.
///
/// The search covers `[C, scale_limit × C]`; `resolution` bounds the binary
/// search granularity (the result is within `resolution` of the true
/// boundary; a zero resolution searches to the tick). Returns `None` if
/// the system is not schedulable even at the current WCET.
pub fn wcet_slack(
    system: &System,
    config: &SystemConfig,
    analysis: &AnalysisParams,
    process: ProcessId,
    scale_limit: u64,
    resolution: Time,
) -> Option<WcetSlack> {
    let wcet = system.application.process(process).wcet();
    let schedulable_with = |candidate: Time| -> bool {
        let app = system
            .application
            .with_wcet(process, candidate)
            .expect("non-zero candidate");
        let scaled = System {
            application: app,
            architecture: system.architecture.clone(),
            gateway: system.gateway,
        };
        evaluate(&scaled, config.clone(), analysis)
            .map(|e| e.is_schedulable())
            .unwrap_or(false)
    };
    if !schedulable_with(wcet) {
        return None;
    }
    let mut lo = wcet; // schedulable
    let mut hi = wcet.saturating_mul(scale_limit.max(2)); // probably not
    if schedulable_with(hi) {
        return Some(WcetSlack {
            process,
            wcet,
            max_wcet: hi,
        });
    }
    let tick = Time::from_ticks(1);
    while hi.saturating_sub(lo) > resolution.max(tick) {
        // `lo/2 + hi/2` rounds down to `lo` when both are odd and two ticks
        // apart; step at least one tick so the bracket always shrinks.
        let mid = Time::from_ticks(lo.ticks() / 2 + hi.ticks() / 2).max(lo.saturating_add(tick));
        if schedulable_with(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(WcetSlack {
        process,
        wcet,
        max_wcet: lo,
    })
}

/// Ranks all processes by WCET headroom, most critical (least headroom)
/// first. Processes on the end-to-end critical path surface at the top.
pub fn criticality_ranking(
    system: &System,
    config: &SystemConfig,
    analysis: &AnalysisParams,
    scale_limit: u64,
    resolution: Time,
) -> Vec<WcetSlack> {
    let ids: Vec<ProcessId> = system
        .application
        .processes()
        .iter()
        .map(|p| p.id())
        .collect();
    let mut slacks: Vec<WcetSlack> = ids
        .into_par_iter()
        .map(|p| wcet_slack(system, config, analysis, p, scale_limit, resolution))
        .collect::<Vec<Option<WcetSlack>>>()
        .into_iter()
        .flatten()
        .collect();
    slacks.sort_by_key(|s| (s.headroom_permille(), s.process));
    slacks
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_gen::{figure4, figure4_ids};

    #[test]
    fn critical_path_processes_have_less_headroom() {
        // Figure 4 (b) at deadline 240 is schedulable with 10 ms of
        // end-to-end slack; every process on the P1→P2→P4 chain can grow by
        // at most that (modulo round quantization), while P3 (off the
        // response-defining chain) has more room.
        let fig = figure4(Time::from_millis(240));
        let analysis = AnalysisParams::default();
        let res = Time::from_millis(1);
        let p1 = wcet_slack(
            &fig.system,
            &fig.config_b,
            &analysis,
            figure4_ids::P1,
            8,
            res,
        )
        .expect("schedulable");
        let p3 = wcet_slack(
            &fig.system,
            &fig.config_b,
            &analysis,
            figure4_ids::P3,
            8,
            res,
        )
        .expect("schedulable");
        assert!(p1.slack() < p3.slack(), "P1 {:?} vs P3 {:?}", p1, p3);
        assert!(p1.max_wcet >= p1.wcet);
    }

    #[test]
    fn a_zero_resolution_search_terminates() {
        // Run on a thread so that a search that never narrows fails the
        // test instead of hanging the suite; a thread that does not return
        // is left detached.
        let (tx, rx) = std::sync::mpsc::channel();
        let search = std::thread::spawn(move || {
            let fig = figure4(Time::from_millis(240));
            let analysis = AnalysisParams::default();
            let slack = wcet_slack(
                &fig.system,
                &fig.config_b,
                &analysis,
                figure4_ids::P1,
                8,
                Time::ZERO,
            );
            let _ = tx.send(slack);
        });
        let slack = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a zero-resolution search returns")
            .expect("schedulable");
        search.join().expect("the search thread does not panic");
        assert!(slack.max_wcet >= slack.wcet);
    }

    #[test]
    fn unschedulable_systems_yield_none() {
        let fig = figure4(Time::from_millis(200)); // all configs miss
        let analysis = AnalysisParams::default();
        assert_eq!(
            wcet_slack(
                &fig.system,
                &fig.config_a,
                &analysis,
                figure4_ids::P1,
                4,
                Time::from_millis(1)
            ),
            None
        );
    }

    #[test]
    fn ranking_orders_by_headroom() {
        let fig = figure4(Time::from_millis(240));
        let analysis = AnalysisParams::default();
        let ranking = criticality_ranking(
            &fig.system,
            &fig.config_c,
            &analysis,
            8,
            Time::from_millis(2),
        );
        assert_eq!(ranking.len(), 4);
        for pair in ranking.windows(2) {
            assert!(pair[0].headroom_permille() <= pair[1].headroom_permille());
        }
    }
}
