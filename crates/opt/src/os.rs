//! `OptimizeSchedule` (OS) — the greedy bus-access and priority synthesis
//! heuristic of paper Figure 8.
//!
//! Starting from the straightforward slot order with minimal lengths, the
//! heuristic fixes the TDMA round slot by slot: for every position it tries
//! every still-unassigned node and every *recommended length* for that
//! node's slot, assigns HOPA priorities, runs `MultiClusterScheduling`, and
//! keeps the combination maximizing the degree of schedulability. Along the
//! way it records the best configurations seen — by δΓ and by `s_total` —
//! as *seed solutions* for the resource optimizer.
//!
//! [`Os`] is the [`Strategy`] packaging of the heuristic for
//! [`Synthesis`](crate::Synthesis): all candidate evaluations run through
//! the context's shared [`Evaluator`](mcs_core::Evaluator), and only
//! summaries are compared in the search; the driver materializes the full
//! outcome once for the winning configuration.

use mcs_core::{DeltaSeeds, EvalSummary};
use mcs_model::{MessageRoute, NodeId, System, SystemConfig, TdmaConfig, TdmaSlot};

use crate::hopa::hopa_priorities;
use crate::sf::minimal_slot_capacities;
use crate::synthesis::{SearchCtx, SearchEvent, Strategy, SynthesisError};

/// Tuning of the OS heuristic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OsParams {
    /// Maximum recommended slot lengths tried per (position, node) pair.
    pub max_slot_candidates: usize,
    /// Maximum number of seed solutions handed to `OptimizeResources`.
    pub seed_limit: usize,
}

impl Default for OsParams {
    fn default() -> Self {
        OsParams {
            max_slot_candidates: 3,
            seed_limit: 6,
        }
    }
}

/// Recommended slot lengths for `node` (paper §5.1, after Eles et al.
/// 2000): the
/// cumulative sizes of the node's outgoing TTP frames, largest first — i.e.
/// "fit the k largest messages into one round".
pub fn recommended_lengths(system: &System, node: NodeId) -> Vec<u32> {
    let app = &system.application;
    let mut sizes: Vec<u32> = app
        .messages()
        .iter()
        .filter(|m| {
            let route = system.route(m.id());
            let sender = if route == MessageRoute::EtcToTtc {
                system.architecture.gateway()
            } else {
                app.process(m.source()).node()
            };
            route.uses_ttp() && sender == node
        })
        .map(|m| m.size_bytes())
        .collect();
    if sizes.is_empty() {
        return vec![1];
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut lengths = Vec::new();
    let mut sum = 0;
    for s in sizes {
        sum += s;
        if lengths.last() != Some(&sum) {
            lengths.push(sum);
        }
    }
    lengths
}

/// The OS heuristic as a [`Strategy`].
///
/// After a run, the seed pool for `OptimizeResources` is available through
/// [`Os::seed_configs`] (the incumbent first, then the best-by-δΓ and
/// smallest-`s_total` schedulable configurations seen).
///
/// Infeasible intermediate configurations (a candidate length below the
/// node's largest frame can never occur by construction, but e.g. a
/// degenerate architecture could fail scheduling) are skipped rather than
/// propagated; the straightforward configuration guarantees at least one
/// feasible evaluation.
#[derive(Debug, Default)]
pub struct Os {
    params: OsParams,
    seeds: Vec<SystemConfig>,
}

impl Os {
    /// Creates the strategy.
    pub fn new(params: OsParams) -> Self {
        Os {
            params,
            seeds: Vec::new(),
        }
    }

    /// The seed pool of the last run (empty before any run).
    pub fn seed_configs(&self) -> &[SystemConfig] {
        &self.seeds
    }

    /// Takes the seed pool of the last run.
    pub fn take_seeds(&mut self) -> Vec<SystemConfig> {
        std::mem::take(&mut self.seeds)
    }
}

impl Strategy for Os {
    fn name(&self) -> &'static str {
        "OS"
    }

    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        let system = ctx.system();
        let caps = minimal_slot_capacities(system);
        let order: Vec<NodeId> = system.architecture.ttp_nodes().map(|n| n.id()).collect();
        let mut slots: Vec<TdmaSlot> = order
            .iter()
            .map(|&node| TdmaSlot {
                node,
                capacity_bytes: caps[&node],
            })
            .collect();

        let mut best: Option<(EvalSummary, SystemConfig)> = None;
        let mut pool = SeedPool::new(self.params.seed_limit);
        // Every OS candidate changes the TDMA round (slot order or length),
        // so the delta path degenerates to the full fixed point by design;
        // the structural seed set documents that through the uniform entry
        // point — the batch still wins core-level parallelism across lanes.
        let structural = DeltaSeeds::structural();
        // Candidate counts per tried `j`, reused across positions.
        let mut groups: Vec<(usize, usize)> = Vec::new();

        'positions: for position in 0..slots.len() {
            if ctx.exhausted() {
                // Between candidates the slot vector is consistent;
                // keep whatever the committed prefix achieved.
                break 'positions;
            }
            // Fan out the whole position scan as one batch: every remaining
            // node at this position × every recommended length for it.
            ctx.begin_candidates();
            groups.clear();
            for j in position..slots.len() {
                slots.swap(position, j);
                let node = slots[position].node;
                let lengths = recommended_lengths(system, node);
                let saved = slots[position].capacity_bytes;
                let mut count = 0;
                for &len in lengths.iter().take(self.params.max_slot_candidates.max(1)) {
                    slots[position].capacity_bytes = len.max(caps[&node]);
                    let tdma = TdmaConfig::new(slots.clone());
                    let priorities = hopa_priorities(system, &tdma);
                    let config = SystemConfig::new(tdma, priorities);
                    ctx.push_candidate(&config, &structural);
                    count += 1;
                }
                slots[position].capacity_bytes = saved;
                slots.swap(position, j);
                groups.push((j, count));
            }
            ctx.evaluate_candidates_queued();

            // Consume in scan order: results, budget accounting and the
            // event stream are exactly the sequential loop's — speculative
            // candidates past an exhausted budget are never consumed.
            let mut best_here: Option<(EvalSummary, SystemConfig, usize, u32)> = None;
            let mut index = 0;
            for (group, &(j, count)) in groups.iter().enumerate() {
                if group > 0 && ctx.exhausted() {
                    break 'positions;
                }
                for _ in 0..count {
                    if let Ok(summary) = ctx.consume_candidate(index) {
                        pool.offer(&summary, ctx.candidate_config(index));
                        let better = match &best_here {
                            None => true,
                            Some((cur, _, _, _)) => {
                                (summary.schedule_cost(), summary.total_buffers)
                                    < (cur.schedule_cost(), cur.total_buffers)
                            }
                        };
                        ctx.emit(SearchEvent::Evaluated {
                            evaluations: ctx.evaluations(),
                            summary,
                            accepted: better,
                        });
                        if better {
                            let config = ctx.candidate_config(index).clone();
                            let capacity = config.tdma.slots()[position].capacity_bytes;
                            best_here = Some((summary, config, j, capacity));
                        }
                    } else {
                        ctx.emit(SearchEvent::Infeasible {
                            evaluations: ctx.evaluations(),
                        });
                    }
                    index += 1;
                }
            }
            // Commit the best node/length for this position.
            if let Some((summary, config, j, len)) = best_here {
                slots.swap(position, j);
                slots[position].capacity_bytes = len;
                let better = match &best {
                    None => true,
                    Some((cur, _)) => {
                        (summary.schedule_cost(), summary.total_buffers)
                            < (cur.schedule_cost(), cur.total_buffers)
                    }
                };
                if better {
                    ctx.record_incumbent(summary, &config);
                    best = Some((summary, config));
                }
            }
        }

        let best_config = match best {
            Some((_, config)) => config,
            None => {
                // Degenerate fallback: evaluate the straightforward
                // configuration.
                let config = crate::sf::straightforward_config(system);
                let summary = ctx.evaluate(&config)?;
                ctx.record_incumbent(summary, &config);
                config
            }
        };
        self.seeds = pool.into_configs(&best_config);
        Ok(())
    }
}

/// Keeps the best seen configurations along two axes: δΓ and `s_total`.
struct SeedPool {
    limit: usize,
    by_degree: Vec<(i128, u64, SystemConfig)>,
    by_buffers: Vec<(u64, i128, SystemConfig)>,
}

impl SeedPool {
    fn new(limit: usize) -> Self {
        SeedPool {
            // The incumbent is always handed over, even at a limit of 0.
            limit: limit.max(1),
            by_degree: Vec::new(),
            by_buffers: Vec::new(),
        }
    }

    fn offer(&mut self, summary: &EvalSummary, config: &SystemConfig) {
        let half = self.limit.div_ceil(2);
        self.by_degree.push((
            summary.schedule_cost(),
            summary.total_buffers,
            config.clone(),
        ));
        self.by_degree.sort_by_key(|a| (a.0, a.1));
        self.by_degree.truncate(half);
        if summary.is_schedulable() {
            self.by_buffers.push((
                summary.total_buffers,
                summary.schedule_cost(),
                config.clone(),
            ));
            self.by_buffers.sort_by_key(|a| (a.0, a.1));
            self.by_buffers.truncate(half);
        }
    }

    fn into_configs(self, best: &SystemConfig) -> Vec<SystemConfig> {
        let mut configs = vec![best.clone()];
        for (_, _, c) in self
            .by_degree
            .into_iter()
            .chain(self.by_buffers.into_iter().map(|(a, b, c)| (b, a, c)))
        {
            if !configs.contains(&c) {
                configs.push(c);
            }
        }
        configs.truncate(self.limit);
        configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{evaluate, Evaluation};
    use crate::synthesis::Synthesis;
    use mcs_core::AnalysisParams;
    use mcs_gen::{figure4, generate, GeneratorParams};
    use mcs_model::Time;

    fn run_os(system: &System) -> (Evaluation, Vec<SystemConfig>, u64) {
        let mut strategy = Os::new(OsParams::default());
        let report = Synthesis::builder(system)
            .strategy(&mut strategy)
            .run()
            .expect("analyzable");
        (report.best, strategy.take_seeds(), report.evaluations)
    }

    #[test]
    fn os_beats_or_matches_the_straightforward_baseline() {
        let system = generate(&GeneratorParams::paper_sized(2, 17));
        let analysis = AnalysisParams::default();
        let sf = evaluate(
            &system,
            crate::sf::straightforward_config(&system),
            &analysis,
        )
        .expect("SF analyzable");
        let (best, seeds, evaluations) = run_os(&system);
        assert!(
            best.schedule_cost() <= sf.schedule_cost(),
            "OS {} must not lose to SF {}",
            best.schedule_cost(),
            sf.schedule_cost()
        );
        assert!(evaluations > 0);
        assert!(!seeds.is_empty());
    }

    #[test]
    fn os_finds_a_schedulable_figure4_configuration() {
        // With D = 240 ms, configurations (b) and (c) are schedulable; the
        // greedy search must find one at least as good.
        let fig = figure4(Time::from_millis(240));
        let (best, _, _) = run_os(&fig.system);
        assert!(best.is_schedulable());
    }

    #[test]
    fn a_seed_limit_of_one_hands_over_only_the_incumbent() {
        // Here the smallest-buffer schedulable configuration differs from
        // the incumbent, so a pool raised to two seeds would carry it too.
        let system = generate(&GeneratorParams::paper_sized(4, 7));
        let mut strategy = Os::new(OsParams {
            seed_limit: 1,
            ..OsParams::default()
        });
        let report = Synthesis::builder(&system)
            .strategy(&mut strategy)
            .run()
            .expect("analyzable");
        assert_eq!(strategy.take_seeds(), vec![report.best.config]);
    }

    #[test]
    fn recommended_lengths_are_cumulative_message_sizes() {
        let fig = figure4(Time::from_millis(200));
        // N1 sends m1 (4 B) and m2 (4 B): lengths 4, 8.
        let n1 = fig
            .system
            .application
            .process(mcs_gen::figure4_ids::P1)
            .node();
        assert_eq!(recommended_lengths(&fig.system, n1), vec![4, 8]);
        // The gateway carries m3 (4 B).
        assert_eq!(
            recommended_lengths(&fig.system, fig.system.architecture.gateway()),
            vec![4]
        );
    }
}
