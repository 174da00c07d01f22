//! Property-based tests for the model's core data structures.

use std::collections::HashMap;

use proptest::prelude::*;

use mcs_model::{
    lcm, Application, Architecture, MessageId, NodeId, NodeRole, OffsetConstraints, Priority,
    PriorityAssignment, ProcessId, SlotId, TdmaConfig, TdmaSlot, Time, TtpBusParams,
};

proptest! {
    #[test]
    fn lcm_is_divisible_by_both(a in 1u64..10_000, b in 1u64..10_000) {
        let l = lcm(Time::from_ticks(a), Time::from_ticks(b));
        prop_assert_eq!(l.ticks() % a, 0);
        prop_assert_eq!(l.ticks() % b, 0);
        prop_assert!(l.ticks() >= a.max(b));
        prop_assert!(l.ticks() <= a * b);
    }

    #[test]
    fn saturating_sub_never_underflows(a in any::<u64>(), b in any::<u64>()) {
        let d = Time::from_ticks(a).saturating_sub(Time::from_ticks(b));
        prop_assert_eq!(d.ticks(), a.saturating_sub(b));
    }

    #[test]
    fn div_ceil_matches_definition(x in 0u64..1_000_000, t in 1u64..10_000) {
        let n = Time::from_ticks(x).div_ceil(Time::from_ticks(t));
        prop_assert!(n * t >= x);
        prop_assert!(n == 0 || (n - 1) * t < x);
    }

    /// Slot offsets are the prefix sums of slot durations, and the round is
    /// the total.
    #[test]
    fn slot_offsets_are_prefix_sums(
        capacities in proptest::collection::vec(1u32..64, 1..8),
        byte_time in 1u64..100,
        overhead in 0u64..100,
    ) {
        let params = TtpBusParams::new(
            Time::from_ticks(byte_time),
            Time::from_ticks(overhead),
        );
        let slots: Vec<TdmaSlot> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| TdmaSlot { node: NodeId::new(i as u32), capacity_bytes: c })
            .collect();
        let config = TdmaConfig::new(slots);
        let mut acc = Time::ZERO;
        for i in 0..config.slot_count() {
            let id = SlotId::new(i as u32);
            prop_assert_eq!(config.slot_offset(id, &params), acc);
            acc += config.slot_duration(id, &params);
        }
        prop_assert_eq!(config.round_duration(&params), acc);
    }

    /// Random chain-structured applications always build, and the
    /// topological order respects every edge.
    #[test]
    fn random_chains_build_and_topo_sort(
        wcets in proptest::collection::vec(1u64..50, 2..20),
        preds in proptest::collection::vec(0usize..100, 0..18),
    ) {
        let mut b = Architecture::builder();
        let n1 = b.add_node("N1", NodeRole::TimeTriggered);
        let n2 = b.add_node("N2", NodeRole::EventTriggered);
        b.add_node("NG", NodeRole::Gateway);
        let arch = b.build().expect("valid");

        let mut ab = Application::builder();
        let g = ab.add_graph("G", Time::from_millis(1000), Time::from_millis(1000));
        let mut procs = Vec::new();
        for (i, &w) in wcets.iter().enumerate() {
            let node = if i % 2 == 0 { n1 } else { n2 };
            let p = ab.add_process(g, format!("p{i}"), node, Time::from_millis(w));
            if i > 0 {
                let pred = procs[preds.get(i - 1).copied().unwrap_or(0) % procs.len()];
                ab.link(pred, p, 8);
            }
            procs.push(p);
        }
        let app = ab.build(&arch).expect("chains are acyclic");
        let order = app.topological_order(g);
        let pos = |p| order.iter().position(|&q| q == p).expect("in order");
        for e in app.edges() {
            prop_assert!(pos(e.source) < pos(e.dest));
        }
        // Messages exactly on the cross-node arcs.
        for e in app.edges() {
            let cross = app.process(e.source).node() != app.process(e.dest).node();
            prop_assert_eq!(e.message.is_some(), cross);
        }
    }
}

/// Ids drawn for the ψ-table properties: a small range, so operations
/// collide on the same entries often.
const IDS: u32 = 12;

/// A `HashMap` model of [`PriorityAssignment`] and [`OffsetConstraints`].
#[derive(Default)]
struct MapModel {
    process_priorities: HashMap<ProcessId, Priority>,
    message_priorities: HashMap<MessageId, Priority>,
    process_pins: HashMap<ProcessId, Time>,
    message_pins: HashMap<MessageId, Time>,
}

/// Applies one random operation `(kind, a, b, t)` to the types under test
/// and to the model.
fn apply(
    (kind, a, b, t): (u32, u32, u32, u64),
    pa: &mut PriorityAssignment,
    oc: &mut OffsetConstraints,
    model: &mut MapModel,
) {
    let (pa_id, pb_id) = (ProcessId::new(a), ProcessId::new(b));
    let (ma_id, mb_id) = (MessageId::new(a), MessageId::new(b));
    let time = Time::from_ticks(t);
    match kind {
        0 => {
            pa.set_process(pa_id, Priority::new(b));
            model.process_priorities.insert(pa_id, Priority::new(b));
        }
        1 => {
            pa.set_message(ma_id, Priority::new(b));
            model.message_priorities.insert(ma_id, Priority::new(b));
        }
        2 => {
            pa.swap_processes(pa_id, pb_id);
            let m = &mut model.process_priorities;
            if let (Some(&x), Some(&y)) = (m.get(&pa_id), m.get(&pb_id)) {
                m.insert(pa_id, y);
                m.insert(pb_id, x);
            }
        }
        3 => {
            pa.swap_messages(ma_id, mb_id);
            let m = &mut model.message_priorities;
            if let (Some(&x), Some(&y)) = (m.get(&ma_id), m.get(&mb_id)) {
                m.insert(ma_id, y);
                m.insert(mb_id, x);
            }
        }
        4 => {
            oc.pin_process(pa_id, time);
            model.process_pins.insert(pa_id, time);
        }
        5 => {
            oc.pin_message(ma_id, time);
            model.message_pins.insert(ma_id, time);
        }
        6 => {
            oc.unpin_process(pa_id);
            model.process_pins.remove(&pa_id);
        }
        _ => {
            oc.unpin_message(ma_id);
            model.message_pins.remove(&ma_id);
        }
    }
}

/// The entries of one model map, in id order.
fn sorted<K: Ord + Copy, V: Copy>(map: &HashMap<K, V>) -> Vec<(K, V)> {
    let mut entries: Vec<(K, V)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

/// Builds both types from the model's entries, visiting them in id order
/// or in reverse.
fn rebuild(model: &MapModel, reverse: bool) -> (PriorityAssignment, OffsetConstraints) {
    fn order<T>(mut v: Vec<T>, reverse: bool) -> Vec<T> {
        if reverse {
            v.reverse();
        }
        v
    }
    let mut pa = PriorityAssignment::new();
    for (p, prio) in order(sorted(&model.process_priorities), reverse) {
        pa.set_process(p, prio);
    }
    for (m, prio) in order(sorted(&model.message_priorities), reverse) {
        pa.set_message(m, prio);
    }
    let mut oc = OffsetConstraints::new();
    for (p, t) in order(sorted(&model.process_pins), reverse) {
        oc.pin_process(p, t);
    }
    for (m, t) in order(sorted(&model.message_pins), reverse) {
        oc.pin_message(m, t);
    }
    (pa, oc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The hash-free ψ tables behave as maps: every operation sequence
    /// gives the model's lookups, counts and emptiness; equality ignores
    /// insertion order and pin-then-unpin; `clone_from` into a larger
    /// value yields an equal value.
    #[test]
    fn config_tables_match_a_map_model(
        ops in proptest::collection::vec((0u32..8, 0u32..IDS, 0u32..IDS, 0u64..1_000), 0..60),
    ) {
        let mut pa = PriorityAssignment::new();
        let mut oc = OffsetConstraints::new();
        let mut model = MapModel::default();
        for op in ops {
            apply(op, &mut pa, &mut oc, &mut model);
            for i in 0..IDS + 2 {
                let (p, m) = (ProcessId::new(i), MessageId::new(i));
                prop_assert_eq!(pa.process(p), model.process_priorities.get(&p).copied());
                prop_assert_eq!(pa.message(m), model.message_priorities.get(&m).copied());
                prop_assert_eq!(oc.process(p), model.process_pins.get(&p).copied());
                prop_assert_eq!(oc.message(m), model.message_pins.get(&m).copied());
            }
            prop_assert_eq!(pa.process_count(), model.process_priorities.len());
            prop_assert_eq!(pa.message_count(), model.message_priorities.len());
            prop_assert_eq!(
                oc.is_empty(),
                model.process_pins.is_empty() && model.message_pins.is_empty()
            );
        }

        // Same entries, different insertion orders: equal.
        let (forward_pa, forward_oc) = rebuild(&model, false);
        let (reverse_pa, reverse_oc) = rebuild(&model, true);
        prop_assert_eq!(&pa, &forward_pa);
        prop_assert_eq!(&pa, &reverse_pa);
        prop_assert_eq!(&oc, &forward_oc);
        prop_assert_eq!(&oc, &reverse_oc);

        // A pin set and then removed leaves no trace.
        let mut churned = oc.clone();
        churned.pin_process(ProcessId::new(IDS + 1), Time::from_ticks(7));
        churned.pin_message(MessageId::new(IDS + 1), Time::from_ticks(7));
        prop_assert!(churned != oc);
        churned.unpin_process(ProcessId::new(IDS + 1));
        churned.unpin_message(MessageId::new(IDS + 1));
        prop_assert_eq!(&churned, &oc);

        // `clone_from` into a value with more (and higher-id) entries.
        let mut larger_pa = PriorityAssignment::new();
        let mut larger_oc = OffsetConstraints::new();
        for i in 0..IDS + 8 {
            larger_pa.set_process(ProcessId::new(i), Priority::new(i));
            larger_pa.set_message(MessageId::new(i), Priority::new(i));
            larger_oc.pin_process(ProcessId::new(i), Time::from_ticks(u64::from(i)));
            larger_oc.pin_message(MessageId::new(i), Time::from_ticks(u64::from(i)));
        }
        larger_pa.clone_from(&pa);
        larger_oc.clone_from(&oc);
        prop_assert_eq!(&larger_pa, &pa);
        prop_assert_eq!(&larger_oc, &oc);
        prop_assert_eq!(larger_pa.process_count(), model.process_priorities.len());
        prop_assert_eq!(larger_pa.process(ProcessId::new(IDS + 4)), None);
        prop_assert_eq!(larger_oc.message(MessageId::new(IDS + 4)), None);
    }
}
