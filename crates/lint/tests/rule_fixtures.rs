//! Fixture tests: one inline source snippet per rule behavior. Each
//! fixture runs through the real [`mcs_lint::check_file`] entry point
//! with the workspace config, under the path that scopes the rule on,
//! so these tests pin the end-to-end matching — lexing, test-region
//! mapping, marker parsing and the rule itself.

use mcs_lint::{check_file, Config};

fn lint(path: &str, src: &str) -> Vec<(u32, String)> {
    check_file(&Config::workspace_default(), path, src)
        .into_iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect()
}

fn rules_fired(path: &str, src: &str) -> Vec<String> {
    let mut rules: Vec<String> = lint(path, src).into_iter().map(|(_, r)| r).collect();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

#[test]
fn wall_clock_flags_instant_now_outside_allowlist() {
    let src = "fn f() -> u64 { let t = Instant::now(); t.elapsed().as_nanos() as u64 }\n";
    let hits = lint("crates/core/src/holistic.rs", src);
    assert_eq!(
        hits,
        vec![(1, "wall-clock".into()), (1, "wall-clock".into())],
        "Instant::now and .elapsed must both fire"
    );
}

#[test]
fn wall_clock_silent_on_the_serve_allowlist() {
    let src = "fn f() -> std::time::Instant { Instant::now() }\n";
    assert!(lint("crates/opt/src/serve.rs", src).is_empty());
    assert!(lint("crates/bench/src/tables.rs", src).is_empty());
}

#[test]
fn wall_clock_flags_the_synthesis_module() {
    let src = "fn f() -> std::time::Instant { Instant::now() }\n";
    assert_eq!(
        rules_fired("crates/opt/src/synthesis.rs", src),
        ["wall-clock"],
        "only the serving layer owns deadlines; search code never reads the clock"
    );
}

#[test]
fn wall_clock_flags_system_time() {
    let src = "fn f() { let _ = SystemTime::UNIX_EPOCH; }\n";
    assert_eq!(rules_fired("crates/sim/src/engine.rs", src), ["wall-clock"]);
}

#[test]
fn wall_clock_exempts_test_regions() {
    let src = "\
#[cfg(test)]
mod tests {
    fn timer() { let _ = Instant::now(); }
}
";
    assert!(lint("crates/core/src/holistic.rs", src).is_empty());
}

#[test]
fn wall_clock_honors_allow_marker() {
    let src = "\
// mcs-lint: allow(wall-clock) -- coarse progress logging only, not fed to results
let t0 = Instant::now();
";
    assert!(lint("crates/core/src/holistic.rs", src).is_empty());
}

#[test]
fn wall_clock_ignores_strings_and_comments() {
    let src = "\
// Instant::now() would be wrong here.
fn f() -> &'static str { \"Instant::now() and SystemTime and .elapsed()\" }
";
    assert!(lint("crates/core/src/holistic.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------------------

#[test]
fn rng_flags_entropy_constructors_everywhere() {
    let src = "fn f() { let mut rng = SmallRng::from_entropy(); }\n";
    assert_eq!(
        rules_fired("crates/opt/src/annealing.rs", src),
        ["rng-discipline"]
    );
    let src = "fn f() { let v: u64 = rand::random(); }\n";
    assert_eq!(
        rules_fired("crates/gen/src/lib.rs", src),
        ["rng-discipline"]
    );
}

#[test]
fn rng_allows_explicit_seeds() {
    let src = "fn f(seed: u64) { let mut rng = SmallRng::seed_from_u64(seed); }\n";
    assert!(lint("crates/opt/src/annealing.rs", src).is_empty());
}

#[test]
fn rng_flags_literal_seed_inside_parallel_region() {
    let src = "\
fn f(items: &[u64]) -> Vec<u64> {
    items
        .par_iter()
        .map(|x| {
            let mut rng = SmallRng::seed_from_u64(42);
            x + rng.next_u64()
        })
        .collect()
}
";
    let hits = lint("crates/opt/src/annealing.rs", src);
    assert_eq!(hits, vec![(5, "rng-discipline".into())]);
}

#[test]
fn rng_allows_per_lane_derived_seed_inside_parallel_region() {
    let src = "\
fn f(items: &[u64], seed: u64) -> Vec<u64> {
    items
        .par_iter()
        .enumerate()
        .map(|(i, x)| {
            let mut rng = SmallRng::seed_from_u64(seed ^ i as u64);
            x + rng.next_u64()
        })
        .collect()
}
";
    assert!(lint("crates/opt/src/annealing.rs", src).is_empty());
}

#[test]
fn rng_allows_literal_seed_outside_parallel_regions() {
    let src = "fn f() { let mut rng = SmallRng::seed_from_u64(42); }\n";
    assert!(lint("crates/opt/src/annealing.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// hash-order
// ---------------------------------------------------------------------------

#[test]
fn hash_order_flags_unsorted_iteration_in_report_modules() {
    let src = "\
fn report(m: &HashMap<u32, u32>) -> Vec<String> {
    let mut out = Vec::new();
    for (k, v) in m {
        out.push(json_line(*k, *v));
    }
    out
}
";
    let hits = lint("crates/sim/src/report.rs", src);
    assert_eq!(hits, vec![(3, "hash-order".into())]);
}

#[test]
fn hash_order_flags_values_iteration() {
    let src = "\
fn digest(m: &HashMap<u32, u32>) -> u64 {
    let mut acc = 0u64;
    for v in m.values() {
        acc = acc.wrapping_mul(31).wrapping_add(*v as u64);
    }
    acc
}
";
    let hits = lint("crates/sim/src/report.rs", src);
    assert!(
        hits.iter().any(|(_, r)| r == "hash-order"),
        "values() feeding a digest fold must fire: {hits:?}"
    );
}

#[test]
fn hash_order_exonerated_by_collect_then_sort() {
    let src = "\
fn report(m: &HashMap<u32, u32>) -> Vec<(u32, u32)> {
    let mut rows: Vec<(u32, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort();
    rows.iter().map(|r| json_line(r.0, r.1)).collect()
}
";
    assert!(lint("crates/sim/src/report.rs", src).is_empty());
}

#[test]
fn hash_order_silent_in_modules_without_output_surface() {
    // No json_line/digest/SearchEvent mention and not a report.rs — the
    // rule does not police internal bookkeeping.
    let src = "\
fn count(m: &HashMap<u32, u32>) -> usize {
    let mut n = 0;
    for _ in m.values() {
        n += 1;
    }
    n
}
";
    assert!(lint("crates/opt/src/moves.rs", src).is_empty());
}

#[test]
fn hash_order_honors_allow_marker() {
    let src = "\
fn worst(m: &HashMap<u32, u32>) -> Option<u32> {
    // mcs-lint: allow(hash-order) -- max() is an order-independent fold
    m.values().copied().max().map(|v| v + json_line(0, 0).len() as u32)
}
";
    assert!(lint("crates/sim/src/report.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// panic-policy
// ---------------------------------------------------------------------------

#[test]
fn panic_policy_flags_unwrap_expect_and_macros_in_guarded_crates() {
    let src = "\
fn f(v: Option<u32>) -> u32 {
    match v {
        Some(x) => x.checked_mul(2).unwrap(),
        None => panic!(\"empty\"),
    }
}
";
    let hits = lint("crates/core/src/holistic.rs", src);
    assert_eq!(
        hits,
        vec![(3, "panic-policy".into()), (4, "panic-policy".into())]
    );
}

#[test]
fn panic_policy_only_guards_core_and_sim_library_code() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert!(lint("crates/opt/src/annealing.rs", src).is_empty());
    assert!(lint("crates/sim/src/bin/faultsim.rs", src).is_empty());
    assert_eq!(
        rules_fired("crates/sim/src/engine.rs", src),
        ["panic-policy"]
    );
}

#[test]
fn panic_policy_does_not_match_unwrap_or() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(0).max(v.unwrap_or_default()) }\n";
    assert!(lint("crates/core/src/holistic.rs", src).is_empty());
}

#[test]
fn panic_policy_exempts_tests_and_honors_markers() {
    let src = "\
fn f(v: &[u32]) -> u32 {
    // mcs-lint: allow(panic-policy) -- callers guarantee v is non-empty
    *v.first().expect(\"non-empty\")
}

#[cfg(test)]
mod tests {
    #[test]
    fn check() {
        assert_eq!(super::f(&[1]), 1);
        Option::<u32>::None.unwrap_or(0);
        let _ = std::panic::catch_unwind(|| super::f(&[]).to_string().parse::<u32>().unwrap());
    }
}
";
    assert!(lint("crates/core/src/holistic.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// float-reduction
// ---------------------------------------------------------------------------

#[test]
fn float_reduction_flags_sum_inside_parallel_region() {
    let src = "\
fn f(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * 2.0).sum()
}
";
    let hits = lint("crates/opt/src/annealing.rs", src);
    assert_eq!(hits, vec![(2, "float-reduction".into())]);
}

#[test]
fn float_reduction_allows_sequential_sum() {
    let src = "\
fn f(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * 2.0).sum()
}
";
    assert!(lint("crates/opt/src/annealing.rs", src).is_empty());
}

#[test]
fn float_reduction_honors_allow_marker() {
    let src = "\
fn f(xs: &[u64]) -> u64 {
    xs.par_iter()
        .map(|x| x * 2)
        // mcs-lint: allow(float-reduction) -- integer addition is order-independent
        .sum()
}
";
    assert!(lint("crates/opt/src/annealing.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// the `marker` pseudo-rule
// ---------------------------------------------------------------------------

#[test]
fn reasonless_marker_is_itself_a_violation() {
    let src = "\
// mcs-lint: allow(wall-clock)
let t = Instant::now();
";
    let hits = lint("crates/core/src/holistic.rs", src);
    // The malformed marker does NOT suppress, so both the marker
    // diagnostic and the wall-clock diagnostic fire.
    assert_eq!(hits, vec![(1, "marker".into()), (2, "wall-clock".into())]);
}

#[test]
fn unknown_rule_in_marker_is_a_violation() {
    let src = "// mcs-lint: allow(no-such-rule) -- because\nfn f() {}\n";
    let hits = lint("crates/opt/src/moves.rs", src);
    assert_eq!(hits, vec![(1, "marker".into())]);
}

#[test]
fn marker_reaches_only_its_own_and_the_next_line() {
    let src = "\
// mcs-lint: allow(wall-clock) -- only covers the next line
let a = Instant::now();
let b = Instant::now();
";
    let hits = lint("crates/core/src/holistic.rs", src);
    assert_eq!(hits, vec![(3, "wall-clock".into())]);
}

// ---------------------------------------------------------------------------
// lexer robustness (via the rules): raw strings and nested comments
// ---------------------------------------------------------------------------

#[test]
fn raw_strings_and_nested_comments_do_not_fire() {
    let src = "\
/* outer /* nested Instant::now() */ still comment .unwrap() */
fn f() -> &'static str {
    r#\"SystemTime::now().unwrap() and panic!(\"x\") in a raw string\"#
}
";
    assert!(lint("crates/core/src/holistic.rs", src).is_empty());
}
