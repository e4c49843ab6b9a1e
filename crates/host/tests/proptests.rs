//! Property-based tests for the host cache hierarchy, socket ops and the
//! closed-form burst schedule.

use host::burst::{burst_last_completion, run_burst, BurstResult, BurstSpec};
use host::hierarchy::CacheHierarchy;
use host::socket::Socket;
use mem_subsys::coherence::MesiState;
use mem_subsys::line::LineAddr;
use proptest::prelude::*;
use sim_core::port::{PortEngine, PortSpec};
use sim_core::rng::SimRng;
use sim_core::time::{Duration, Time};

#[derive(Debug, Clone, Copy)]
enum HierOp {
    Load(u16),
    Store(u16),
    NtStore(u16),
    Flush(u16),
    Demote(u16),
    DegradeShared(u16),
}

fn hier_op() -> impl Strategy<Value = HierOp> {
    prop_oneof![
        any::<u16>().prop_map(HierOp::Load),
        any::<u16>().prop_map(HierOp::Store),
        any::<u16>().prop_map(HierOp::NtStore),
        any::<u16>().prop_map(HierOp::Flush),
        any::<u16>().prop_map(HierOp::Demote),
        any::<u16>().prop_map(HierOp::DegradeShared),
    ]
}

/// A stateful backend for the burst differential: each call's latency
/// comes from a seeded RNG plus a running call counter, and about one call
/// in five completes the instant it issues.
fn stateful_access(seed: u64) -> impl FnMut(usize, Time) -> Time {
    let mut rng = SimRng::seed_from(seed);
    let mut calls = 0u64;
    move |_, issue| {
        calls += 1;
        if rng.gen_range(5) == 0 {
            return issue;
        }
        issue + Duration::from_nanos(rng.gen_range(300) + calls % 17)
    }
}

proptest! {
    /// The closed-form burst against its oracle, a `PortEngine` with one
    /// in-order port: the same `(i, issue_time)` backend calls in the same
    /// order, and the same `BurstResult`.
    #[test]
    fn closed_form_burst_matches_port_engine(
        n in 1usize..300,
        window in 1usize..80,
        interval_ns in 0u64..20,
        start_ns in 0u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let spec = BurstSpec::new(n, Duration::from_nanos(interval_ns), window);
        let start = Time::from_nanos(start_ns);

        let mut closed_calls = Vec::new();
        let mut access = stateful_access(seed);
        let closed = run_burst(spec, start, |i, t| {
            closed_calls.push((i, t));
            access(i, t)
        });

        let mut engine = PortEngine::new();
        let port = engine.add_port(PortSpec::in_order("burst", window, spec.issue_interval));
        for i in 0..n {
            engine.submit(port, start, i);
        }
        let mut engine_calls = Vec::new();
        let mut access = stateful_access(seed);
        let done = engine.run(|_, &i, t| {
            engine_calls.push((i, t));
            access(i, t)
        });
        let mut oracle = BurstResult {
            first_issue: start,
            last_completion: start,
            latencies: vec![Duration::ZERO; n],
        };
        for c in &done {
            if c.payload == 0 {
                oracle.first_issue = c.issued;
            }
            oracle.latencies[c.payload] = c.completed.duration_since(c.issued);
            oracle.last_completion = oracle.last_completion.max(c.completed);
        }

        prop_assert_eq!(closed_calls, engine_calls);
        prop_assert_eq!(&closed, &oracle);
        prop_assert_eq!(
            burst_last_completion(spec, start, stateful_access(seed)),
            oracle.last_completion
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants of the hierarchy under arbitrary ops:
    /// flushed lines are gone everywhere; stores leave the LLC Modified;
    /// nt-stores never leave a cached copy; demote always lands the line
    /// in (at most) the LLC.
    #[test]
    fn hierarchy_invariants(ops in proptest::collection::vec(hier_op(), 1..300)) {
        let mut h = CacheHierarchy::new(4 * 64, 2, 8 * 64, 2, 32 * 64, 4);
        for op in ops {
            match op {
                HierOp::Load(a) => {
                    let addr = LineAddr::new(a as u64 % 128);
                    h.touch_load_with_victims(addr);
                    prop_assert!(h.contains(addr), "load makes the line resident");
                }
                HierOp::Store(a) => {
                    let addr = LineAddr::new(a as u64 % 128);
                    h.touch_store(addr);
                    prop_assert_eq!(h.llc_state(addr), Some(MesiState::Modified));
                }
                HierOp::NtStore(a) => {
                    let addr = LineAddr::new(a as u64 % 128);
                    h.invalidate(addr);
                    prop_assert!(!h.contains(addr), "nt-store leaves no copy");
                }
                HierOp::Flush(a) => {
                    let addr = LineAddr::new(a as u64 % 128);
                    h.flush_line(addr);
                    prop_assert!(!h.contains(addr));
                }
                HierOp::Demote(a) => {
                    let addr = LineAddr::new(a as u64 % 128);
                    let was_resident = h.contains(addr);
                    h.demote(addr);
                    if was_resident {
                        // After demote the serving level is LLC (never L1/L2).
                        prop_assert_eq!(
                            h.probe(addr).map(|(l, _)| l),
                            Some(host::hierarchy::HitLevel::Llc)
                        );
                    }
                }
                HierOp::DegradeShared(a) => {
                    let addr = LineAddr::new(a as u64 % 128);
                    h.degrade_to_shared(addr);
                    if let Some((_, s)) = h.probe(addr) {
                        prop_assert_eq!(s, MesiState::Shared);
                    }
                }
            }
        }
    }

    /// Socket op completions are causal (never before issue) and the
    /// level-latency ordering holds whenever levels are exercised.
    #[test]
    fn socket_ops_are_causal(addrs in proptest::collection::vec(0u64..512, 1..150)) {
        let mut s = Socket::xeon_6538y();
        let mut t = Time::ZERO;
        for a in addrs {
            let addr = LineAddr::new(a);
            let acc = s.load(addr, t);
            prop_assert!(acc.completion >= t + s.timing.issue);
            t = acc.completion;
            let st = s.store(addr, t);
            prop_assert!(st.completion >= t);
            t = st.completion;
        }
        // A re-load of the last line is an L1 hit and is fast.
        let last = LineAddr::new(0);
        s.load(last, t);
        let hit = s.load(last, t + Duration::from_nanos(1));
        prop_assert!(
            hit.completion.duration_since(t + Duration::from_nanos(1))
                <= s.timing.l1 + s.timing.issue
        );
    }

    /// Home-side operations never complete before the home-agent arrival
    /// and LLC hits beat misses while the agent penalty stays below the
    /// memory-access gap (beyond that the paper's hit-path penalty effect
    /// legitimately inverts the order — see Fig. 3 calibration).
    #[test]
    fn home_ops_ordering(a in 0u64..1024, penalty_ns in 0u64..30) {
        let penalty = Duration::from_nanos(penalty_ns);
        let addr = LineAddr::new(a);
        // Miss case.
        let mut s1 = Socket::xeon_6538y();
        let miss = s1.home_read_shared(addr, Time::ZERO, penalty);
        prop_assert!(!miss.llc_hit);
        // Hit case.
        let mut s2 = Socket::xeon_6538y();
        s2.load(addr, Time::ZERO);
        s2.cldemote(addr, Time::ZERO);
        let hit = s2.home_read_shared(addr, Time::ZERO, penalty);
        prop_assert!(hit.llc_hit);
        prop_assert!(
            hit.completion < miss.completion,
            "home-side LLC hit {:?} beats miss {:?}",
            hit.completion,
            miss.completion
        );
    }
}
