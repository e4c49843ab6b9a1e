//! Property-based tests for the protocol layer.

use cxl_proto::bias::{BiasMode, BiasTable};
use cxl_proto::flit::{Flit, Slot, FLIT_BYTES};
use cxl_proto::link::Link;
use cxl_proto::request::D2hOpcode;
use cxl_proto::retry::{deliver_stream, RetryConfig};
use proptest::prelude::*;
use proptest::sample::Index;
use sim_core::time::{Duration, Time};
use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Reference model for [`BiasTable`]: regions in definition order, every
/// operation a linear scan. The sorted, binary-searched table must agree
/// with it on every return value and counter.
#[derive(Default)]
struct ScanTable {
    regions: Vec<(Range<u64>, BiasMode)>,
    flips_to_host: u64,
    switches_to_device: u64,
}

impl ScanTable {
    /// The panic message `define_region` must raise, if any.
    fn rejection(&self, range: &Range<u64>) -> Option<&'static str> {
        if range.start >= range.end {
            Some("bias region must be non-empty")
        } else if self
            .regions
            .iter()
            .any(|(r, _)| range.start < r.end && r.start < range.end)
        {
            Some("bias regions must not overlap")
        } else {
            None
        }
    }

    fn find(&self, addr: u64) -> Option<usize> {
        self.regions.iter().position(|(r, _)| r.contains(&addr))
    }

    fn mode_of(&self, addr: u64) -> BiasMode {
        self.find(addr)
            .map_or(BiasMode::HostBias, |i| self.regions[i].1)
    }

    fn switch_to_device_bias(&mut self, addr: u64) -> bool {
        let Some(i) = self.find(addr) else {
            return false;
        };
        if self.regions[i].1 != BiasMode::DeviceBias {
            self.regions[i].1 = BiasMode::DeviceBias;
            self.switches_to_device += 1;
        }
        true
    }

    fn switch_to_host_bias(&mut self, addr: u64) -> bool {
        match self.find(addr) {
            Some(i) if self.regions[i].1 != BiasMode::HostBias => {
                self.regions[i].1 = BiasMode::HostBias;
                self.flips_to_host += 1;
                true
            }
            _ => false,
        }
    }

    fn on_h2d_access(&mut self, addr: u64) -> BiasMode {
        let Some(i) = self.find(addr) else {
            return BiasMode::HostBias;
        };
        if self.regions[i].1 == BiasMode::DeviceBias {
            self.regions[i].1 = BiasMode::HostBias;
            self.flips_to_host += 1;
        }
        self.regions[i].1
    }

    /// An address chosen against the current regions: a region's first
    /// byte, last byte, one-past-end, the byte before it (a gap or a
    /// neighbour's last byte), or anywhere up to 256 bytes past every
    /// region.
    fn probe(&self, pick: Index, kind: u8, raw: u64) -> u64 {
        let top = self.regions.iter().map(|(r, _)| r.end).max().unwrap_or(0);
        if self.regions.is_empty() || kind >= 4 {
            return raw % (top + 256);
        }
        let r = &self.regions[pick.index(self.regions.len())].0;
        match kind {
            0 => r.start,
            1 => r.end - 1,
            2 => r.end,
            _ => r.start.wrapping_sub(1),
        }
    }
}

/// `define_region`'s panic message, or `None` if it accepted the range.
fn define_panic(t: &mut BiasTable, range: Range<u64>, mode: BiasMode) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(|| t.define_region(range, mode))).err()?;
    Some(match payload.downcast::<&str>() {
        Ok(s) => s.to_string(),
        Err(p) => *p.downcast::<String>().expect("panic message is a string"),
    })
}

fn mode(device: bool) -> BiasMode {
    if device {
        BiasMode::DeviceBias
    } else {
        BiasMode::HostBias
    }
}

fn slot_strategy() -> impl Strategy<Value = Slot> {
    prop_oneof![
        Just(Slot::Empty),
        (0u8..8, any::<u16>(), any::<u64>()).prop_map(|(op, cqid, addr)| {
            let opcode = [
                D2hOpcode::RdCurr,
                D2hOpcode::RdOwn,
                D2hOpcode::RdShared,
                D2hOpcode::RdOwnNoData,
                D2hOpcode::WrCur,
                D2hOpcode::ItoMWr,
                D2hOpcode::CleanEvict,
                D2hOpcode::DirtyEvict,
            ][op as usize];
            Slot::D2hReq {
                opcode,
                cqid: cqid & 0x0FFF,
                addr: addr & ((1 << 46) - 1),
            }
        }),
        (any::<u16>(), 0u8..16).prop_map(|(cqid, code)| Slot::H2dResp {
            cqid: cqid & 0x0FFF,
            code,
        }),
        any::<[u8; 16]>().prop_map(Slot::Data),
    ]
}

proptest! {
    /// Flit encode/decode is the identity for in-range fields.
    #[test]
    fn flit_roundtrip(slots in proptest::collection::vec(slot_strategy(), 4)) {
        let flit = Flit::new([slots[0], slots[1], slots[2], slots[3]]);
        let wire = flit.encode();
        prop_assert_eq!(Flit::decode(&wire).unwrap(), flit);
    }

    /// Any single-bit corruption of the slot bytes is caught by the CRC.
    #[test]
    fn flit_crc_catches_bit_flips(
        slots in proptest::collection::vec(slot_strategy(), 4),
        byte in 0usize..FLIT_BYTES - 2,
        bit in 0u8..8,
    ) {
        let flit = Flit::new([slots[0], slots[1], slots[2], slots[3]]);
        let mut wire = flit.encode();
        wire[byte] ^= 1 << bit;
        // Either the CRC fires or (if the flip hit an unused padding byte
        // decoded as part of an Empty/short slot) decoding must not equal
        // the original with different bytes — the CRC covers everything,
        // so it always fires.
        prop_assert!(Flit::decode(&wire).is_err(), "corruption undetected");
    }

    /// Link deliveries are causal and FIFO regardless of sizes and gaps.
    #[test]
    fn link_is_causal_fifo(
        msgs in proptest::collection::vec((0u64..5_000, 0u64..4_096), 1..100),
    ) {
        let mut link = Link::new(Duration::from_nanos(30), 56.0, 4);
        let mut now = Time::ZERO;
        let mut last_arrival = Time::ZERO;
        for (gap, bytes) in msgs {
            now += Duration::from_nanos(gap);
            let arrival = link.deliver(now, bytes);
            prop_assert!(arrival >= now + link.propagation());
            prop_assert!(arrival >= last_arrival, "FIFO delivery");
            last_arrival = arrival;
        }
    }

    /// LRSM replay is transparent: for ANY corruption pattern the
    /// receiver's delivered stream equals the sent stream — in order,
    /// loss-free, duplicate-free — as long as no flit dies for good.
    #[test]
    fn lrsm_replay_is_in_order_loss_free_duplicate_free(
        flits in 1u64..80,
        depth in 1u64..24,
        corruptions in proptest::collection::vec((0u64..80, 1u32..4), 0..40),
    ) {
        let cfg = RetryConfig {
            buffer_depth: depth,
            // Each (seq, attempt) pair can corrupt at most once per
            // attempt index < 4, so 8 replays always suffice.
            max_replays: 8,
            ..RetryConfig::default()
        };
        let bad: HashSet<(u64, u32)> = corruptions.into_iter().collect();
        let out = deliver_stream(flits, &cfg, |seq, attempt| bad.contains(&(seq, attempt)));
        prop_assert_eq!(out.failed, None);
        prop_assert_eq!(out.delivered, (0..flits).collect::<Vec<u64>>());
        // Conservation: every transmission is a delivery, a ghost, or a
        // corrupt attempt that triggered one of the replays.
        prop_assert_eq!(out.transmissions, flits + out.ghost_flits + out.replays);
    }

    /// The conservation law survives batched delivery: when the flit
    /// stream arrives as schedule_batch-sized groups (one LRSM run per
    /// group, corruption oracle keyed by global sequence number),
    /// `transmissions = delivered + ghosts + replays` holds for every
    /// group and in aggregate, and the concatenated delivered streams
    /// still equal the full in-order stream.
    #[test]
    fn lrsm_conservation_survives_batched_delivery(
        batches in proptest::collection::vec(1u64..48, 1..14),
        depth in 1u64..24,
        corruptions in proptest::collection::vec((0u64..400, 1u32..4), 0..80),
    ) {
        let cfg = RetryConfig {
            buffer_depth: depth,
            max_replays: 8,
            ..RetryConfig::default()
        };
        let bad: HashSet<(u64, u32)> = corruptions.into_iter().collect();
        let mut base = 0u64;
        let mut all_delivered = Vec::new();
        let (mut tx, mut ghosts, mut replays) = (0u64, 0u64, 0u64);
        for &n in &batches {
            let out = deliver_stream(n, &cfg, |seq, attempt| bad.contains(&(base + seq, attempt)));
            prop_assert_eq!(out.failed, None);
            // Per-batch conservation.
            prop_assert_eq!(
                out.transmissions,
                out.delivered.len() as u64 + out.ghost_flits + out.replays,
                "batch at base {} broke conservation", base
            );
            all_delivered.extend(out.delivered.iter().map(|s| base + s));
            tx += out.transmissions;
            ghosts += out.ghost_flits;
            replays += out.replays;
            base += n;
        }
        // Aggregate conservation + in-order, loss-free, duplicate-free.
        prop_assert_eq!(tx, base + ghosts + replays);
        prop_assert_eq!(all_delivered, (0..base).collect::<Vec<u64>>());
    }

    /// Conservation with a dead flit: the fatal attempt is the only
    /// transmission not covered by delivered/ghosts/replays.
    #[test]
    fn lrsm_conservation_holds_through_failure(
        flits in 1u64..60,
        dead in any::<u64>(),
        max_replays in 1u32..6,
        depth in 1u64..24,
    ) {
        let dead = dead % flits;
        let cfg = RetryConfig {
            buffer_depth: depth,
            max_replays,
            ..RetryConfig::default()
        };
        let out = deliver_stream(flits, &cfg, |seq, _| seq == dead);
        prop_assert_eq!(out.failed, Some(dead));
        prop_assert_eq!(out.replays, u64::from(max_replays));
        prop_assert_eq!(
            out.transmissions,
            out.delivered.len() as u64 + out.ghost_flits + out.replays + 1
        );
    }

    /// A flit corrupted on every attempt kills the stream at exactly
    /// that flit, after exactly max_replays rewinds for it.
    #[test]
    fn lrsm_gives_up_at_the_dead_flit(
        flits in 2u64..40,
        dead in 0u64..40,
        max_replays in 1u32..6,
    ) {
        let dead = dead % flits;
        let cfg = RetryConfig { max_replays, ..RetryConfig::default() };
        let out = deliver_stream(flits, &cfg, |seq, _| seq == dead);
        prop_assert_eq!(out.failed, Some(dead));
        prop_assert_eq!(out.delivered, (0..dead).collect::<Vec<u64>>());
    }

    /// Bias-table state machine: after any interleaving of switches and
    /// H2D accesses, a region is in device bias iff its last transition
    /// was a switch (not an access).
    #[test]
    fn bias_table_tracks_last_transition(events in proptest::collection::vec(any::<bool>(), 1..60)) {
        let mut t = BiasTable::new();
        t.define_region(0..4096, BiasMode::HostBias);
        for switch in events {
            let want = if switch {
                t.switch_to_device_bias(0);
                BiasMode::DeviceBias
            } else {
                t.on_h2d_access(0);
                BiasMode::HostBias
            };
            prop_assert_eq!(t.mode_of(0), want);
        }
    }

    /// The sorted table is observationally identical to the linear scan:
    /// non-overlapping regions defined in random address order, then any
    /// interleaving of further (possibly overlapping or empty) definitions,
    /// switches, H2D accesses and lookups at region edges, in gaps and past
    /// every region.
    #[test]
    fn bias_table_matches_linear_scan(
        layout in proptest::collection::vec((0u64..3, 1u64..4, any::<bool>()), 0..32),
        order in proptest::collection::vec(any::<Index>(), 32),
        ops in proptest::collection::vec((0u8..8, any::<Index>(), 0u8..6, any::<u64>()), 1..120),
    ) {
        // Disjoint line-granular regions, gaps of 0..3 lines (0 = adjacent).
        let mut cursor = 0u64;
        let mut ranges: Vec<(Range<u64>, BiasMode)> = layout
            .iter()
            .map(|&(gap, len, device)| {
                let start = cursor + gap * 64;
                cursor = start + len * 64;
                (start..cursor, mode(device))
            })
            .collect();
        for i in (1..ranges.len()).rev() {
            ranges.swap(i, order[i].index(i + 1));
        }
        let mut t = BiasTable::new();
        let mut reference = ScanTable::default();
        for (range, m) in ranges {
            t.define_region(range.clone(), m);
            reference.regions.push((range, m));
        }
        for (op, pick, kind, raw) in ops {
            let addr = reference.probe(pick, kind, raw);
            match op {
                0 => {
                    let range = addr..addr.saturating_add((raw >> 40) % 256);
                    let device = raw & 1 == 1;
                    let want = reference.rejection(&range);
                    let got = define_panic(&mut t, range.clone(), mode(device));
                    prop_assert_eq!(got.as_deref(), want, "define_region({:?})", range);
                    if want.is_none() {
                        reference.regions.push((range, mode(device)));
                    }
                }
                1 | 2 => prop_assert_eq!(
                    t.switch_to_device_bias(addr),
                    reference.switch_to_device_bias(addr)
                ),
                3 => prop_assert_eq!(
                    t.switch_to_host_bias(addr),
                    reference.switch_to_host_bias(addr)
                ),
                4 | 5 => prop_assert_eq!(t.on_h2d_access(addr), reference.on_h2d_access(addr)),
                _ => prop_assert_eq!(t.mode_of(addr), reference.mode_of(addr), "mode_of({})", addr),
            }
            prop_assert_eq!(
                t.transition_counts(),
                (reference.flips_to_host, reference.switches_to_device)
            );
            prop_assert_eq!(t.iter().count(), reference.regions.len());
        }
        // Same regions, and `iter` yields them in address order.
        let mut want = reference.regions.clone();
        want.sort_by_key(|(r, _)| r.start);
        let got: Vec<(Range<u64>, BiasMode)> =
            t.iter().map(|r| (r.range.clone(), r.mode)).collect();
        prop_assert_eq!(got, want);
    }
}
