//! Golden-trace capture: the exact protocol event sequences that the
//! conformance tests (and fixture regeneration) compare against.
//!
//! Each capture installs a fresh per-thread tracer, stages the scenario,
//! clears the staging noise, runs the access under test, and returns the
//! retained events. Everything is seeded-deterministic: identical inputs
//! produce identical event sequences, so the fixtures under
//! `tests/golden/` are stable across runs and machines.

use accel::lz::CompressedPage;
use accel::xxhash::xxh64;
use cxl_proto::request::RequestType;
use cxl_type2::addr::host_line;
use cxl_type2::device::CxlDevice;
use host::socket::Socket;
use kernel::offload::{
    Breakdown, CpuBackend, CxlBackend, OffloadBackend, OffloadOutcome, PcieDmaBackend,
    PcieRdmaBackend,
};
use kernel::page::{PageContent, PageData, PAGE_SIZE};
use kernel::zswap::{SwapKey, Zswap, ZswapConfig};
use sim_core::rng::SimRng;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BackendId, OffloadFn, TimedEvent};

use crate::tables::{stage_table3_case, TABLE3_CASES};

/// Fixture-name slug: lowercase, spaces to dashes (`NC-P`/`HMC hit` →
/// `nc-p_hmc-hit`).
pub fn case_slug(req: RequestType, case: &str) -> String {
    let part = |s: &str| s.to_ascii_lowercase().replace(' ', "-");
    format!("{}_{}", part(&req.to_string()), part(case))
}

/// Captures the protocol events of one Table III case: stage the line
/// into the HMC/LLC, discard the staging events, then run the D2H access
/// and return exactly what it emitted.
///
/// Replaces any tracer previously installed on this thread.
pub fn table3_case_trace(req: RequestType, case: &str) -> Vec<TimedEvent> {
    run_table3_case(Socket::xeon_6538y(), CxlDevice::agilex7(), req, case).0
}

/// [`table3_case_trace`] with the host and card built from the degenerate
/// 1-host × 1-device [`TopologySpec`](sim_core::topology::TopologySpec)
/// instead of the hand-wired constructors. Returns the trace plus the
/// device's counter snapshot, so invariance tests can pin both: the
/// topology-described path must be *byte-identical* to the legacy one.
pub fn table3_case_trace_from_spec(
    req: RequestType,
    case: &str,
) -> (Vec<TimedEvent>, Vec<(&'static str, u64)>) {
    let (host, dev) = singleton_from_spec();
    run_table3_case(host, dev, req, case)
}

/// The device counter snapshot of one legacy-constructed Table III run
/// (the invariance baseline for [`table3_case_trace_from_spec`]).
///
/// Replaces any tracer previously installed on this thread.
pub fn table3_case_counters(req: RequestType, case: &str) -> Vec<(&'static str, u64)> {
    run_table3_case(Socket::xeon_6538y(), CxlDevice::agilex7(), req, case).1
}

/// Stages and runs one Table III case on the given host and card,
/// returning the D2H access's events and the device counter snapshot.
fn run_table3_case(
    mut host: Socket,
    mut dev: CxlDevice,
    req: RequestType,
    case: &str,
) -> (Vec<TimedEvent>, Vec<(&'static str, u64)>) {
    let a = host_line((1u64 << 24) + 64);
    trace::install(4096);
    stage_table3_case(&mut host, &mut dev, a, case);
    trace::clear();
    dev.d2h(req, a, Time::from_nanos(1_000), &mut host);
    let events = trace::uninstall();
    (events, dev.counters().iter().collect())
}

/// The host and card of the degenerate 1-host × 1-device
/// [`Fabric`](cxl_type2::fabric::Fabric), built from its topology spec.
fn singleton_from_spec() -> (Socket, CxlDevice) {
    use cxl_type2::addr::{hdm_spec, DEFAULT_INTERLEAVE_BYTES};
    use cxl_type2::fabric::Fabric;
    let spec = hdm_spec(1, 1, DEFAULT_INTERLEAVE_BYTES);
    let Fabric {
        mut hosts,
        mut devs,
        ..
    } = Fabric::from_spec(&spec).expect("the 1x1 spec is statically valid");
    (hosts.remove(0), devs.remove(0))
}

/// All 18 Table III (request, case, trace) triples in row order.
pub fn table3_traces() -> Vec<(RequestType, &'static str, Vec<TimedEvent>)> {
    let mut out = Vec::with_capacity(18);
    for req in RequestType::ALL {
        for case in TABLE3_CASES {
            out.push((req, case, table3_case_trace(req, case)));
        }
    }
    out
}

/// Captures the full event sequence of one 4 KiB page compressed and
/// stored through the cxl-zswap backend — the Fig. 7 offload flow
/// (dispatch, NC transfers, accelerator compute, compressed store).
///
/// Replaces any tracer previously installed on this thread.
pub fn fig7_cxl_zswap_trace(seed: u64) -> Vec<TimedEvent> {
    run_fig7(Socket::xeon_6538y(), CxlDevice::agilex7(), seed)
}

/// [`fig7_cxl_zswap_trace`] with the backing device built from the
/// degenerate 1×1 topology spec.
pub fn fig7_cxl_zswap_trace_from_spec(seed: u64) -> Vec<TimedEvent> {
    let (host, dev) = singleton_from_spec();
    run_fig7(host, dev, seed)
}

fn run_fig7(mut host: Socket, dev: CxlDevice, seed: u64) -> Vec<TimedEvent> {
    let mut rng = SimRng::seed_from(seed);
    let page = PageContent::Text.generate(&mut rng);
    let mut zswap = Zswap::new(
        ZswapConfig::kernel_default(64 * PAGE_SIZE as u64),
        CxlBackend::with_device(dev),
    );
    trace::install(1 << 16);
    let _ = zswap.store(SwapKey(7), &page, Time::ZERO, &mut host);
    trace::uninstall()
}

/// The four offload backends of Table IV, in table order.
pub const OFFLOAD_BACKENDS: [BackendId; 4] = [
    BackendId::Cpu,
    BackendId::PcieRdma,
    BackendId::PcieDma,
    BackendId::Cxl,
];

/// The four offloadable functions.
pub const OFFLOAD_FNS: [OffloadFn; 4] = [
    OffloadFn::Compress,
    OffloadFn::Decompress,
    OffloadFn::Checksum,
    OffloadFn::Compare,
];

/// One pinned invocation of an offload golden case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadCall {
    /// The function result, summarised: compressed/decompressed length
    /// plus an xxh64 of the bytes, the checksum, or the compare result.
    pub value: String,
    /// When the host observes completion.
    pub completion: Time,
    /// Host CPU time consumed.
    pub host_cpu: Duration,
    /// Table IV step breakdown.
    pub breakdown: Breakdown,
}

impl OffloadCall {
    fn of<T>(out: &OffloadOutcome<T>, value: String) -> Self {
        OffloadCall {
            value,
            completion: out.completion,
            host_cpu: out.host_cpu,
            breakdown: out.breakdown,
        }
    }

    /// One line with every field in picoseconds, for pinning in tests.
    pub fn summary(&self) -> String {
        let b = &self.breakdown;
        format!(
            "{} completion={} host_cpu={} breakdown={}/{}/{}/{}/{}",
            self.value,
            self.completion.as_picos(),
            self.host_cpu.as_picos(),
            b.dispatch.as_picos(),
            b.transfer_in.as_picos(),
            b.compute.as_picos(),
            b.transfer_out.as_picos(),
            b.total.as_picos(),
        )
    }
}

/// Fixture-name slug of an offload case (`pcie-dma_compare`).
pub fn offload_slug(backend: BackendId, func: OffloadFn) -> String {
    format!("{}_{}", backend.as_str(), func.as_str())
}

fn offload_backend(id: BackendId) -> Box<dyn OffloadBackend> {
    match id {
        BackendId::Cpu => Box::new(CpuBackend::new()),
        BackendId::PcieRdma => Box::new(PcieRdmaBackend::bf3()),
        BackendId::PcieDma => Box::new(PcieDmaBackend::agilex7()),
        BackendId::Cxl => Box::new(CxlBackend::agilex7()),
    }
}

/// The fixed golden inputs: a Text, a Zero and a Random page.
fn offload_pages() -> [PageData; 3] {
    let mut rng = SimRng::seed_from(15);
    [
        PageContent::Text.generate(&mut rng),
        PageContent::Zero.generate(&mut rng),
        PageContent::Random.generate(&mut rng),
    ]
}

fn bytes_summary(bytes: &[u8]) -> String {
    format!("len={} xxh64={:016x}", bytes.len(), xxh64(bytes, 0))
}

/// Runs one offload golden case on a fresh backend and host: `func` on
/// each of the Text/Zero/Random pages back to back (compare instead runs
/// one equal and one differing pair). Returns every event emitted and
/// each call's pinned outcome.
///
/// Replaces any tracer previously installed on this thread.
pub fn offload_case(backend: BackendId, func: OffloadFn) -> (Vec<TimedEvent>, Vec<OffloadCall>) {
    let mut b = offload_backend(backend);
    let mut host = Socket::xeon_6538y();
    let pages = offload_pages();
    let compressed: Vec<CompressedPage> =
        pages.iter().map(|p| CompressedPage::from_page(p)).collect();
    let random = &pages[2];
    let mut differing = random.clone();
    differing[2048] ^= 0xFF;
    let mut now = Time::from_nanos(1_000);
    let mut calls = Vec::new();
    trace::install(1 << 16);
    match func {
        OffloadFn::Compress => {
            for p in &pages {
                let out = b.compress(p, now, &mut host);
                now = out.completion;
                calls.push(OffloadCall::of(&out, bytes_summary(&out.value.data)));
            }
        }
        OffloadFn::Decompress => {
            for (cp, p) in compressed.iter().zip(&pages) {
                let out = b.decompress(cp, now, &mut host);
                assert_eq!(&out.value, p, "decompress round-trips");
                now = out.completion;
                calls.push(OffloadCall::of(&out, bytes_summary(&out.value)));
            }
        }
        OffloadFn::Checksum => {
            for p in &pages {
                let out = b.checksum(p, now, &mut host);
                now = out.completion;
                calls.push(OffloadCall::of(&out, format!("{:08x}", out.value)));
            }
        }
        OffloadFn::Compare => {
            for other in [random, &differing] {
                let out = b.compare(random, other, now, &mut host);
                now = out.completion;
                calls.push(OffloadCall::of(&out, format!("{:?}", out.value)));
            }
        }
    }
    (trace::uninstall(), calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table3_case_emits_events() {
        for (req, case, events) in table3_traces() {
            assert!(!events.is_empty(), "{req} / {case} emitted nothing");
            // The first captured event is always the D2H request itself.
            let first = trace::protocol_of(&events)[0];
            assert!(
                matches!(
                    first,
                    trace::TraceEvent::Request {
                        lane: trace::Lane::D2h,
                        ..
                    }
                ),
                "{req} / {case} starts with {first:?}"
            );
        }
    }

    #[test]
    fn fig7_trace_is_deterministic_and_nonempty() {
        let a = fig7_cxl_zswap_trace(11);
        let b = fig7_cxl_zswap_trace(11);
        assert!(!a.is_empty());
        assert_eq!(trace::to_jsonl(&a), trace::to_jsonl(&b));
    }

    #[test]
    fn slugs_are_filename_safe() {
        for req in RequestType::ALL {
            for case in TABLE3_CASES {
                let s = case_slug(req, case);
                assert!(s
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_'));
            }
        }
    }
}
