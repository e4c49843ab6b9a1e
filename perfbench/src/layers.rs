//! The traced run: per-layer metrics from three sources outside the
//! program — the program's own trace events and counters, the existing
//! `sweep::profile` stages, and host-time spans the benchmark records
//! around its own calls into each layer's public entry points, fed with
//! the workload's own inputs.
//!
//! A layer the workload never reaches reports 0 (its counts are 0 by
//! construction, and its spans are not taken).

use std::hint::black_box;
use std::time::Instant;

use cxl_proto::bias::{BiasMode, BiasTable};
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::lsu::{BurstTarget, Lsu};
use host::socket::Socket;
use kernel::offload::{CpuBackend, CxlBackend, OffloadBackend, PcieDmaBackend, PcieRdmaBackend};
use kernel::page::{PageData, PageMix};
use kvs::server::{run_core, Job};
use mem_subsys::coherence::MesiState;
use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::sweep::{self, profile};
use sim_core::time::{Duration, Time};
use sim_core::trace::{
    self, CacheId, FlipCause, KsmStep, Lane, MemId, PointCapture, TraceEvent, ZswapStep,
};
use sim_core::traffic::Zipfian;

use crate::workload::{self as wl, Kind, Out, Point, PointRun, Scale, Workload};
use crate::Report;

/// Per-point trace ring. The largest traced point (a cxl-ksm cell at the
/// traced fig8 scale, ~1.7 M events) must fit, so nothing is dropped.
pub const TRACE_CAPACITY: usize = 1 << 21;
/// Each host-time span is repeated until it has run this long.
const SPAN_MIN_S: f64 = 0.02;

/// Event counts of one traced point.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub events: u64,
    pub dropped: u64,
    lanes: [u64; 3],
    /// `[cache][hit as usize]` for HMC, DMC and the host LLC.
    cache: [[u64; 2]; 3],
    writebacks: [u64; 2],
    snoops: u64,
    mem: [u64; 2],
    fabric_routes: u64,
    flips: [u64; 3],
    link_retries: u64,
    zswap: [u64; 5],
    ksm_scans: u64,
    ksm_merged: u64,
}

fn cache_slot(c: CacheId) -> Option<usize> {
    match c {
        CacheId::Hmc => Some(0),
        CacheId::Dmc => Some(1),
        CacheId::HostLlc => Some(2),
        CacheId::HostL1 | CacheId::HostL2 => None,
    }
}

impl Tally {
    fn of(capture: &PointCapture) -> Tally {
        let mut t = Tally {
            events: capture.events.len() as u64,
            dropped: capture.dropped,
            ..Tally::default()
        };
        for e in &capture.events {
            match e.event {
                TraceEvent::Request { lane, .. } => {
                    t.lanes[match lane {
                        Lane::D2h => 0,
                        Lane::D2d => 1,
                        Lane::H2d => 2,
                    }] += 1
                }
                TraceEvent::CacheAccess { cache, hit, .. } => {
                    if let Some(c) = cache_slot(cache) {
                        t.cache[c][hit as usize] += 1;
                    }
                }
                TraceEvent::CacheWriteback { cache, .. } => match cache {
                    CacheId::Hmc => t.writebacks[0] += 1,
                    CacheId::Dmc => t.writebacks[1] += 1,
                    _ => {}
                },
                TraceEvent::Snoop { .. } => t.snoops += 1,
                TraceEvent::MemRead { mem, .. } | TraceEvent::MemWrite { mem, .. } => {
                    t.mem[match mem {
                        MemId::DevDram => 0,
                        MemId::HostDram => 1,
                    }] += 1
                }
                TraceEvent::FabricRoute { .. } => t.fabric_routes += 1,
                TraceEvent::BiasFlip { reason, .. } => {
                    t.flips[match reason {
                        FlipCause::Policy => 0,
                        FlipCause::Degrade => 1,
                        FlipCause::Conflict => 2,
                    }] += 1
                }
                TraceEvent::LinkRetry { .. } => t.link_retries += 1,
                TraceEvent::Zswap { step, .. } => {
                    let slot = match step {
                        ZswapStep::StorePooled => Some(0),
                        ZswapStep::StoreSameFilled => Some(1),
                        ZswapStep::StoreRejected => Some(2),
                        ZswapStep::LoadPoolHit => Some(3),
                        ZswapStep::WritebackEvict => Some(4),
                        _ => None,
                    };
                    if let Some(s) = slot {
                        t.zswap[s] += 1;
                    }
                }
                TraceEvent::Ksm { step, .. } => match step {
                    KsmStep::ScanBegin => t.ksm_scans += 1,
                    KsmStep::MergedStable | KsmStep::MergedUnstable => t.ksm_merged += 1,
                    _ => {}
                },
                _ => {}
            }
        }
        t
    }

    fn add(&mut self, o: &Tally) {
        fn sum<const N: usize>(a: &mut [u64; N], b: &[u64; N]) {
            a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        }
        self.events += o.events;
        self.dropped += o.dropped;
        sum(&mut self.lanes, &o.lanes);
        for (a, b) in self.cache.iter_mut().zip(&o.cache) {
            sum(a, b);
        }
        sum(&mut self.writebacks, &o.writebacks);
        self.snoops += o.snoops;
        sum(&mut self.mem, &o.mem);
        self.fabric_routes += o.fabric_routes;
        sum(&mut self.flips, &o.flips);
        self.link_retries += o.link_retries;
        sum(&mut self.zswap, &o.zswap);
        self.ksm_scans += o.ksm_scans;
        self.ksm_merged += o.ksm_merged;
    }

    fn hit_ratio(&self, slot: usize) -> f64 {
        let [miss, hit] = self.cache[slot];
        ratio(hit as f64, (hit + miss) as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` until it has taken [`SPAN_MIN_S`] and returns host seconds
/// per call.
fn span(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let el = t0.elapsed().as_secs_f64();
        if el >= SPAN_MIN_S {
            return el / calls as f64;
        }
    }
}

/// The ordered per-layer metrics: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// The traced pass: every point of the traced-scale workload, each
/// captured into the worker's ring and reduced to a [`Tally`] by the
/// point itself, so rings hold one point at a time.
fn traced_pass(w: &Workload, threads: usize) -> (Vec<(PointRun, Tally)>, u64) {
    trace::install(TRACE_CAPACITY);
    let runs = sweep::run_with_threads(threads, w.points.len(), |i| {
        let t0 = Instant::now();
        let out = w.run_point(i);
        let host_s = t0.elapsed().as_secs_f64();
        (PointRun { out, host_s }, Tally::of(&trace::take_point()))
    });
    // Every point took its own capture, so the caller's ring is empty
    // unless events escaped the points: count those as not counted.
    let (left, dropped) = trace::take_captured();
    (runs, dropped + left.len() as u64)
}

fn profile_ms(r: &profile::ProfileReport, stage: profile::Stage) -> f64 {
    r.ns[stage as usize] as f64 / 1e6
}

/// The Fig. 4 measurement loop of one bias mode over every (request, DMC
/// state) bar, replicated through the public device API. Returns its host
/// seconds, the mean host µs of one `Lsu::concurrent_burst`, and the
/// largest bias table it builds.
fn fig4_bias_loop(seed: u64, device_bias: bool) -> (f64, f64, usize) {
    const BURST: usize = 16;
    let mut total_s = 0.0;
    let (mut burst_s, mut bursts) = (0.0, 0u64);
    let mut regions_max = 0;
    let reqs = cxl_bench::fig4::fig4_requests();
    for (k, (req, dmc_hit)) in reqs
        .into_iter()
        .flat_map(|r| [(r, true), (r, false)])
        .enumerate()
    {
        let mut rng = SimRng::seed_from(sweep::point_seed(seed, k));
        let t0 = Instant::now();
        let (mut host, mut dev) = (Socket::xeon_6538y(), CxlDevice::agilex7());
        let lsu = Lsu::new();
        let mlp = dev.timing.dcoh_slice_outstanding;
        let mut t = Time::ZERO;
        let mut next: u64 = 1 << 16;
        let mut addrs = Vec::with_capacity(BURST);
        for _ in 0..wl::DEVICE_REPS {
            addrs.clear();
            addrs.extend((0..BURST).map(|_| {
                next += 1 + rng.gen_range(4);
                device_line(next)
            }));
            if device_bias {
                for &a in &addrs {
                    t = dev.enter_device_bias(a, 1, t, &mut host);
                }
            }
            if dmc_hit {
                for &a in &addrs {
                    dev.stage_dmc(a, MesiState::Shared);
                }
            } else {
                dev.flush_device_caches(t, &mut host);
            }
            t = lsu.single(
                &mut dev,
                &mut host,
                req,
                BurstTarget::DeviceMemory,
                addrs[0],
                t,
            );
            if dmc_hit {
                dev.stage_dmc(addrs[0], MesiState::Shared);
            }
            let b0 = Instant::now();
            let burst = lsu.concurrent_burst(
                &mut dev,
                &mut host,
                req,
                BurstTarget::DeviceMemory,
                &addrs,
                t,
                mlp,
            );
            burst_s += b0.elapsed().as_secs_f64();
            bursts += 1;
            t = burst.last_completion;
        }
        total_s += t0.elapsed().as_secs_f64();
        regions_max = regions_max.max(dev.bias.iter().count());
    }
    (total_s, burst_s / bursts as f64 * 1e6, regions_max)
}

/// Host ns of one `BiasTable::mode_of` over a table of `regions` line-sized
/// regions laid out like Fig. 4's (random 1–4 line strides).
fn mode_of_ns(regions: usize, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed ^ 0xB1A5);
    let mut table = BiasTable::new();
    let mut starts = Vec::with_capacity(regions);
    let mut next = 0u64;
    for _ in 0..regions.max(1) {
        next += 64 * (1 + rng.gen_range(4));
        table.define_region(next..next + 64, BiasMode::DeviceBias);
        starts.push(next);
    }
    let probes: Vec<u64> = (0..1024)
        .map(|_| starts[rng.gen_index(starts.len())])
        .collect();
    span(|| {
        for &p in &probes {
            black_box(table.mode_of(black_box(p)));
        }
    }) / probes.len() as f64
        * 1e9
}

/// Host ns of one schedule+pop pair on an event queue held at the
/// port engine's depth (one completion scheduled per pop, up to 200 ns out).
fn event_ns(seed: u64) -> f64 {
    const DEPTH: u64 = 64;
    const PAIRS: u64 = 100_000;
    let mut rng = SimRng::seed_from(seed ^ 0xE7E7);
    let delays: Vec<u64> = (0..4096).map(|_| 1_000 + rng.gen_range(199_000)).collect();
    span(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..DEPTH {
            q.schedule(Time::from_picos(delays[i as usize]), i);
        }
        for i in 0..PAIRS {
            let (at, e) = q.pop().expect("queue held at depth");
            let d = delays[(i as usize) & 4095];
            q.schedule(at + Duration::from_picos(d), black_box(e));
        }
    }) / PAIRS as f64
        * 1e9
}

/// Host ns of one `Socket::load` on Fig. 3's random-offset address stream.
fn host_load_ns(seed: u64) -> f64 {
    const LOADS: u64 = 20_000;
    let mut rng = SimRng::seed_from(seed ^ 0x10AD);
    let addrs: Vec<_> = {
        let mut next: u64 = 1 << 20;
        (0..LOADS)
            .map(|_| {
                next += 64 + rng.gen_range(64);
                host_line(next)
            })
            .collect()
    };
    span(|| {
        let mut host = Socket::xeon_6538y();
        let mut t = Time::ZERO;
        for &a in &addrs {
            t = host.load(a, t).completion;
        }
        black_box(t);
    }) / LOADS as f64
        * 1e9
}

/// The fig8 page population: Redis pages (zswap) and VM pages (ksm),
/// drawn from the same mixes the dataset uses.
fn fig8_pages(seed: u64, n: usize) -> (Vec<PageData>, Vec<PageData>) {
    let mut rng = SimRng::seed_from(seed ^ 0x9A6E);
    let (dc, vm) = (PageMix::datacenter(), PageMix::vm_guest());
    let redis = (0..n)
        .map(|_| dc.sample(&mut rng).generate(&mut rng))
        .collect();
    let vms = (0..n)
        .map(|_| vm.sample(&mut rng).generate(&mut rng))
        .collect();
    (redis, vms)
}

fn accel_metrics(m: &mut Metrics, pages: Option<&(Vec<PageData>, Vec<PageData>)>) {
    let names = [
        ("lz.compress_mbps", "MB/s"),
        ("lz.decompress_mbps", "MB/s"),
        ("lz.ratio", "ratio"),
        ("xxhash.xxh64_gbps", "GB/s"),
        ("compare.gbps", "GB/s"),
    ];
    let values = match pages {
        Some((redis, vms)) => accel_values(redis, vms),
        None => [0.0; 5],
    };
    for ((name, unit), v) in names.into_iter().zip(values) {
        m.put(name, v, unit);
    }
}

fn accel_values(redis: &[PageData], vms: &[PageData]) -> [f64; 5] {
    let bytes = |pages: &[PageData]| pages.iter().map(Vec::len).sum::<usize>() as f64;
    let (rb, vb) = (bytes(redis), bytes(vms));
    let compressed: Vec<Vec<u8>> = redis.iter().map(|p| accel::lz::compress(p)).collect();
    let c_s = span(|| {
        for p in redis {
            black_box(accel::lz::compress(black_box(p)));
        }
    });
    let d_s = span(|| {
        for (c, p) in compressed.iter().zip(redis) {
            black_box(accel::lz::decompress(black_box(c), p.len()).expect("round trip"));
        }
    });
    let x_s = span(|| {
        for p in vms {
            black_box(accel::xxhash::xxh64(black_box(p), 0));
        }
    });
    // ksm byte-compares pages whose checksums matched, so the pairs are
    // identical copies: the whole page is examined.
    let copies: Vec<PageData> = vms.to_vec();
    let cmp_s = span(|| {
        for (a, b) in vms.iter().zip(&copies) {
            black_box(accel::compare::compare_pages(black_box(a), black_box(b)));
        }
    });
    let clen = compressed.iter().map(Vec::len).sum::<usize>() as f64;
    [
        rb / c_s / 1e6,
        rb / d_s / 1e6,
        rb / clen,
        vb / x_s / 1e9,
        vb / cmp_s / 1e9,
    ]
}

/// Host µs per call of each offload function on each device backend.
fn offload_metrics(m: &mut Metrics, pages: Option<&(Vec<PageData>, Vec<PageData>)>) {
    type MakeBackend = fn() -> Box<dyn OffloadBackend>;
    let backends: [(&str, MakeBackend); 4] = [
        ("cpu", || Box::new(CpuBackend::new())),
        ("pcie-rdma", || Box::new(PcieRdmaBackend::bf3())),
        ("pcie-dma", || Box::new(PcieDmaBackend::agilex7())),
        ("cxl", || Box::new(CxlBackend::agilex7())),
    ];
    for (name, make) in backends {
        let us = match pages {
            Some((redis, vms)) => offload_us(make(), redis, vms),
            None => [0.0; 4],
        };
        for (f, v) in ["compress", "decompress", "checksum", "compare"]
            .iter()
            .zip(us)
        {
            m.put(&format!("offload.{name}.{f}_us"), v, "us");
        }
    }
}

fn offload_us(mut b: Box<dyn OffloadBackend>, redis: &[PageData], vms: &[PageData]) -> [f64; 4] {
    let mut host = Socket::xeon_6538y_snc_half();
    let mut now = Time::ZERO;
    let cps: Vec<_> = redis
        .iter()
        .map(|p| {
            let o = b.compress(p, now, &mut host);
            now = o.completion;
            o.value
        })
        .collect();
    let copies: Vec<PageData> = vms.to_vec();
    let per_call = |s: f64, n: usize| s / n as f64 * 1e6;
    [
        per_call(
            span(|| {
                for p in redis {
                    now = b.compress(p, now, &mut host).completion;
                }
            }),
            redis.len(),
        ),
        per_call(
            span(|| {
                for c in &cps {
                    now = b.decompress(c, now, &mut host).completion;
                }
            }),
            cps.len(),
        ),
        per_call(
            span(|| {
                for p in vms {
                    now = b.checksum(p, now, &mut host).completion;
                }
            }),
            vms.len(),
        ),
        per_call(
            span(|| {
                for (a, c) in vms.iter().zip(&copies) {
                    now = b.compare(a, c, now, &mut host).completion;
                }
            }),
            vms.len(),
        ),
    ]
}

/// Host ns per job of `kvs::server::run_core` on a fig8-shaped job stream
/// (Poisson arrivals at the smoke config's 60 µs mean, 12 µs service).
fn run_core_ns(seed: u64) -> f64 {
    const JOBS: usize = 20_000;
    let cfg = kvs::fig8::Fig8Config::smoke();
    let mut rng = SimRng::seed_from(seed ^ 0xC0AE);
    let mut t = Time::ZERO;
    let jobs: Vec<Job> = (0..JOBS)
        .map(|_| {
            t += cfg.mean_interarrival.mul_f64(rng.gen_exp());
            Job {
                arrival: t,
                service: cfg.base_service,
                is_request: true,
            }
        })
        .collect();
    span(|| {
        black_box(run_core(black_box(&jobs)));
    }) / JOBS as f64
        * 1e9
}

/// Runs every pass of the traced run and assembles the per-layer metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, threads2: usize) -> Result<Report, String> {
    let mut p = wl::run_passes(kind, seed, seconds, threads2)?;
    let w = &p.w;
    let (wall1, wall2) = (p.pass_1t_s(), p.pass_2t_s());
    let n = w.points.len();

    // The traced pass, against an untraced pass of the same size and
    // worker count; the splice stage is profiled on the traced pass.
    let wt = Workload::setup(kind, seed, Scale::Traced);
    let plain = wt.pass(threads2);
    profile::set_enabled(true);
    let _ = profile::take();
    let (traced, ring_dropped) = traced_pass(&wt, threads2);
    let prof_traced = profile::take();
    profile::set_enabled(false);

    let mut failures = std::mem::take(&mut p.failures);
    let traced_runs: Vec<PointRun> = traced.iter().map(|(r, _)| r.clone()).collect();
    failures.extend(
        wl::compare_outputs(&plain, &traced_runs)
            .into_iter()
            .filter_map(Result::err)
            .map(|e| format!("traced pass: {e}")),
    );
    let mut tally = Tally::default();
    for (_, t) in &traced {
        tally.add(t);
    }
    let dropped = tally.dropped + ring_dropped;
    if dropped > 0 {
        failures.push(format!("traced pass dropped {dropped} events"));
    }
    let sum_s = |runs: &[PointRun]| runs.iter().map(|r| r.host_s).sum::<f64>();

    let mut m = Metrics::default();

    // sim_core::sweep
    m.put(
        "sweep.setup_ms",
        profile_ms(&p.profile, profile::Stage::Setup),
        "ms",
    );
    // Device runners run their own (1-worker) sweeps inside a point, so
    // the profiler's events total nests; the top-level figure is the
    // benchmark's per-point spans less the nested set-up and merge time.
    let points_s: f64 = p.reference.iter().map(|r| r.host_s).sum();
    m.put(
        "sweep.events_ms",
        points_s * 1e3 - p.profile.nested_ns as f64 / 1e6,
        "ms",
    );
    m.put(
        "sweep.trace_splice_ms",
        profile_ms(&prof_traced, profile::Stage::TraceSplice),
        "ms",
    );
    m.put(
        "sweep.counter_merge_ms",
        profile_ms(&p.profile, profile::Stage::CounterMerge),
        "ms",
    );
    m.put("sweep.slowest_point_ms", p.slowest_point_s() * 1e3, "ms");
    m.put(
        "sweep.parallel_eff_2t",
        wall1 / wall2 / threads2 as f64,
        "ratio",
    );

    // sim_core::event
    let uses_engines = kind != Kind::Fig8Offload;
    m.put(
        "event.ns_per_event",
        if uses_engines { event_ns(seed) } else { 0.0 },
        "ns",
    );

    // sim_core::traffic, sim_core::serving + kvs::fleet, cxl_proto::retry
    let fleets: Vec<&kvs::fleet::FleetReport> = p
        .reference
        .iter()
        .filter_map(|r| match &r.out {
            Out::Fleet(f) => Some(f),
            _ => None,
        })
        .collect();
    let (mut zipf_ms, mut zipf_share) = (0.0, 0.0);
    if kind == Kind::ServingFleet {
        for (i, row) in w.fleet_specs().iter().enumerate() {
            let s = span(|| {
                for t in &row.tenants {
                    black_box(Zipfian::new(t.keys, t.theta));
                }
            });
            let row_s = p.point_min_s(i);
            zipf_ms += s * 1e3 / n as f64;
            zipf_share += s / row_s / n as f64;
            eprintln!(
                "zipf share {}: {:.3} ({:.1} of {:.1} ms)",
                wl::FLEET_ROWS[i],
                s / row_s,
                s * 1e3,
                row_s * 1e3
            );
        }
    }
    m.put("traffic.zipf_setup_ms", zipf_ms, "ms");
    m.put("traffic.zipf_share", zipf_share, "ratio");
    let counter = |name: &str| fleets.iter().map(|f| f.counters.get(name)).sum::<u64>() as f64;
    m.put("traffic.ops", counter("traffic.ops"), "count");
    m.put(
        "traffic.ops.retried",
        counter("traffic.ops.retried"),
        "count",
    );
    m.put("traffic.ops.failed", counter("traffic.ops.failed"), "count");
    let tenant_sum = |f: fn(&kvs::fleet::TenantReport) -> u64| {
        fleets
            .iter()
            .flat_map(|r| r.tenants.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    m.put("fleet.shed", tenant_sum(|t| t.shed), "count");
    m.put("fleet.throttled", tenant_sum(|t| t.throttled), "count");
    m.put(
        "fleet.quota_stalls",
        tenant_sum(|t| t.quota_stalls),
        "count",
    );
    m.put(
        "fleet.table_stalls",
        fleets.iter().map(|f| f.table_stalls).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "fleet.goodput_frac",
        ratio(tenant_sum(|t| t.clean), tenant_sum(|t| t.ops)),
        "ratio",
    );
    let ops: u64 = traced.iter().map(|(r, _)| wl::ops_of(&r.out)).sum();
    m.put("retry.link_replays", tally.link_retries as f64, "count");
    m.put(
        "retry.replays_per_kop",
        ratio(tally.link_retries as f64 * 1e3, ops as f64),
        "1/kop",
    );

    // cxl_proto::bias, and the Fig. 4 device-bias share of device_micro
    let (mut regions, mut dev_share, mut burst_us, mut m1, mut mmax) = (0, 0.0, 0.0, 0.0, 0.0);
    if kind == Kind::DeviceMicro {
        // The Fig. 4 point's share of the pass, split between its bias
        // modes by the replicated loops (its emulated-baseline accesses
        // are a few ms and are left out of the split).
        let (host_s, _, _) = fig4_bias_loop(seed, false);
        let (dev_s, b_us, r) = fig4_bias_loop(seed, true);
        let fig4 = w
            .points
            .iter()
            .position(|pt| matches!(pt, Point::Fig4))
            .expect("device_micro has a Fig. 4 point");
        regions = r;
        burst_us = b_us;
        dev_share = p.point_min_s(fig4) / wall1 * dev_s / (dev_s + host_s);
        m1 = mode_of_ns(1, seed);
        mmax = mode_of_ns(regions, seed);
    }
    m.put("bias.regions_max", regions as f64, "count");
    m.put("bias.mode_of_ns_1", m1, "ns");
    m.put("bias.mode_of_ns_max", mmax, "ns");

    // sim_core::policy + cxl_type2::biasmgr. The bias ablation does not
    // expose the daemon's epoch counter, so its epochs are derived from
    // each adaptive run's simulated span.
    let epoch_ns = cxl_bench::bias::bias_daemon_config().epoch.as_nanos_f64();
    let ablation_epochs: f64 = w
        .points
        .iter()
        .zip(&p.reference)
        .filter_map(|(p, r)| match (p, &r.out) {
            (
                Point::Bias {
                    policy: cxl_bench::bias::BiasPolicyKind::Adaptive,
                    ..
                },
                Out::Bias(o),
            ) => Some((o.mean_ns * wl::BIAS_REQUESTS as f64 / epoch_ns).floor()),
            _ => None,
        })
        .sum();
    m.put(
        "biasmgr.epochs",
        counter("biasmgr.epochs") + ablation_epochs,
        "count",
    );
    m.put("biasmgr.flips.policy", tally.flips[0] as f64, "count");
    m.put("biasmgr.flips.degrade", tally.flips[1] as f64, "count");
    m.put("biasmgr.flips.conflict", tally.flips[2] as f64, "count");

    // cxl_type2: device, fabric, dcoh, lsu
    m.put("device.d2h.requests", tally.lanes[0] as f64, "count");
    m.put("device.d2d.requests", tally.lanes[1] as f64, "count");
    m.put("device.h2d.requests", tally.lanes[2] as f64, "count");
    m.put("device.hmc.writebacks", tally.writebacks[0] as f64, "count");
    m.put("device.dmc.writebacks", tally.writebacks[1] as f64, "count");
    m.put("device.fig4_devbias_share", dev_share, "ratio");
    m.put("fabric.routed", tally.fabric_routes as f64, "count");
    m.put("dcoh.hmc_hit_ratio", tally.hit_ratio(0), "ratio");
    m.put("dcoh.dmc_hit_ratio", tally.hit_ratio(1), "ratio");
    m.put("dcoh.snoops", tally.snoops as f64, "count");
    m.put("lsu.concurrent_burst_us", burst_us, "us");

    // host + mem_subsys
    m.put("host.llc_hit_ratio", tally.hit_ratio(2), "ratio");
    let device = kind == Kind::DeviceMicro;
    m.put(
        "host.load_ns",
        if device { host_load_ns(seed) } else { 0.0 },
        "ns",
    );
    m.put("dram.dev_accesses", tally.mem[0] as f64, "count");
    m.put("dram.host_accesses", tally.mem[1] as f64, "count");

    // pcie: host time per Fig. 6 transfer point
    let (fig6_s, fig6_points) = p
        .reference
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match &r.out {
            Out::Fig6(pts) => Some((p.point_min_s(i), pts.len())),
            _ => None,
        })
        .fold((0.0, 0usize), |(s, n), (a, b)| (s + a, n + b));
    m.put(
        "pcie.transfer_us",
        ratio(fig6_s * 1e6, fig6_points as f64),
        "us",
    );

    // accel + kernel::offload on the fig8 page population
    let fig8 = kind == Kind::Fig8Offload;
    let pages = fig8.then(|| fig8_pages(seed, 64));
    accel_metrics(&mut m, pages.as_ref());
    offload_metrics(&mut m, pages.as_ref());

    // kernel: zswap, ksm
    for (i, name) in [
        "zswap.store_pooled",
        "zswap.store_same_filled",
        "zswap.store_rejected",
        "zswap.load_pool_hit",
        "zswap.writeback_evict",
    ]
    .iter()
    .enumerate()
    {
        m.put(name, tally.zswap[i] as f64, "count");
    }
    m.put("ksm.scans", tally.ksm_scans as f64, "count");
    m.put("ksm.merged", tally.ksm_merged as f64, "count");
    m.put(
        "ksm.merge_ratio",
        ratio(tally.ksm_merged as f64, tally.ksm_scans as f64),
        "ratio",
    );

    // kvs, from the full-scale reports
    let cells = p.reference.iter().filter_map(|r| match &r.out {
        Out::Cell(c) => Some(c),
        _ => None,
    });
    let (reqs, faults) = cells.fold((0, 0), |(a, b), c| (a + c.requests, b + c.faults));
    m.put("kvs.requests", reqs as f64, "count");
    m.put("kvs.faults", faults as f64, "count");
    m.put(
        "kvs.run_core_ns_per_job",
        if fig8 { run_core_ns(seed) } else { 0.0 },
        "ns",
    );

    // benchmark
    m.put(
        "trace.overhead_frac",
        sum_s(&traced_runs) / sum_s(&plain) - 1.0,
        "ratio",
    );
    m.put("trace.dropped", dropped as f64, "count");

    eprintln!(
        "traced pass: {} events over {} points (largest {}), ring capacity {}",
        tally.events,
        traced.len(),
        traced.iter().map(|(_, t)| t.events).max().unwrap_or(0),
        TRACE_CAPACITY
    );
    Ok(Report {
        attempted: p.attempted + traced.len() as u64,
        failures,
        metrics: m.0,
    })
}
