//! The three workloads: their sweep points, inputs, op counts, model
//! outputs, correctness checks and paper comparisons.
//!
//! Every workload is one batch of independent points run through
//! `sim_core::sweep::run_with_threads`, so the same code path serves the
//! 1-worker and the 2-worker passes. Points only read the inputs built in
//! [`Workload::setup`]; arrivals and accesses are generated inside each
//! point's simulation.

use std::collections::BTreeMap;
use std::time::{Duration as Wall, Instant};

use cxl_bench::bias::{self as biasab, BiasOp, BiasPolicyKind, PolicyOut};
use cxl_bench::fig3::{self, Fig3Row};
use cxl_bench::fig4::{self, Fig4Row};
use cxl_bench::fig5::{self, Fig5Row, H2dCase};
use cxl_bench::fig6::{self, Direction, Fig6Point, Mechanism};
use cxl_bench::fig8run::Feature;
use cxl_bench::tables::{self, Table3Row, Table4Row};
use cxl_type2::biasmgr::DaemonConfig;
use cxl_type2::device::H2dOp;
use kvs::fig8::{self as f8, BackendKind, Fig8Config, Fig8Dataset, TailReport};
use kvs::fleet::{self, FleetReport, FleetSpec, QosConfig};
use kvs::ycsb::YcsbWorkload;
use sim_core::sweep;
use sim_core::time::Duration as SimDuration;

/// Repetitions per device-characterisation point (the `repro_fig3/4/5`
/// default).
pub const DEVICE_REPS: usize = 1000;
/// Requests per bias-policy run (the `repro_bias` default).
pub const BIAS_REQUESTS: u64 = 2000;
/// Each serving tenant issues this multiple of its default request count,
/// so per-point work dominates the fixed `Zipfian::new` cost.
pub const FLEET_SCALE: u64 = 16;
/// Device-initiated scan share of each victim in the adaptive-bias row.
pub const ADAPTIVE_SCAN_FRACTION: f64 = 0.9;
/// The traced fig8 pass runs each cell for this fraction of the smoke
/// duration, so the largest cell's events fit one per-point trace ring.
pub const FIG8_TRACE_DIVISOR: u64 = 8;
/// The YCSB mixes the fig8 workload runs: A (50% updates) and C (reads).
pub const FIG8_MIXES: [YcsbWorkload; 2] = [YcsbWorkload::A, YcsbWorkload::C];
const LINE: u64 = 64;
const BURST: u64 = 16;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig8Offload,
    ServingFleet,
    DeviceMicro,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig8Offload, Kind::ServingFleet, Kind::DeviceMicro];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Offload => "fig8_offload",
            Kind::ServingFleet => "serving_fleet",
            Kind::DeviceMicro => "device_micro",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub enum Point {
    Fig8 {
        feature: Feature,
        mix: YcsbWorkload,
        backend: BackendKind,
    },
    Fleet {
        row: usize,
    },
    Table3,
    Fig3,
    Fig4,
    Fig5,
    Fig6 {
        dir: Direction,
        write: bool,
    },
    Table4,
    Bias {
        frac_index: usize,
        policy: BiasPolicyKind,
    },
}

/// A point's model output. `Debug` renders every simulated figure, and
/// that rendering is what the 1-worker/2-worker comparison checks.
#[derive(Debug, Clone)]
pub enum Out {
    Cell(TailReport),
    Fleet(FleetReport),
    Table3(Vec<Table3Row>),
    Fig3(Vec<Fig3Row>),
    Fig4(Vec<Fig4Row>),
    Fig5(Vec<Fig5Row>),
    Fig6(Vec<Fig6Point>),
    Table4(Vec<Table4Row>),
    Bias(PolicyOut),
}

/// One pass's result for one point.
#[derive(Debug, Clone)]
pub struct PointRun {
    pub out: Out,
    pub host_s: f64,
}

/// Row labels of the serving workload, in point order.
pub const FLEET_ROWS: [&str; 6] = [
    "isolated",
    "antagonist-noqos",
    "antagonist-qos",
    "qos-ber1e-6",
    "qos-ber1e-5",
    "qos-adaptive-bias",
];

/// A workload with its inputs built.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub points: Vec<Point>,
    fig8: Option<(Fig8Config, Fig8Dataset)>,
    fleet: Vec<FleetSpec>,
    bias_ops: Vec<Vec<BiasOp>>,
}

/// Input size of a workload build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured workload.
    Full,
    /// The traced pass's size (see [`FIG8_TRACE_DIVISOR`]).
    Traced,
}

/// The adaptive row's daemon: the library defaults with 1024-line regions
/// and 20 µs epochs, the setting the fleet's own scan-heavy test uses.
/// With the defaults (64-line regions, 5 µs epochs) the daemon folds every
/// region of the 1 Mi-key shards each epoch: the row costs ~1.2 s of host
/// time and never flips.
pub fn fleet_daemon_config() -> DaemonConfig {
    let mut cfg = DaemonConfig::default();
    cfg.policy.grain_shift = 10;
    cfg.epoch = SimDuration::from_micros(20);
    cfg
}

fn fleet_specs(seed: u64) -> Vec<FleetSpec> {
    FLEET_ROWS
        .iter()
        .map(|&row| {
            let mut spec = if row == "isolated" {
                FleetSpec::isolated(seed)
            } else {
                FleetSpec::serving_mix(seed)
            };
            spec.qos = if row == "antagonist-noqos" {
                QosConfig::off()
            } else {
                QosConfig::on()
            };
            spec.ber = match row {
                "qos-ber1e-6" => 1e-6,
                "qos-ber1e-5" => 1e-5,
                _ => 0.0,
            };
            for t in &mut spec.tenants {
                t.requests *= FLEET_SCALE;
            }
            if row == "qos-adaptive-bias" {
                spec.adaptive_bias = Some(fleet_daemon_config());
                for t in spec.tenants.iter_mut().filter(|t| !t.flood) {
                    t.d2d_scan_fraction = ADAPTIVE_SCAN_FRACTION;
                }
            }
            spec
        })
        .collect()
}

impl Workload {
    /// Builds every input the points read. Nothing here is timed by a
    /// pass; it is part of `setup_s`.
    pub fn setup(kind: Kind, seed: u64, scale: Scale) -> Workload {
        let mut w = Workload {
            kind,
            seed,
            points: Vec::new(),
            fig8: None,
            fleet: Vec::new(),
            bias_ops: Vec::new(),
        };
        match kind {
            Kind::Fig8Offload => {
                let mut cfg = Fig8Config {
                    seed,
                    ..Fig8Config::smoke()
                };
                if scale == Scale::Traced {
                    cfg.duration = cfg.duration / FIG8_TRACE_DIVISOR;
                }
                let dataset = Fig8Dataset::build(&cfg);
                w.fig8 = Some((cfg, dataset));
                for feature in [Feature::Zswap, Feature::Ksm] {
                    for mix in FIG8_MIXES {
                        for backend in BackendKind::ALL {
                            w.points.push(Point::Fig8 {
                                feature,
                                mix,
                                backend,
                            });
                        }
                    }
                }
            }
            Kind::ServingFleet => {
                w.fleet = fleet_specs(seed);
                w.points = (0..w.fleet.len()).map(|row| Point::Fleet { row }).collect();
            }
            Kind::DeviceMicro => {
                let fracs = biasab::crossover_fractions();
                w.bias_ops = fracs
                    .iter()
                    .map(|&f| biasab::crossover_ops(BIAS_REQUESTS, f, seed))
                    .collect();
                w.points = vec![Point::Table3, Point::Fig3, Point::Fig4, Point::Fig5];
                for (dir, write) in [
                    (Direction::H2d, true),
                    (Direction::H2d, false),
                    (Direction::D2h, true),
                    (Direction::D2h, false),
                ] {
                    w.points.push(Point::Fig6 { dir, write });
                }
                w.points.push(Point::Table4);
                for frac_index in 0..fracs.len() {
                    for policy in biasab::duplex_policies() {
                        w.points.push(Point::Bias { frac_index, policy });
                    }
                }
            }
        }
        w
    }

    /// The point the set-up runs once to pay lazy one-time costs: the
    /// first point that exercises the workload's main engine.
    pub fn warmup_point(&self) -> usize {
        match self.kind {
            // cpu-zswap, YCSB A: reclaim, the LZ compressor and the zpool.
            Kind::Fig8Offload => 1,
            // The isolated row: fabric, traffic scheduler and slice tables.
            Kind::ServingFleet => 0,
            // Fig. 3: the D2H path through DCOH, LSU and the host caches.
            Kind::DeviceMicro => 1,
        }
    }

    /// Runs one point.
    pub fn run_point(&self, i: usize) -> Out {
        let seed = self.seed;
        match self.points[i] {
            Point::Fig8 {
                feature,
                mix,
                backend,
            } => {
                let (cfg, dataset) = self.fig8.as_ref().expect("fig8 inputs built");
                Out::Cell(match feature {
                    Feature::Zswap => f8::run_zswap_with_dataset(cfg, mix, backend, dataset),
                    Feature::Ksm => f8::run_ksm_with_dataset(cfg, mix, backend, dataset),
                })
            }
            Point::Fleet { row } => Out::Fleet(fleet::run_fleet(&self.fleet[row])),
            Point::Table3 => Out::Table3(tables::run_table3()),
            Point::Fig3 => Out::Fig3(fig3::run_fig3_with_threads(1, DEVICE_REPS, seed)),
            Point::Fig4 => Out::Fig4(fig4::run_fig4_with_threads(1, DEVICE_REPS, seed)),
            Point::Fig5 => Out::Fig5(fig5::run_fig5_with_threads(1, DEVICE_REPS, seed)),
            Point::Fig6 { dir, write } => Out::Fig6(fig6::run_fig6(dir, write)),
            Point::Table4 => Out::Table4(tables::run_table4(seed)),
            Point::Bias { frac_index, policy } => Out::Bias(biasab::run_policy(
                &self.bias_ops[frac_index],
                policy,
                0.0,
                seed,
                biasab::bias_daemon_config(),
            )),
        }
    }

    /// The serving rows' fleet specs, in point order.
    pub fn fleet_specs(&self) -> &[FleetSpec] {
        &self.fleet
    }

    /// Runs every point on `threads` sweep workers, timing each point.
    pub fn pass(&self, threads: usize) -> Vec<PointRun> {
        sweep::run_with_threads(threads, self.points.len(), |i| {
            let t0 = Instant::now();
            let out = self.run_point(i);
            PointRun {
                out,
                host_s: t0.elapsed().as_secs_f64(),
            }
        })
    }
}

/// Simulated ops one point performed: YCSB requests, tenant ops (shed
/// included), or accesses the device harness issued.
pub fn ops_of(out: &Out) -> u64 {
    let reps = DEVICE_REPS as u64;
    let access = 1 + BURST; // one isolated access plus one burst per rep
    match out {
        Out::Cell(r) => r.requests,
        Out::Fleet(r) => r.tenants.iter().map(|t| t.ops).sum(),
        Out::Table3(rows) => rows.len() as u64,
        // True CXL and emulated UPI, per (request, LLC state).
        Out::Fig3(rows) => rows.len() as u64 * reps * access * 2,
        // Host bias and device bias, plus one emulated access per rep.
        Out::Fig4(rows) => rows.len() as u64 * reps * (access * 2 + 1),
        Out::Fig5(rows) => rows.len() as u64 * reps * access,
        Out::Fig6(points) => points.iter().map(|p| p.bytes.div_ceil(LINE)).sum(),
        Out::Table4(rows) => rows.len() as u64,
        Out::Bias(_) => BIAS_REQUESTS,
    }
}

// ---------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------

/// Table III end states as the paper gives them: (request, case) →
/// (HMC, LLC) after one D2H access.
pub const TABLE3_PAPER: [(&str, &str, &str, &str); 18] = [
    ("NC-P", "HMC hit", "I", "M"),
    ("NC-P", "LLC hit", "I", "M"),
    ("NC-P", "LLC miss", "I", "M"),
    ("NC-rd", "HMC hit", "S", "S"),
    ("NC-rd", "LLC hit", "I", "S"),
    ("NC-rd", "LLC miss", "I", "I"),
    ("NC-wr", "HMC hit", "I", "I"),
    ("NC-wr", "LLC hit", "I", "I"),
    ("NC-wr", "LLC miss", "I", "I"),
    ("CO-rd", "HMC hit", "E", "I"),
    ("CO-rd", "LLC hit", "E", "I"),
    ("CO-rd", "LLC miss", "E", "I"),
    ("CO-wr", "HMC hit", "M", "I"),
    ("CO-wr", "LLC hit", "M", "I"),
    ("CO-wr", "LLC miss", "M", "I"),
    ("CS-rd", "HMC hit", "S", "S"),
    ("CS-rd", "LLC hit", "S", "S"),
    ("CS-rd", "LLC miss", "S", "I"),
];

fn table3_ok(rows: &[Table3Row]) -> Result<(), String> {
    if rows.len() != TABLE3_PAPER.len() {
        return Err(format!("Table III has {} rows, want 18", rows.len()));
    }
    for &(req, case, hmc, llc) in &TABLE3_PAPER {
        let row = rows
            .iter()
            .find(|r| r.request == req && r.case == case)
            .ok_or_else(|| format!("Table III row {req}/{case} missing"))?;
        if row.hmc_after != hmc || row.llc_after != llc {
            return Err(format!(
                "Table III {req}/{case}: HMC {} LLC {}, paper {hmc} {llc}",
                row.hmc_after, row.llc_after
            ));
        }
    }
    Ok(())
}

fn table4_ok(rows: &[Table4Row]) -> Result<(), String> {
    let total = |prefix: &str| {
        rows.iter()
            .find(|r| r.backend.starts_with(prefix))
            .map(|r| r.total_us)
            .ok_or_else(|| format!("Table IV row {prefix} missing"))
    };
    let (cxl, dma, rdma) = (total("cxl")?, total("pcie-dma")?, total("pcie-rdma")?);
    if cxl < dma && dma < rdma {
        Ok(())
    } else {
        Err(format!(
            "Table IV order: cxl {cxl} dma {dma} rdma {rdma}, want cxl < dma < rdma"
        ))
    }
}

fn fleet_ok(r: &FleetReport) -> Result<(), String> {
    for t in &r.tenants {
        if t.ops != t.clean + t.retried + t.failed {
            return Err(format!(
                "{}: ops {} != clean {} + retried {} + failed {}",
                t.name, t.ops, t.clean, t.retried, t.failed
            ));
        }
        if t.shed > t.failed {
            return Err(format!("{}: shed {} > failed {}", t.name, t.shed, t.failed));
        }
    }
    Ok(())
}

/// Normalised p99 of every fig8 cell: p99 over the no-feature p99 of the
/// same feature and mix. `None` for the baselines themselves.
pub fn fig8_normalised(w: &Workload, runs: &[PointRun]) -> Vec<Option<f64>> {
    w.points
        .iter()
        .zip(runs)
        .map(|(p, run)| {
            let (
                Point::Fig8 {
                    feature,
                    mix,
                    backend,
                },
                Out::Cell(r),
            ) = (p, &run.out)
            else {
                return None;
            };
            if *backend == BackendKind::None {
                return None;
            }
            let base = w
                .points
                .iter()
                .zip(runs)
                .find_map(|(q, br)| match (q, &br.out) {
                    (
                        Point::Fig8 {
                            feature: f,
                            mix: m,
                            backend: BackendKind::None,
                        },
                        Out::Cell(b),
                    ) if f == feature && m == mix => Some(b.p99.as_nanos_f64()),
                    _ => None,
                })?;
            Some(r.p99.as_nanos_f64() / base)
        })
        .collect()
}

/// One verdict per point: its model output equals the reference pass's.
pub fn compare_outputs(reference: &[PointRun], runs: &[PointRun]) -> Vec<Result<(), String>> {
    reference
        .iter()
        .zip(runs)
        .enumerate()
        .map(|(i, (want, got))| {
            if format!("{:?}", got.out) == format!("{:?}", want.out) {
                Ok(())
            } else {
                Err(format!("point {i} differs from the 1-worker result"))
            }
        })
        .collect()
}

/// Checks one pass against the reference pass (the first 1-worker pass)
/// and against the model's invariants. Returns one verdict per point: a
/// point failing any check is one failed op.
pub fn check_pass(
    w: &Workload,
    reference: &[PointRun],
    runs: &[PointRun],
) -> Vec<Result<(), String>> {
    let norm = fig8_normalised(w, runs);
    compare_outputs(reference, runs)
        .into_iter()
        .enumerate()
        .map(|(i, same)| {
            same?;
            let p = &w.points[i];
            match &runs[i].out {
                Out::Fleet(r) => fleet_ok(r)?,
                Out::Table3(rows) => table3_ok(rows)?,
                Out::Table4(rows) => table4_ok(rows)?,
                _ => {}
            }
            // The cpu backend's normalised p99 exceeds every offload
            // backend's in the same mix and feature.
            if let Point::Fig8 {
                feature,
                mix,
                backend,
            } = p
            {
                if !matches!(backend, BackendKind::None | BackendKind::Cpu) {
                    let cpu = w.points.iter().position(|q| {
                        matches!(q, Point::Fig8 { feature: f, mix: m, backend: BackendKind::Cpu }
                            if f == feature && m == mix)
                    });
                    match (cpu.and_then(|c| norm[c]), norm[i]) {
                        (Some(c), Some(o)) if c > o => {}
                        (c, o) => {
                            return Err(format!(
                                "fig8 {feature:?}/{mix:?}: cpu normalised p99 {c:?} <= {} {o:?}",
                                backend.name()
                            ))
                        }
                    }
                }
            }
            Ok(())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Paper comparisons and simulated end-to-end figures
// ---------------------------------------------------------------------

/// Every measured value the paper table names, keyed by reference id.
pub fn paper_measurements(w: &Workload, runs: &[PointRun]) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let norm = fig8_normalised(w, runs);
    for (i, (p, run)) in w.points.iter().zip(runs).enumerate() {
        match (&run.out, p) {
            (
                Out::Cell(_),
                Point::Fig8 {
                    feature,
                    mix,
                    backend,
                },
            ) => {
                if let Some(v) = norm[i] {
                    let f = match feature {
                        Feature::Zswap => "zswap",
                        Feature::Ksm => "ksm",
                    };
                    m.insert(format!("fig8.{f}.{}.{}", backend.name(), mix.name()), v);
                }
            }
            (Out::Fig3(rows), _) => {
                for r in rows {
                    let llc = if r.llc_hit { "llc1" } else { "llc0" };
                    let req = &r.request;
                    m.insert(
                        format!("fig3.lat_ratio.{req}.{llc}"),
                        r.cxl_latency_ns / r.emu_latency_ns,
                    );
                    m.insert(
                        format!("fig3.bw_ratio.{req}.{llc}"),
                        r.cxl_bw_gbps / r.emu_bw_gbps,
                    );
                }
            }
            (Out::Fig4(rows), _) => {
                for r in rows {
                    let dmc = if r.dmc_hit { "dmc1" } else { "dmc0" };
                    m.insert(
                        format!("fig4.lat_dev_over_host.{}.{dmc}", r.request),
                        r.device_bias_latency_ns / r.host_bias_latency_ns,
                    );
                    m.insert(
                        format!("fig4.bw_dev_over_host.{}.{dmc}", r.request),
                        r.device_bias_bw_gbps / r.host_bias_bw_gbps,
                    );
                }
            }
            (Out::Fig5(rows), _) => {
                let get = |op: H2dOp, case: H2dCase| {
                    rows.iter()
                        .find(|r| r.op == op && r.case == case)
                        .expect("every (op, case) bar of Fig. 5")
                };
                for (op, tag) in [(H2dOp::Load, "ld"), (H2dOp::Store, "st")] {
                    let miss = get(op, H2dCase::T2DmcMiss);
                    m.insert(
                        format!("fig5.lat_t2_over_t3.{tag}"),
                        miss.latency_ns / get(op, H2dCase::T3).latency_ns,
                    );
                }
                let miss = get(H2dOp::Load, H2dCase::T2DmcMiss);
                for (case, tag) in [
                    (H2dCase::T2DmcOwned, "owned"),
                    (H2dCase::T2DmcModified, "modified"),
                    (H2dCase::T2DmcShared, "shared"),
                    (H2dCase::T2NcpPrefetch, "ncp"),
                ] {
                    m.insert(
                        format!("fig5.lat_{tag}_over_miss.ld"),
                        get(H2dOp::Load, case).latency_ns / miss.latency_ns,
                    );
                }
                m.insert(
                    "fig5.bw_ncp_over_miss.ld".into(),
                    get(H2dOp::Load, H2dCase::T2NcpPrefetch).bw_gbps / miss.bw_gbps,
                );
                m.insert(
                    "fig5.bw_ntst_over_ld".into(),
                    get(H2dOp::NtStore, H2dCase::T2DmcMiss).bw_gbps / miss.bw_gbps,
                );
            }
            (Out::Fig6(points), Point::Fig6 { dir, write }) => {
                let lat = |mech: Mechanism, bytes: u64| {
                    points
                        .iter()
                        .find(|p| p.mechanism == mech && p.bytes == bytes)
                        .map(|p| p.latency_ns)
                };
                match (dir, write) {
                    (Direction::H2d, true) => {
                        let st = lat(Mechanism::CxlLdSt, 256).expect("CXL-ST @256 B");
                        for (mech, tag) in [
                            (Mechanism::PcieMmio, "mmio"),
                            (Mechanism::PcieDma, "dma"),
                            (Mechanism::PcieRdma, "rdma"),
                            (Mechanism::PcieDocaDma, "doca"),
                        ] {
                            m.insert(
                                format!("fig6.h2d_st_256.cxl_over_{tag}"),
                                st / lat(mech, 256).expect("PCIe @256 B"),
                            );
                        }
                        m.insert(
                            "fig6.dsa_over_dma_1m".into(),
                            lat(Mechanism::CxlDsa, 1 << 20).expect("DSA @1 MiB")
                                / lat(Mechanism::PcieDma, 1 << 20).expect("DMA @1 MiB"),
                        );
                    }
                    (Direction::H2d, false) => {
                        m.insert(
                            "fig6.mmio_rd_256_us".into(),
                            lat(Mechanism::PcieMmio, 256).expect("MMIO read @256 B") / 1e3,
                        );
                    }
                    (Direction::D2h, false) => {
                        for (bytes, tag) in [(64, "64"), (4096, "4k")] {
                            m.insert(
                                format!("fig6.d2h_ld_{tag}.rdma_over_cxl"),
                                lat(Mechanism::PcieRdma, bytes).expect("RDMA read")
                                    / lat(Mechanism::CxlLdSt, bytes).expect("CXL-LD"),
                            );
                        }
                    }
                    (Direction::D2h, true) => {}
                }
            }
            (Out::Table4(rows), _) => {
                let total = |prefix: &str| {
                    rows.iter()
                        .find(|r| r.backend.starts_with(prefix))
                        .expect("Table IV row")
                        .total_us
                };
                m.insert(
                    "table4.cxl_over_rdma".into(),
                    total("cxl") / total("pcie-rdma"),
                );
                m.insert(
                    "table4.cxl_over_dma".into(),
                    total("cxl") / total("pcie-dma"),
                );
            }
            _ => {}
        }
    }
    m
}

/// The paper-table prefixes each workload is scored on (`None`: the
/// workload has no paper reference and is reported as unvalidated).
pub fn paper_prefixes(kind: Kind) -> Option<&'static [&'static str]> {
    match kind {
        Kind::Fig8Offload => Some(&["fig8."]),
        Kind::DeviceMicro => Some(&["fig3.", "fig4.", "fig5.", "fig6.", "table4."]),
        Kind::ServingFleet => None,
    }
}

/// Worst victim p999 of one fleet row.
pub fn victim_p999(r: &FleetReport) -> u64 {
    r.tenants
        .iter()
        .filter(|t| t.name != "fleet.antagonist")
        .map(|t| t.tail.p999)
        .max()
        .expect("fleet rows have victims")
}

/// Victim p999 with the antagonist and QoS on over the isolated victim
/// p999 (`None` off the serving workload).
pub fn qos_p999_ratio(w: &Workload, runs: &[PointRun]) -> Option<f64> {
    let row = |name: &str| {
        let i = FLEET_ROWS.iter().position(|r| *r == name)?;
        match &runs.get(i)?.out {
            Out::Fleet(r) => Some(victim_p999(r) as f64),
            _ => None,
        }
    };
    if w.kind != Kind::ServingFleet {
        return None;
    }
    Some(row("antagonist-qos")? / row("isolated")?)
}

// ---------------------------------------------------------------------
// The measured passes
// ---------------------------------------------------------------------

/// Set-ups before the first pass; one more follows every pass, so
/// `setup_s` samples the whole run rather than its first second.
pub const SETUP_REPS: usize = 3;

/// What a run of alternating passes measured.
pub struct Passes {
    /// The workload as last built.
    pub w: Workload,
    /// Host seconds of each set-up: input build plus the warm-up point.
    pub setup_s: Vec<f64>,
    /// The first 1-worker pass: every later pass is checked against it.
    pub reference: Vec<PointRun>,
    /// Wall seconds of each 1-worker and each 2-worker pass.
    pub t1: Vec<f64>,
    pub t2: Vec<f64>,
    /// Host seconds of every point in every 1-worker pass, by point.
    pub point_s: Vec<Vec<f64>>,
    /// Heap allocations of the first 1-worker pass.
    pub allocs: u64,
    /// Peak resident set after the set-ups and the first 1-worker pass,
    /// MiB. Later 2-worker passes are left out: their peak depends on
    /// which two points the workers happen to overlap.
    pub peak_rss_mib: f64,
    /// The sweep profile of the first 1-worker pass.
    pub profile: sweep::profile::ProfileReport,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Passes {
    /// Host seconds of a 1-worker pass: the sum of each point's fastest
    /// time over the run. The host this was tuned on is a shared VM whose
    /// speed swings up to 2× in stretches of several seconds; the minimum
    /// estimates a point's unloaded cost (`benchkit::time_min` uses the
    /// same estimator for the same reason), where a median moves with the
    /// share of the run that fell in a slow stretch.
    pub fn pass_1t_s(&self) -> f64 {
        (0..self.point_s.len()).map(|i| self.point_min_s(i)).sum()
    }

    /// Point `i`'s fastest host seconds over the run's 1-worker passes.
    pub fn point_min_s(&self, i: usize) -> f64 {
        min(&self.point_s[i])
    }

    /// The slowest point's fastest host seconds.
    pub fn slowest_point_s(&self) -> f64 {
        (0..self.point_s.len())
            .map(|i| self.point_min_s(i))
            .fold(0.0, f64::max)
    }

    /// The fastest 2-worker pass, seconds (see [`Passes::pass_1t_s`]).
    pub fn pass_2t_s(&self) -> f64 {
        min(&self.t2)
    }

    /// The fastest set-up, seconds. A median of set-ups moved by up to 70%
    /// between 5-minute windows on the shared VM, against about 6% for
    /// the minimum (see [`Passes::pass_1t_s`]).
    pub fn setup_min_s(&self) -> f64 {
        min(&self.setup_s)
    }
}

/// The smallest value of a non-empty slice.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Builds the workload and runs its warm-up point, which pays the lazy
/// one-time costs (counter interning, thread-local engines).
fn timed_setup(kind: Kind, seed: u64, times: &mut Vec<f64>) -> Workload {
    let t0 = Instant::now();
    let w = Workload::setup(kind, seed, Scale::Full);
    std::hint::black_box(w.run_point(w.warmup_point()));
    times.push(t0.elapsed().as_secs_f64());
    w
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Sets the workload up, then runs one 1-worker pass and two
/// `threads2`-worker passes at a time until `seconds` have passed, setting
/// up again after every pass. Every pass is checked against the first.
pub fn run_passes(kind: Kind, seed: u64, seconds: f64, threads2: usize) -> Result<Passes, String> {
    let mut setup_s = Vec::new();
    let mut w = timed_setup(kind, seed, &mut setup_s);
    for _ in 1..SETUP_REPS {
        w = timed_setup(kind, seed, &mut setup_s);
    }
    let deadline = Instant::now() + Wall::from_secs_f64(seconds);
    let mut reference: Option<Vec<PointRun>> = None;
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let mut point_s = vec![Vec::new(); w.points.len()];
    let (mut allocs, mut peak_rss_mib, mut attempted) = (0, 0.0, 0);
    let mut profile = sweep::profile::ProfileReport::default();
    let mut failures = Vec::new();
    // Two 2-worker passes per 1-worker pass: the 1-worker figure already
    // takes each point's minimum over passes, the 2-worker one only has
    // whole passes to choose from.
    let want_t2 = |t1: &Vec<f64>, t2: &Vec<f64>| t2.len() < 2 * t1.len();
    while t1.is_empty() || want_t2(&t1, &t2) || Instant::now() < deadline {
        let threads = if want_t2(&t1, &t2) { threads2 } else { 1 };
        let mut runs = Vec::new();
        let mut wall = 0.0;
        let mut timed_pass = || {
            let t0 = Instant::now();
            runs = w.pass(threads);
            wall = t0.elapsed().as_secs_f64();
        };
        if reference.is_none() {
            // `allocs_in` calls its closure twice and counts the second
            // call; the warm-up point already paid the lazy costs, so the
            // first call is skipped rather than run twice.
            sweep::profile::set_enabled(true);
            let _ = sweep::profile::take();
            let mut calls = 0;
            allocs = cxl_bench::benchkit::allocs_in(|| {
                calls += 1;
                if calls == 2 {
                    timed_pass();
                }
            });
            profile = sweep::profile::take();
            sweep::profile::set_enabled(false);
            peak_rss_mib = self::peak_rss_mib()?;
        } else {
            timed_pass();
        }
        let reference = reference.get_or_insert_with(|| runs.clone());
        if threads == 1 {
            t1.push(wall);
            for (v, r) in point_s.iter_mut().zip(&runs) {
                v.push(r.host_s);
            }
        } else {
            t2.push(wall);
        }
        w = timed_setup(kind, seed, &mut setup_s);
        attempted += runs.len() as u64;
        failures.extend(
            check_pass(&w, reference, &runs)
                .into_iter()
                .filter_map(Result::err),
        );
    }
    Ok(Passes {
        w,
        setup_s,
        reference: reference.expect("at least one pass"),
        t1,
        t2,
        point_s,
        allocs,
        peak_rss_mib,
        profile,
        attempted,
        failures,
    })
}
