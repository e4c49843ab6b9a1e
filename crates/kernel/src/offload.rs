//! Offload backends for the zswap/ksm data-plane functions.
//!
//! §VI–§VII compare four execution strategies for the CPU- and
//! memory-intensive functions of zswap (compress/decompress) and ksm
//! (checksum/compare):
//!
//! * [`CpuBackend`] (`cpu-*`) — the host core runs the function inline;
//! * [`PcieRdmaBackend`] (`pcie-rdma-*`) — the STYX approach: kernel-space
//!   RDMA verbs move pages to the BF-3, whose Arm cores compute;
//! * [`PcieDmaBackend`] (`pcie-dma-*`) — DMA moves pages to the Agilex-7,
//!   whose FPGA IPs compute;
//! * [`CxlBackend`] (`cxl-*`) — the paper's contribution: cache-coherent
//!   ld/st mailboxes (Fig. 7), D2H NC-read page pulls, pipelined FPGA
//!   compute, NC-write into device-memory zpool, and NC-P result pushes.
//!
//! Each invocation reports the completion time, the **host CPU time**
//! consumed (the interference driver of Fig. 8), and the Table IV step
//! breakdown (② transfer-in, ④ compute, ⑤ transfer-out).
//!
//! The strategies compute the same values, so the functions themselves
//! live once, as the provided methods of [`OffloadBackend`]: each computes
//! its result, asks the backend's [`OffloadBackend::cost`] for the timing
//! of that [`Job`], and emits the offload trace steps. A backend supplies
//! only how the page moves and what the host CPU pays.

use accel::compare::{compare_pages, PageCompare};
use accel::ip::{pipeline_time, Engine, Function};
use accel::lz::CompressedPage;
use accel::xxhash::page_checksum;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::transfer::{d2h_push_bytes, d2h_read_bytes};
use host::socket::Socket;
use pcie::dma::{CompletionModel, PcieDma};
use pcie::rdma::RdmaEngine;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BackendId, OffloadFn, OffloadStep, TraceEvent};

/// Step-level latency breakdown of one offloaded invocation (Table IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// ① dispatch: communicating source/destination addresses.
    pub dispatch: Duration,
    /// ② page transfer to the compute engine.
    pub transfer_in: Duration,
    /// ④ the computation itself.
    pub compute: Duration,
    /// ⑤ result transfer back (compressed page to zpool / result to host).
    pub transfer_out: Duration,
    /// Observed wall-clock of ②④⑤ (pipelined where the backend pipelines).
    pub total: Duration,
}

/// Outcome of one offloaded function invocation.
#[derive(Debug, Clone)]
pub struct OffloadOutcome<T> {
    /// The function result.
    pub value: T,
    /// When the host observes completion.
    pub completion: Time,
    /// Host CPU time consumed (dispatch, interrupts, polling — the
    /// interference with co-running applications).
    pub host_cpu: Duration,
    /// Step breakdown.
    pub breakdown: Breakdown,
}

/// One invocation of an offloadable function, as its cost model sees it:
/// the function and the byte sizes that drive its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Compress a `page`-byte page into `compressed` bytes.
    Compress {
        /// Uncompressed page size.
        page: u64,
        /// Compressed size.
        compressed: u64,
    },
    /// Decompress `compressed` bytes back into a `page`-byte page.
    Decompress {
        /// Compressed size.
        compressed: u64,
        /// Uncompressed page size.
        page: u64,
    },
    /// Checksum a `page`-byte page.
    Checksum {
        /// Page size.
        page: u64,
    },
    /// Compare two `page`-byte pages; the comparator stopped after
    /// `examined` bytes (the first difference, or the whole page).
    Compare {
        /// Page size.
        page: u64,
        /// Bytes examined before the early exit.
        examined: u64,
    },
}

impl Job {
    /// The accelerated function.
    pub(crate) fn function(self) -> Function {
        match self {
            Job::Compress { .. } => Function::Compress,
            Job::Decompress { .. } => Function::Decompress,
            Job::Checksum { .. } => Function::Checksum,
            Job::Compare { .. } => Function::Compare,
        }
    }

    /// The bytes the function walks where the data already sits: the
    /// uncompressed page, or the examined prefix of a compare.
    pub(crate) fn bytes(self) -> u64 {
        match self {
            Job::Compress { page, .. } | Job::Decompress { page, .. } | Job::Checksum { page } => {
                page
            }
            Job::Compare { examined, .. } => examined,
        }
    }
}

/// What one [`Job`] costs on a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// When the host observes completion.
    pub completion: Time,
    /// Host CPU time consumed.
    pub host_cpu: Duration,
    /// Step breakdown.
    pub breakdown: Breakdown,
    /// The byte count the offload trace events report.
    pub traced_bytes: u64,
}

/// A backend executing the offloadable data-plane functions.
///
/// A backend is a cost model: it supplies [`cost`](Self::cost) and the
/// provided `compress`/`decompress`/`checksum`/`compare` compute each
/// value once, charge the backend's cost, and emit the offload steps.
pub trait OffloadBackend {
    /// The backend's trace identity (`cpu`, `pcie-rdma`, `pcie-dma`, `cxl`).
    fn id(&self) -> BackendId;

    /// True if the zpool lives in device memory (only the CXL backend can
    /// expose device memory to the host transparently, §VI-A).
    fn zpool_in_device_memory(&self) -> bool {
        false
    }

    /// Times one invocation starting at `now`.
    fn cost(&mut self, job: Job, now: Time, host: &mut Socket) -> Cost;

    /// Compresses a page.
    fn compress(
        &mut self,
        page: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<CompressedPage> {
        let cp = CompressedPage::from_page(page);
        let job = Job::Compress {
            page: page.len() as u64,
            compressed: cp.compressed_len() as u64,
        };
        run(self, job, cp, now, host)
    }

    /// Decompresses a page from the zpool.
    fn decompress(
        &mut self,
        cp: &CompressedPage,
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<Vec<u8>> {
        let page = cp
            .decompress()
            .expect("zpool entries are produced by our own compressor");
        let job = Job::Decompress {
            compressed: cp.compressed_len() as u64,
            page: cp.original_len as u64,
        };
        run(self, job, page, now, host)
    }

    /// Computes the ksm page checksum.
    fn checksum(&mut self, page: &[u8], now: Time, host: &mut Socket) -> OffloadOutcome<u32> {
        let job = Job::Checksum {
            page: page.len() as u64,
        };
        run(self, job, page_checksum(page), now, host)
    }

    /// Byte-compares two pages.
    fn compare(
        &mut self,
        a: &[u8],
        b: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<PageCompare> {
        let r = compare_pages(a, b);
        let job = Job::Compare {
            page: a.len() as u64,
            examined: r.bytes_examined(a.len()) as u64,
        };
        run(self, job, r, now, host)
    }
}

/// Charges `job` on `backend`, emits its offload steps and wraps `value`.
fn run<B: OffloadBackend + ?Sized, T>(
    backend: &mut B,
    job: Job,
    value: T,
    now: Time,
    host: &mut Socket,
) -> OffloadOutcome<T> {
    let cost = backend.cost(job, now, host);
    emit_offload_steps(backend.id(), offload_fn(job.function()), now, &cost);
    OffloadOutcome {
        value,
        completion: cost.completion,
        host_cpu: cost.host_cpu,
        breakdown: cost.breakdown,
    }
}

/// The trace identity of an accelerated function.
fn offload_fn(f: Function) -> OffloadFn {
    match f {
        Function::Compress => OffloadFn::Compress,
        Function::Decompress => OffloadFn::Decompress,
        Function::Checksum => OffloadFn::Checksum,
        Function::Compare => OffloadFn::Compare,
    }
}

/// Emits the five-step offload lifecycle (Table IV's ①②④⑤ plus the
/// completion) derived from an invocation's [`Cost`].
fn emit_offload_steps(backend: BackendId, func: OffloadFn, start: Time, cost: &Cost) {
    if !trace::is_active() {
        return;
    }
    let b = &cost.breakdown;
    let bytes = cost.traced_bytes;
    let t1 = start + b.dispatch;
    let t2 = t1 + b.transfer_in;
    let t3 = t2 + b.compute;
    trace::emit(
        start,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::Dispatch,
            bytes,
        },
    );
    trace::emit(
        t1,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::TransferIn,
            bytes,
        },
    );
    trace::emit(
        t2,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::Compute,
            bytes,
        },
    );
    trace::emit(
        t3,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::TransferOut,
            bytes,
        },
    );
    trace::emit(
        cost.completion,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::Complete,
            bytes,
        },
    );
}

// =====================================================================
// cpu-*: host-inline execution
// =====================================================================

/// The baseline: the host core runs the function inline, consuming host
/// CPU for the full duration and polluting the host cache.
#[derive(Debug, Clone, Default)]
pub struct CpuBackend;

impl CpuBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        CpuBackend
    }
}

impl OffloadBackend for CpuBackend {
    fn id(&self) -> BackendId {
        BackendId::Cpu
    }

    fn cost(&mut self, job: Job, now: Time, _host: &mut Socket) -> Cost {
        // Early exit: a compare touches only the examined prefix.
        let t = Engine::HostCpu.execution_time(job.function(), job.bytes());
        Cost {
            completion: now + t,
            host_cpu: t,
            breakdown: Breakdown {
                compute: t,
                total: t,
                ..Breakdown::default()
            },
            traced_bytes: job.bytes(),
        }
    }
}

// =====================================================================
// pcie-rdma-* and pcie-dma-*: store-and-forward over PCIe
// =====================================================================

/// The store-and-forward offload both PCIe backends share: ① dispatch,
/// ② the whole input crosses the link, ④ the device computes, ⑤ the
/// result crosses back and an interrupt completes it. Nothing pipelines.
#[derive(Debug, Clone)]
struct StoreAndForward {
    /// The device-side compute engine.
    engine: Engine,
    /// ① posting the descriptor or work request.
    dispatch: Duration,
    /// Software overhead added to every transfer.
    per_transfer: Duration,
    /// Completion-interrupt delay after the result lands.
    interrupt: Duration,
    /// Host CPU of an interrupt-completed page operation (zswap).
    interrupt_cpu: Duration,
    /// Host CPU of a polled short operation (the fine-grained ksm
    /// functions).
    polled_cpu: Duration,
}

impl StoreAndForward {
    fn cost(&self, job: Job, now: Time, mut transfer: impl FnMut(Time, u64) -> Time) -> Cost {
        let (in_bytes, out_bytes, host_cpu) = match job {
            Job::Compress { page, compressed } => (page, compressed, self.interrupt_cpu),
            Job::Decompress { compressed, page } => (compressed, page, self.interrupt_cpu),
            Job::Checksum { page } => (page, 8, self.polled_cpu),
            // Both pages must be transferred.
            Job::Compare { page, .. } => (2 * page, 8, self.polled_cpu),
        };
        let t0 = now + self.dispatch;
        let t_in_done = transfer(t0, in_bytes) + self.per_transfer;
        let compute = self.engine.execution_time(job.function(), in_bytes);
        let t_compute_done = t_in_done + compute;
        let t_out_done = transfer(t_compute_done, out_bytes) + self.per_transfer + self.interrupt;
        Cost {
            completion: t_out_done,
            host_cpu,
            breakdown: Breakdown {
                dispatch: self.dispatch,
                transfer_in: t_in_done.duration_since(t0),
                compute,
                transfer_out: t_out_done.duration_since(t_compute_done),
                total: t_out_done.duration_since(t0),
            },
            traced_bytes: in_bytes,
        }
    }
}

/// Kernel-space RDMA offload to the BF-3's Arm cores (the prior work the
/// paper reimplements). Store-and-forward: no pipelining; the host pays
/// verb posting and interrupt handling.
#[derive(Debug, Clone)]
pub struct PcieRdmaBackend {
    rdma: RdmaEngine,
    path: StoreAndForward,
}

impl PcieRdmaBackend {
    /// BF-3 defaults.
    pub fn bf3() -> Self {
        // Kernel verbs software overhead per transfer (the ~1300-LoC
        // kernel-space RDMA stack of §VII "coding complexity").
        let verbs = Duration::from_nanos(1_100);
        let post_cpu = Duration::from_nanos(350);
        let interrupt = Duration::from_nanos(900);
        PcieRdmaBackend {
            rdma: RdmaEngine::bf3(),
            path: StoreAndForward {
                engine: Engine::ArmCore,
                // Post the work request and ring the doorbell.
                dispatch: verbs + Duration::from_nanos(200),
                per_transfer: verbs,
                interrupt,
                interrupt_cpu: post_cpu + interrupt,
                // STYX polls completions for the ksm functions.
                polled_cpu: post_cpu + Duration::from_nanos(120),
            },
        }
    }
}

impl OffloadBackend for PcieRdmaBackend {
    fn id(&self) -> BackendId {
        BackendId::PcieRdma
    }

    fn cost(&mut self, job: Job, now: Time, _host: &mut Socket) -> Cost {
        let rdma = &mut self.rdma;
        self.path.cost(job, now, |t, bytes| rdma.transfer(t, bytes))
    }
}

/// DMA offload to the Agilex-7's FPGA IPs (the paper emulates this with
/// the CXL card after matching PCIe-DMA transfer times, §VII).
#[derive(Debug, Clone)]
pub struct PcieDmaBackend {
    dma: PcieDma,
    path: StoreAndForward,
}

impl PcieDmaBackend {
    /// Agilex-7 multi-channel DMA defaults.
    pub fn agilex7() -> Self {
        // Host CPU of descriptor setup per transfer.
        let setup_cpu = Duration::from_nanos(450);
        let interrupt = Duration::from_nanos(900);
        PcieDmaBackend {
            dma: PcieDma::agilex_mcdma(CompletionModel::Delivered),
            path: StoreAndForward {
                engine: Engine::FpgaIp,
                dispatch: Duration::from_nanos(350),
                per_transfer: Duration::ZERO,
                interrupt,
                interrupt_cpu: setup_cpu * 2 + interrupt,
                polled_cpu: setup_cpu + Duration::from_nanos(150),
            },
        }
    }
}

impl OffloadBackend for PcieDmaBackend {
    fn id(&self) -> BackendId {
        BackendId::PcieDma
    }

    fn cost(&mut self, job: Job, now: Time, _host: &mut Socket) -> Cost {
        let dma = &mut self.dma;
        self.path.cost(job, now, |t, bytes| dma.transfer(t, bytes))
    }
}

// =====================================================================
// cxl-*: the paper's CXL Type-2 offload (Fig. 7)
// =====================================================================

/// The CXL Type-2 offload: ld/st mailbox in device memory, D2H NC-read
/// page pulls, streaming FPGA compute pipelined with the transfers, and
/// zpool storage in device memory.
#[derive(Debug)]
pub struct CxlBackend {
    /// The device executing the offload.
    pub dev: CxlDevice,
    /// Host CPU cost of the nt-st mailbox write (①).
    mailbox_cpu: Duration,
    /// Host CPU cost of waking and resuming kswapd after completion.
    wakeup_cpu: Duration,
    /// Device polling-detection delay (CS-read loop on the mailbox).
    poll_detect: Duration,
    /// Bump allocators for modeled page addresses.
    next_host_line: u64,
    next_dev_line: u64,
}

impl CxlBackend {
    /// Creates the backend around a fresh Agilex-7 Type-2 device.
    pub fn agilex7() -> Self {
        CxlBackend::with_device(CxlDevice::agilex7())
    }

    /// Creates the backend around an existing device.
    pub fn with_device(dev: CxlDevice) -> Self {
        CxlBackend {
            dev,
            mailbox_cpu: Duration::from_nanos(80),
            wakeup_cpu: Duration::from_nanos(150),
            poll_detect: Duration::from_nanos(150),
            next_host_line: 1 << 20,
            next_dev_line: 1 << 20,
        }
    }

    fn alloc_host_lines(&mut self, lines: u64) -> mem_subsys::line::LineAddr {
        let a = host_line(self.next_host_line);
        self.next_host_line += lines;
        a
    }

    fn alloc_dev_lines(&mut self, lines: u64) -> mem_subsys::line::LineAddr {
        let a = device_line(self.next_dev_line);
        self.next_dev_line += lines;
        a
    }

    /// ① kswapd nt-st's the source/destination addresses into the shared
    /// device-memory mailbox; the device polls with D2D CS-reads. The
    /// stores are posted, so the host CPU pays only the issue cost, not
    /// the link traversal.
    fn dispatch(&mut self, now: Time, host: &mut Socket) -> (Time, Duration) {
        let mailbox = device_line(0);
        let t = self.dev.h2d_nt_store(mailbox, now, host).completion;
        let t = self.dev.h2d_nt_store(mailbox.offset(1), t, host).completion;
        let host_cpu = (host.timing.issue + host.timing.core_issue_interval) * 2;
        (t + self.poll_detect, host_cpu)
    }

    /// Measures ② as a D2H NC-read pull of `bytes` from host memory.
    fn pull_from_host(&mut self, bytes: u64, now: Time, host: &mut Socket) -> Duration {
        let base = self.alloc_host_lines(bytes.div_ceil(64).max(1));
        d2h_read_bytes(&mut self.dev, host, base, bytes, now).duration_since(now)
    }

    /// Measures a D2D transfer of `bytes` (zpool reads/writes).
    fn d2d_bytes(&mut self, bytes: u64, write: bool, now: Time, host: &mut Socket) -> Duration {
        use cxl_proto::request::RequestType;
        use host::burst::{burst_last_completion, BurstSpec};
        let lines = bytes.div_ceil(64).max(1);
        let base = self.alloc_dev_lines(lines);
        let spec = BurstSpec::from_port(lines as usize, &self.dev.lsu_port());
        let req = if write {
            RequestType::NC_WR
        } else {
            RequestType::CS_RD
        };
        burst_last_completion(spec, now, |i, t| {
            self.dev.d2d(req, base.offset(i as u64), t, host).completion
        })
        .duration_since(now)
    }

    /// Measures ⑤ for decompression: NC-P push of `bytes` into host LLC.
    fn push_to_host(&mut self, bytes: u64, now: Time, host: &mut Socket) -> Duration {
        let base = self.alloc_host_lines(bytes.div_ceil(64).max(1));
        d2h_push_bytes(&mut self.dev, host, base, bytes, now).duration_since(now)
    }
}

impl OffloadBackend for CxlBackend {
    fn id(&self) -> BackendId {
        BackendId::Cxl
    }

    fn zpool_in_device_memory(&self) -> bool {
        true
    }

    fn cost(&mut self, job: Job, now: Time, host: &mut Socket) -> Cost {
        let (t0, dispatch_cpu) = self.dispatch(now, host);
        let (transfer_in, transfer_out, traced_bytes) = match job {
            Job::Compress { page, compressed } => (
                // ② D2H NC-read of the page (lowest-latency D2H read for
                // 4 KiB).
                self.pull_from_host(page, t0, host),
                // ⑤ D2D NC-write of the compressed page into the
                // device-memory zpool + result size back to the mailbox.
                self.d2d_bytes(compressed + 64, true, t0, host),
                page,
            ),
            Job::Decompress { compressed, page } => (
                // ② D2D CS-read of the compressed page from zpool.
                self.d2d_bytes(compressed, false, t0, host),
                // ⑤ NC-P the decompressed page into host LLC (Insight 4).
                self.push_to_host(page, t0, host),
                compressed,
            ),
            // The 64 B result NC-Ps back.
            Job::Checksum { page } => (
                self.pull_from_host(page, t0, host),
                self.push_to_host(8, t0, host),
                page,
            ),
            // Early exit: only the examined prefixes transfer and compare.
            Job::Compare { examined, .. } => (
                self.pull_from_host(2 * examined, t0, host),
                self.push_to_host(8, t0, host),
                examined,
            ),
        };
        // ④ streaming FPGA compute.
        let compute = Engine::FpgaIp.execution_time(job.function(), job.bytes());
        let stages = [transfer_in, compute, transfer_out];
        let total = match job {
            // Checksum needs the whole page before it finishes, so ② and
            // ④ do not pipeline (§VI-B).
            Job::Checksum { .. } => transfer_in + compute + transfer_out,
            // The IPs stream in coarser chunks than single cache lines
            // (buffer turnaround), so pipelining overlap is partial.
            _ => pipeline_time(&stages, 16),
        };
        let host_cpu = match job {
            // Tree-walk comparisons chain device-side off one mailbox
            // write; the host is not woken per node.
            Job::Compare { .. } => Duration::from_nanos(100),
            _ => dispatch_cpu + self.mailbox_cpu + self.wakeup_cpu,
        };
        Cost {
            completion: t0 + total,
            host_cpu,
            breakdown: Breakdown {
                dispatch: t0.duration_since(now),
                transfer_in,
                compute,
                transfer_out,
                total,
            },
            traced_bytes,
        }
    }
}

impl OffloadBackend for Box<dyn OffloadBackend> {
    fn id(&self) -> BackendId {
        (**self).id()
    }

    fn zpool_in_device_memory(&self) -> bool {
        (**self).zpool_in_device_memory()
    }

    fn cost(&mut self, job: Job, now: Time, host: &mut Socket) -> Cost {
        (**self).cost(job, now, host)
    }
}
