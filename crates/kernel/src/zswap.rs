//! zswap: the compressed RAM cache for swap (§VI-A).
//!
//! zswap intercepts pages on their way to the backing swap device,
//! compresses them, and keeps them in a dynamically allocated pool
//! (zpool). Loads that hit the zpool decompress instead of reading the
//! (much slower) swap device; when the pool exceeds its limit, the LRU
//! compressed page is decompressed and written back to the backing device.
//! Incompressible pages bypass the pool entirely.
//!
//! The compress/decompress data-plane functions execute on a pluggable
//! [`OffloadBackend`]; with [`CxlBackend`](crate::offload::CxlBackend) the
//! zpool lives in device memory — the memory-expansion trick PCIe devices
//! cannot offer (§VI-A).

use std::collections::{HashMap, VecDeque};

use accel::lz::CompressedPage;
use host::socket::Socket;
use sim_core::fault::Injector;
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, TraceEvent, ZswapStep};

use crate::offload::{CpuBackend, OffloadBackend};
use crate::page::{PageData, PAGE_SIZE};

/// A swap slot identifier (swap type + offset, flattened).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwapKey(pub u64);

impl SwapKey {
    /// A tenant-namespaced slot: the tenant index occupies the top 16
    /// bits, the slot the low 48. Serving fleets use this so tenants
    /// sharing one pooled zswap never collide on keys, and so the pool's
    /// residency can be reported per tenant
    /// ([`Zswap::pool_entries_by_tenant`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` overflows 48 bits.
    pub fn for_tenant(tenant: u16, slot: u64) -> SwapKey {
        assert!(slot < 1 << 48, "tenant slot overflows 48 bits: {slot}");
        SwapKey((u64::from(tenant) << 48) | slot)
    }

    /// The tenant index of a [`for_tenant`](Self::for_tenant) key.
    pub fn tenant(self) -> u16 {
        (self.0 >> 48) as u16
    }
}

/// The backing swap device (NVMe-class SSD).
#[derive(Debug, Clone)]
pub struct SwapDevice {
    read_latency: Duration,
    write_latency: Duration,
    bandwidth_gbps: f64,
    busy_until: Time,
}

impl SwapDevice {
    /// A datacenter NVMe SSD: ~80 µs reads, ~20 µs writes, ~3 GB/s.
    pub fn nvme() -> Self {
        SwapDevice {
            read_latency: Duration::from_micros(80),
            write_latency: Duration::from_micros(20),
            bandwidth_gbps: 3.0,
            busy_until: Time::ZERO,
        }
    }

    fn transfer(&mut self, now: Time, bytes: u64, fixed: Duration) -> Time {
        let start = self.busy_until.max(now);
        let done = start + fixed + Duration::from_ns_f64(bytes as f64 / self.bandwidth_gbps);
        self.busy_until = done;
        done
    }

    /// Reads `bytes`; returns completion.
    pub fn read(&mut self, now: Time, bytes: u64) -> Time {
        self.transfer(now, bytes, self.read_latency)
    }

    /// Writes `bytes`; returns completion.
    pub fn write(&mut self, now: Time, bytes: u64) -> Time {
        self.transfer(now, bytes, self.write_latency)
    }
}

/// zswap configuration.
#[derive(Debug, Clone)]
pub struct ZswapConfig {
    /// Maximum zpool footprint in bytes (the `max_pool_percent` limit
    /// applied to system memory).
    pub max_pool_bytes: u64,
    /// Pages whose compressed size exceeds this fraction of a page are
    /// rejected from the pool and written straight to the swap device.
    pub accept_threshold: f64,
    /// Detect pages filled with a repeating machine word and store only
    /// the 8-byte pattern (the kernel's `same_filled_pages_enabled`).
    pub same_filled_enabled: bool,
}

impl ZswapConfig {
    /// The kernel default: pool capped at 20% of `total_memory_bytes`,
    /// rejecting pages that do not shrink, same-filled detection on.
    pub fn kernel_default(total_memory_bytes: u64) -> Self {
        ZswapConfig {
            max_pool_bytes: total_memory_bytes / 5,
            accept_threshold: 1.0,
            same_filled_enabled: true,
        }
    }
}

/// Returns the repeating 8-byte word if the page is same-filled.
fn same_filled_pattern(page: &[u8]) -> Option<u64> {
    let first = u64::from_le_bytes(page[..8].try_into().expect("page >= 8 bytes"));
    page.chunks_exact(8)
        .all(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")) == first)
        .then_some(first)
}

/// zswap event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZswapStats {
    /// Pages stored into the zpool.
    pub stored: u64,
    /// Pages detected as same-filled and stored as an 8-byte pattern.
    pub same_filled: u64,
    /// Loads served from the zpool (fast path).
    pub pool_hits: u64,
    /// Loads that had to read the backing device.
    pub disk_loads: u64,
    /// LRU pages written back to the backing device to make room.
    pub writebacks: u64,
    /// Pages rejected as incompressible.
    pub rejected_incompressible: u64,
    /// Peak zpool footprint in bytes.
    pub pool_bytes_peak: u64,
    /// Stores whose offload failed/timed out and fell back to the host
    /// CPU path (degraded mode).
    pub store_fallbacks: u64,
    /// Pool loads whose device response surfaced poison; the page was
    /// recovered by host-path decompression.
    pub poisoned_loads: u64,
}

/// Outcome of a zswap operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZswapOp {
    /// When the operation completed.
    pub completion: Time,
    /// Host CPU time it consumed.
    pub host_cpu: Duration,
    /// True if the fast path (zpool) served it.
    pub hit_pool: bool,
}

#[derive(Debug, Clone)]
enum StoredPage {
    Compressed(CompressedPage),
    /// A same-filled page: only the repeating word is kept.
    SameFilled {
        pattern: u64,
        len: usize,
    },
}

#[derive(Debug, Clone)]
struct ZswapEntry {
    page: StoredPage,
    footprint: u64,
}

/// The zswap frontswap cache over a pluggable offload backend.
///
/// # Examples
///
/// ```
/// use host::socket::Socket;
/// use kernel::offload::CpuBackend;
/// use kernel::zswap::{SwapKey, Zswap, ZswapConfig};
/// use sim_core::time::Time;
///
/// let mut host = Socket::xeon_6538y();
/// let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
/// let page = vec![0u8; 4096];
/// z.store(SwapKey(1), &page, Time::ZERO, &mut host);
/// let (data, op) = z.load(SwapKey(1), Time::from_nanos(1_000_000), &mut host).unwrap();
/// assert_eq!(data, page);
/// assert!(op.hit_pool);
/// ```
#[derive(Debug)]
pub struct Zswap<B> {
    config: ZswapConfig,
    backend: B,
    entries: HashMap<SwapKey, ZswapEntry>,
    lru: VecDeque<SwapKey>,
    pool_bytes: u64,
    swap_dev: SwapDevice,
    disk: HashMap<SwapKey, PageData>,
    stats: ZswapStats,
    /// Offload-fault source (point `"zswap.offload"`); inert by default,
    /// so fault-off runs never draw from it.
    injector: Injector,
    /// The degraded-mode path: when the offload fails, the kernel runs
    /// the data-plane function on the host CPU instead.
    fallback: CpuBackend,
}

impl<B: OffloadBackend> Zswap<B> {
    /// Creates a zswap instance.
    pub fn new(config: ZswapConfig, backend: B) -> Self {
        Zswap {
            config,
            backend,
            entries: HashMap::new(),
            lru: VecDeque::new(),
            pool_bytes: 0,
            swap_dev: SwapDevice::nvme(),
            disk: HashMap::new(),
            stats: ZswapStats::default(),
            injector: Injector::none("zswap.offload"),
            fallback: CpuBackend::new(),
        }
    }

    /// Attaches an offload fault injector (builder-style). Bind a
    /// [`Stall`](sim_core::fault::FaultProcess::Stall) process to model
    /// offload descriptors timing out (stores fall back to the host
    /// path) and a [`Poison`](sim_core::fault::FaultProcess::Poison)
    /// process to model device responses surfacing poison on loads.
    pub fn with_injector(mut self, injector: Injector) -> Self {
        self.injector = injector;
        self
    }

    /// Event counters.
    pub fn stats(&self) -> ZswapStats {
        self.stats
    }

    /// Current zpool footprint in bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.pool_bytes
    }

    /// Number of compressed pages resident in the zpool.
    pub fn pool_entries(&self) -> usize {
        self.entries.len()
    }

    /// Resident pool entries per tenant, for keys minted with
    /// [`SwapKey::for_tenant`]. The pool's LRU is *shared*: a tenant
    /// flooding stores evicts its neighbours' compressed pages, and this
    /// breakdown is how a serving fleet observes that pressure (keys not
    /// namespaced land on tenant 0).
    pub fn pool_entries_by_tenant(&self, tenants: usize) -> Vec<usize> {
        let mut counts = vec![0usize; tenants];
        for key in self.entries.keys() {
            let t = usize::from(key.tenant());
            if t < tenants {
                counts[t] += 1;
            }
        }
        counts
    }

    /// Total zpool capacity: the configured `max_pool_bytes` budget.
    pub fn pool_capacity_bytes(&self) -> u64 {
        self.config.max_pool_bytes
    }

    /// Access to the backend (e.g. to inspect the CXL device).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    fn footprint(len: usize) -> u64 {
        // zsmalloc-style size-class rounding to 64 B granules.
        (len as u64).div_ceil(64) * 64
    }

    /// Evicts LRU entries until `needed` bytes fit, decompressing each and
    /// writing it to the backing device (the zswap writeback path).
    fn make_room(&mut self, needed: u64, mut now: Time, host: &mut Socket) -> (Time, Duration) {
        let mut cpu = Duration::ZERO;
        while self.pool_bytes + needed > self.pool_capacity_bytes() {
            let Some(victim_key) = self.lru.pop_front() else {
                break;
            };
            let Some(entry) = self.entries.remove(&victim_key) else {
                continue;
            };
            self.pool_bytes -= entry.footprint;
            let (page, ready) = match entry.page {
                StoredPage::Compressed(cp) => {
                    let out = self.backend.decompress(&cp, now, host);
                    cpu += out.host_cpu;
                    (out.value, out.completion)
                }
                StoredPage::SameFilled { pattern, len } => (expand_pattern(pattern, len), now),
            };
            let done = self.swap_dev.write(ready, page.len() as u64);
            trace::emit(
                done,
                TraceEvent::Zswap {
                    step: ZswapStep::WritebackEvict,
                    key: victim_key.0,
                    bytes: page.len() as u64,
                },
            );
            self.disk.insert(victim_key, page);
            self.stats.writebacks += 1;
            now = done;
        }
        (now, cpu)
    }

    /// Stores a page being swapped out.
    ///
    /// Compressible pages enter the zpool (evicting LRU entries to the
    /// backing device if needed); incompressible pages go straight to the
    /// backing device.
    pub fn store(&mut self, key: SwapKey, page: &[u8], now: Time, host: &mut Socket) -> ZswapOp {
        assert_eq!(page.len(), PAGE_SIZE, "zswap stores whole pages");
        trace::emit(
            now,
            TraceEvent::Zswap {
                step: ZswapStep::StoreBegin,
                key: key.0,
                bytes: page.len() as u64,
            },
        );
        // Re-storing a key replaces any previous copy (pool or disk);
        // without this, the old pool footprint would leak and a stale
        // entry could shadow the new one.
        self.invalidate(key);
        if self.config.same_filled_enabled {
            if let Some(pattern) = same_filled_pattern(page) {
                // No compression needed: store the 8-byte pattern. The
                // check itself is a fast host-side scan.
                let footprint = 64; // one zsmalloc granule
                let (t, evict_cpu) = self.make_room(footprint, now, host);
                self.pool_bytes += footprint;
                self.stats.pool_bytes_peak = self.stats.pool_bytes_peak.max(self.pool_bytes);
                self.entries.insert(
                    key,
                    ZswapEntry {
                        page: StoredPage::SameFilled {
                            pattern,
                            len: page.len(),
                        },
                        footprint,
                    },
                );
                self.lru.push_back(key);
                self.stats.stored += 1;
                self.stats.same_filled += 1;
                trace::emit(
                    t,
                    TraceEvent::Zswap {
                        step: ZswapStep::StoreSameFilled,
                        key: key.0,
                        bytes: footprint,
                    },
                );
                return ZswapOp {
                    completion: t + Duration::from_nanos(350),
                    host_cpu: evict_cpu + Duration::from_nanos(350),
                    hit_pool: true,
                };
            }
        }
        // Degraded mode: a stall fault is the offload descriptor dying
        // (no completion record inside the kernel's wait); after waiting
        // it out, compression re-runs on the host CPU path.
        let out = match self.injector.stall(now) {
            Some(waited) => {
                self.stats.store_fallbacks += 1;
                trace::emit(
                    now + waited,
                    TraceEvent::Zswap {
                        step: ZswapStep::StoreFallbackHost,
                        key: key.0,
                        bytes: page.len() as u64,
                    },
                );
                self.fallback.compress(page, now + waited, host)
            }
            None => self.backend.compress(page, now, host),
        };
        let cp = out.value;
        let mut cpu = out.host_cpu;
        if cp.compressed_len() as f64 >= self.config.accept_threshold * PAGE_SIZE as f64 {
            // Reject: write the raw page to the backing device.
            self.stats.rejected_incompressible += 1;
            trace::emit(
                out.completion,
                TraceEvent::Zswap {
                    step: ZswapStep::StoreRejected,
                    key: key.0,
                    bytes: PAGE_SIZE as u64,
                },
            );
            let done = self.swap_dev.write(out.completion, PAGE_SIZE as u64);
            self.disk.insert(key, page.to_vec());
            // The host CPU issues the block-IO submission.
            cpu += Duration::from_nanos(800);
            return ZswapOp {
                completion: done,
                host_cpu: cpu,
                hit_pool: false,
            };
        }
        let footprint = Self::footprint(cp.compressed_len());
        let (t, evict_cpu) = self.make_room(footprint, out.completion, host);
        cpu += evict_cpu;
        self.pool_bytes += footprint;
        self.stats.pool_bytes_peak = self.stats.pool_bytes_peak.max(self.pool_bytes);
        self.entries.insert(
            key,
            ZswapEntry {
                page: StoredPage::Compressed(cp),
                footprint,
            },
        );
        self.lru.push_back(key);
        self.stats.stored += 1;
        trace::emit(
            t,
            TraceEvent::Zswap {
                step: ZswapStep::StorePooled,
                key: key.0,
                bytes: footprint,
            },
        );
        ZswapOp {
            completion: t,
            host_cpu: cpu,
            hit_pool: true,
        }
    }

    /// Loads a page on swap-in (page fault). Returns the page and the
    /// operation outcome, or `None` if the key was never stored.
    pub fn load(
        &mut self,
        key: SwapKey,
        now: Time,
        host: &mut Socket,
    ) -> Option<(PageData, ZswapOp)> {
        if let Some(entry) = self.entries.remove(&key) {
            self.pool_bytes -= entry.footprint;
            self.lru.retain(|&k| k != key);
            self.stats.pool_hits += 1;
            return Some(match entry.page {
                StoredPage::Compressed(cp) => {
                    trace::emit(
                        now,
                        TraceEvent::Zswap {
                            step: ZswapStep::LoadPoolHit,
                            key: key.0,
                            bytes: cp.compressed_len() as u64,
                        },
                    );
                    let out = self.backend.decompress(&cp, now, host);
                    let (value, completion, host_cpu) = if self.injector.poison_line(now) {
                        // The offload response carried the poison bit:
                        // discard it and recover by decompressing the
                        // intact zpool copy on the host CPU.
                        self.stats.poisoned_loads += 1;
                        trace::emit(
                            out.completion,
                            TraceEvent::Zswap {
                                step: ZswapStep::LoadPoisoned,
                                key: key.0,
                                bytes: cp.compressed_len() as u64,
                            },
                        );
                        let retry = self.fallback.decompress(&cp, out.completion, host);
                        (retry.value, retry.completion, out.host_cpu + retry.host_cpu)
                    } else {
                        (out.value, out.completion, out.host_cpu)
                    };
                    (
                        value,
                        ZswapOp {
                            completion,
                            host_cpu,
                            hit_pool: true,
                        },
                    )
                }
                StoredPage::SameFilled { pattern, len } => {
                    trace::emit(
                        now,
                        TraceEvent::Zswap {
                            step: ZswapStep::LoadSameFilled,
                            key: key.0,
                            bytes: len as u64,
                        },
                    );
                    // Reconstructing from the pattern is a fast memset.
                    let cost = Duration::from_nanos(450);
                    (
                        expand_pattern(pattern, len),
                        ZswapOp {
                            completion: now + cost,
                            host_cpu: cost,
                            hit_pool: true,
                        },
                    )
                }
            });
        }
        if let Some(page) = self.disk.remove(&key) {
            trace::emit(
                now,
                TraceEvent::Zswap {
                    step: ZswapStep::LoadDisk,
                    key: key.0,
                    bytes: PAGE_SIZE as u64,
                },
            );
            let done = self.swap_dev.read(now, PAGE_SIZE as u64);
            self.stats.disk_loads += 1;
            return Some((
                page,
                ZswapOp {
                    completion: done,
                    // Block-IO submission + softirq completion handling.
                    host_cpu: Duration::from_nanos(2_500),
                    hit_pool: false,
                },
            ));
        }
        None
    }

    /// Drops a swapped page that is no longer needed (process exit).
    pub fn invalidate(&mut self, key: SwapKey) {
        if let Some(e) = self.entries.remove(&key) {
            self.pool_bytes -= e.footprint;
            self.lru.retain(|&k| k != key);
            trace::emit(
                Time::ZERO,
                TraceEvent::Zswap {
                    step: ZswapStep::Invalidate,
                    key: key.0,
                    bytes: e.footprint,
                },
            );
        }
        self.disk.remove(&key);
    }
}

fn expand_pattern(pattern: u64, len: usize) -> PageData {
    let mut page = Vec::with_capacity(len);
    while page.len() < len {
        page.extend_from_slice(&pattern.to_le_bytes());
    }
    page.truncate(len);
    page
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{CpuBackend, CxlBackend};
    use crate::page::{PageContent, PageMix};
    use sim_core::rng::SimRng;

    fn host() -> Socket {
        Socket::xeon_6538y()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let mut h = host();
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        let mut rng = SimRng::seed_from(1);
        let page = PageContent::Text.generate(&mut rng);
        let st = z.store(SwapKey(1), &page, Time::ZERO, &mut h);
        assert!(st.hit_pool);
        let (data, op) = z.load(SwapKey(1), st.completion, &mut h).unwrap();
        assert_eq!(data, page);
        assert!(op.hit_pool);
        assert_eq!(z.stats().pool_hits, 1);
        assert_eq!(z.pool_entries(), 0, "load removes the entry");
    }

    #[test]
    fn tenant_keys_namespace_and_report_independently() {
        assert_eq!(SwapKey::for_tenant(3, 42).tenant(), 3);
        assert_ne!(SwapKey::for_tenant(0, 42), SwapKey::for_tenant(1, 42));
        assert_eq!(SwapKey::for_tenant(0, 42), SwapKey(42));
    }

    #[test]
    fn antagonist_pressure_evicts_victim_from_shared_pool() {
        // A small shared pool: the victim parks a working set, then an
        // antagonist tenant floods stores. The LRU is pool-wide, so the
        // victim's compressed pages get written back to disk.
        let mut h = host();
        let mut z = Zswap::new(
            ZswapConfig {
                max_pool_bytes: 64 << 10,
                ..ZswapConfig::kernel_default(64 << 20)
            },
            CpuBackend::new(),
        );
        let mut rng = SimRng::seed_from(9);
        let mut now = Time::ZERO;
        for slot in 0..48 {
            let page = PageContent::Text.generate(&mut rng);
            now = z
                .store(SwapKey::for_tenant(0, slot), &page, now, &mut h)
                .completion;
        }
        let before = z.pool_entries_by_tenant(2);
        assert!(before[0] > 0, "victim resident before pressure");
        for slot in 0..512 {
            let page = PageContent::Text.generate(&mut rng);
            now = z
                .store(SwapKey::for_tenant(1, slot), &page, now, &mut h)
                .completion;
        }
        let after = z.pool_entries_by_tenant(2);
        assert!(
            after[0] < before[0],
            "antagonist stores must steal victim residency ({} -> {})",
            before[0],
            after[0]
        );
        assert!(after[1] > 0);
        assert!(z.stats().writebacks > 0, "evictions are disk writebacks");
        assert_eq!(after[0] + after[1], z.pool_entries());
    }

    #[test]
    fn incompressible_pages_bypass_the_pool() {
        let mut h = host();
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        let mut rng = SimRng::seed_from(2);
        let page = PageContent::Random.generate(&mut rng);
        let st = z.store(SwapKey(2), &page, Time::ZERO, &mut h);
        assert!(!st.hit_pool);
        assert_eq!(z.stats().rejected_incompressible, 1);
        assert_eq!(z.pool_entries(), 0);
        let (data, op) = z.load(SwapKey(2), st.completion, &mut h).unwrap();
        assert_eq!(data, page);
        assert!(!op.hit_pool, "served from disk");
        assert_eq!(z.stats().disk_loads, 1);
    }

    #[test]
    fn pool_limit_triggers_writeback() {
        let mut h = host();
        // Tiny pool: fits ~2 compressed text pages.
        let cfg = ZswapConfig {
            max_pool_bytes: 2048,
            accept_threshold: 1.0,
            same_filled_enabled: true,
        };
        let mut z = Zswap::new(cfg, CpuBackend::new());
        let mut rng = SimRng::seed_from(3);
        let mut t = Time::ZERO;
        for i in 0..20 {
            let page = PageContent::Text.generate(&mut rng);
            let op = z.store(SwapKey(i), &page, t, &mut h);
            t = op.completion;
        }
        assert!(z.stats().writebacks > 0, "LRU pages written back");
        assert!(z.pool_bytes() <= 2048, "pool limit respected");
        // The earliest key should have been written back to disk, and
        // still be loadable from there.
        let (_, op) = z.load(SwapKey(0), t, &mut h).unwrap();
        assert!(!op.hit_pool);
    }

    #[test]
    fn lru_order_is_eviction_order() {
        let mut h = host();
        let cfg = ZswapConfig {
            max_pool_bytes: 4096,
            accept_threshold: 1.0,
            same_filled_enabled: true,
        };
        let mut z = Zswap::new(cfg, CpuBackend::new());
        let mut rng = SimRng::seed_from(4);
        let pages: Vec<_> = (0..12)
            .map(|_| PageContent::Binary.generate(&mut rng))
            .collect();
        let mut t = Time::ZERO;
        for (i, p) in pages.iter().enumerate() {
            t = z.store(SwapKey(i as u64), p, t, &mut h).completion;
        }
        if z.stats().writebacks > 0 {
            // Keys evicted must be a prefix of insertion order.
            let first_resident = (0..12)
                .find(|i| z.entries.contains_key(&SwapKey(*i as u64)))
                .unwrap();
            for i in 0..first_resident {
                assert!(
                    !z.entries.contains_key(&SwapKey(i as u64)),
                    "key {i} evicted"
                );
            }
        }
    }

    #[test]
    fn invalidate_frees_space() {
        let mut h = host();
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        let mut rng = SimRng::seed_from(5);
        let page = PageContent::Text.generate(&mut rng);
        z.store(SwapKey(9), &page, Time::ZERO, &mut h);
        assert!(z.pool_bytes() > 0);
        z.invalidate(SwapKey(9));
        assert_eq!(z.pool_bytes(), 0);
        assert!(z.load(SwapKey(9), Time::ZERO, &mut h).is_none());
    }

    #[test]
    fn cxl_backend_roundtrips_and_uses_less_host_cpu() {
        let mut h1 = host();
        let mut h2 = host();
        let mut cpu = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        let mut cxl = Zswap::new(ZswapConfig::kernel_default(64 << 20), CxlBackend::agilex7());
        let mut rng = SimRng::seed_from(6);
        let mix = PageMix::datacenter();
        let mut cpu_time = Duration::ZERO;
        let mut cxl_time = Duration::ZERO;
        let mut t1 = Time::ZERO;
        let mut t2 = Time::ZERO;
        for i in 0..10 {
            let page = mix.sample(&mut rng).generate(&mut rng);
            let a = cpu.store(SwapKey(i), &page, t1, &mut h1);
            let b = cxl.store(SwapKey(i), &page, t2, &mut h2);
            cpu_time += a.host_cpu;
            cxl_time += b.host_cpu;
            t1 = a.completion;
            t2 = b.completion;
            let (pa, _) = cpu.load(SwapKey(i), t1, &mut h1).unwrap();
            let (pb, _) = cxl.load(SwapKey(i), t2, &mut h2).unwrap();
            assert_eq!(pa, page);
            assert_eq!(pb, page);
        }
        assert!(
            cxl_time.as_nanos_f64() < 0.5 * cpu_time.as_nanos_f64(),
            "cxl host CPU {cxl_time} far below cpu backend {cpu_time}"
        );
    }

    #[test]
    fn single_device_pool_accounting_matches_total() {
        let mut h = host();
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        let mut rng = SimRng::seed_from(8);
        let page = PageContent::Text.generate(&mut rng);
        z.store(SwapKey(1), &page, Time::ZERO, &mut h);
        let resident: u64 = z.entries.values().map(|e| e.footprint).sum();
        assert_eq!(resident, z.pool_bytes());
        assert_eq!(
            z.pool_capacity_bytes(),
            ZswapConfig::kernel_default(64 << 20).max_pool_bytes
        );
    }

    #[test]
    fn same_filled_pages_store_as_pattern() {
        let mut h = host();
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        // Zero page and a non-zero repeated word.
        let zero = vec![0u8; PAGE_SIZE];
        let mut patterned = Vec::with_capacity(PAGE_SIZE);
        for _ in 0..PAGE_SIZE / 8 {
            patterned.extend_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        }
        let t = z.store(SwapKey(1), &zero, Time::ZERO, &mut h).completion;
        let t = z.store(SwapKey(2), &patterned, t, &mut h).completion;
        assert_eq!(z.stats().same_filled, 2);
        assert_eq!(z.pool_bytes(), 128, "two 64-byte granules");
        let (a, op) = z.load(SwapKey(1), t, &mut h).unwrap();
        assert_eq!(a, zero);
        assert!(op.hit_pool);
        let (b, _) = z.load(SwapKey(2), op.completion, &mut h).unwrap();
        assert_eq!(b, patterned);
    }

    #[test]
    fn same_filled_disabled_goes_through_compressor() {
        let mut h = host();
        let cfg = ZswapConfig {
            same_filled_enabled: false,
            ..ZswapConfig::kernel_default(64 << 20)
        };
        let mut z = Zswap::new(cfg, CpuBackend::new());
        let zero = vec![0u8; PAGE_SIZE];
        z.store(SwapKey(1), &zero, Time::ZERO, &mut h);
        assert_eq!(z.stats().same_filled, 0);
        assert_eq!(z.stats().stored, 1);
    }

    #[test]
    fn stall_faults_fall_back_to_host_store_path() {
        use sim_core::fault::{FaultPlan, FaultProcess};
        let mut h = host();
        let plan = FaultPlan::new(17).with(
            "zswap.offload",
            FaultProcess::stall(1.0, Duration::from_micros(20)),
        );
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CxlBackend::agilex7())
            .with_injector(plan.injector("zswap.offload"));
        let mut rng = SimRng::seed_from(7);
        let page = PageContent::Text.generate(&mut rng);
        let st = z.store(SwapKey(1), &page, Time::ZERO, &mut h);
        assert_eq!(z.stats().store_fallbacks, 1);
        // The kernel waited out the 20 µs descriptor timeout first.
        assert!(st.completion > Time::ZERO + Duration::from_micros(20));
        // Data is intact via the host path.
        let (data, _) = z.load(SwapKey(1), st.completion, &mut h).unwrap();
        assert_eq!(data, page);
    }

    #[test]
    fn poisoned_loads_recover_on_the_host_path() {
        use sim_core::fault::{FaultPlan, FaultProcess};
        let mut h = host();
        let plan = FaultPlan::new(29).with("zswap.offload", FaultProcess::poison(1.0));
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CxlBackend::agilex7())
            .with_injector(plan.injector("zswap.offload"));
        let mut rng = SimRng::seed_from(8);
        let page = PageContent::Binary.generate(&mut rng);
        let st = z.store(SwapKey(2), &page, Time::ZERO, &mut h);

        // Reference run without faults: the recovery retry must cost
        // strictly more than the clean device decompress.
        let mut h2 = host();
        let mut clean = Zswap::new(ZswapConfig::kernel_default(64 << 20), CxlBackend::agilex7());
        let st2 = clean.store(SwapKey(2), &page, Time::ZERO, &mut h2);
        let (_, clean_op) = clean.load(SwapKey(2), st2.completion, &mut h2).unwrap();

        let (data, op) = z.load(SwapKey(2), st.completion, &mut h).unwrap();
        assert_eq!(data, page, "host path recovers the exact page");
        assert_eq!(z.stats().poisoned_loads, 1);
        assert!(op.hit_pool);
        assert!(
            op.completion.duration_since(st.completion)
                > clean_op.completion.duration_since(st2.completion),
            "poison recovery costs more than a clean load"
        );
        assert!(op.host_cpu > clean_op.host_cpu);
    }

    #[test]
    fn inert_injector_changes_nothing() {
        // Two identical runs, one built with an explicit inert injector:
        // every completion and counter must match exactly.
        let mut h1 = host();
        let mut h2 = host();
        let mut a = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        let mut b = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new())
            .with_injector(sim_core::fault::FaultPlan::disabled().injector("zswap.offload"));
        let mut rng = SimRng::seed_from(9);
        let mix = PageMix::datacenter();
        let mut t1 = Time::ZERO;
        let mut t2 = Time::ZERO;
        for i in 0..8 {
            let page = mix.sample(&mut rng).generate(&mut rng);
            let x = a.store(SwapKey(i), &page, t1, &mut h1);
            let y = b.store(SwapKey(i), &page, t2, &mut h2);
            assert_eq!(x, y);
            t1 = x.completion;
            t2 = y.completion;
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.stats().store_fallbacks, 0);
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn partial_pages_rejected() {
        let mut h = host();
        let mut z = Zswap::new(ZswapConfig::kernel_default(64 << 20), CpuBackend::new());
        z.store(SwapKey(1), &[0u8; 100], Time::ZERO, &mut h);
    }
}
