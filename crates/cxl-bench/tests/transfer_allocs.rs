//! Pins the sized CXL transfers allocation-free once warm. The cxl-zswap
//! and cxl-ksm backends pull, push and zpool-write every 4 KiB page
//! through these helpers, so one heap allocation per call would be
//! hundreds of thousands per Fig. 8 cell. The counting allocator is
//! process-wide, so this check lives in an integration-test binary of
//! its own.

use cxl_bench::benchkit::allocs_in;
use cxl_type2::addr::host_line;
use cxl_type2::device::CxlDevice;
use cxl_type2::transfer::d2h_read_bytes;
use host::socket::Socket;
use sim_core::time::Time;

cxl_bench::counting_allocator!();

#[test]
fn warm_4k_d2h_reads_do_not_allocate() {
    let mut host = Socket::xeon_6538y();
    let mut dev = CxlDevice::agilex7();
    let mut now = Time::ZERO;
    let allocs = allocs_in(|| {
        for page in 0..1000 {
            now = d2h_read_bytes(&mut dev, &mut host, host_line(page * 64), 4096, now);
        }
    });
    assert_eq!(allocs, 0, "1000 warm 4 KiB D2H reads allocated");
}
