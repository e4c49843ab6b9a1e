//! Golden-trace conformance: the exact protocol event sequences of the
//! 18 Table III coherence cases, the Fig. 7 cxl-zswap offload and the 16
//! offload backend × function cases are compared, event by event, against
//! checked-in fixtures under `tests/golden/`.
//!
//! Comparison is *structural*: timestamps and sequence numbers are
//! stripped (via [`sim_core::trace::protocol_of`]) so timing-model tuning
//! does not churn the fixtures, but any change to what protocol actions
//! happen — an extra snoop, a missing writeback, a different MESI
//! transition — fails with a report pinpointing the first divergence.
//!
//! To regenerate after an *intended* protocol change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```

use cxl_bench::golden;
use cxl_bench::tables::TABLE3_CASES;
use cxl_proto::request::RequestType;
use sim_core::trace::{self, TimedEvent};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn regenerating() -> bool {
    std::env::var_os("REGEN_GOLDEN").is_some()
}

/// Compares `actual` against the fixture `name`, returning a human
/// mismatch report (or `None` on conformance). In regeneration mode the
/// fixture is rewritten instead and the comparison always passes.
fn conformance_report(name: &str, actual: &[TimedEvent]) -> Option<String> {
    let path = fixture_path(name);
    if regenerating() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, trace::to_jsonl(actual)).expect("write fixture");
        return None;
    }
    let raw = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            return Some(format!(
                "missing fixture {} ({e}); run `REGEN_GOLDEN=1 cargo test --test golden_trace`",
                path.display()
            ))
        }
    };
    let expected = match trace::from_jsonl(&raw) {
        Ok(ev) => ev,
        Err(e) => return Some(format!("fixture {} unparsable: {e}", path.display())),
    };
    let want = trace::protocol_of(&expected);
    let got = trace::protocol_of(actual);
    if want == got {
        return None;
    }
    let mut report = format!(
        "golden trace mismatch for {name}: expected {} events, got {}\n",
        want.len(),
        got.len()
    );
    let diverge = want
        .iter()
        .zip(got.iter())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.len().min(got.len()));
    let _ = writeln!(report, "  first divergence at event {diverge}:");
    let _ = writeln!(
        report,
        "    expected: {}",
        want.get(diverge)
            .map_or_else(|| "<end of fixture>".into(), |e| format!("{e:?}"))
    );
    let _ = writeln!(
        report,
        "    actual:   {}",
        got.get(diverge)
            .map_or_else(|| "<end of trace>".into(), |e| format!("{e:?}"))
    );
    let _ = writeln!(
        report,
        "  (if this protocol change is intended: REGEN_GOLDEN=1 cargo test --test golden_trace)"
    );
    Some(report)
}

#[test]
fn table3_all_18_cases_conform() {
    let mut failures = String::new();
    let mut checked = 0;
    for (req, case, events) in golden::table3_traces() {
        assert!(!events.is_empty(), "{req} / {case} emitted no events");
        let name = format!("table3/{}.jsonl", golden::case_slug(req, case));
        if let Some(report) = conformance_report(&name, &events) {
            let _ = writeln!(failures, "{report}");
        }
        checked += 1;
    }
    assert_eq!(checked, 18, "Table III is 6 request types x 3 cases");
    assert!(failures.is_empty(), "\n{failures}");
}

#[test]
fn fig7_cxl_zswap_offload_conforms() {
    let events = golden::fig7_cxl_zswap_trace(11);
    assert!(!events.is_empty(), "fig7 offload emitted no events");
    if let Some(report) = conformance_report("fig7_cxl_zswap_4k.jsonl", &events) {
        panic!("\n{report}");
    }
}

/// Each call of the 16 offload cases (`backend_function #call`): its
/// value, completion, host CPU and Table IV breakdown, in picoseconds.
/// The fixtures strip timestamps, so this table is what pins the timing.
const PINNED_OFFLOAD_CALLS: &str = "\
cpu_compress #0: len=419 xxh64=8755365a132acf0f completion=3985714 host_cpu=2985714 breakdown=0/0/2985714/0/2985714
cpu_compress #1: len=21 xxh64=4fe146fe88727ed2 completion=6971428 host_cpu=2985714 breakdown=0/0/2985714/0/2985714
cpu_compress #2: len=4114 xxh64=ca23985bbfc8f303 completion=9957142 host_cpu=2985714 breakdown=0/0/2985714/0/2985714
cpu_decompress #0: len=4096 xxh64=ab4522876de0be6b completion=2264706 host_cpu=1264706 breakdown=0/0/1264706/0/1264706
cpu_decompress #1: len=4096 xxh64=ac869b6f32d8bbdb completion=3529412 host_cpu=1264706 breakdown=0/0/1264706/0/1264706
cpu_decompress #2: len=4096 xxh64=8f70946d6fe133ed completion=4794118 host_cpu=1264706 breakdown=0/0/1264706/0/1264706
cpu_checksum #0: c48f2b5e completion=1970222 host_cpu=970222 breakdown=0/0/970222/0/970222
cpu_checksum #1: 475546f5 completion=2940444 host_cpu=970222 breakdown=0/0/970222/0/970222
cpu_checksum #2: db0c5fed completion=3910666 host_cpu=970222 breakdown=0/0/970222/0/970222
cpu_compare #0: Identical completion=1742667 host_cpu=742667 breakdown=0/0/742667/0/742667
cpu_compare #1: DiffersAt { index: 2048, ordering: Greater } completion=2144167 host_cpu=401500 breakdown=0/0/401500/0/401500
pcie-rdma_compress #0: len=419 xxh64=8755365a132acf0f completion=10446208 host_cpu=1250000 breakdown=1300000/1902400/3533333/2710475/8146208
pcie-rdma_compress #1: len=21 xxh64=4fe146fe88727ed2 completion=19882466 host_cpu=1250000 breakdown=1300000/1902400/3533333/2700525/8136258
pcie-rdma_compress #2: len=4114 xxh64=ca23985bbfc8f303 completion=29421049 host_cpu=1250000 breakdown=1300000/1902400/3533333/2802850/8238583
pcie-rdma_decompress #0: len=4096 xxh64=ab4522876de0be6b completion=7294750 host_cpu=1250000 breakdown=1300000/1810475/381875/2802400/4994750
pcie-rdma_decompress #1: len=4096 xxh64=ac869b6f32d8bbdb completion=13330800 host_cpu=1250000 breakdown=1300000/1800525/133125/2802400/4736050
pcie-rdma_decompress #2: len=4096 xxh64=8f70946d6fe133ed completion=22027300 host_cpu=1250000 breakdown=1300000/1902850/2691250/2802400/7396500
pcie-rdma_checksum #0: c48f2b5e completion=9070600 host_cpu=470000 breakdown=1300000/1902400/2168000/2700200/6770600
pcie-rdma_checksum #1: 475546f5 completion=17141200 host_cpu=470000 breakdown=1300000/1902400/2168000/2700200/6770600
pcie-rdma_checksum #2: db0c5fed completion=25211800 host_cpu=470000 breakdown=1300000/1902400/2168000/2700200/6770600
pcie-rdma_compare #0: Identical completion=10275769 host_cpu=470000 breakdown=1300000/2004800/3270769/2700200/7975769
pcie-rdma_compare #1: DiffersAt { index: 2048, ordering: Greater } completion=19551538 host_cpu=470000 breakdown=1300000/2004800/3270769/2700200/7975769
pcie-dma_compress #0: len=419 xxh64=8755365a132acf0f completion=5017537 host_cpu=1800000 breakdown=350000/636533/1617037/1413967/3667537
pcie-dma_compress #1: len=21 xxh64=4fe146fe88727ed2 completion=9021807 host_cpu=1800000 breakdown=350000/636533/1617037/1400700/3654270
pcie-dma_compress #2: len=4114 xxh64=ca23985bbfc8f303 completion=13162510 host_cpu=1800000 breakdown=350000/636533/1617037/1537133/3790703
pcie-dma_decompress #0: len=4096 xxh64=ab4522876de0be6b completion=3575321 host_cpu=1800000 breakdown=350000/513967/174821/1536533/2225321
pcie-dma_decompress #1: len=4096 xxh64=ac869b6f32d8bbdb completion=6066304 host_cpu=1800000 breakdown=350000/500700/103750/1536533/2140983
pcie-dma_decompress #2: len=4096 xxh64=8f70946d6fe133ed completion=9424613 host_cpu=1800000 breakdown=350000/637133/834643/1536533/3008309
pcie-dma_checksum #0: c48f2b5e completion=3828133 host_cpu=600000 breakdown=350000/636533/441333/1400267/2478133
pcie-dma_checksum #1: 475546f5 completion=6656266 host_cpu=600000 breakdown=350000/636533/441333/1400267/2478133
pcie-dma_checksum #2: db0c5fed completion=9484399 host_cpu=600000 breakdown=350000/636533/441333/1400267/2478133
pcie-dma_compare #0: Identical completion=4135334 host_cpu=600000 breakdown=350000/773067/612000/1400267/2785334
pcie-dma_compare #1: DiffersAt { index: 2048, ordering: Greater } completion=7270668 host_cpu=600000 breakdown=350000/773067/612000/1400267/2785334
cxl_compress #0: len=419 xxh64=8755365a132acf0f completion=2887912 host_cpu=233820 breakdown=224428/371404/1617037/371972/1663484
cxl_compress #1: len=21 xxh64=4fe146fe88727ed2 completion=4775797 host_cpu=233820 breakdown=224428/371404/1617037/371546/1663457
cxl_compress #2: len=4114 xxh64=ca23985bbfc8f303 completion=6676102 host_cpu=233820 breakdown=224428/371404/1617037/570259/1675877
cxl_decompress #0: len=4096 xxh64=ab4522876de0be6b completion=2095448 host_cpu=233820 breakdown=224428/179475/831429/454070/871020
cxl_decompress #1: len=4096 xxh64=ac869b6f32d8bbdb completion=3189958 host_cpu=233820 breakdown=224428/164475/831429/454070/870082
cxl_decompress #2: len=4096 xxh64=8f70946d6fe133ed completion=4323717 host_cpu=233820 breakdown=224428/493425/831429/753091/909331
cxl_checksum #0: c48f2b5e completion=2419973 host_cpu=233820 breakdown=224428/371404/441333/382808/1195545
cxl_checksum #1: 475546f5 completion=3839946 host_cpu=233820 breakdown=224428/371404/441333/382808/1195545
cxl_checksum #2: db0c5fed completion=5259919 host_cpu=233820 breakdown=224428/371404/441333/382808/1195545
cxl_compare #0: Identical completion=1964963 host_cpu=100000 breakdown=224428/665308/356000/676712/740535
cxl_compare #1: DiffersAt { index: 2048, ordering: Greater } completion=2683453 host_cpu=100000 breakdown=224428/440856/228063/452260/494062
";

/// Every offload backend runs every function: the protocol events match
/// `tests/golden/offload/<backend>_<function>.jsonl` and each call's
/// outcome matches [`PINNED_OFFLOAD_CALLS`].
#[test]
fn offload_backend_cases_conform() {
    let mut failures = String::new();
    let mut calls = String::new();
    for backend in golden::OFFLOAD_BACKENDS {
        for func in golden::OFFLOAD_FNS {
            let slug = golden::offload_slug(backend, func);
            let (events, outcomes) = golden::offload_case(backend, func);
            assert!(!events.is_empty(), "{slug} emitted no events");
            if let Some(report) = conformance_report(&format!("offload/{slug}.jsonl"), &events) {
                let _ = writeln!(failures, "{report}");
            }
            for (i, call) in outcomes.iter().enumerate() {
                let _ = writeln!(calls, "{slug} #{i}: {}", call.summary());
            }
        }
    }
    assert!(failures.is_empty(), "\n{failures}");
    assert!(
        calls == PINNED_OFFLOAD_CALLS,
        "pinned offload outcomes changed:\n{calls}"
    );
}

/// The degenerate 1-host × 1-device `TopologySpec` must reproduce the
/// hand-wired platform *byte for byte* — traces with timestamps intact,
/// and every device counter — for all 18 Table III cases. This pins the
/// multi-device fabric refactor: topology-described construction is the
/// same machine, not a near-miss.
#[test]
fn table3_via_topology_spec_is_byte_identical() {
    let mut checked = 0;
    for req in RequestType::ALL {
        for case in TABLE3_CASES {
            let legacy = golden::table3_case_trace(req, case);
            let legacy_counters = golden::table3_case_counters(req, case);
            let (spec_trace, spec_counters) = golden::table3_case_trace_from_spec(req, case);
            assert_eq!(
                trace::to_jsonl(&legacy),
                trace::to_jsonl(&spec_trace),
                "{req} / {case}: 1x1 spec trace diverged from legacy platform"
            );
            assert_eq!(
                legacy_counters, spec_counters,
                "{req} / {case}: 1x1 spec counters diverged from legacy platform"
            );
            // And the spec-built trace still conforms to the fixture.
            let name = format!("table3/{}.jsonl", golden::case_slug(req, case));
            if let Some(report) = conformance_report(&name, &spec_trace) {
                panic!("\n{report}");
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 18);
}

/// Same invariance for the Fig. 7 offload: a zswap backend whose device
/// came from the 1×1 spec emits the identical event stream.
#[test]
fn fig7_via_topology_spec_is_byte_identical() {
    let legacy = golden::fig7_cxl_zswap_trace(11);
    let via_spec = golden::fig7_cxl_zswap_trace_from_spec(11);
    assert_eq!(
        trace::to_jsonl(&legacy),
        trace::to_jsonl(&via_spec),
        "1x1 spec fig7 trace diverged from legacy platform"
    );
    if let Some(report) = conformance_report("fig7_cxl_zswap_4k.jsonl", &via_spec) {
        panic!("\n{report}");
    }
}

/// A deliberately corrupted sequence must be rejected — this guards the
/// comparator itself (an always-green diff would make the 18 cases above
/// meaningless).
#[test]
fn comparator_rejects_corrupted_transition() {
    if regenerating() {
        return; // comparisons are vacuous while rewriting fixtures
    }
    let req = RequestType::ALL[0];
    let case = TABLE3_CASES[0];
    let mut events = golden::table3_case_trace(req, case);
    // Corrupt one DCOH-visible event: drop the final state transition.
    let removed = events.pop().expect("non-empty trace");
    let name = format!("table3/{}.jsonl", golden::case_slug(req, case));
    let report = conformance_report(&name, &events).expect("corrupted trace must not conform");
    assert!(
        report.contains("divergence"),
        "report explains where: {report}"
    );
    // And restoring the event makes it conform again.
    events.push(removed);
    assert!(conformance_report(&name, &events).is_none());
}
