//! The repository benchmark. Runs one workload for a fixed host-time
//! budget and prints, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8_offload --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off; `--trace
//! 1` runs the traced run and reports the per-layer metrics. See
//! `perfbench/README.md`.

cxl_bench::counting_allocator!();

mod layers;
mod paper;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use sim_core::sweep;
use workload::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One run's result: points attempted, the checks that failed, and the
/// metrics in print order.
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// The untraced run: alternating 1-worker and 2-worker passes until the
/// time budget is spent, every pass checked against the first.
fn end_to_end(kind: Kind, seed: u64, seconds: f64, threads2: usize) -> Result<Report, String> {
    let p = workload::run_passes(kind, seed, seconds, threads2)?;
    let ops: u64 = p.reference.iter().map(|r| workload::ops_of(&r.out)).sum();
    let paper_err_pct = match workload::paper_prefixes(kind) {
        Some(prefixes) => {
            let refs = paper::parse_refs(paper::REFS_TSV)?;
            let measured = workload::paper_measurements(&p.w, &p.reference);
            for (r, m, err) in paper::errors(&refs, prefixes, &measured)? {
                eprintln!(
                    "paper {:<36} measured {m:<10.4} error {err:6.2}%  {}",
                    r.id, r.source
                );
            }
            paper::mean_err_pct(&refs, prefixes, &measured)?
        }
        // No paper reference: reported as fully unvalidated.
        None => 100.0,
    };
    // Without an antagonist row the ratio is 1 by definition.
    let qos = workload::qos_p999_ratio(&p.w, &p.reference).unwrap_or(1.0);
    eprintln!(
        "{}: seed {seed}, {} points, {ops} ops, passes 1t {:?} 2t {:?}, set-ups {:?}",
        kind.name(),
        p.reference.len(),
        p.t1,
        p.t2,
        p.setup_s
    );
    Ok(Report {
        attempted: p.attempted,
        failures: p.failures.clone(),
        metrics: vec![
            ("sim_ops_per_s".into(), ops as f64 / p.pass_1t_s(), "1/s"),
            ("wall_s_2t".into(), p.pass_2t_s(), "s"),
            ("setup_s".into(), p.setup_min_s(), "s"),
            ("peak_rss_mib".into(), p.peak_rss_mib, "MiB"),
            (
                "allocs_per_op".into(),
                p.allocs as f64 / ops as f64,
                "allocs/op",
            ),
            ("paper_err_pct".into(), paper_err_pct, "%"),
            ("qos_p999_ratio".into(), qos, "ratio"),
        ],
    })
}

fn to_json(r: &Report) -> Result<String, String> {
    let mut out = String::new();
    let failed = r.failures.len() as u64;
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        r.attempted
    )
    .expect("write to String");
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig8_offload|serving_fleet|device_micro> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Runners that size their own pool (Fig. 6, Table IV) stay on the
    // worker that runs them, so a 1-worker pass is one thread.
    std::env::set_var(sweep::THREADS_ENV, "1");
    let threads2 = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);

    let report = if args.trace {
        let t0 = Instant::now();
        let run = layers::run(args.kind, args.seed, args.seconds, threads2);
        eprintln!("traced run took {:.1} s", t0.elapsed().as_secs_f64());
        run
    } else {
        end_to_end(args.kind, args.seed, args.seconds, threads2)
    };
    let json = report.and_then(|r| {
        for f in &r.failures {
            eprintln!("check failed: {f}");
        }
        to_json(&r)
    });
    match json {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
