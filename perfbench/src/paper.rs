//! Paper reference values and the `paper_err_pct` error function.
//!
//! The references live in `paper_refs.tsv` beside this package, one per
//! line: `id <TAB> value <TAB> EXPERIMENTS.md row`. A value is written the
//! way the paper states it:
//!
//! * `+38%` / `-83%` — a percent change, compared as the ratio 1.38 / 0.17;
//! * `5.1x` — a ratio;
//! * `4.0` — an absolute figure in the unit the id names;
//! * `a..b` — a range of either form (zero error inside it);
//! * `a..` — a lower bound (`> 4 µs`).

use std::collections::{BTreeMap, BTreeSet};

/// The reference table, compiled into the binary.
pub const REFS_TSV: &str = include_str!("../paper_refs.tsv");

/// One paper value as a closed interval of ratios (or absolute figures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub lo: f64,
    pub hi: f64,
}

/// One reference row.
#[derive(Debug, Clone)]
pub struct Ref {
    pub id: String,
    pub span: Span,
    pub source: String,
}

fn parse_scalar(s: &str) -> Result<f64, String> {
    let s = s.trim();
    let num = |t: &str| {
        t.parse::<f64>()
            .map_err(|e| format!("bad number {t:?}: {e}"))
    };
    if let Some(p) = s.strip_suffix('%') {
        Ok(1.0 + num(p)? / 100.0)
    } else if let Some(r) = s.strip_suffix('x') {
        num(r)
    } else {
        num(s)
    }
}

/// Parses one value cell (see the module docs for the grammar).
pub fn parse_span(s: &str) -> Result<Span, String> {
    match s.split_once("..") {
        None => {
            let v = parse_scalar(s)?;
            Ok(Span { lo: v, hi: v })
        }
        Some((lo, "")) => Ok(Span {
            lo: parse_scalar(lo)?,
            hi: f64::INFINITY,
        }),
        Some((lo, hi)) => {
            let (lo, hi) = (parse_scalar(lo)?, parse_scalar(hi)?);
            if lo > hi {
                return Err(format!("empty range {s:?}"));
            }
            Ok(Span { lo, hi })
        }
    }
}

/// Parses the whole table; ids must be unique.
pub fn parse_refs(tsv: &str) -> Result<Vec<Ref>, String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (n, line) in tsv.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [id, value, source] = cols[..] else {
            return Err(format!("line {}: want 3 tab-separated columns", n + 1));
        };
        let span = parse_span(value).map_err(|e| format!("line {}: {e}", n + 1))?;
        if !seen.insert(id) {
            return Err(format!("line {}: duplicate id {id}", n + 1));
        }
        out.push(Ref {
            id: id.to_string(),
            span,
            source: source.to_string(),
        });
    }
    Ok(out)
}

/// |measured / paper − 1| × 100, measured from the nearest edge of the
/// paper's range, and zero inside it.
pub fn err_pct(measured: f64, span: Span) -> f64 {
    if measured < span.lo {
        (measured / span.lo - 1.0).abs() * 100.0
    } else if measured > span.hi {
        (measured / span.hi - 1.0).abs() * 100.0
    } else {
        0.0
    }
}

/// Every reference whose id starts with one of `prefixes`, with its
/// measurement and error. Every such reference must have a measurement: a
/// missing one is an error, so a renamed model output cannot silently drop
/// out of the mean.
pub fn errors<'a>(
    refs: &'a [Ref],
    prefixes: &[&str],
    measured: &BTreeMap<String, f64>,
) -> Result<Vec<(&'a Ref, f64, f64)>, String> {
    let rows: Vec<_> = refs
        .iter()
        .filter(|r| prefixes.iter().any(|p| r.id.starts_with(p)))
        .map(|r| {
            let m = *measured
                .get(&r.id)
                .ok_or_else(|| format!("no measurement for paper value {} ({})", r.id, r.source))?;
            if !m.is_finite() {
                return Err(format!("non-finite measurement for {}: {m}", r.id));
            }
            Ok((r, m, err_pct(m, r.span)))
        })
        .collect::<Result<_, String>>()?;
    if rows.is_empty() {
        return Err(format!("no paper values under {prefixes:?}"));
    }
    Ok(rows)
}

/// The mean of [`errors`].
pub fn mean_err_pct(
    refs: &[Ref],
    prefixes: &[&str],
    measured: &BTreeMap<String, f64>,
) -> Result<f64, String> {
    let rows = errors(refs, prefixes, measured)?;
    Ok(rows.iter().map(|(_, _, e)| e).sum::<f64>() / rows.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percent_changes_become_ratios() {
        assert!(close(parse_span("+38%").unwrap().lo, 1.38));
        assert!(close(parse_span("-83%").unwrap().hi, 0.17));
        assert!(close(parse_span("+2%").unwrap().lo, 1.02));
        assert!(close(parse_span("12.2x").unwrap().lo, 12.2));
        assert!(close(parse_span("4.0").unwrap().lo, 4.0));
    }

    #[test]
    fn ranges_and_lower_bounds_parse() {
        let s = parse_span("+76%..+120%").unwrap();
        assert!(close(s.lo, 1.76) && close(s.hi, 2.2));
        let s = parse_span("5.1x..10.3x").unwrap();
        assert!(close(s.lo, 5.1) && close(s.hi, 10.3));
        let s = parse_span("4.0..").unwrap();
        assert!(close(s.lo, 4.0) && s.hi.is_infinite());
        assert!(parse_span("2x..1x").is_err());
        assert!(parse_span("abc").is_err());
    }

    #[test]
    fn error_is_zero_inside_a_range_and_measured_from_the_nearest_edge() {
        let s = parse_span("1.14x..1.26x").unwrap();
        assert_eq!(err_pct(1.14, s), 0.0);
        assert_eq!(err_pct(1.2, s), 0.0);
        assert_eq!(err_pct(1.26, s), 0.0);
        // Below: from the low edge. Above: from the high edge.
        assert!(close(err_pct(1.083, s), (1.0 - 1.083 / 1.14) * 100.0));
        assert!(close(err_pct(1.5, s), (1.5 / 1.26 - 1.0) * 100.0));
        // An open-ended bound never penalizes values above it.
        let lb = parse_span("4.0..").unwrap();
        assert_eq!(err_pct(9.0, lb), 0.0);
        assert!(close(err_pct(3.0, lb), 25.0));
    }

    #[test]
    fn point_values_compare_as_ratios() {
        // Paper +38% latency overhead, measured +62%: 1.62/1.38 − 1.
        let s = parse_span("+38%").unwrap();
        assert!(close(err_pct(1.62, s), (1.62 / 1.38 - 1.0) * 100.0));
        // Paper −83% (ratio 0.17), measured −98% (0.02): 88% low.
        let s = parse_span("-83%").unwrap();
        assert!(close(err_pct(0.02, s), (1.0 - 0.02 / 0.17) * 100.0));
    }

    #[test]
    fn mean_requires_every_selected_value() {
        let refs = parse_refs("a.x\t+10%\trow a\nb.y\t2x\trow b\n").unwrap();
        let mut m = BTreeMap::new();
        m.insert("a.x".to_string(), 1.1);
        assert!(close(mean_err_pct(&refs, &["a."], &m).unwrap(), 0.0));
        assert!(mean_err_pct(&refs, &["a.", "b."], &m).is_err());
        m.insert("b.y".to_string(), 3.0);
        assert!(close(mean_err_pct(&refs, &["a.", "b."], &m).unwrap(), 25.0));
        assert!(parse_refs("a\t1x\tr\na\t2x\tr\n").is_err());
    }

    #[test]
    fn shipped_table_parses() {
        let refs = parse_refs(REFS_TSV).unwrap();
        assert!(refs.iter().any(|r| r.id.starts_with("fig8.")));
        assert!(refs.iter().any(|r| r.id.starts_with("fig3.")));
    }
}
