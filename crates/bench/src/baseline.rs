//! Baseline snapshots: machine-readable benchmark results for tracking the
//! performance trajectory across commits.
//!
//! `figures --baseline-json PATH` writes the sweep it just ran as a single
//! JSON document (schema below). Committing the file from a smoke sweep
//! (`--smoke`) gives every future change a fixed reference point: rerun the
//! same command and diff the `mops` fields.
//!
//! The document is hand-rendered — the workspace builds offline and carries
//! no serde — so the schema is deliberately flat:
//!
//! ```json
//! {
//!   "bench": "smr_ops",
//!   "params": { "threads": [1, 2], "duration_ms": 50, ... },
//!   "series": [
//!     { "figure": "fig5ab", "structure": "kp-queue", "workload": "queue50",
//!       "scheme": "WFE", "threads": 1, "mops": 1.2345,
//!       "avg_unreclaimed": 10.0 },
//!     ...
//!   ]
//! }
//! ```

use crate::params::BenchParams;
use crate::runner::DataPoint;

/// One measured point tagged with the figure it belongs to.
pub type FigurePoint = (&'static str, DataPoint);

/// Renders a full baseline document for the given sweep.
///
/// `bench` names the tracked quantity (the committed baseline uses
/// `"smr_ops"`: completed SMR-protected operations per second).
pub fn render(bench: &str, params: &BenchParams, series: &[FigurePoint]) -> String {
    let mut out = String::with_capacity(256 + series.len() * 160);
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": {},\n", json_string(bench)));
    out.push_str("  \"params\": {\n");
    out.push_str(&format!(
        "    \"threads\": [{}],\n",
        params
            .threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "    \"duration_ms\": {},\n",
        params.duration.as_millis()
    ));
    out.push_str(&format!("    \"repeats\": {},\n", params.repeats));
    out.push_str(&format!("    \"prefill\": {},\n", params.prefill));
    out.push_str(&format!("    \"key_range\": {},\n", params.key_range));
    out.push_str(&format!("    \"era_freq\": {},\n", params.era_freq));
    out.push_str(&format!("    \"cleanup_freq\": {}\n", params.cleanup_freq));
    out.push_str("  },\n");
    out.push_str("  \"series\": [\n");
    for (index, (figure, point)) in series.iter().enumerate() {
        let comma = if index + 1 < series.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"figure\": {}, \"structure\": {}, \"workload\": {}, \
             \"scheme\": {}, \"threads\": {}, \"mops\": {}, \
             \"avg_unreclaimed\": {} }}{}\n",
            json_string(figure),
            json_string(point.structure),
            json_string(point.workload),
            json_string(point.scheme),
            point.threads,
            json_f64(point.mops),
            json_f64(point.avg_unreclaimed),
            comma,
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Quotes and escapes a string for JSON. The inputs are scheme/figure
/// identifiers, but escaping keeps the output valid for any future label.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a measurement as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values (a zero-duration run, say) degrade to `0`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_point() -> DataPoint {
        DataPoint {
            scheme: "WFE",
            structure: "hashmap",
            workload: "write50",
            threads: 2,
            mops: 1.5,
            avg_unreclaimed: 12.0,
            adopted_batches: 0.0,
            freed_via_adoption: 0.0,
        }
    }

    #[test]
    fn renders_every_series_row_and_the_params() {
        let params = BenchParams::smoke();
        let series = vec![("fig7", sample_point()), ("fig7", sample_point())];
        let doc = render("smr_ops", &params, &series);
        assert_eq!(doc.matches("\"figure\": \"fig7\"").count(), 2);
        assert!(doc.contains("\"bench\": \"smr_ops\""));
        assert!(doc.contains("\"threads\": [1, 2]"));
        assert!(doc.contains("\"mops\": 1.5000"));
    }

    #[test]
    fn trailing_commas_are_absent() {
        let params = BenchParams::smoke();
        let series = vec![("fig7", sample_point())];
        let doc = render("smr_ops", &params, &series);
        assert!(!doc.contains(",\n  ]"), "trailing comma in series:\n{doc}");
        assert!(!doc.contains(",\n  }"), "trailing comma in object:\n{doc}");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn non_finite_measurements_degrade_to_zero() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(2.25), "2.2500");
    }

    #[test]
    fn empty_series_is_still_valid() {
        let params = BenchParams::smoke();
        let doc = render("smr_ops", &params, &[]);
        assert!(doc.contains("\"series\": [\n  ]"));
    }
}
