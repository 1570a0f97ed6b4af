//! Dependency-free JSON exporters.
//!
//! Two formats, both hand-rolled (the container has no serde):
//!
//! * [`histogram_json`] — a flat snapshot object
//!   (`count/sum/min/max/mean/p50/p90/p99/p999`) for
//!   `results/observability.json`.
//! * [`trace_events_json`] — the chrome://tracing **Trace Event Format**
//!   (`{"traceEvents": [...]}`). Load the file at `chrome://tracing` or
//!   <https://ui.perfetto.dev> to see per-shard serve/rebuild timelines.
//!
//! Everything here runs off the hot path (report rendering only), so the
//! usual no-alloc discipline does not apply.

use crate::hist::Histogram;
use crate::span::Tracer;

/// Formats a float with enough precision for a report without dragging
/// `1.2000000000000002`-style noise into the diff.
fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Serializes one histogram as a flat JSON object.
pub fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        fmt_f64(h.mean()),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999()
    )
}

/// Dumps event rings in chrome://tracing Trace Event Format.
///
/// Each tracer becomes one track (`tid` = the tracer's track id) named
/// by the parallel `labels` entry (missing labels fall back to
/// `track-<id>`). Events are complete spans (`ph: "X"`): `ts` is the
/// wall-clock microsecond offset when present, otherwise the logical
/// sequence number (so deterministic-layer rings still render as a
/// timeline ordered by seq); `dur` is floored at 1 so zero-duration
/// events stay visible.
pub fn trace_events_json(tracers: &[&Tracer], labels: &[&str]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (i, t) in tracers.iter().enumerate() {
        let label = labels.get(i).copied().unwrap_or("");
        let name = if label.is_empty() {
            format!("track-{}", t.track())
        } else {
            String::from(label)
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.track(),
            name
        ));
        for ev in t.events() {
            let ts = if ev.ts_us > 0 { ev.ts_us } else { ev.seq };
            let dur = if ev.dur_us > 0 { ev.dur_us } else { 1 };
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"seq\":{},\"a\":{},\"b\":{}}}}}",
                ev.kind.name(),
                ev.track,
                ts,
                dur,
                ev.seq,
                ev.a,
                ev.b
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::EventKind;

    #[test]
    fn histogram_snapshot_has_all_fields() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3] {
            h.record(v);
        }
        let js = histogram_json(&h);
        for field in [
            "count", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999",
        ] {
            assert!(
                js.contains(&format!("\"{field}\":")),
                "missing {field} in {js}"
            );
        }
        assert!(js.contains("\"count\":3"));
        assert!(js.contains("\"mean\":2.0"));
    }

    #[test]
    fn trace_dump_is_chrome_shaped() {
        let mut t = Tracer::with_capacity(2, 8);
        t.record(EventKind::Serve, 10, 20);
        t.record_timed(EventKind::RebuildApply, 7, 3, 1500, 250);
        let js = trace_events_json(&[&t], &["shard-2"]);
        assert!(js.starts_with("{\"traceEvents\":["));
        assert!(js.ends_with("]}"));
        assert!(js.contains("\"ph\":\"M\""), "thread_name metadata present");
        assert!(js.contains("\"name\":\"shard-2\""));
        // Deterministic event: ts falls back to seq, dur floors at 1.
        assert!(
            js.contains("\"name\":\"serve\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0,\"dur\":1")
        );
        // Timed event keeps its wall-clock fields.
        assert!(js.contains("\"ts\":1500,\"dur\":250"));
        assert!(js.contains("\"args\":{\"seq\":1,\"a\":7,\"b\":3}"));
    }

    #[test]
    fn missing_labels_fall_back_to_track_ids() {
        let t = Tracer::with_capacity(5, 4);
        let js = trace_events_json(&[&t], &[]);
        assert!(js.contains("\"name\":\"track-5\""));
    }
}
