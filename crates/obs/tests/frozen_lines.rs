//! Wire compatibility of the four JSON formats this crate writes. Each
//! `FROZEN_*` line was captured from the build before the hand-rolled
//! codec was replaced by `serde_json` (which writes an integral float as
//! `4.0` where the old writer wrote `4`): traces persisted by an older
//! build must still decode to the same record, and what the current
//! build writes must carry the same values under the same keys.

use gswitch_obs::{profile, MetricsRegistry, Provenance, SpanKind, SpanRecord, StampedEvent};
use serde_json::Value;

const FROZEN_SPAN: &str = r#"{"id":17,"parent":3,"kind":"expand","job":42,"worker":1,"shard":2,"iter":5,"start_ns":1234567,"dur_ns":89000}"#;

const FROZEN_EVENT: &str = r#"{"seq":9,"job":42,"graph":"soc \"orkut\"","algo":"bfs","iter":3,"direction":"pull","format":"bitmap","lb":"wm","stepping":"remain","fusion":"standalone","provenance":"bypass","predicted_ms":2,"measured_ms":0.0625,"filter_ms":0,"overhead_ms":0.0015,"v_active":100,"e_active":2000,"edges_touched":1999,"activations":77,"duplicates":0,"task_total_cycles":4096,"task_max_cycles":512.5,"task_count":16,"features":[0,1.5,0.0000002,-3.25,4,5.5,0.0000006,-3.25,8,9.5,0.000001,-3.25,12,13.5,0.0000014,-3.25,16,17.5,0.0000018,-3.25,20],"shard":1}"#;

const FROZEN_METRICS: &str = r#"{"counters":{"jobs_ok":2},"gauges":{"depth":-3},"histograms":{"empty_ms":{"count":0,"sum":0,"mean":0,"min":0,"max":0,"p50":0,"p95":0,"p99":0},"wait_ms":{"count":2,"sum":5.25,"mean":2.625,"min":1.25,"max":4,"p50":2.44140625,"p95":4,"p99":4}}}"#;

const FROZEN_PROFILE: &str = r#"{"spans":3,"roots":1,"total_ms":4,"self_total_ms":4,"kinds":{"expand":{"count":1,"incl_ms":2.5,"excl_ms":2.5,"p50_ms":2.5,"p95_ms":2.5,"p99_ms":2.5},"super-step":{"count":1,"incl_ms":4,"excl_ms":1.25,"p50_ms":1.25,"p95_ms":1.25,"p99_ms":1.25},"filter":{"count":1,"incl_ms":0.25,"excl_ms":0.25,"p50_ms":0.25,"p95_ms":0.25,"p99_ms":0.25}}}"#;

/// Numbers by value, so `4` and `4.0` agree.
fn by_value(v: Value) -> Value {
    match v {
        Value::UInt(_) | Value::Int(_) => Value::Float(v.as_f64().expect("a number")),
        Value::Array(items) => Value::Array(items.into_iter().map(by_value).collect()),
        Value::Object(fields) => {
            Value::Object(fields.into_iter().map(|(k, f)| (k, by_value(f))).collect())
        }
        other => other,
    }
}

/// Same document: same keys in the same order, same values.
fn assert_same_text(frozen: &str, current: &str) {
    let parse = |t: &str| by_value(serde_json::parse(t).unwrap_or_else(|e| panic!("{e}: {t}")));
    assert_eq!(parse(frozen), parse(current));
}

#[test]
fn frozen_span_line_decodes_to_the_same_record() {
    let span = SpanRecord {
        id: 17,
        parent: 3,
        kind: SpanKind::Expand,
        job: 42,
        worker: 1,
        shard: Some(2),
        iter: 5,
        start_ns: 1_234_567,
        dur_ns: 89_000,
    };
    assert_eq!(SpanRecord::from_json_line(FROZEN_SPAN).unwrap(), span);
    // No float in a span line: the text itself is unchanged.
    assert_eq!(span.to_json_line(), FROZEN_SPAN);
    // An integer field spelled as an integral float still reads; a
    // fraction or a null does not.
    let respell = |to: &str| SpanRecord::from_json_line(&FROZEN_SPAN.replace(":17,", to));
    assert_eq!(respell(":17.0,").unwrap(), span);
    assert!(respell(":17.5,").is_err() && respell(":null,").is_err());
}

#[test]
fn frozen_event_line_decodes_to_the_same_record() {
    let ev = StampedEvent::from_json_line(FROZEN_EVENT).unwrap();
    // Re-encoding what was decoded gives back every key and value of the
    // frozen line, so no field was dropped or misread on the way in...
    let line = ev.to_json_line();
    assert_same_text(FROZEN_EVENT, &line);
    assert_eq!(StampedEvent::from_json_line(&line).unwrap(), ev);
    // ...and the ones the two spellings of a number touch read as typed.
    assert_eq!((ev.seq, ev.graph.as_str(), ev.event.shard), (9, "soc \"orkut\"", Some(1)));
    assert_eq!((ev.event.predicted_ms, ev.event.filter_ms), (2.0, 0.0));
    assert_eq!(ev.event.provenance, Provenance::StabilityBypass);
    assert_eq!(ev.event.features[..3], [0.0, 1.5, 2.0e-7]);
    let respell = |to: &str| StampedEvent::from_json_line(&FROZEN_EVENT.replace("\"seq\":9,", to));
    assert_eq!(respell("\"seq\":9.0,").unwrap(), ev);
    assert!(respell("\"seq\":null,").is_err());
    assert!(StampedEvent::from_json_line(&FROZEN_EVENT.replace(":0.0625,", ":null,")).is_err());
}

#[test]
fn non_finite_floats_are_written_as_zero() {
    let mut ev = StampedEvent::from_json_line(FROZEN_EVENT).unwrap();
    ev.event.predicted_ms = f64::INFINITY;
    ev.event.features[3] = f64::NAN;
    let back = StampedEvent::from_json_line(&ev.to_json_line()).unwrap();
    assert_eq!((back.event.predicted_ms, back.event.features[3]), (0.0, 0.0));
}

#[test]
fn frozen_metrics_snapshot_matches() {
    let reg = MetricsRegistry::new();
    reg.counter("jobs_ok").add(2);
    reg.gauge("depth").set(-3);
    let h = reg.latency("wait_ms");
    h.observe(1.25);
    h.observe(4.0);
    reg.latency("empty_ms");
    assert_same_text(FROZEN_METRICS, &reg.snapshot().to_json());
}

#[test]
fn frozen_span_profile_matches() {
    let at = |id, parent, kind, shard, start_ns, dur_ns| {
        let (job, worker, iter) = (1, 0, 0);
        SpanRecord { id, parent, kind, job, worker, shard, iter, start_ns, dur_ns }
    };
    let spans = [
        at(1, 0, SpanKind::SuperStep, None, 0, 4_000_000),
        at(2, 1, SpanKind::Expand, None, 500_000, 2_500_000),
        at(3, 1, SpanKind::Filter, Some(1), 3_000_000, 250_000),
    ];
    assert_same_text(FROZEN_PROFILE, &profile(&spans).to_json());
}
