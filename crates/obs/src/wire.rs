//! The few rules the JSONL formats share on top of `serde_json`: how a
//! record is encoded as one line and how its fields are read back.

use serde_json::Value;

/// Encode `v` as one compact line, under the two rules every format
/// here shares: a `null` object field is left out — that is how an absent
/// `Option` (a whole-graph record's `shard`) is written — and a
/// non-finite float is written as `0`, never `null`: a line must stay
/// decodable, and a degenerate simulated time is not worth a lost record.
pub(crate) fn encode(mut v: Value) -> String {
    normalize(&mut v);
    // Writing a `Value` tree cannot fail; were that ever to change, the
    // record degrades to a blank line, which every JSONL reader skips.
    serde_json::to_string(&v).unwrap_or_default()
}

fn normalize(v: &mut Value) {
    match v {
        Value::Float(x) if !x.is_finite() => *x = 0.0,
        Value::Object(fields) => {
            fields.retain(|(_, f)| *f != Value::Null);
            fields.iter_mut().for_each(|(_, f)| normalize(f));
        }
        Value::Array(items) => items.iter_mut().for_each(normalize),
        _ => {}
    }
}

/// Unsigned integer field `k` (an integral float such as `3.0` counts).
pub(crate) fn uint(v: &Value, k: &str) -> Result<u64, String> {
    v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("missing uint field `{k}`"))
}

/// Float field `k` (an integer such as `3` counts; `null` does not).
pub(crate) fn float(v: &Value, k: &str) -> Result<f64, String> {
    v.get(k)
        .and_then(Value::as_f64)
        .filter(|f| f.is_finite())
        .ok_or_else(|| format!("missing float field `{k}`"))
}

/// String field `k`.
pub(crate) fn string<'a>(v: &'a Value, k: &str) -> Result<&'a str, String> {
    v.get(k).and_then(Value::as_str).ok_or_else(|| format!("missing string field `{k}`"))
}

/// String field `k` holding a wire name, read back by `parse` (a pattern
/// candidate's `from_wire`, `Provenance::parse`).
pub(crate) fn named<T>(v: &Value, k: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
    let name = string(v, k)?;
    parse(name).ok_or_else(|| format!("unrecognized `{k}` value {name:?}"))
}

/// Optional `shard` tag: absent in whole-graph records and in traces
/// written before partitioned execution.
pub(crate) fn shard(v: &Value) -> Option<u32> {
    v.get("shard").and_then(Value::as_u64).map(|s| s as u32)
}
