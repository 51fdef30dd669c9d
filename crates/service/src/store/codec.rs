//! Wire codecs for the persistent store: parameter values,
//! configurations, WAL operations, checksummed record lines, and shard
//! snapshots.
//!
//! Non-finite floats need special handling because JSON has no literal
//! for them (the serializer writes `null`, which would silently corrupt
//! a round trip): `NaN`, `+inf` and `-inf` are encoded as the strings
//! `"nan"`, `"inf"` and `"-inf"`. Decoding accepts either a number or
//! one of those strings. NaN payload bits are not preserved — any NaN
//! decodes to the canonical [`f64::NAN`].

use super::crc32::crc32;
use robotune::{memo_workloads, ConfigMemoBuffer, ParameterSelectionCache};
use robotune_space::{Configuration, ParamValue};
use serde_json::{Map, Value};

/// Encodes one f64, including non-finite values, losslessly.
pub(crate) fn f64_to_json(f: f64) -> Value {
    if f.is_finite() {
        Value::from(f)
    } else if f.is_nan() {
        Value::from("nan")
    } else if f > 0.0 {
        Value::from("inf")
    } else {
        Value::from("-inf")
    }
}

/// Decodes an f64 written by [`f64_to_json`].
pub(crate) fn f64_from_json(v: &Value) -> Option<f64> {
    if let Some(f) = v.as_f64() {
        return Some(f);
    }
    match v.as_str()? {
        "nan" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => None,
    }
}

pub(crate) fn value_to_json(v: &ParamValue) -> Value {
    let (t, jv) = match v {
        ParamValue::Int(i) => ("i", Value::from(*i)),
        ParamValue::Float(f) => ("f", f64_to_json(*f)),
        ParamValue::Bool(b) => ("b", Value::Bool(*b)),
        ParamValue::Cat(c) => ("c", Value::from(*c as u64)),
    };
    let mut m = Map::new();
    m.insert("t".into(), Value::from(t));
    m.insert("v".into(), jv);
    Value::Object(m)
}

pub(crate) fn value_from_json(v: &Value) -> Result<ParamValue, String> {
    let t = v
        .get("t")
        .and_then(Value::as_str)
        .ok_or("value entry missing \"t\"")?;
    let raw = v.get("v").ok_or("value entry missing \"v\"")?;
    match t {
        "i" => raw
            .as_i64()
            .map(ParamValue::Int)
            .ok_or_else(|| "int value not an i64".into()),
        "f" => f64_from_json(raw)
            .map(ParamValue::Float)
            .ok_or_else(|| "float value not a number".into()),
        "b" => raw
            .as_bool()
            .map(ParamValue::Bool)
            .ok_or_else(|| "bool value not a bool".into()),
        "c" => raw
            .as_u64()
            .and_then(|i| usize::try_from(i).ok())
            .map(ParamValue::Cat)
            .ok_or_else(|| "cat value not an index".into()),
        other => Err(format!("unknown value tag {other:?}")),
    }
}

pub(crate) fn config_to_json(c: &Configuration) -> Value {
    Value::Array(c.values().iter().map(value_to_json).collect())
}

pub(crate) fn config_from_json(v: &Value) -> Result<Configuration, String> {
    let arr = v.as_array().ok_or("config must be an array")?;
    let values = arr
        .iter()
        .map(value_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Configuration::new(values))
}

// --- WAL records --------------------------------------------------------

/// A decoded WAL payload: either a segment header or an LSN-stamped
/// mutation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// First record of every segment; pins version, shard and sequence
    /// so a segment file cannot be replayed into the wrong shard.
    Header {
        version: i64,
        shard: usize,
        seq: u64,
    },
    /// A mutation with its shard-local log sequence number.
    Op { lsn: u64, op: WalOp },
}

/// A store mutation as journaled.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    Sel {
        workload: String,
        names: Vec<String>,
    },
    Cfg {
        workload: String,
        config: Configuration,
        time_s: f64,
    },
}

/// A shard's in-memory state: the paper's two memoization structures,
/// read and written under the shard's lock.
#[derive(Debug, Default)]
pub(crate) struct MemoTables {
    pub(crate) cache: ParameterSelectionCache,
    pub(crate) memo: ConfigMemoBuffer,
}

impl MemoTables {
    /// Every workload key present in either structure, sorted.
    pub(crate) fn workloads(&self) -> Vec<String> {
        memo_workloads(&self.cache, &self.memo)
    }
}

impl WalOp {
    /// Applies the mutation to a shard's tables.
    pub(crate) fn apply(&self, inner: &mut MemoTables) {
        match self {
            WalOp::Sel { workload, names } => inner.cache.put_names(workload, names.clone()),
            WalOp::Cfg {
                workload,
                config,
                time_s,
            } => inner.memo.record(workload, config.clone(), *time_s),
        }
    }
}

pub(crate) fn encode_header(version: i64, shard: usize, seq: u64) -> Value {
    let mut m = Map::new();
    m.insert("kind".into(), Value::from("hdr"));
    m.insert("version".into(), Value::from(version));
    m.insert("shard".into(), Value::from(shard as u64));
    m.insert("seq".into(), Value::from(seq));
    Value::Object(m)
}

pub(crate) fn encode_sel(lsn: u64, workload: &str, names: &[String]) -> Value {
    let mut m = Map::new();
    m.insert("lsn".into(), Value::from(lsn));
    m.insert("op".into(), Value::from("sel"));
    m.insert("workload".into(), Value::from(workload));
    m.insert(
        "names".into(),
        Value::Array(names.iter().map(|n| Value::from(n.as_str())).collect()),
    );
    Value::Object(m)
}

pub(crate) fn encode_cfg(lsn: u64, workload: &str, config: &Configuration, time_s: f64) -> Value {
    let mut m = Map::new();
    m.insert("lsn".into(), Value::from(lsn));
    m.insert("op".into(), Value::from("cfg"));
    m.insert("workload".into(), Value::from(workload));
    m.insert("time_s".into(), f64_to_json(time_s));
    m.insert("values".into(), config_to_json(config));
    Value::Object(m)
}

fn decode_names(v: &Value) -> Result<Vec<String>, String> {
    v.as_array()
        .ok_or("\"names\" must be an array")?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "selection name must be a string".into())
        })
        .collect()
}

/// Decodes the `op`-shaped part shared by v1 WAL lines and v2 payloads.
fn decode_op_body(v: &Value) -> Result<WalOp, String> {
    let kind = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("op entry missing \"op\"")?;
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("op entry missing \"workload\"")?
        .to_owned();
    match kind {
        "sel" => Ok(WalOp::Sel {
            workload,
            names: decode_names(v.get("names").ok_or("sel op missing \"names\"")?)?,
        }),
        "cfg" => Ok(WalOp::Cfg {
            workload,
            time_s: v
                .get("time_s")
                .and_then(f64_from_json)
                .ok_or("cfg op missing \"time_s\"")?,
            config: config_from_json(v.get("values").ok_or("cfg op missing \"values\"")?)?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Decodes a v2 payload (header or LSN-stamped op).
pub(crate) fn decode_payload(v: &Value) -> Result<WalRecord, String> {
    if v.get("kind").and_then(Value::as_str) == Some("hdr") {
        return Ok(WalRecord::Header {
            version: v
                .get("version")
                .and_then(Value::as_i64)
                .ok_or("header missing \"version\"")?,
            shard: v
                .get("shard")
                .and_then(Value::as_u64)
                .and_then(|s| usize::try_from(s).ok())
                .ok_or("header missing \"shard\"")?,
            seq: v
                .get("seq")
                .and_then(Value::as_u64)
                .ok_or("header missing \"seq\"")?,
        });
    }
    let lsn = v
        .get("lsn")
        .and_then(Value::as_u64)
        .ok_or("op entry missing \"lsn\"")?;
    Ok(WalRecord::Op {
        lsn,
        op: decode_op_body(v)?,
    })
}

/// Decodes a v1 WAL line (no lsn, no checksum) during migration.
pub(crate) fn decode_v1_op(line: &str) -> Result<WalOp, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("parse: {e}"))?;
    decode_op_body(&v)
}

/// Encodes `payload` as one checksummed WAL line (newline included).
///
/// The line is itself valid JSON — `["<crc32 hex8>","<payload>"]` with
/// the payload carried as an escaped string — so the checksum covers
/// the exact payload bytes and a reader can verify before parsing.
pub(crate) fn encode_record(payload: &Value) -> Result<String, String> {
    let payload_text =
        serde_json::to_string(payload).map_err(|e| format!("encode payload: {e}"))?;
    let crc = crc32(payload_text.as_bytes());
    let line = Value::Array(vec![
        Value::from(format!("{crc:08x}")),
        Value::from(payload_text),
    ]);
    let mut out = serde_json::to_string(&line).map_err(|e| format!("encode record: {e}"))?;
    out.push('\n');
    Ok(out)
}

/// Verifies and decodes one WAL line produced by [`encode_record`].
pub(crate) fn decode_record(line: &str) -> Result<WalRecord, String> {
    let wrapper: Value = serde_json::from_str(line).map_err(|e| format!("parse record: {e}"))?;
    let arr = wrapper
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or("record must be a [crc, payload] pair")?;
    let crc_hex = arr[0].as_str().ok_or("record crc must be a string")?;
    let payload_text = arr[1].as_str().ok_or("record payload must be a string")?;
    let want =
        u32::from_str_radix(crc_hex, 16).map_err(|e| format!("bad crc field {crc_hex:?}: {e}"))?;
    let got = crc32(payload_text.as_bytes());
    if want != got {
        return Err(format!("checksum mismatch: header {want:08x}, body {got:08x}"));
    }
    let payload: Value =
        serde_json::from_str(payload_text).map_err(|e| format!("parse payload: {e}"))?;
    decode_payload(&payload)
}

// --- Shard snapshots ----------------------------------------------------

/// Encodes a shard's full state plus the LSN it is current through.
pub(crate) fn encode_snapshot(inner: &MemoTables, version: i64, lsn: u64) -> Value {
    let mut selections = Map::new();
    for workload in inner.cache.workloads() {
        if let Some(names) = inner.cache.names(&workload) {
            selections.insert(
                workload,
                Value::Array(names.iter().map(|n| Value::from(n.as_str())).collect()),
            );
        }
    }
    let mut configs = Map::new();
    for workload in inner.memo.workloads() {
        let entries: Vec<Value> = inner
            .memo
            .best_recent(&workload, usize::MAX)
            .into_iter()
            .map(|(config, time_s)| {
                let mut e = Map::new();
                e.insert("time_s".into(), f64_to_json(time_s));
                e.insert("values".into(), config_to_json(&config));
                Value::Object(e)
            })
            .collect();
        configs.insert(workload, Value::Array(entries));
    }
    let mut snap = Map::new();
    snap.insert("version".into(), Value::from(version));
    snap.insert("lsn".into(), Value::from(lsn));
    snap.insert("selections".into(), Value::Object(selections));
    snap.insert("configs".into(), Value::Object(configs));
    Value::Object(snap)
}

/// Decodes a snapshot into fresh tables.
///
/// Accepts both the v2 shard format and the legacy v1 root format
/// (which had no `lsn`; it decodes as 0) so migration shares one path.
pub(crate) fn decode_snapshot(snap: &Value) -> Result<(MemoTables, u64), String> {
    let version = snap.get("version").and_then(Value::as_i64).unwrap_or(-1);
    if version != 1 && version != 2 {
        return Err(format!("snapshot version {version} (want 1 or 2)"));
    }
    let lsn = snap.get("lsn").and_then(Value::as_u64).unwrap_or(0);
    let mut inner = MemoTables::default();
    if let Some(sels) = snap.get("selections").and_then(Value::as_object) {
        for (workload, names) in sels.iter() {
            inner.cache.put_names(workload, decode_names(names)?);
        }
    }
    if let Some(cfgs) = snap.get("configs").and_then(Value::as_object) {
        for (workload, entries) in cfgs.iter() {
            let entries = entries.as_array().ok_or("config list must be an array")?;
            for e in entries {
                let time_s = e
                    .get("time_s")
                    .and_then(f64_from_json)
                    .ok_or("config entry missing time_s")?;
                let config =
                    config_from_json(e.get("values").ok_or("config entry missing values")?)?;
                inner.memo.record(workload, config, time_s);
            }
        }
    }
    Ok((inner, lsn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_f64() -> impl Strategy<Value = f64> {
        // `any::<f64>()` only generates finite values; the interesting
        // asymmetries live in the specials, so inject them explicitly.
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(0.0),
            Just(f64::MIN),
            Just(f64::MAX),
            Just(f64::EPSILON),
            any::<f64>(),
        ]
    }

    fn arb_value() -> impl Strategy<Value = ParamValue> {
        prop_oneof![
            (-(1i64 << 62)..(1i64 << 62)).prop_map(ParamValue::Int),
            Just(ParamValue::Int(i64::MIN)),
            Just(ParamValue::Int(i64::MAX)),
            arb_f64().prop_map(ParamValue::Float),
            any::<bool>().prop_map(ParamValue::Bool),
            (0usize..64).prop_map(ParamValue::Cat),
        ]
    }

    /// Bit-level equality with NaN ≡ NaN: the codec canonicalizes NaN
    /// payload bits, so any NaN in equals the canonical NaN out.
    fn f64_eq(a: f64, b: f64) -> bool {
        (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
    }

    fn value_eq(a: &ParamValue, b: &ParamValue) -> bool {
        match (a, b) {
            (ParamValue::Float(x), ParamValue::Float(y)) => f64_eq(*x, *y),
            _ => a == b,
        }
    }

    proptest! {
        #[test]
        fn value_round_trips(v in arb_value()) {
            let json = value_to_json(&v);
            // The wire hop matters: serialize to text and back, like a
            // real WAL record would.
            let text = serde_json::to_string(&json).unwrap();
            let reparsed: serde_json::Value = serde_json::from_str(&text).unwrap();
            let back = value_from_json(&reparsed).unwrap();
            prop_assert!(value_eq(&v, &back), "{v:?} -> {text} -> {back:?}");
        }

        #[test]
        fn config_round_trips(vs in proptest::collection::vec(arb_value(), 0..12)) {
            let c = Configuration::new(vs);
            let text = serde_json::to_string(&config_to_json(&c)).unwrap();
            let reparsed: serde_json::Value = serde_json::from_str(&text).unwrap();
            let back = config_from_json(&reparsed).unwrap();
            prop_assert_eq!(c.len(), back.len());
            for (a, b) in c.values().iter().zip(back.values()) {
                prop_assert!(value_eq(a, b), "{a:?} vs {b:?}");
            }
        }

        #[test]
        fn f64_round_trips_including_non_finite(f in arb_f64()) {
            let text = serde_json::to_string(&f64_to_json(f)).unwrap();
            let reparsed: serde_json::Value = serde_json::from_str(&text).unwrap();
            let back = f64_from_json(&reparsed).unwrap();
            prop_assert!(f64_eq(f, back), "{f} -> {text} -> {back}");
        }

        #[test]
        fn wal_records_round_trip(
            lsn in any::<u64>(),
            wl_tag in any::<u64>(),
            time_s in arb_f64(),
            vs in proptest::collection::vec(arb_value(), 1..8),
        ) {
            let wl = format!("wl-{wl_tag:x}");
            let cfg = Configuration::new(vs);
            let line = encode_record(&encode_cfg(lsn, &wl, &cfg, time_s)).unwrap();
            match decode_record(line.trim_end()).unwrap() {
                WalRecord::Op { lsn: l, op: WalOp::Cfg { workload, config, time_s: t } } => {
                    prop_assert_eq!(l, lsn);
                    prop_assert_eq!(workload, wl);
                    prop_assert_eq!(config.len(), cfg.len());
                    prop_assert!(f64_eq(t, time_s));
                }
                other => prop_assert!(false, "decoded {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_floats_survive_where_v1_lost_them() {
        // v1 serialized non-finite floats as JSON null (the serializer's
        // fallback), so they failed to decode. Pin the fixed encoding.
        assert_eq!(
            serde_json::to_string(&f64_to_json(f64::NAN)).unwrap(),
            "\"nan\""
        );
        assert_eq!(
            serde_json::to_string(&f64_to_json(f64::INFINITY)).unwrap(),
            "\"inf\""
        );
        assert_eq!(
            serde_json::to_string(&f64_to_json(f64::NEG_INFINITY)).unwrap(),
            "\"-inf\""
        );
        assert_eq!(f64_from_json(&Value::from("nan")).map(f64::is_nan), Some(true));
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = serde_json::to_string(&f64_to_json(-0.0)).unwrap();
        let reparsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let back = f64_from_json(&reparsed).unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits(), "got {back} from {text}");
    }

    #[test]
    fn corrupt_records_fail_checksum_with_an_explanation() {
        let line = encode_record(&encode_sel(7, "km", &["a".into()])).unwrap();
        assert!(decode_record(line.trim_end()).is_ok());
        let tampered = line.replace("km", "kk");
        let err = decode_record(tampered.trim_end()).unwrap_err();
        assert!(err.contains("checksum mismatch"), "got: {err}");
    }

    #[test]
    fn header_records_round_trip() {
        let line = encode_record(&encode_header(2, 3, 41)).unwrap();
        assert_eq!(
            decode_record(line.trim_end()).unwrap(),
            WalRecord::Header {
                version: 2,
                shard: 3,
                seq: 41
            }
        );
    }
}
