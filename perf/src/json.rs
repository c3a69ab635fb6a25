//! JSON output. `schemoe_obs::json` parses; this writes the same tree.

use std::collections::BTreeMap;

pub use schemoe_obs::json::{parse, Json};

pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// `{"value": v, "unit": u}` — the shape of every reported metric.
pub fn metric(value: f64, unit: &str) -> Json {
    obj([("value", num(value)), ("unit", string(unit))])
}

/// Serializes on one line. Numbers print with every digit `f64` needs to
/// round-trip; a non-finite number has no JSON form and prints as `null`.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&schemoe_obs::chrome::escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(&Json::Str(k.clone()), out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

/// The members of an object, or an empty map for anything else.
pub fn members(v: &Json) -> BTreeMap<String, Json> {
    match v {
        Json::Obj(m) => m.clone(),
        _ => BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_json_parses_back_to_the_same_tree() {
        let v = obj([
            ("correct", Json::Bool(true)),
            ("attempted", num(1000.0)),
            ("name", string("a \"quoted\"\n\\ line")),
            (
                "metrics",
                obj([("step_ms_p50", metric(132.837_219_004, "ms"))]),
            ),
            ("list", Json::Arr(vec![num(0.1), Json::Null, num(-3e-9)])),
        ]);
        let text = to_string(&v);
        assert!(!text.contains('\n'), "one line: {text}");
        assert!(text.contains("\"attempted\":1000,"), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(to_string(&num(f64::NAN)), "null");
        assert_eq!(to_string(&num(f64::INFINITY)), "null");
    }
}
