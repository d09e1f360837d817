//! Minimal JSON writing. Parsing uses `rmprof::expo::Json`, the repo's own
//! parser; this is only the other direction, for flat result objects.

use std::fmt::Write as _;

/// A number with all its digits (Rust's shortest round-trip form, which
/// never uses an exponent); non-finite values, which JSON cannot carry,
/// become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `[a,b,c]` from already-encoded items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// An object under construction; values are already-encoded JSON.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    /// Start an empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add `"key": value`.
    pub fn field(mut self, key: &str, value: impl AsRef<str>) -> Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push_str(&string(key));
        self.0.push(':');
        self.0.push_str(value.as_ref());
        self
    }

    /// Close the object.
    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`: the contract's metrics object.
pub fn metrics_object<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> String {
    metrics
        .into_iter()
        .fold(Obj::new(), |obj, (name, value, unit)| {
            obj.field(
                name,
                Obj::new()
                    .field("value", num(value))
                    .field("unit", string(unit))
                    .finish(),
            )
        })
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmprof::expo::Json;

    #[test]
    fn written_objects_parse_back() {
        let text = Obj::new()
            .field("a", num(1.25))
            .field("s", string("x\"y\\z\n"))
            .field("n", num(f64::NAN))
            .field("arr", array([num(1e-9), num(123456789.125)]))
            .field("m", metrics_object([("lat", 2.5, "ms")]))
            .finish();
        let v = Json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.25));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"y\\z\n"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(0.0));
        let arr = v.get("arr").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1e-9));
        assert_eq!(arr[1].as_f64(), Some(123456789.125));
        let lat = v.get("m").and_then(|m| m.get("lat")).unwrap();
        assert_eq!(lat.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(Obj::new().finish(), "{}");
    }
}
