//! The workspace's one JSON reader.
//!
//! The workspace's serde is a deliberately inert shim, so everything that
//! reads JSON back goes through this hand-rolled scanner. Two views share
//! it:
//!
//! * [`Json`] — a recursive value (objects, arrays, strings, numbers,
//!   booleans, null), enough for every document this workspace emits:
//!   `rmprof-v1` snapshots, the stats endpoint, `rmbench` run files.
//! * [`parse_jsonl`] — the strict layer for the traces this crate writes:
//!   one flat object per line whose values are unsigned integers, strings
//!   or booleans. Anything else (nested values, floats, negatives, null)
//!   is rejected loudly rather than guessed at, and integers are read from
//!   their lexeme, so the full `u64` range is exact.

use std::collections::HashMap;

/// A parsed JSON value. Numbers are kept as `f64` (every document this
/// workspace writes stays inside the 2⁵³ exact-integer range; trace lines,
/// which do not, go through [`parse_jsonl`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Object: ordered key/value pairs (insertion order preserved).
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String.
    Str(String),
    /// Number.
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Json {
    /// Parse one complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        let v = p.value()?;
        p.end()?;
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer view (rejects fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Integer view (rejects fractions).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }
}

/// A scalar field of a trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// An unsigned integer (all numbers the emitter writes).
    Num(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// One parsed trace line: the common stamps plus every other field.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Nanosecond timestamp (`t`).
    pub t_ns: u64,
    /// Endpoint rank (`rank`).
    pub rank: u16,
    /// Event-type name (`ev`).
    pub ev: String,
    /// Remaining event-specific fields.
    pub fields: HashMap<String, JsonValue>,
}

impl ParsedRecord {
    /// Integer field accessor (0 when absent — callers check `ev` first).
    pub fn num(&self, key: &str) -> u64 {
        match self.fields.get(key) {
            Some(JsonValue::Num(n)) => *n,
            _ => 0,
        }
    }

    /// String field accessor (empty when absent).
    pub fn str(&self, key: &str) -> &str {
        match self.fields.get(key) {
            Some(JsonValue::Str(s)) => s,
            _ => "",
        }
    }
}

/// Parse a whole JSONL document, skipping blank lines. Returns
/// `Err(line_number, message)` on the first malformed line (1-based).
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedRecord>, (usize, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = flat_object(line).and_then(to_record);
        out.push(rec.map_err(|e| (i + 1, e))?);
    }
    Ok(out)
}

fn to_record(mut obj: HashMap<String, JsonValue>) -> Result<ParsedRecord, String> {
    let t_ns = match obj.remove("t") {
        Some(JsonValue::Num(n)) => n,
        _ => return Err("missing numeric \"t\"".into()),
    };
    let rank = match obj.remove("rank") {
        Some(JsonValue::Num(n)) => n as u16,
        _ => return Err("missing numeric \"rank\"".into()),
    };
    let ev = match obj.remove("ev") {
        Some(JsonValue::Str(s)) => s,
        _ => return Err("missing string \"ev\"".into()),
    };
    Ok(ParsedRecord {
        t_ns,
        rank,
        ev,
        fields: obj,
    })
}

/// One trace line: an object whose every member is a [`JsonValue`].
fn flat_object(line: &str) -> Result<HashMap<String, JsonValue>, String> {
    let mut p = Parser::new(line);
    let mut map = HashMap::new();
    p.seq(b'{', b'}', |p| {
        let key = p.key()?;
        let val = match p.peek() {
            Some(b'"') => JsonValue::Str(p.string()?),
            Some(b't') => p.keyword("true", JsonValue::Bool(true))?,
            Some(b'f') => p.keyword("false", JsonValue::Bool(false))?,
            Some(c) if c.is_ascii_digit() => {
                let txt = p.number();
                let n = txt
                    .parse()
                    .map_err(|e| format!("bad integer {txt:?}: {e}"))?;
                JsonValue::Num(n)
            }
            other => {
                return Err(format!(
                    "unexpected {other:?} at byte {}: trace values are unsigned \
                     integers, strings or booleans",
                    p.i
                ))
            }
        };
        map.insert(key, val);
        Ok(())
    })?;
    p.end()?;
    Ok(map)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    /// A scanner positioned on the first non-blank byte of `text`.
    fn new(text: &'a str) -> Self {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        p
    }

    /// Only whitespace may follow a complete document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.i))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.seq(b'{', b'}', |p| {
                    let key = p.key()?;
                    pairs.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let txt = self.number();
                txt.parse()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number {txt:?}: {e}"))
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    /// `open item (',' item)* close`, or `open close`: the shared shape of
    /// objects and arrays. `item` consumes one element.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or {:?} at byte {}",
                        close as char, self.i
                    ))
                }
            }
        }
    }

    /// An object member's `"key":`, leaving the cursor on its value.
    fn key(&mut self) -> Result<String, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    s.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                    self.i += 1;
                }
                Some(_) => {
                    let start = self.i;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| "invalid utf8 in string")?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The lexeme of the number under the cursor: every byte that can occur
    /// in one. Which lexemes are numbers is the caller's rule — `f64` for
    /// [`Json`], `u64` for trace lines — applied by parsing it.
    fn number(&mut self) -> &'a str {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i]).expect("only ASCII bytes were consumed")
    }

    fn keyword<T>(&mut self, kw: &str, v: T) -> Result<T, String> {
        if self.b[self.i..].starts_with(kw.as_bytes()) {
            self.i += kw.len();
            Ok(v)
        } else {
            Err(format!("expected {kw} at byte {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceRecord};

    #[test]
    fn round_trips_emitted_records() {
        let recs = [
            TraceRecord {
                t_ns: 10,
                rank: 0,
                ev: TraceEvent::DataSent {
                    transfer: 3,
                    seq: 1,
                },
            },
            TraceRecord {
                t_ns: 20,
                rank: 2,
                ev: TraceEvent::Drop { cause: "WireFault" },
            },
            TraceRecord {
                t_ns: 30,
                rank: 0,
                ev: TraceEvent::AckReceived {
                    from: 2,
                    transfer: 3,
                    next: 2,
                },
            },
        ];
        let text: String = recs.iter().map(|r| r.to_json() + "\n").collect();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].ev, "DataSent");
        assert_eq!(parsed[0].num("transfer"), 3);
        assert_eq!(parsed[1].str("cause"), "WireFault");
        assert_eq!(parsed[2].rank, 0);
        assert_eq!(parsed[2].num("from"), 2);
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let err = parse_jsonl("{\"t\":1,\"rank\":0,\"ev\":\"X\"}\nnot json\n").unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn skips_blank_lines() {
        let parsed = parse_jsonl("\n{\"t\":1,\"rank\":0,\"ev\":\"X\"}\n\n").unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn json_reads_nested_documents() {
        let v = Json::parse(
            "{\"pr\": 8, \"x\": -0.4, \"arr\": [1, 2.5, true, null], \"s\": \"a\\\"b\"}",
        )
        .unwrap();
        assert_eq!(v.get("pr").and_then(Json::as_u64), Some(8));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(-0.4));
        assert_eq!(
            v.get("arr").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(Vec::new()));
        assert_eq!(
            Json::parse("\"\\\\ \\/ \\n \\t \\r\"").unwrap().as_str(),
            Some("\\ / \n \t \r")
        );
        for bad in [
            "{\"a\": 1} trailing",
            "",
            "{\"a\" 1}",
            "[1 2]",
            "\"\\u0041\"",
            "\"open",
            "nul",
            "1e",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// A trace line with one extra field `v`.
    fn line(v: &str) -> String {
        format!("{{\"t\":1,\"rank\":0,\"ev\":\"X\",\"v\":{v}}}")
    }

    #[test]
    fn jsonl_integers_are_exact_over_the_whole_u64_range() {
        let max = u64::MAX;
        let text = format!("{{\"t\":{max},\"rank\":0,\"ev\":\"X\",\"v\":{max}}}");
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed[0].t_ns, max);
        assert_eq!(parsed[0].num("v"), max);
        // 2^53 + 1 is where an f64 detour would start rounding.
        let parsed = parse_jsonl(&line("9007199254740993")).unwrap();
        assert_eq!(parsed[0].num("v"), 9_007_199_254_740_993);
        assert!(parse_jsonl(&line("18446744073709551616")).is_err());
    }

    #[test]
    fn jsonl_rejects_what_the_emitter_never_writes() {
        // Every one of these is a JSON value, and none is a trace value.
        for v in ["1e3", "1.5", "-1", "{\"a\":1}", "[1]", "null"] {
            assert!(Json::parse(&line(v)).is_ok(), "{v} is valid JSON");
            let err = parse_jsonl(&line(v)).unwrap_err();
            assert_eq!(err.0, 1, "{v}: {}", err.1);
        }
        assert!(
            parse_jsonl(&(line("1") + " x")).is_err(),
            "trailing garbage"
        );
        assert!(parse_jsonl("{\"rank\":0,\"ev\":\"X\"}").is_err(), "no t");
        assert!(parse_jsonl("{\"t\":\"1\",\"rank\":0,\"ev\":\"X\"}").is_err());
        assert!(parse_jsonl("{\"t\":1,\"rank\":0,\"ev\":7}").is_err());
        // What it does write: integers, strings, booleans, any spacing.
        let ok = parse_jsonl(" { \"t\" : 1 , \"rank\":0,\"ev\":\"X\",\"b\":true,\"c\":false } ")
            .unwrap();
        assert_eq!(ok[0].fields.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(ok[0].fields.get("c"), Some(&JsonValue::Bool(false)));
    }
}
