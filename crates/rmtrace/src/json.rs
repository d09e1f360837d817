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
//!   one flat object per line, read back into the [`TraceRecord`] that
//!   wrote it by the reader `define_events!` derives beside the writer.
//!   Anything else (nested values, floats, negatives, booleans, null, an
//!   unknown event, a missing or extra field, an integer outside its
//!   field's type) is rejected loudly rather than guessed at, and
//!   integers are read from their lexeme, so the full `u64` range is
//!   exact.

use crate::event::{Field, TraceEvent, TraceRecord};

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

/// A scalar member of a trace line, before its field's type is known.
pub(crate) enum Scalar {
    /// An unsigned integer, read from its lexeme.
    Num(u64),
    /// A string.
    Str(String),
}

/// The members of one trace line, taken out one at a time by name.
pub(crate) struct Fields(Vec<(String, Scalar)>);

impl Fields {
    /// Remove member `key` and read it as the field type `T`.
    pub(crate) fn take<T: Field>(&mut self, key: &str) -> Result<T, String> {
        let i = self
            .0
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        T::read(self.0.swap_remove(i).1).map_err(|e| format!("field {key:?}: {e}"))
    }
}

/// Parse a whole JSONL trace back into the records that wrote it,
/// skipping blank lines. Returns `Err(line_number, message)` on the first
/// line (1-based) that is not exactly one record: an unknown event, a
/// missing or extra field, or an integer outside its field's type.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, (usize, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(record(line).map_err(|e| (i + 1, e))?);
    }
    Ok(out)
}

fn record(line: &str) -> Result<TraceRecord, String> {
    let mut fields = flat_object(line)?;
    let t_ns = fields.take("t")?;
    let rank = fields.take("rank")?;
    let name: String = fields.take("ev")?;
    let ev = TraceEvent::read_json_fields(&name, &mut fields)?;
    match fields.0.first() {
        Some((key, _)) => Err(format!("{name} has no field {key:?}")),
        None => Ok(TraceRecord { t_ns, rank, ev }),
    }
}

/// One trace line: an object whose every member is a [`Scalar`], each
/// key once.
fn flat_object(line: &str) -> Result<Fields, String> {
    let mut p = Parser::new(line);
    let mut members: Vec<(String, Scalar)> = Vec::new();
    p.seq(b'{', b'}', |p| {
        let key = p.key()?;
        let val = match p.peek() {
            Some(b'"') => Scalar::Str(p.string()?),
            Some(c) if c.is_ascii_digit() => {
                let txt = p.number();
                let n = txt
                    .parse()
                    .map_err(|e| format!("bad integer {txt:?}: {e}"))?;
                Scalar::Num(n)
            }
            other => {
                return Err(format!(
                    "unexpected {other:?} at byte {}: trace values are unsigned \
                     integers or strings",
                    p.i
                ))
            }
        };
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate field {key:?}"));
        }
        members.push((key, val));
        Ok(())
    })?;
    p.end()?;
    Ok(Fields(members))
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
    use crate::event::DropCause;

    #[test]
    fn round_trips_emitted_records() {
        let recs = vec![
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
                ev: TraceEvent::Drop {
                    cause: DropCause::WireFault,
                },
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
        assert_eq!(parse_jsonl(&text).unwrap(), recs);
        for &cause in DropCause::ALL {
            let r = TraceRecord {
                t_ns: 1,
                rank: 1,
                ev: TraceEvent::Drop { cause },
            };
            assert_eq!(parse_jsonl(&r.to_json()).unwrap(), [r]);
        }
    }

    /// A `Delivered` line whose `u64` field `msg_id` reads `v`.
    fn line(v: &str) -> String {
        format!("{{\"t\":1,\"rank\":0,\"ev\":\"Delivered\",\"transfer\":1,\"msg_id\":{v}}}")
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let err = parse_jsonl(&(line("1") + "\nnot json\n")).unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn skips_blank_lines() {
        let parsed = parse_jsonl(&format!("\n{}\n\n", line("1"))).unwrap();
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

    #[test]
    fn jsonl_integers_are_exact_over_the_whole_u64_range() {
        let max = u64::MAX;
        let text = format!(
            "{{\"t\":{max},\"rank\":0,\"ev\":\"Delivered\",\"transfer\":1,\"msg_id\":{max}}}"
        );
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed[0].t_ns, max);
        let msg_id = |recs: &[TraceRecord]| match recs[0].ev {
            TraceEvent::Delivered { msg_id, .. } => msg_id,
            _ => unreachable!("a Delivered line"),
        };
        assert_eq!(msg_id(&parsed), max);
        // 2^53 + 1 is where an f64 detour would start rounding.
        let parsed = parse_jsonl(&line("9007199254740993")).unwrap();
        assert_eq!(msg_id(&parsed), 9_007_199_254_740_993);
        assert!(parse_jsonl(&line("18446744073709551616")).is_err());
    }

    #[test]
    fn jsonl_rejects_what_the_emitter_never_writes() {
        // Every one of these is a JSON value, and none is a trace value.
        for v in ["1e3", "1.5", "-1", "{\"a\":1}", "[1]", "null", "true"] {
            assert!(Json::parse(&line(v)).is_ok(), "{v} is valid JSON");
            let err = parse_jsonl(&line(v)).unwrap_err();
            assert_eq!(err.0, 1, "{v}: {}", err.1);
        }
        assert!(
            parse_jsonl(&(line("1") + " x")).is_err(),
            "trailing garbage"
        );
        assert!(
            parse_jsonl("{\"rank\":0,\"ev\":\"EpochChange\",\"epoch\":1}").is_err(),
            "no t"
        );
        assert!(
            parse_jsonl("{\"t\":\"1\",\"rank\":0,\"ev\":\"EpochChange\",\"epoch\":1}").is_err()
        );
        assert!(parse_jsonl("{\"t\":1,\"rank\":0,\"ev\":7}").is_err());
        // Lines that are flat objects of integers and strings, and still no
        // record the emitter writes.
        let accepted: Vec<&str> = [
            (
                "unknown event",
                "{\"t\":1,\"rank\":0,\"ev\":\"NoSuchEvent\"}",
            ),
            (
                "unknown field",
                "{\"t\":1,\"rank\":0,\"ev\":\"EpochChange\",\"epoch\":1,\"extra\":2}",
            ),
            (
                "missing field",
                "{\"t\":1,\"rank\":0,\"ev\":\"DataSent\",\"transfer\":1}",
            ),
            (
                "rank 70000",
                "{\"t\":1,\"rank\":70000,\"ev\":\"EpochChange\",\"epoch\":1}",
            ),
            (
                "u32 at 2^32",
                "{\"t\":1,\"rank\":0,\"ev\":\"EpochChange\",\"epoch\":4294967296}",
            ),
            (
                "duplicate field",
                "{\"t\":1,\"rank\":0,\"ev\":\"EpochChange\",\"epoch\":1,\"epoch\":1}",
            ),
            (
                "unknown cause",
                "{\"t\":1,\"rank\":0,\"ev\":\"Drop\",\"cause\":\"Gremlins\"}",
            ),
            (
                "quoted integer",
                "{\"t\":1,\"rank\":0,\"ev\":\"EpochChange\",\"epoch\":\"1\"}",
            ),
        ]
        .into_iter()
        .filter(|(_, l)| parse_jsonl(l).map_err(|e| e.0) != Err(1))
        .map(|(what, _)| what)
        .collect();
        assert!(accepted.is_empty(), "accepted: {accepted:?}");
        // What it does write, with any spacing and member order.
        let ok =
            parse_jsonl(" { \"rank\" : 3 , \"ev\":\"EpochChange\",\"t\":1,\"epoch\":2 } ").unwrap();
        assert_eq!(
            ok,
            [TraceRecord {
                t_ns: 1,
                rank: 3,
                ev: TraceEvent::EpochChange { epoch: 2 },
            }]
        );
    }
}
