//! A minimal Rust lexer for `rmlint`'s source rules.
//!
//! `rmlint` v1 scanned stripped source line by line with `contains()`,
//! which had two structural weaknesses: a rule token split across
//! constructs it could not see (`Vec :: new`), and a test-module skip
//! that ran from the first `#[cfg(test)]` to end of file — any non-test
//! code after a test module was silently unscanned. This module replaces
//! both with a real token stream:
//!
//! - every token carries its **line** and **brace depth**,
//! - comments and literals are tokenized (never confused with code),
//! - `#[cfg(test)]` / `#[test]` items are marked **brace-aware**: the test
//!   flag covers exactly the attributed item, so code after a test module
//!   is scanned again.
//!
//! The lexer is deliberately not a parser: it understands just enough
//! structure (items, matched braces, attributes) for the rules in
//! [`crate::lint`]. It is zero-dependency and never panics on arbitrary
//! input — worst case it mis-tokenizes, and the rules degrade to
//! not-firing rather than crashing.

/// Token category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_`).
    Ident,
    /// Punctuation; common two-character operators (`::`, `=>`, `+=`,
    /// `==`, ...) are fused into one token.
    Punct,
    /// String, byte-string, or char literal. `text` holds the literal's
    /// contents (quotes stripped) so rules can still grep inside strings
    /// when they mean to (e.g. counter names asserted via JSON fixtures).
    Str,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Category.
    pub kind: TokKind,
    /// The token's text (contents only, for [`TokKind::Str`]).
    pub text: String,
    /// 1-based source line of the token's first byte.
    pub line: usize,
    /// Brace depth: the number of unclosed `{` before this token. An
    /// opening `{` and its matching `}` carry the same depth; the tokens
    /// between them carry `depth + 1`.
    pub depth: u32,
    /// True when the token lies inside a `#[cfg(test)]` / `#[test]` item
    /// (brace-aware, not to-end-of-file).
    pub in_test: bool,
}

/// Two-character operators fused into one `Punct` token, longest match
/// first at each position.
const FUSED: &[&str] = &[
    "::", "=>", "->", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=", "<<",
    ">>", "&&", "||", "..",
];

/// Lex `src` into tokens with line/span/depth, then mark test regions.
pub fn lex(src: &str) -> Vec<Token> {
    let mut tokens = raw_lex(src);
    mark_tests(&mut tokens);
    tokens
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

#[allow(clippy::too_many_lines)]
fn raw_lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut depth = 0u32;
    // Count newlines in b[from..to) into `line`.
    let bump_lines = |line: &mut usize, from: usize, to: usize| {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count();
    };
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut d = 1u32;
                i += 2;
                while i < b.len() && d > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        d += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        d -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                bump_lines(&mut line, start, i);
            }
            b'"' => {
                let (tok, next) = lex_string(b, i, line, depth);
                bump_lines(&mut line, i, next);
                i = next;
                out.push(tok);
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let (tok, next) = lex_raw_or_byte(b, i, line, depth);
                bump_lines(&mut line, i, next);
                i = next;
                out.push(tok);
            }
            b'\'' => {
                // Char literal or lifetime.
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal '\x41' / '\n'.
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(b.len());
                    out.push(tok(TokKind::Str, String::new(), line, depth));
                } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    // Plain char literal 'z'.
                    let text = (b[i + 1] as char).to_string();
                    out.push(tok(TokKind::Str, text, line, depth));
                    i += 3;
                } else if b.get(i + 1).copied().is_some_and(is_ident_start) {
                    // Lifetime 'a / 'static.
                    let start = i;
                    i += 1;
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                    out.push(tok(TokKind::Lifetime, text, line, depth));
                } else {
                    out.push(tok(TokKind::Punct, "'".to_string(), line, depth));
                    i += 1;
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                out.push(tok(TokKind::Ident, text, line, depth));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (is_ident_cont(b[i])) {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                out.push(tok(TokKind::Num, text, line, depth));
            }
            b'{' => {
                out.push(tok(TokKind::Punct, "{".to_string(), line, depth));
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                out.push(tok(TokKind::Punct, "}".to_string(), line, depth));
                i += 1;
            }
            _ => {
                // Punctuation, fusing the common two-character operators.
                let two = if i + 1 < b.len() { &src[i..i + 2] } else { "" };
                if FUSED.contains(&two) {
                    out.push(tok(TokKind::Punct, two.to_string(), line, depth));
                    i += 2;
                } else {
                    let text = (c as char).to_string();
                    out.push(tok(TokKind::Punct, text, line, depth));
                    i += 1;
                }
            }
        }
    }
    out
}

fn tok(kind: TokKind, text: String, line: usize, depth: u32) -> Token {
    Token {
        kind,
        text,
        line,
        depth,
        in_test: false,
    }
}

/// Does `b[i..]` start a raw string (`r"`, `r#"`), byte string (`b"`),
/// byte char (`b'`), or raw byte string (`br"`, `br#"`)?
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        match b.get(j) {
            Some(b'"') | Some(b'\'') => return true,
            Some(b'r') => j += 1,
            _ => return false,
        }
    } else if b[j] == b'r' {
        j += 1;
    } else {
        return false;
    }
    // After `r` / `br`: hashes then a quote mean raw string.
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

/// Lex a plain `"..."` string starting at `i`. Returns the token and the
/// index one past the closing quote.
fn lex_string(b: &[u8], i: usize, line: usize, depth: u32) -> (Token, usize) {
    let mut j = i + 1;
    let mut text = Vec::new();
    while j < b.len() && b[j] != b'"' {
        if b[j] == b'\\' {
            j += 1; // skip the escaped character
            if j < b.len() {
                text.push(b[j]);
                j += 1;
            }
        } else {
            text.push(b[j]);
            j += 1;
        }
    }
    j = (j + 1).min(b.len());
    let text = String::from_utf8_lossy(&text).into_owned();
    (tok(TokKind::Str, text, line, depth), j)
}

/// Lex `r"..."`, `r#"..."#`, `b"..."`, `b'x'`, `br#"..."#` starting at `i`.
fn lex_raw_or_byte(b: &[u8], i: usize, line: usize, depth: u32) -> (Token, usize) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) == Some(&b'\'') {
        // Byte char b'x' / b'\n'.
        j += 1;
        if b.get(j) == Some(&b'\\') {
            j += 1;
        }
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        j = (j + 1).min(b.len());
        return (tok(TokKind::Str, String::new(), line, depth), j);
    }
    if b.get(j) == Some(&b'r') {
        j += 1;
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        // Plain byte string b"...".
        return lex_string(b, j.saturating_sub(1), line, depth);
    }
    j += 1;
    let content_start = j;
    let mut content_end = b.len();
    'raw: while j < b.len() {
        if b[j] == b'"' {
            let mut k = 0;
            while k < hashes && b.get(j + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                content_end = j;
                j += 1 + hashes;
                break 'raw;
            }
        }
        j += 1;
    }
    let text = String::from_utf8_lossy(&b[content_start..content_end.min(b.len())]).into_owned();
    (tok(TokKind::Str, text, line, depth), j)
}

/// Mark every token belonging to a `#[cfg(test)]` / `#[test]` item with
/// `in_test = true`. Brace-aware: the flag covers exactly the attributed
/// item (to its matching `}` or terminating `;`), not to end of file.
fn mark_tests(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = test_attr_end(tokens, i) {
            // Skip any further attributes between this one and the item.
            let mut j = attr_end + 1;
            while j < tokens.len()
                && tokens[j].text == "#"
                && tokens.get(j + 1).is_some_and(|t| t.text == "[")
            {
                j = match bracket_end(tokens, j + 1) {
                    Some(e) => e + 1,
                    None => tokens.len(),
                };
            }
            // The item: ends at the matching `}` of its first block, or at
            // a `;` that appears before any block opens (e.g. `use` items).
            let mut end = tokens.len().saturating_sub(1);
            let mut k = j;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    ";" => {
                        end = k;
                        break;
                    }
                    "{" => {
                        end = brace_end(tokens, k).unwrap_or(tokens.len() - 1);
                        break;
                    }
                    _ => k += 1,
                }
            }
            let end = end.min(tokens.len() - 1);
            for t in &mut tokens[i..=end] {
                t.in_test = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
}

/// If tokens at `i` begin a test attribute (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]` — but not `#[cfg(not(test))]`), return the
/// index of its closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
        return None;
    }
    let end = bracket_end(tokens, i + 1)?;
    let idents: Vec<&str> = tokens[i + 2..end]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    let is_test = match idents.first() {
        Some(&"test") => idents.len() == 1,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    is_test.then_some(end)
}

/// Index of the `]` matching the `[` at `open` (same nesting level).
fn bracket_end(tokens: &[Token], open: usize) -> Option<usize> {
    let mut d = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "[" => d += 1,
            "]" => {
                d -= 1;
                if d == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open` (they share a depth value).
fn brace_end(tokens: &[Token], open: usize) -> Option<usize> {
    let d = tokens[open].depth;
    tokens
        .iter()
        .enumerate()
        .skip(open + 1)
        .find(|(_, t)| t.text == "}" && t.depth == d)
        .map(|(k, _)| k)
}

/// A function item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the body's opening `{`.
    pub body_open: usize,
    /// Token index of the body's closing `}`.
    pub body_close: usize,
}

/// Every function item with a body (trait-method declarations without
/// bodies are skipped). Nested functions are reported separately *and*
/// covered by their enclosing function's span.
pub fn fn_bodies(tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Ident && tokens[i].text == "fn" {
            let name = match tokens.get(i + 1) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Find the body `{` (or a `;` — no body) at the fn's depth.
            let mut k = i + 2;
            let mut body = None;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    ";" if tokens[k].depth == tokens[i].depth => break,
                    "{" if tokens[k].depth == tokens[i].depth => {
                        body = Some(k);
                        break;
                    }
                    _ => k += 1,
                }
            }
            if let Some(open) = body {
                if let Some(close) = brace_end(tokens, open) {
                    out.push(FnSpan {
                        name,
                        body_open: open,
                        body_close: close,
                    });
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Does the token sequence starting at `i` match `pat` textually?
pub fn seq_at(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    i + pat.len() <= tokens.len()
        && pat
            .iter()
            .enumerate()
            .all(|(k, p)| tokens[i + k].text == *p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn basic_tokens_and_fused_puncts() {
        let t = texts("let x = a::b(c) += 1; // comment\nfoo=>bar");
        assert_eq!(
            t,
            vec![
                "let", "x", "=", "a", "::", "b", "(", "c", ")", "+=", "1", ";", "foo", "=>", "bar"
            ]
        );
    }

    #[test]
    fn strings_and_chars_are_literals_not_code() {
        let toks = lex("let s = \"Instant::now\"; let c = 'z'; let lt: &'a str = s;");
        assert!(toks
            .iter()
            .all(|t| t.kind != TokKind::Ident || t.text != "Instant"));
        let strs: Vec<&Token> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs[0].text, "Instant::now", "string contents preserved");
        assert_eq!(strs[1].text, "z");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn raw_strings_and_byte_strings() {
        let toks = lex("let a = r#\"raw \" contents\"#; let b = b\"bytes\"; let c = b'x';");
        let strs: Vec<&Token> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 3);
        assert_eq!(strs[0].text, "raw \" contents");
    }

    #[test]
    fn lines_and_depth_are_tracked() {
        let toks = lex("fn f() {\n    inner();\n}\nfn g() {}\n");
        let inner = toks.iter().find(|t| t.text == "inner").unwrap();
        assert_eq!(inner.line, 2);
        assert_eq!(inner.depth, 1);
        let g = toks.iter().find(|t| t.text == "g").unwrap();
        assert_eq!(g.line, 4);
        assert_eq!(g.depth, 0);
    }

    #[test]
    fn cfg_test_marking_is_brace_aware() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n\
                   fn also_live() { after(); }\n";
        let toks = lex(src);
        let helper = toks.iter().find(|t| t.text == "helper").unwrap();
        assert!(helper.in_test);
        let after = toks.iter().find(|t| t.text == "after").unwrap();
        assert!(!after.in_test, "code after a test module must be scanned");
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let toks = lex("#[cfg(not(test))]\nfn live() { work(); }\n");
        assert!(toks.iter().all(|t| !t.in_test));
    }

    #[test]
    fn test_attr_marks_single_fn_only() {
        let src = "#[test]\nfn t() { check(); }\nfn live() { work(); }\n";
        let toks = lex(src);
        assert!(toks.iter().find(|t| t.text == "check").unwrap().in_test);
        assert!(!toks.iter().find(|t| t.text == "work").unwrap().in_test);
    }

    #[test]
    fn fn_bodies_found_with_matching_braces() {
        let toks = lex("fn a() { x(); }\nimpl T { fn b(&self) -> u8 { if q { 1 } else { 2 } } }");
        let fns = fn_bodies(&toks);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        for f in &fns {
            assert_eq!(toks[f.body_open].text, "{");
            assert_eq!(toks[f.body_close].text, "}");
            assert_eq!(toks[f.body_open].depth, toks[f.body_close].depth);
        }
    }
}
