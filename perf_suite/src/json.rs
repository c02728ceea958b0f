//! A small JSON value with an emitter (and, for the tests, a parser).
//!
//! The benchmark prints its result, `BENCHMARK.json` and the Chrome trace
//! through this one emitter, so it depends on no crate outside the
//! repository.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as given.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Multi-line rendering, two-space indent (for files people read).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            // Lists of scalars stay on one line.
            Json::Arr(items)
                if items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) =>
            {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    // One object per line keeps metric lists scannable.
                    out.push_str(&item.to_string());
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    out.push_str(&Json::str(k).to_string());
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

/// Compact one-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Rust prints the shortest digits that read back as the same
            // f64, so a measured value keeps every digit it has.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        '\r' => f.write_str("\\r")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::str(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
pub mod parse {
    //! Recursive-descent parser, enough to read back what the emitter
    //! writes (and `BENCHMARK.json`).
    use super::Json;

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.s[self.i..].starts_with(lit.as_bytes());
            if hit {
                self.i += lit.len();
            }
            hit
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                None => Err("unexpected end".into()),
                Some(b'{') => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.ws();
                        if !self.eat(":") {
                            return Err(format!("expected ':' at byte {}", self.i));
                        }
                        fields.push((key, self.value()?));
                        self.ws();
                        if self.eat("}") {
                            return Ok(Json::Obj(fields));
                        }
                        if !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.i));
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        if self.eat("]") {
                            return Ok(Json::Arr(items));
                        }
                        if !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.i));
                        }
                    }
                }
                Some(b'"') => self.string().map(Json::Str),
                Some(_) if self.eat("null") => Ok(Json::Null),
                Some(_) if self.eat("true") => Ok(Json::Bool(true)),
                Some(_) if self.eat("false") => Ok(Json::Bool(false)),
                Some(_) => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| b"+-.eE0123456789".contains(c))
                    {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad number at byte {start}"))
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return Err(format!("expected string at byte {}", self.i));
            }
            let mut out = Vec::new();
            loop {
                match self.s.get(self.i) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    Some(b'\\') => {
                        let esc = *self.s.get(self.i + 1).ok_or("dangling escape")?;
                        self.i += 2;
                        match esc {
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'u' => {
                                let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                                let code = std::str::from_utf8(hex)
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or("bad \\u escape")?;
                                self.i += 4;
                                out.extend_from_slice(code.to_string().as_bytes());
                            }
                            other => out.push(other),
                        }
                    }
                    Some(&c) => {
                        out.push(c);
                        self.i += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::parse;
    use super::*;

    #[test]
    fn metric_names_round_trip() {
        // Every character class a metric name may use.
        let names = [
            "wall_s",
            "compress.encode_ns_per_amp",
            "A-b.C_d-9",
            "0lead",
            "statevec.h_gb_s_computed",
        ];
        let emitted = Json::object(names.iter().enumerate().map(|(i, n)| {
            (
                *n,
                Json::object([
                    ("value", Json::Num(i as f64 + 0.125)),
                    ("unit", Json::str("ns/amp")),
                ]),
            )
        }));
        let back = parse(&emitted.to_string()).unwrap();
        assert_eq!(back, emitted);
        let Json::Obj(fields) = back else { panic!() };
        let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, names);
        assert_eq!(parse(&emitted.pretty()).unwrap(), emitted);
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_becomes_null() {
        for x in [1.2034, 5.688123456789012, 325.963584e-3, 1051008.0, 0.0] {
            assert_eq!(parse(&Json::Num(x).to_string()).unwrap(), Json::Num(x));
        }
        assert_eq!(Json::Num(1051008.0).to_string(), "1051008");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        let s = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&s.to_string()).unwrap(), s);
    }
}
