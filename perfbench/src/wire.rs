//! A small JSON reader for the serve protocol's response lines, so the
//! benchmark can parse result streams back off the wire without trusting
//! the library's own encoder.

use amdj_core::ResultPair;

/// A parsed JSON value. Numbers keep their source text so integers and
/// shortest-round-trip `f64`s both parse back exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    /// A field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`.
    pub fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`.
    pub fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                Ok(Json::Num(
                    String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
                ))
            }
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4).ok_or("truncated \\u")?;
                            let code = u32::from_str_radix(&String::from_utf8_lossy(hex), 16)
                                .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                _ => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }
}

/// A parsed `Results` response line.
#[derive(Debug, PartialEq)]
pub struct Results {
    /// The delivered pairs.
    pub pairs: Vec<ResultPair>,
    /// Whether the query or cursor is exhausted.
    pub done: bool,
    /// Pairs delivered to this id so far.
    pub delivered_total: u64,
    /// Admission wait reported for the request, ns.
    pub queue_wait_ns: u64,
}

/// Parses a response line that must be `ok` and carry results.
pub fn parse_results(line: &str) -> Result<Results, String> {
    let v = ok_response(line)?;
    let rows = v
        .get("results")
        .and_then(Json::arr)
        .ok_or("response has no results")?;
    let pairs = rows
        .iter()
        .map(|row| {
            Some(ResultPair {
                r: row.get("r")?.u64()?,
                s: row.get("s")?.u64()?,
                dist: row.get("dist")?.f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed result row")?;
    Ok(Results {
        pairs,
        done: v.get("done").and_then(Json::bool).ok_or("no done")?,
        delivered_total: v
            .get("delivered_total")
            .and_then(Json::u64)
            .ok_or("no delivered_total")?,
        queue_wait_ns: v
            .get("queue_wait_ns")
            .and_then(Json::u64)
            .ok_or("no queue_wait_ns")?,
    })
}

/// Parses a response line and requires `"ok": true`.
pub fn ok_response(line: &str) -> Result<Json, String> {
    let v = Json::parse(line.trim_end())?;
    if v.get("ok").and_then(Json::bool) == Some(true) {
        Ok(v)
    } else {
        Err(format!("refused: {}", line.trim_end()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_core::serve::codec::Response;

    #[test]
    fn results_round_trip_bit_for_bit() {
        let pairs = vec![
            ResultPair {
                r: 1,
                s: 2,
                dist: 0.1 + 0.2,
            },
            ResultPair {
                r: u64::MAX,
                s: 0,
                dist: 1e-300,
            },
            ResultPair {
                r: 7,
                s: 9,
                dist: 0.0,
            },
        ];
        let line = Response::Results {
            id: "q\"1".to_string(),
            op: "kdj",
            results: pairs.clone(),
            done: true,
            delivered_total: 3,
            queue_wait_ns: 42,
        }
        .encode();
        let got = parse_results(&line).expect("parses");
        assert_eq!(got.pairs.len(), 3);
        for (g, w) in got.pairs.iter().zip(&pairs) {
            assert_eq!((g.r, g.s, g.dist.to_bits()), (w.r, w.s, w.dist.to_bits()));
        }
        assert!(got.done);
        assert_eq!((got.delivered_total, got.queue_wait_ns), (3, 42));
    }

    #[test]
    fn refusals_are_errors() {
        let line = Response::Error {
            id: Some("c".to_string()),
            error: "no cursor `c`".to_string(),
        }
        .encode();
        assert!(parse_results(&line).is_err());
        assert!(ok_response("{\"ok\":true,\"op\":\"idj_close\",\"id\":\"c\"}").is_ok());
        assert!(Json::parse("{\"a\":[1,2").is_err());
    }
}
