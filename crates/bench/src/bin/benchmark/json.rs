//! A minimal JSON reader into `paso_wire::mini_json::Json` (which only
//! writes). Enough for `BENCHMARK.json` and the benchmark's own output;
//! `\u` escapes outside the BMP are not combined.

use paso_wire::mini_json::Json;

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first thing that is not JSON.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Object member lookup.
pub fn get<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Any JSON number as a float.
pub fn as_f64(json: &Json) -> Option<f64> {
    match json {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

pub fn as_str(json: &Json) -> Option<&str> {
    match json {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_array(json: &Json) -> &[Json] {
    match json {
        Json::Arr(items) => items,
        _ => &[],
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(entries));
                    }
                    if !entries.is_empty() && !self.eat(",") {
                        return Err(self.err("expected , or }"));
                    }
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected :"));
                    }
                    entries.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.err("expected , or ]"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected string"));
        }
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or(self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8")),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or(self.err("unterminated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(self.err("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(u) = text.parse::<u64>() {
            Ok(Json::UInt(u))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("expected a value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_mini_json_writes() {
        let doc = Json::obj([
            ("name", Json::Str("α \"quoted\"\n".into())),
            (
                "xs",
                Json::Arr(vec![
                    Json::Int(-1),
                    Json::UInt(2),
                    Json::Num(1.5),
                    Json::Null,
                ]),
            ),
            ("ok", Json::Bool(true)),
            ("nested", Json::obj([("k", Json::Arr(vec![]))])),
        ]);
        assert_eq!(parse(&doc.render()), Ok(doc));
    }

    #[test]
    fn accessors_and_errors() {
        let doc = parse(r#" { "a" : [ 1 , 2.5e0 ] , "b" : "xA" } "#).expect("valid");
        assert_eq!(as_array(get(&doc, "a").expect("a")).len(), 2);
        assert_eq!(as_f64(&as_array(get(&doc, "a").expect("a"))[1]), Some(2.5));
        assert_eq!(get(&doc, "b").and_then(as_str), Some("xA"));
        assert!(get(&doc, "c").is_none());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }
}
