//! A reader for the JSON the harness itself writes (a child's result line,
//! `BENCHMARK.json`), producing the bench crate's [`Json`] value.  It
//! accepts standard JSON except `\u` escapes, which the harness never emits.

use chiaroscuro_bench::Json;

pub fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = reader.value()?;
    reader.skip_space();
    if reader.at != reader.bytes.len() {
        return Err(reader.fail("trailing characters"));
    }
    Ok(value)
}

/// The field `key` of an object.
pub fn field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
pub fn string(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn fail(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn expect(&mut self, literal: &str) -> Result<(), String> {
        self.skip_space();
        if self.eat(literal) {
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{literal}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self
                .sequence('}', |r| {
                    let key = r.string()?;
                    r.expect(":")?;
                    Ok((key, r.value()?))
                })
                .map(Json::Object),
            Some(b'[') => self.sequence(']', Reader::value).map(Json::Array),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.fail("unexpected end")),
        }
    }

    /// A bracketed, comma-separated list of `item`s; the opening bracket is
    /// at the cursor.
    fn sequence<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_space();
        if self.eat(close.encode_utf8(&mut [0; 4])) {
            return Ok(items);
        }
        loop {
            self.skip_space();
            items.push(item(self)?);
            self.skip_space();
            if self.eat(",") {
                continue;
            }
            self.expect(close.encode_utf8(&mut [0; 4]))?;
            return Ok(items);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let byte = *self
                .bytes
                .get(self.at)
                .ok_or_else(|| self.fail("unterminated string"))?;
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|_| self.fail("invalid UTF-8")),
                b'\\' => {
                    let escaped = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.fail("dangling escape"))?;
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'"' | b'\\' | b'/' => escaped,
                        _ => return Err(self.fail("unsupported escape")),
                    });
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b"+-.eE0123456789".contains(b))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_the_emitter_renders() {
        let doc = Json::object()
            .set("correct", true)
            .set("attempted", 7usize)
            .set("note", "a \"quoted\"\nline")
            .set("nothing", None::<f64>)
            .set(
                "metrics",
                Json::object().set(
                    "iteration_s",
                    Json::object().set("value", 1.25e-3).set("unit", "s"),
                ),
            )
            .set(
                "list",
                Json::Array(vec![Json::Num(-1.5), Json::Array(vec![]), Json::object()]),
            );
        let parsed = parse(&doc.render()).unwrap();
        assert_eq!(parsed.render(), doc.render());
        let metric = field(field(&parsed, "metrics").unwrap(), "iteration_s").unwrap();
        assert_eq!(number(field(metric, "value").unwrap()), Some(1.25e-3));
        assert_eq!(string(field(metric, "unit").unwrap()), Some("s"));
    }

    #[test]
    fn accepts_whitespace_and_rejects_garbage() {
        assert!(parse(" { \"a\" : [ 1 , 2 ] }\n").is_ok());
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "{} x", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
