//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (each metric a `{"value", "unit"}` pair), printed as the
//! last line of standard output.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (mining calls, cover calls, queries, batches).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Appends `s` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number in JSON form, with every digit of its shortest exact
/// representation; non-finite values (never produced by a healthy run)
/// become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

impl Report {
    /// Renders the report as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, &m.name);
            out.push_str(&format!(
                ": {{\"value\": {}, \"unit\": ",
                json_number(m.value)
            ));
            push_json_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
pub mod parse {
    //! A reader for the subset of JSON the report uses, so tests can check
    //! that a rendered report reads back to the same values.

    use super::{Metric, Report};

    #[derive(Debug, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    struct P<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Json::Str),
                Some(b't') => self.word("true", Json::Bool(true)),
                Some(b'f') => self.word("false", Json::Bool(false)),
                Some(b'n') => self.word("null", Json::Null),
                _ => self.number(),
            }
        }

        fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
            if self.s[self.i..].starts_with(w.as_bytes()) {
                self.i += w.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                self.i += 1;
            }
            std::str::from_utf8(&self.s[start..self.i])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                self.i += c.len_utf8();
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let e = self.s.get(self.i).copied().ok_or("bad escape")?;
                        self.i += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                    .map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad code point")?);
                                self.i += 4;
                            }
                            _ => return Err(format!("unsupported escape at byte {}", self.i)),
                        }
                    }
                    c => out.push(c),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.ws();
            if self.s.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.s.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            self.ws();
            if self.s.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.ws();
                let k = self.string()?;
                self.eat(b':')?;
                fields.push((k, self.value()?));
                self.ws();
                match self.s.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                }
            }
        }
    }

    /// Parses one JSON value spanning all of `s`.
    pub fn json(s: &str) -> Result<Json, String> {
        let mut p = P {
            s: s.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn field<'a>(fields: &'a [(String, Json)], k: &str) -> Result<&'a Json, String> {
        fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing `{k}`"))
    }

    /// Reads a report back, requiring exactly the four top-level keys.
    pub fn report(s: &str) -> Result<Report, String> {
        let Json::Obj(top) = json(s)? else {
            return Err("not an object".into());
        };
        let mut keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |k: &str| match field(&top, k)? {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("`{k}` is not a whole number")),
        };
        let Json::Bool(correct) = field(&top, "correct")? else {
            return Err("`correct` is not a bool".into());
        };
        let Json::Obj(ms) = field(&top, "metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let Json::Obj(m) = m else {
                return Err(format!("metric `{name}` is not an object"));
            };
            let (Json::Num(value), Json::Str(unit)) = (field(m, "value")?, field(m, "unit")?)
            else {
                return Err(format!("metric `{name}` needs a numeric value and a unit"));
            };
            metrics.push(Metric {
                name: name.clone(),
                value: *value,
                unit: unit.clone(),
            });
        }
        Ok(Report {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let r = Report {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "stage1_ms".into(),
                    value: 3_512.062_347_1,
                    unit: "ms".into(),
                },
                Metric {
                    name: "parallel.steal.busy_share".into(),
                    value: 0.1,
                    unit: "ratio".into(),
                },
                Metric {
                    name: "graph.bytes".into(),
                    value: 72_179_279.0,
                    unit: "B".into(),
                },
                Metric {
                    name: "tiny".into(),
                    value: 1.25e-7,
                    unit: "s".into(),
                },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(parse::report(&line), Ok(r));
    }

    #[test]
    fn failed_run_round_trips_and_bad_schema_is_rejected() {
        let r = Report {
            correct: false,
            attempted: 3,
            failed: 2,
            metrics: vec![],
        };
        assert_eq!(parse::report(&r.to_json()), Ok(r));
        assert!(parse::report(r#"{"correct": true, "attempted": 1, "metrics": {}}"#).is_err());
        assert!(parse::report(
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#
        )
        .is_err());
    }

    #[test]
    fn strings_escape() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, r#""a\"b\\c\u000a""#);
        assert_eq!(parse::json(&s), Ok(parse::Json::Str("a\"b\\c\n".into())));
    }
}
