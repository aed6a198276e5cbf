//! The one-line JSON result every invocation ends with.

use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: correctness verdict, operation counts and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Renders the result as one JSON object. Values keep every digit
    /// Rust's shortest round-trip formatting gives; a non-finite value
    /// (which JSON cannot carry) is a bug in the metric and panics.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            assert!(
                metric.value.is_finite(),
                "metric {} is not finite: {}",
                metric.name,
                metric.value
            );
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` keeps a decimal point on integral values (`3.0`), so
            // every value reads back as a float.
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader for the result line's shape: objects,
    /// strings without escapes, booleans and numbers.
    #[derive(Debug, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Obj(Vec<(String, Json)>),
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes");
        value
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

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.i;
            while self.s[self.i] != b'"' {
                assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
                self.i += 1;
            }
            self.i += 1;
            String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.eat(b'{');
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    loop {
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Json::Obj(fields);
                        }
                        assert_eq!(self.s[self.i - 1], b',');
                    }
                }
                b'"' => Json::Str(self.string()),
                b't' | b'f' => {
                    let truth = self.s[self.i] == b't';
                    self.i += if truth { 4 } else { 5 };
                    Json::Bool(truth)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Json::Num(text.parse().unwrap())
                }
            }
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        match obj {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).unwrap().1,
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            correct: true,
            attempted: 123_456,
            failed: 7,
            metrics: vec![
                Metric {
                    name: "allocs_per_s",
                    value: 15_506.123_456_789_012,
                    unit: "1/s",
                },
                Metric {
                    name: "setup_s",
                    value: 0.000_812_734_5,
                    unit: "s",
                },
                Metric {
                    name: "sim.events",
                    value: 3.0,
                    unit: "count",
                },
                Metric {
                    name: "tiny",
                    value: 1.25e-12,
                    unit: "ratio",
                },
            ],
        };
        let line = outcome.to_json();
        assert!(!line.contains('\n'));
        let json = parse(&line);
        assert_eq!(field(&json, "correct"), &Json::Bool(true));
        assert_eq!(field(&json, "attempted"), &Json::Num(123_456.0));
        assert_eq!(field(&json, "failed"), &Json::Num(7.0));
        let metrics = field(&json, "metrics");
        let Json::Obj(entries) = metrics else {
            panic!("metrics is not an object")
        };
        assert_eq!(entries.len(), outcome.metrics.len());
        for metric in &outcome.metrics {
            let entry = field(metrics, metric.name);
            // Bit-exact: every digit survives the round trip.
            assert_eq!(field(entry, "value"), &Json::Num(metric.value));
            assert_eq!(field(entry, "unit"), &Json::Str(metric.unit.to_string()));
        }
    }

    #[test]
    fn failed_verdict_and_empty_metrics_render() {
        let outcome = Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
        let json = parse(&outcome.to_json());
        assert_eq!(field(&json, "correct"), &Json::Bool(false));
        assert_eq!(field(&json, "metrics"), &Json::Obj(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
        }
        .to_json();
    }
}
