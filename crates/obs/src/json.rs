//! A minimal JSON writer — the one serialization surface every exporter
//! in this workspace shares (metrics, calibration reports, bench
//! trajectories, `EXPLAIN ANALYZE`).
//!
//! The workspace builds fully offline (no serde); this module is the
//! small, dependency-free subset actually needed: objects, arrays,
//! strings with escaping, and numbers formatted so they round-trip
//! (integers without a fraction, floats with enough digits and never
//! `NaN`/`inf` — those become `null`, which any reader treats as
//! "not measured").

/// Escape `s` as the *contents* of a JSON string (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a float as a JSON number: integers lose the fraction, other
/// finite values keep enough digits to be useful, and non-finite
/// values become `null` (JSON has no `NaN`).
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Incremental JSON object builder.
///
/// ```
/// use gcm_obs::json::Obj;
/// let mut o = Obj::new();
/// o.str("name", "scan").u64("rows", 42).num("ns", 1.5);
/// assert_eq!(o.finish(), r#"{"name":"scan","rows":42,"ns":1.500}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj { buf: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        let e = escape(v);
        let b = self.key(k);
        b.push('"');
        b.push_str(&e);
        b.push('"');
        self
    }

    /// Add an integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Obj {
        let s = v.to_string();
        self.key(k).push_str(&s);
        self
    }

    /// Add a float field (see [`num`] for the formatting contract).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Obj {
        let s = num(v);
        self.key(k).push_str(&s);
        self
    }

    /// Add a pre-serialized JSON value (nested object/array).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Obj {
        let v = v.to_string();
        self.key(k).push_str(&v);
        self
    }

    /// Close the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental JSON array builder (elements are pre-serialized values).
#[derive(Debug, Default)]
pub struct Arr {
    buf: String,
}

impl Arr {
    /// An empty array.
    pub fn new() -> Arr {
        Arr { buf: String::new() }
    }

    /// Append a pre-serialized JSON value.
    pub fn raw(&mut self, v: &str) -> &mut Arr {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(v);
        self
    }

    /// Close the array.
    pub fn finish(&self) -> String {
        format!("[{}]", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_round_sensibly() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(3.25), "3.250");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(-2.0), "-2");
    }

    #[test]
    fn objects_and_arrays_compose() {
        let mut inner = Obj::new();
        inner.str("class", "scan").u64("count", 3);
        let mut arr = Arr::new();
        arr.raw(&inner.finish()).raw(&num(1.5)).raw("\"x\"");
        let mut o = Obj::new();
        o.raw("ok", "true").raw("rows", &arr.finish());
        assert_eq!(
            o.finish(),
            r#"{"ok":true,"rows":[{"class":"scan","count":3},1.500,"x"]}"#
        );
    }

    #[test]
    fn empty_builders() {
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(Arr::new().finish(), "[]");
    }
}
