//! A minimal hand-rolled JSON writer (std-only; the workspace builds
//! without crates.io access, so serde is not an option).
//!
//! Only what the sweep reports, the Chrome traces and the benchmark's
//! result files need: objects, arrays, strings, integers, and finite
//! floats. Floats are written with
//! Rust's shortest round-trip formatting, so parsing the output
//! recovers bit-identical values.

use std::fmt::Write;

/// Escapes `s` as the *contents* of a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// An incremental JSON value writer with explicit begin/end nesting.
///
/// The caller is responsible for well-formedness (matching `begin_*` /
/// `end_*` calls); commas between siblings are inserted automatically.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Whether the current nesting level already holds a value (and thus
    /// needs a comma before the next one).
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Writes an object key (inside an object).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        // The upcoming value belongs to this key: suppress its comma.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Opens an object value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push('}');
        if let Some(last) = self.need_comma.last_mut() {
            *last = true;
        }
        self
    }

    /// Opens an array value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.buf.push(']');
        if let Some(last) = self.need_comma.last_mut() {
            *last = true;
        }
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a float value (`null` for non-finite inputs, which JSON
    /// cannot represent).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Consumes the writer, returning the JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure_renders() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("a \"b\"\n");
        w.key("n").u64(3);
        w.key("xs").begin_array();
        w.u64(1).u64(2);
        w.begin_object().key("y").f64(1.5).end_object();
        w.end_array();
        w.key("bad").f64(f64::NAN);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"a \"b\"\n","n":3,"xs":[1,2,{"y":1.5}],"bad":null}"#
        );
    }

    #[test]
    fn floats_round_trip_shortest() {
        let mut w = JsonWriter::new();
        w.f64(0.1 + 0.2);
        let s = w.finish();
        assert_eq!(s.parse::<f64>().unwrap(), 0.1 + 0.2);
    }
}
