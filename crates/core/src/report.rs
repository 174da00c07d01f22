//! A minimal JSON-lines encoder ([`json_line`], [`JsonLinesWriter`]) for
//! stable machine-readable experiment records.

use std::fmt::Write as _;
use std::io;

/// One typed value of a [`json_line`] record.
#[derive(Clone, Copy, Debug)]
pub enum JsonField<'a> {
    /// A string (escaped on encoding).
    Str(&'a str),
    /// An unsigned integer.
    UInt(u64),
    /// A signed (possibly wide) integer. JSON numbers are unbounded;
    /// consumers needing exact `i128` values should parse accordingly.
    Int(i128),
    /// A float; non-finite values encode as `null`.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

fn push_json_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Encodes one flat record as a single JSON line (no trailing newline).
///
/// Field order is preserved, strings are escaped, and the output never
/// contains a raw newline — the stability contract batch consumers rely
/// on. Duplicate keys are the caller's responsibility.
///
/// # Examples
///
/// ```
/// use mcs_core::{json_line, JsonField};
///
/// let line = json_line(&[
///     ("strategy", JsonField::Str("OS")),
///     ("schedulable", JsonField::Bool(true)),
///     ("total_buffers", JsonField::UInt(1020)),
/// ]);
/// assert_eq!(
///     line,
///     r#"{"strategy": "OS", "schedulable": true, "total_buffers": 1020}"#
/// );
/// ```
pub fn json_line(fields: &[(&str, JsonField<'_>)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_escaped(&mut out, key);
        out.push_str(": ");
        match value {
            JsonField::Str(s) => push_json_escaped(&mut out, s),
            JsonField::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonField::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonField::Float(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            JsonField::Float(_) => out.push_str("null"),
            JsonField::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
    out.push('}');
    out
}

/// A JSON-lines (`.jsonl`) stream writer: one [`json_line`] record per
/// line over any [`io::Write`] sink.
#[derive(Debug)]
pub struct JsonLinesWriter<W: io::Write> {
    sink: W,
    records: u64,
}

impl<W: io::Write> JsonLinesWriter<W> {
    /// Wraps a sink.
    pub fn new(sink: W) -> Self {
        JsonLinesWriter { sink, records: 0 }
    }

    /// Writes one record as a line.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn record(&mut self, fields: &[(&str, JsonField<'_>)]) -> io::Result<()> {
        self.write_line(&json_line(fields))
    }

    /// Writes one pre-encoded line (as produced by [`json_line`]).
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "JSONL records must be single lines");
        self.sink.write_all(line.as_bytes())?;
        self.sink.write_all(b"\n")?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_escaped_ordered_and_newline_free() {
        let line = json_line(&[
            ("label", JsonField::Str("a\"b\\c\nd")),
            ("cost", JsonField::Int(-42)),
            ("ratio", JsonField::Float(f64::NAN)),
            ("ok", JsonField::Bool(false)),
        ]);
        assert_eq!(
            line,
            r#"{"label": "a\"b\\c\nd", "cost": -42, "ratio": null, "ok": false}"#
        );
        assert!(!line.contains('\n'));

        let mut writer = JsonLinesWriter::new(Vec::new());
        writer
            .record(&[("x", JsonField::UInt(1))])
            .expect("in-memory sink");
        writer
            .record(&[("x", JsonField::UInt(2))])
            .expect("in-memory sink");
        assert_eq!(writer.records(), 2);
        let buffer = writer.finish().expect("flush");
        assert_eq!(
            String::from_utf8(buffer).unwrap(),
            "{\"x\": 1}\n{\"x\": 2}\n"
        );
    }
}
