//! Text serialisation of traces.
//!
//! The paper's collector is a modified `strace` that records, per file
//! system call: *pid, file descriptor, inode number, offset, size, type,
//! timestamp, and duration* (§3.2). This module defines a line-oriented
//! text format carrying exactly that information, so that (a) real traces
//! collected with an strace post-processor can be imported, and (b)
//! generated traces can be dumped, inspected, and diffed.
//!
//! ```text
//! # flexfetch-trace v1
//! @name grep
//! @file <inode> <size-bytes> <path>
//! r <pid> <pgid> <inode> <offset> <len> <ts-us> <dur-us>
//! w <pid> <pgid> <inode> <offset> <len> <ts-us> <dur-us>
//! ```
//!
//! Lines starting with `#` are comments. Records must be timestamp-ordered
//! (enforced by [`Trace::validate`] on load; its record-level errors are
//! reported at the record's text line).

use crate::model::{FileId, FileMeta, IoOp, Trace, TraceRecord};
use ff_base::{Bytes, Dur, Error, Result, SimTime};
use std::fmt::Write as _;

/// Magic first line of the format.
pub const HEADER: &str = "# flexfetch-trace v1";

/// Serialise a trace to the text format.
pub fn to_string(trace: &Trace) -> String {
    // Rough pre-size: one ~40-byte line per record.
    let mut out = String::with_capacity(64 + trace.files.len() * 48 + trace.records.len() * 48);
    out.push_str(HEADER);
    out.push('\n');
    let _ = writeln!(out, "@name {}", trace.name);
    for f in trace.files.iter() {
        let _ = writeln!(out, "@file {} {} {}", f.id.0, f.size.get(), f.name);
    }
    for r in &trace.records {
        let op = match r.op {
            IoOp::Read => 'r',
            IoOp::Write => 'w',
        };
        let _ = writeln!(
            out,
            "{op} {} {} {} {} {} {} {}",
            r.pid,
            r.pgid,
            r.file.0,
            r.offset,
            r.len.get(),
            r.ts.as_micros(),
            r.dur.as_micros()
        );
    }
    out
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, line: usize, what: &str) -> Result<T> {
    tok.ok_or_else(|| Error::Parse {
        line,
        msg: format!("missing {what}"),
    })?
    .parse()
    .map_err(|_| Error::Parse {
        line,
        msg: format!("bad {what}"),
    })
}

/// Parse the text format back into a [`Trace`]; validates on the way out.
pub fn from_str(text: &str) -> Result<Trace> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        _ => {
            return Err(Error::Parse {
                line: 1,
                msg: format!("expected header `{HEADER}`"),
            });
        }
    }
    let mut trace = Trace::new("unnamed");
    // Text line of each record, for validation errors.
    let mut record_lines = Vec::new();
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("@name ") {
            trace.name = name.trim().to_string();
            continue;
        }
        if let Some(rest) = line.strip_prefix("@file ") {
            let mut toks = rest.splitn(3, ' ');
            let inode = parse_num(toks.next(), line_no, "inode")?;
            let size = parse_num(toks.next(), line_no, "size")?;
            let name = toks
                .next()
                .ok_or_else(|| Error::Parse {
                    line: line_no,
                    msg: "missing path".into(),
                })?
                .to_string();
            trace.files.insert(FileMeta {
                id: FileId(inode),
                name,
                size: Bytes(size),
            });
            continue;
        }
        let mut toks = line.split_ascii_whitespace();
        let op = match toks.next() {
            Some("r") => IoOp::Read,
            Some("w") => IoOp::Write,
            other => {
                return Err(Error::Parse {
                    line: line_no,
                    msg: format!("unknown record type {other:?}"),
                });
            }
        };
        let pid = parse_num(toks.next(), line_no, "pid")?;
        let pgid = parse_num(toks.next(), line_no, "pgid")?;
        let inode = parse_num(toks.next(), line_no, "inode")?;
        let offset = parse_num(toks.next(), line_no, "offset")?;
        let len = parse_num(toks.next(), line_no, "len")?;
        let ts = parse_num(toks.next(), line_no, "timestamp")?;
        let dur = parse_num(toks.next(), line_no, "duration")?;
        if toks.next().is_some() {
            return Err(Error::Parse {
                line: line_no,
                msg: "trailing tokens".into(),
            });
        }
        trace.records.push(TraceRecord {
            pid,
            pgid,
            file: FileId(inode),
            op,
            offset,
            len: Bytes(len),
            ts: SimTime(ts),
            dur: Dur(dur),
        });
        record_lines.push(line_no);
    }
    trace.validate().map_err(|e| match e {
        Error::Parse { line, msg } => Error::Parse {
            line: line
                .checked_sub(1)
                .and_then(|i| record_lines.get(i).copied())
                .unwrap_or(0),
            msg,
        },
        other => other,
    })?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.files.insert(FileMeta {
            id: FileId(7),
            name: "inbox.mbox".into(),
            size: Bytes(10_000),
        });
        t.records.push(TraceRecord {
            pid: 100,
            pgid: 100,
            file: FileId(7),
            op: IoOp::Read,
            offset: 0,
            len: Bytes(4096),
            ts: SimTime(0),
            dur: Dur(250),
        });
        t.records.push(TraceRecord {
            pid: 100,
            pgid: 100,
            file: FileId(7),
            op: IoOp::Write,
            offset: 4096,
            len: Bytes(100),
            ts: SimTime(5_000),
            dur: Dur(90),
        });
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let text = to_string(&t);
        let back = from_str(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn header_is_required() {
        assert!(matches!(
            from_str("r 1 1 1 0 1 0 0\n"),
            Err(Error::Parse { line: 1, .. })
        ));
        assert!(from_str("").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = format!("{HEADER}\n\n# a comment\n@name x\n");
        let t = from_str(&text).unwrap();
        assert_eq!(t.name, "x");
        assert!(t.is_empty());
    }

    #[test]
    fn file_paths_may_contain_spaces() {
        let text = format!("{HEADER}\n@file 3 100 My Documents/report final.pdf\n");
        let t = from_str(&text).unwrap();
        assert_eq!(
            t.files.get(FileId(3)).unwrap().name,
            "My Documents/report final.pdf"
        );
    }

    #[test]
    fn bad_records_report_line_numbers() {
        let text = format!("{HEADER}\n@file 1 100 f\nr 1 1 1 0 notanumber 0 0\n");
        match from_str(&text) {
            Err(Error::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_record_end_in_time_is_rejected() {
        let text = format!("{HEADER}\n@file 1 100 f\nr 1 1 1 0 1 18446744073709551615 5\n");
        assert!(matches!(from_str(&text), Err(Error::Parse { line: 3, .. })));
    }

    #[test]
    fn out_of_range_pid_or_pgid_is_a_parse_error_on_its_line() {
        for rec in ["r 4294967296 1 1 0 1 0 0", "r 1 4294967296 1 0 1 0 0"] {
            let text = format!("{HEADER}\n@file 1 100 f\n\n{rec}\n");
            assert!(
                matches!(from_str(&text), Err(Error::Parse { line: 4, .. })),
                "{rec}"
            );
        }
        let max = format!("{HEADER}\n@file 1 100 f\nr 4294967295 4294967295 1 0 1 0 0\n");
        let t = from_str(&max).unwrap();
        assert_eq!((t.records[0].pid, t.records[0].pgid), (u32::MAX, u32::MAX));
    }

    #[test]
    fn validation_errors_report_text_lines() {
        // The backwards timestamp is record 2 but text line 6.
        let text = format!(
            "{HEADER}\n@name x\n@file 1 100 f\nr 1 1 1 0 1 500 0\n# comment\nr 1 1 1 0 1 100 0\n"
        );
        match from_str(&text) {
            Err(Error::Parse { line, msg }) => {
                assert_eq!(line, 6, "{msg}");
                assert!(msg.contains("backwards"), "{msg}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let zero = format!("{HEADER}\n@file 1 100 f\n\nr 1 1 1 0 0 0 0\n");
        assert!(matches!(from_str(&zero), Err(Error::Parse { line: 4, .. })));
    }

    #[test]
    fn unknown_record_type_rejected() {
        let text = format!("{HEADER}\nx 1 1 1 0 1 0 0\n");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn trailing_tokens_rejected() {
        let text = format!("{HEADER}\n@file 1 100 f\nr 1 1 1 0 1 0 0 EXTRA\n");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn loaded_trace_is_validated() {
        // Record beyond EOF must be rejected at load time.
        let text = format!("{HEADER}\n@file 1 10 f\nr 1 1 1 0 100 0 0\n");
        assert!(matches!(from_str(&text), Err(Error::OutOfBounds { .. })));
    }

    #[test]
    fn ops_round_trip() {
        let t = sample();
        let text = to_string(&t);
        assert!(text.contains("\nr 100 100 7 0 4096 0 250"));
        assert!(text.contains("\nw 100 100 7 4096 100 5000 90"));
    }
}
