//! Property tests for the trace layer: generators, layout, persistence,
//! and the raw-strace importer must hold up under arbitrary inputs.

use ff_base::{Bytes, Dur, Error, SimTime};
use ff_trace::{
    strace, Acroread, DiskLayout, FileId, FileMeta, Grep, IoOp, Make, Mplayer, StraceImporter,
    Thunderbird, Trace, TraceRecord, Workload, Xmms,
};
use proptest::prelude::*;

/// Every generator yields a valid, non-empty, Table-3-sized trace for
/// ANY seed — not just the tested ones.
#[test]
fn generators_valid_for_many_seeds() {
    // Deterministic seed scan (cheaper than proptest for the big ones).
    for seed in [0, 1, 7, 999, u64::MAX] {
        for w in [
            &Grep {
                files: 40,
                total_bytes: 2_000_000,
                ..Default::default()
            } as &dyn Workload,
            &Make {
                units: 10,
                headers: 20,
                misc: 2,
                input_bytes: 800_000,
                ..Default::default()
            },
            &Xmms {
                files: 10,
                total_bytes: 2_000_000,
                play_limit: Some(Dur::from_secs(60)),
                ..Default::default()
            },
            &Mplayer {
                support_files: 10,
                support_bytes: 100_000,
                movie_bytes: 2_000_000,
                play_limit: Some(Dur::from_secs(30)),
                ..Default::default()
            },
            &Thunderbird {
                mboxes: 3,
                mbox_bytes: 9_000_000,
                support_files: 10,
                support_bytes: 50_000,
                emails_read: 3,
                ..Default::default()
            },
            &Acroread {
                files: 3,
                file_bytes: 500_000,
                searches: 3,
                ..Acroread::large_search()
            },
        ] {
            let t = w.build(seed);
            t.validate()
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            assert!(!t.is_empty(), "{} seed {seed} empty", w.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Layout never overlaps extents, for arbitrary file populations.
    #[test]
    fn layout_never_overlaps(
        sizes in proptest::collection::vec(1u64..5_000_000, 1..40),
        seed in any::<u64>(),
    ) {
        let mut fs = ff_trace::FileSet::new();
        for (i, &s) in sizes.iter().enumerate() {
            fs.insert(ff_trace::FileMeta {
                id: ff_trace::FileId(i as u64 + 1),
                name: format!("f{i}"),
                size: Bytes(s),
            });
        }
        let l = DiskLayout::build(&fs, seed);
        let mut extents: Vec<_> = (1..=sizes.len() as u64)
            .map(|i| l.extent(ff_trace::FileId(i)).expect("laid out"))
            .collect();
        extents.sort_by_key(|e| e.start);
        for w in extents.windows(2) {
            prop_assert!(w[0].end() <= w[1].start, "extents overlap");
        }
        // Every file's last byte is addressable.
        for (i, &s) in sizes.iter().enumerate() {
            let f = ff_trace::FileId(i as u64 + 1);
            prop_assert!(l.block_of(f, s - 1).is_some());
        }
    }

    /// Generator determinism: the same seed gives the same trace; text
    /// round-trips preserve it exactly.
    #[test]
    fn grep_seed_roundtrip(seed in any::<u64>()) {
        let g = Grep { files: 12, total_bytes: 500_000, ..Default::default() };
        let a = g.build(seed);
        let b = g.build(seed);
        prop_assert_eq!(&a, &b);
        let back = strace::from_str(&strace::to_string(&a)).unwrap();
        prop_assert_eq!(a, back);
    }

    /// The raw strace importer never panics on arbitrary garbage and
    /// always yields a valid trace.
    #[test]
    fn importer_survives_garbage(lines in proptest::collection::vec("[ -~]{0,80}", 0..60)) {
        let text = lines.join("\n");
        let (trace, stats) = StraceImporter::new("fuzz", 1, 1).import(&text);
        prop_assert!(trace.validate().is_ok());
        prop_assert_eq!(trace.len(), stats.records);
    }

    /// Importer + well-formed lines: record count equals the successful
    /// reads/writes we synthesise.
    #[test]
    fn importer_counts_synthetic_lines(ops in proptest::collection::vec((1u64..100_000, 1u64..100_000), 1..30)) {
        let mut text = String::from("5 1.0 open(\"/f\", O_RDONLY) = 3\n");
        let mut ts = 1.0;
        for &(off, len) in &ops {
            ts += 0.01;
            text.push_str(&format!("5 {ts:.6} pread64(3, \"\", {len}, {off}) = {len} <0.0001>\n"));
        }
        let (trace, stats) = StraceImporter::new("synth", 5, 10).import(&text);
        prop_assert_eq!(stats.records, ops.len());
        prop_assert_eq!(trace.len(), ops.len());
        let total: u64 = ops.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(trace.total_bytes(), Bytes(total));
        prop_assert!(trace.validate().is_ok());
    }

    /// concat + merge keep traces valid for arbitrary gaps.
    #[test]
    fn combinators_preserve_validity(gap_ms in 0u64..100_000, seed in any::<u64>()) {
        let a = Grep { files: 6, total_bytes: 200_000, ..Default::default() }.build(seed);
        let b = Xmms {
            files: 4,
            total_bytes: 400_000,
            play_limit: Some(Dur::from_secs(30)),
            ..Default::default()
        }
        .build(seed);
        let c = a.concat(&b, Dur::from_millis(gap_ms)).unwrap();
        prop_assert!(c.validate().is_ok());
        let m: Trace = a.merge(&b).unwrap();
        prop_assert!(m.validate().is_ok());
        prop_assert_eq!(m.len(), a.len() + b.len());
    }
}

proptest! {
    // Overflowing ranges need two or three extreme numbers on the right
    // lines, so this search runs more cases than the others.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random byte edits of valid strace lines — replaced bytes,
    /// inserted bytes, and numbers overwritten with `i64::MAX` or
    /// `u64::MAX` — never panic the importer, and whatever imports
    /// validates.
    #[test]
    fn importer_survives_byte_edits_of_valid_lines(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..12),
    ) {
        let mut bytes = b"7 5.0 open(\"/f\", O_RDWR) = 3
7 5.1 read(3, \"\"..., 4096) = 4096 <0.000100>
7 5.2 lseek(3, 65536, SEEK_SET) = 65536
7 5.3 pread64(3, \"\"..., 512, 1048576) = 512 <0.000050>
7 5.4 write(3, \"\"..., 100) = 100 <0.000010>
7 5.5 dup(3) = 4
7 5.6 read(4, \"\"..., 10) = 10
7 5.7 close(3) = 0
"
        .to_vec();
        for (pos, byte, kind) in edits {
            edit_bytes(&mut bytes, pos, byte, kind);
        }
        let text = String::from_utf8_lossy(&bytes);
        let (trace, stats) = StraceImporter::new("edits", 7, 1).import(&text);
        prop_assert!(trace.validate().is_ok());
        prop_assert_eq!(trace.len(), stats.records);
    }
}

/// Apply one random byte edit to `bytes`: replace a byte (kind 0),
/// insert one (kind 1), or overwrite the number around the position
/// with `i64::MAX` or `u64::MAX` (kind 2).
fn edit_bytes(bytes: &mut Vec<u8>, pos: usize, byte: u8, kind: u8) {
    let at = pos % (bytes.len() + 1);
    match kind {
        0 if at < bytes.len() => bytes[at] = byte,
        0 | 1 => bytes.insert(at, byte),
        _ => {
            let big: &[u8] = if byte % 2 == 0 {
                b"9223372036854775807"
            } else {
                b"18446744073709551615"
            };
            let digit = |b: &u8| b.is_ascii_digit();
            let start = bytes[..at]
                .iter()
                .rposition(|b| !digit(b))
                .map_or(0, |i| i + 1);
            let end = bytes[at..]
                .iter()
                .position(|b| !digit(b))
                .map_or(bytes.len(), |i| at + i);
            bytes.splice(start..end, big.iter().copied());
        }
    }
}

/// A small valid trace: two files, reads and a write, two process groups.
fn text_format_sample() -> Trace {
    let mut t = Trace::new("sample");
    for (id, size, name) in [(3, 100_000, "a.c"), (9, 4_096, "My Documents/b.h")] {
        t.files.insert(FileMeta {
            id: FileId(id),
            name: name.into(),
            size: Bytes(size),
        });
    }
    let recs = [
        (100, 100, 3, IoOp::Read, 0, 4_096, 10, 250),
        (100, 100, 9, IoOp::Read, 0, 4_096, 1_000, 90),
        (200, 200, 3, IoOp::Write, 4_096, 100, 5_000, 30),
        (101, 100, 3, IoOp::Read, 8_192, 65_536, 70_000, 1_200),
    ];
    for (pid, pgid, file, op, offset, len, ts, dur) in recs {
        t.records.push(TraceRecord {
            pid,
            pgid,
            file: FileId(file),
            op,
            offset,
            len: Bytes(len),
            ts: SimTime(ts),
            dur: Dur(dur),
        });
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random byte edits of a valid `strace::to_string` output never
    /// panic the text parser. Every parse error names a line inside the
    /// text, and whatever parses validates, summarises and round-trips.
    #[test]
    fn text_parser_survives_byte_edits(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..12),
    ) {
        let mut bytes = strace::to_string(&text_format_sample()).into_bytes();
        for (pos, byte, kind) in edits {
            edit_bytes(&mut bytes, pos, byte, kind);
        }
        let text = String::from_utf8_lossy(&bytes);
        match strace::from_str(&text) {
            Ok(trace) => {
                prop_assert!(trace.validate().is_ok());
                let _ = trace.stats();
                let again = strace::from_str(&strace::to_string(&trace));
                prop_assert_eq!(again.as_ref(), Ok(&trace));
            }
            Err(Error::Parse { line, msg }) => {
                let lines = text.lines().count();
                prop_assert!((1..=lines.max(1)).contains(&line), "line {} of {}: {}", line, lines, msg);
            }
            Err(_) => {}
        }
    }
}
