//! Oracle for the `eccparity-journal-v1` envelope codec
//! (`JournalRecord::write_line` / `replay_lines`), with serde_json as the
//! reference. The canonical form of a record is serde_json's bytes for it;
//! a line is a record exactly when serde reads it and writes it back byte
//! for byte.
//!
//! * **Bytes.** On generated records of all four variants the encoder
//!   writes serde's bytes: strings with `"`, `\`, every control character,
//!   DEL, non-ASCII and the empty string; `u64::MAX` and `u32::MAX`
//!   fields; payloads that are JSON with floats.
//! * **Round trip.** Replaying an encoded line gives back its record, and
//!   the FNV-1a of its payload.
//! * **Mutants.** Thousands of seeded flip/insert/delete/truncate mutants
//!   of real lines never panic, and replay each exactly as the reference
//!   does: whatever the decoder accepts, serde reads as the same record
//!   and writes back to the same bytes.
//! * **Files.** `replay_journal` then `distill_records` over randomly torn
//!   and interleaved journals equals the reference replay distilled, and
//!   the quarantine sidecar holds serde's line for each quarantined
//!   record.

use eccparity_bench::hash::fnv1a64;
use eccparity_bench::supervisor::{
    distill_records, replay_journal, replay_lines, report_distillation, supervise, JournalRecord,
    JournalView, RecordRef, Shard, SupervisorConfig, JOURNAL_SCHEMA,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// SplitMix64: a self-contained seeded generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("journal-codec-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---- the codec and its reference ---------------------------------------------

fn encode(rec: &JournalRecord) -> String {
    let mut line = String::new();
    rec.write_line(&mut line);
    line
}

fn serde_line(rec: &JournalRecord) -> String {
    serde_json::to_string(rec).unwrap() + "\n"
}

/// `replay_lines` over a copy of `bytes`, checking the payload hash it
/// takes in its decoding pass.
fn replay(bytes: &[u8]) -> (Vec<JournalRecord>, bool) {
    let mut buf = bytes.to_vec();
    let mut records = Vec::new();
    let damaged = replay_lines(&mut buf, |rec, payload_fnv| {
        let payload = match rec {
            RecordRef::ShardDone { payload, .. } => payload,
            _ => "",
        };
        assert_eq!(payload_fnv, fnv1a64(payload.as_bytes()), "{rec:?}");
        records.push(rec.to_record());
    });
    (records, damaged)
}

/// The reference replay: blank lines are skipped, a line serde reads and
/// writes back byte for byte is a record, and any other line is damaged.
fn reference_replay(bytes: &[u8]) -> (Vec<JournalRecord>, bool) {
    let mut records = Vec::new();
    let mut damaged = false;
    for line in bytes.split(|&b| b == b'\n') {
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let canonical = std::str::from_utf8(line)
            .ok()
            .and_then(|text| serde_json::from_str::<JournalRecord>(text).ok())
            .filter(|rec| serde_json::to_string(rec).unwrap().as_bytes() == line);
        match canonical {
            Some(rec) => records.push(rec),
            None => damaged = true,
        }
    }
    (records, damaged)
}

// ---- generated records ---------------------------------------------------------

/// String pieces: the escapes, every control character, DEL, non-ASCII,
/// and text that only looks like an escape.
fn pieces() -> Vec<String> {
    let mut out: Vec<String> = (0u8..0x20).map(|c| char::from(c).to_string()).collect();
    for s in [
        "",
        "\"",
        "\\",
        "\u{7f}",
        "é",
        "中文",
        "🦀",
        "\u{2028}",
        "\\u0041",
        "\\n",
        "/",
        "plain",
        "cell:Lot5Parity:milc",
        "{\"nested\":\"json\"}",
        " ",
    ] {
        out.push(s.to_string());
    }
    out
}

fn string(mix: &mut Mix, pieces: &[String]) -> String {
    (0..mix.below(6))
        .map(|_| mix.pick(pieces).as_str())
        .collect()
}

fn uint(mix: &mut Mix) -> u64 {
    match mix.below(6) {
        0 => 0,
        1 => 10,
        2 => u64::from(u32::MAX),
        3 => u64::MAX,
        4 => mix.next() % 1000,
        _ => mix.next(),
    }
}

/// A supervisor-style payload: serde JSON of a result with floats.
fn float_payload(mix: &mut Mix, pieces: &[String]) -> String {
    let floats = [
        0.1,
        1.0 / 3.0,
        -2.5e-300,
        1e300,
        5e-324,
        9_007_199_254_740_993.0,
        -0.0,
        f64::from_bits(mix.next() >> 2),
    ];
    let result = Value::Object(vec![
        ("workload".to_string(), Value::Str(string(mix, pieces))),
        ("ipc".to_string(), Value::Float(*mix.pick(&floats))),
        (
            "per_core".to_string(),
            Value::Array(
                (0..mix.below(4))
                    .map(|_| Value::Float(*mix.pick(&floats)))
                    .collect(),
            ),
        ),
        ("cycles".to_string(), Value::UInt(uint(mix))),
    ]);
    serde_json::to_string(&result).unwrap()
}

fn record(mix: &mut Mix, pieces: &[String]) -> JournalRecord {
    match mix.below(4) {
        0 => JournalRecord::Header {
            schema: if mix.below(2) == 0 {
                JOURNAL_SCHEMA.to_string()
            } else {
                string(mix, pieces)
            },
            campaign: string(mix, pieces),
            config_key: string(mix, pieces),
            total_shards: uint(mix),
        },
        1 => JournalRecord::ShardStart {
            shard: string(mix, pieces),
        },
        2 => {
            let payload = if mix.below(2) == 0 {
                float_payload(mix, pieces)
            } else {
                string(mix, pieces)
            };
            JournalRecord::ShardDone {
                shard: string(mix, pieces),
                class: string(mix, pieces),
                attempts: uint(mix) as u32,
                wall_ms: uint(mix),
                checksum: if mix.below(2) == 0 {
                    fnv1a64(payload.as_bytes())
                } else {
                    uint(mix)
                },
                payload,
                token: uint(mix),
            }
        }
        _ => JournalRecord::RunComplete {
            succeeded: uint(mix),
        },
    }
}

#[test]
fn encoder_writes_serde_bytes_and_replay_reads_them_back() {
    let pieces = pieces();
    // Each piece alone, in every string field.
    let mut records: Vec<JournalRecord> = pieces
        .iter()
        .flat_map(|p| {
            [
                JournalRecord::Header {
                    schema: p.clone(),
                    campaign: p.clone(),
                    config_key: p.clone(),
                    total_shards: u64::MAX,
                },
                JournalRecord::ShardStart { shard: p.clone() },
                JournalRecord::ShardDone {
                    shard: p.clone(),
                    class: p.clone(),
                    attempts: u32::MAX,
                    wall_ms: u64::MAX,
                    checksum: fnv1a64(p.as_bytes()),
                    payload: p.clone(),
                    token: u64::MAX,
                },
                JournalRecord::RunComplete { succeeded: 0 },
            ]
        })
        .collect();
    let mut mix = Mix(0x0e0c_0de0);
    records.extend((0..3000).map(|_| record(&mut mix, &pieces)));

    let mut file = Vec::new();
    for rec in &records {
        let line = encode(rec);
        assert_eq!(line, serde_line(rec), "encoder bytes of {rec:?}");
        assert_eq!(replay(line.as_bytes()), (vec![rec.clone()], false));
        // The last line of a file need not end in a newline.
        assert_eq!(
            replay(line.trim_end_matches('\n').as_bytes()),
            (vec![rec.clone()], false)
        );
        file.extend_from_slice(line.as_bytes());
    }
    assert_eq!(replay(&file), (records, false), "a whole journal");
}

// ---- mutants -------------------------------------------------------------------

/// Lines of a real supervised campaign whose results carry floats, plus
/// the serde-era daemon fixture's lines.
fn real_lines() -> Vec<Vec<u8>> {
    let dir = scratch("real");
    let cfg = SupervisorConfig {
        campaign: "oracle \"real\" campaign/1".to_string(),
        config_key: "scale=0.5|trials=3|note=é\t\n\u{1b}".to_string(),
        dir: Some(dir.clone()),
        resume: false,
        timeout: Duration::from_secs(30),
        retries: 0,
        backoff: Duration::from_millis(1),
        poison_threshold: 3,
        max_inflight: 2,
        chaos: eccparity_bench::chaos::Chaos::off(),
        failures_path: None,
    };
    let shards = (0..4u32)
        .map(|i| {
            Shard::new(format!("cell:{i}:lbm"), move || {
                (
                    f64::from(i) / 7.0,
                    vec![1e-9 * f64::from(i), -0.5],
                    format!("core \"{i}\""),
                )
            })
        })
        .collect();
    supervise(&cfg, shards).into_results();
    let journal = std::fs::read(cfg.journal_path().unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let fixture = std::fs::read(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/eccparityd-journal-v1.jsonl"),
    )
    .unwrap();
    journal
        .split_inclusive(|&b| b == b'\n')
        .chain(fixture.split_inclusive(|&b| b == b'\n'))
        .map(<[u8]>::to_vec)
        .collect()
}

/// Bytes a mutation writes: the envelope's own syntax, escape letters,
/// digits, and bytes that break UTF-8, plus any byte at all.
fn mutant_byte(mix: &mut Mix) -> u8 {
    const INTERESTING: &[u8] =
        b"\"\\\n\r\t {}[],:0159abfnrtuU/-.e+\x00\x01\x1f\x7f\xff\xc3\xa9\x80\xe4";
    if mix.below(3) == 0 {
        mix.next() as u8
    } else {
        *mix.pick(INTERESTING)
    }
}

/// A random position of `line` whose byte (and the one before it)
/// satisfy `pred`, if there is one.
fn position(mix: &mut Mix, line: &[u8], pred: impl Fn(Option<&u8>, u8) -> bool) -> Option<usize> {
    let hits: Vec<usize> = (0..line.len())
        .filter(|&i| pred(i.checked_sub(1).and_then(|j| line.get(j)), line[i]))
        .collect();
    (!hits.is_empty()).then(|| *mix.pick(&hits))
}

/// Spell part of the line in another form JSON allows, which the
/// canonical form does not: a leading zero, a field's number past its
/// range, a `\u00XX` escape for a character or for a short escape, a
/// `\u` escape's hex in upper case, a letter in the other case, or a
/// `\/`.
fn respell(mix: &mut Mix, line: &mut Vec<u8>) {
    let escape = |c: u8| {
        [
            b"\\u00".as_slice(),
            &[
                b"0123456789abcdef"[usize::from(c >> 4)],
                b"0123456789abcdef"[usize::from(c & 15)],
            ],
        ]
        .concat()
    };
    let spot = match mix.below(5) {
        0 => position(mix, line, |prev, c| {
            c.is_ascii_digit() && !prev.is_some_and(u8::is_ascii_digit)
        })
        .map(|at| (at, at, b"0".to_vec())),
        1 => position(mix, line, |prev, c| {
            c.is_ascii_digit() && prev == Some(&b':')
        })
        .map(|at| (at + 1, at + 1, b"0000000000".to_vec())),
        2 => position(mix, line, |_, c| c == b'\\').map(|at| {
            if line.get(at + 1) == Some(&b'u') && at + 6 <= line.len() {
                let mut upper = line[at..at + 6].to_vec();
                upper[2..].make_ascii_uppercase();
                return (at, at + 6, upper);
            }
            let (c, len) = match line.get(at + 1) {
                Some(b'n') => (b'\n', 2),
                Some(b't') => (b'\t', 2),
                Some(b'"') => (b'"', 2),
                Some(b'\\') => (b'\\', 2),
                _ => (b'\\', 1),
            };
            (at, at + len, escape(c))
        }),
        3 => position(mix, line, |_, c| c.is_ascii_graphic())
            .map(|at| (at, at + 1, escape(line[at]))),
        _ => position(mix, line, |_, c| c.is_ascii_alphabetic())
            .map(|at| (at, at + 1, vec![line[at] ^ 0x20])),
    };
    if let Some((from, to, with)) = spot {
        line.splice(from..to, with);
    }
    if mix.below(8) == 0 {
        if let Some(at) = position(mix, line, |_, c| c == b'/') {
            line.insert(at, b'\\');
        }
    }
}

fn mutate(mix: &mut Mix, line: &mut Vec<u8>) {
    if line.is_empty() {
        line.push(mutant_byte(mix));
        return;
    }
    let at = mix.below(line.len());
    match mix.below(5) {
        0 => line[at] = mutant_byte(mix),
        1 => line.insert(at, mutant_byte(mix)),
        2 => {
            line.remove(at);
        }
        3 => line.truncate(at),
        _ => respell(mix, line),
    }
}

#[test]
fn mutants_of_real_lines_replay_exactly_like_the_reference() {
    let lines = real_lines();
    let (small, large): (Vec<&Vec<u8>>, Vec<&Vec<u8>>) = lines.iter().partition(|l| l.len() < 4096);
    assert!(small.len() >= 8 && !large.is_empty());
    let mut mix = Mix(0x6d75_7461);
    let (mut accepted_changed, mut refused) = (0, 0);
    for round in 0..6000 {
        // A few hundred mutants of the fixture's 77 KB payload lines; the
        // rest of the small lines.
        let base = if round % 20 == 0 {
            mix.pick(&large)
        } else {
            mix.pick(&small)
        };
        let mut mutant = base.to_vec();
        for _ in 0..1 + mix.below(3) {
            mutate(&mut mix, &mut mutant);
        }
        let got = replay(&mutant);
        assert_eq!(
            got,
            reference_replay(&mutant),
            "mutant {round}: {:?}",
            String::from_utf8_lossy(&mutant)
        );
        if got.1 {
            refused += 1;
        } else if mutant != **base {
            accepted_changed += 1;
            // Every record read writes back to its own line.
            let lines: Vec<&[u8]> = mutant
                .split(|&b| b == b'\n')
                .filter(|l| !l.iter().all(u8::is_ascii_whitespace))
                .collect();
            assert_eq!(lines.len(), got.0.len());
            for (line, rec) in lines.iter().zip(&got.0) {
                assert_eq!(encode(rec).as_bytes(), [line, &b"\n"[..]].concat());
            }
        }
    }
    assert!(refused > 3000, "most mutants break the line: {refused}");
    assert!(
        accepted_changed > 50,
        "some mutants stay canonical (a changed digit or letter): {accepted_changed}"
    );
}

// ---- torn and interleaved files ----------------------------------------------------

const CLASSES: &[&str] = &[
    "completed",
    "retried",
    "timed_out",
    "panicked",
    "poisoned",
    "mystery",
];

/// A campaign's worth of records: duplicates across tokens, failure
/// classes, an unknown class, and stale checksums.
fn campaign_records(mix: &mut Mix) -> Vec<JournalRecord> {
    let mut records = vec![JournalRecord::Header {
        schema: JOURNAL_SCHEMA.to_string(),
        campaign: "files".to_string(),
        config_key: "k=1".to_string(),
        total_shards: 6,
    }];
    for _ in 0..10 + mix.below(30) {
        // One shard's name holds escaped newlines around what would be a
        // record of its own: a damaged line holding it must hide nothing.
        let shard = match mix.below(7) {
            6 => "s\n{\"ShardStart\":{\"shard\":\"s0\"}}\n".to_string(),
            n => format!("s{n}"),
        };
        if mix.below(3) == 0 {
            records.push(JournalRecord::ShardStart { shard });
            continue;
        }
        let payload = format!(
            "{{\"value\":{},\"ratio\":{}}}",
            mix.below(100),
            mix.below(1000) as f64 / 7.0
        );
        records.push(JournalRecord::ShardDone {
            shard,
            class: mix.pick(CLASSES).to_string(),
            attempts: 1 + mix.below(3) as u32,
            wall_ms: mix.next() % 5000,
            checksum: if mix.below(6) == 0 {
                mix.next()
            } else {
                fnv1a64(payload.as_bytes())
            },
            payload,
            token: mix.below(4) as u64,
        });
    }
    records.push(JournalRecord::RunComplete { succeeded: 6 });
    records
}

/// The file several crash-prone appenders could leave for `records`: torn
/// lines run into the next, lines interleave mid-record, and blank, CRLF
/// and non-UTF-8 lines appear between them.
fn damaged_file(mix: &mut Mix, records: &[JournalRecord]) -> Vec<u8> {
    let lines: Vec<String> = records.iter().map(serde_line).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].as_bytes();
        match mix.below(12) {
            // Torn: the writer died mid-line; the next line runs on.
            0 => out.extend_from_slice(&line[..mix.below(line.len())]),
            // Interleaved with the next record's line.
            1 if i + 1 < lines.len() => {
                let cut = mix.below(line.len());
                out.extend_from_slice(&line[..cut]);
                out.extend_from_slice(lines[i + 1].as_bytes());
                out.extend_from_slice(&line[cut..]);
                i += 1;
            }
            2 => {
                let blank: [&[u8]; 4] = [b"\n", b"  \n", b"\r\n", b"\t \n"];
                let blank = *mix.pick(&blank);
                out.extend_from_slice(blank);
                out.extend_from_slice(line);
            }
            3 => {
                out.extend_from_slice(&line[..line.len() - 1]);
                out.extend_from_slice(b"\r\n");
            }
            4 => {
                out.extend_from_slice(b"\xff\xfe{\"ShardStart\":{\"shard\":\"\xc3\"}}\n");
                out.extend_from_slice(line);
            }
            _ => out.extend_from_slice(line),
        }
        i += 1;
    }
    if mix.below(4) == 0 {
        out.pop();
    }
    out
}

/// A view's content, in a stable order.
fn summary(view: &JournalView) -> String {
    let mut done: Vec<String> = view
        .done
        .iter()
        .map(|(shard, d)| {
            format!(
                "{shard:?} {:?} {} {} {:?} {}",
                d.class, d.attempts, d.wall_ms, d.payload, d.token
            )
        })
        .collect();
    done.sort();
    let mut crashes: Vec<_> = view.crash_counts.iter().collect();
    crashes.sort();
    format!(
        "{done:?} {crashes:?} superseded {} quarantined {}",
        view.superseded,
        view.quarantined.len()
    )
}

/// The sidecar lines the reference records call for: serde's line for
/// each success-or-failure-class record whose payload fails its checksum.
fn reference_quarantine(records: &[JournalRecord]) -> Vec<u8> {
    records
        .iter()
        .filter(|rec| {
            matches!(rec, JournalRecord::ShardDone { class, checksum, payload, .. }
                if class != "mystery" && *checksum != fnv1a64(payload.as_bytes()))
        })
        .flat_map(|rec| serde_line(rec).into_bytes())
        .collect()
}

#[test]
fn torn_and_interleaved_files_replay_and_distill_like_the_reference() {
    let dir = scratch("files");
    let mut mix = Mix(0x7465_6172);
    let mut damaged_files = 0;
    for round in 0..400 {
        let records = campaign_records(&mut mix);
        let bytes = damaged_file(&mut mix, &records);
        let path = dir.join(format!("r{round}.journal.jsonl"));
        std::fs::write(&path, &bytes).unwrap();

        let (got, damaged) = replay_journal(&path);
        let (want, want_damaged) = reference_replay(&bytes);
        assert_eq!((&got, damaged), (&want, want_damaged), "round {round}");
        damaged_files += usize::from(damaged);

        let quarantine = dir.join(format!("r{round}.quarantine"));
        let view = distill_records(&got);
        report_distillation(&quarantine, &got, &view);
        assert_eq!(summary(&view), summary(&distill_records(&want)));
        let sidecar = std::fs::read(&quarantine).unwrap_or_default();
        assert!(
            sidecar == reference_quarantine(&want),
            "round {round}: quarantine sidecar differs"
        );
    }
    assert!(
        damaged_files > 300,
        "most files carry damage: {damaged_files}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
