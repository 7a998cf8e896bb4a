//! Documentation consistency gates.
//!
//! Docs rot when nothing fails on drift, so three properties are
//! enforced here rather than promised in review:
//!
//! 1. **Knob coverage** — every environment variable the source reads
//!    (`ECC_PARITY_*`, `SOAK_DEBUG`, `CRITERION_SHIM_*`) appears in
//!    `docs/KNOBS.md`, and the doc names no knob the source has
//!    dropped.
//! 2. **Schema examples parse** — every ```json block in
//!    `docs/SCHEMAS.md` is strict JSON (the example payloads stay
//!    machine-checkable, not decorative).
//! 3. **Links resolve** — every relative markdown link in the
//!    top-level docs and `docs/` points at a file that exists.
//! 4. **Flag tables match the parsers** — every `--flag` the
//!    `eccparityd` and `eccparity-loadgen` argument parsers accept has a
//!    row in that binary's flag table in `docs/OPERATIONS.md`, and every
//!    flag in those tables is still parsed.
//! 5. **Daemon metrics are named** — every `counter!` / `histogram!` /
//!    `gauge!` name emitted under `crates/service/src` appears in
//!    `ARCHITECTURE.md` or `docs/OPERATIONS.md`.
//! 6. **The metrics table matches the code** — every metric name emitted
//!    by non-comment code under `crates/*/src` and `src/` is listed in
//!    `ARCHITECTURE.md`'s metrics table, and every name listed there is
//!    still emitted.
//! 7. **The trace-event list matches the code** — the same two-way check
//!    for `obs::trace::event` names against `ARCHITECTURE.md`'s list of
//!    trace events.
//! 8. **`BENCH_gf_kernels.json` measures the bench that exists** — every
//!    id in its results is a `group/bench_function` of
//!    `crates/bench/benches/ecc_codecs.rs`, and every such id has a
//!    result.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// All `.rs` files under the repo's source trees (not `target/`).
fn source_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["src", "crates", "shims", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    assert!(
        out.len() > 50,
        "source walk looks broken: {} files",
        out.len()
    );
    out
}

/// Extract every occurrence of `prefix` followed by uppercase/underscore
/// characters from `text`.
fn extract_with_prefix(text: &str, prefix: &str, into: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(prefix) {
        let start = from + pos;
        let mut end = start + prefix.len();
        while end < bytes.len() && (bytes[end].is_ascii_uppercase() || bytes[end] == b'_') {
            end += 1;
        }
        // Trim a trailing underscore: `ECC_PARITY_` in a format string or
        // prose is a prefix mention, not a knob name.
        let mut name = &text[start..end];
        while name.ends_with('_') {
            name = &name[..name.len() - 1];
        }
        if name.len() > prefix.len() {
            into.insert(name.to_string());
        }
        from = end;
    }
}

/// Every knob-shaped string in the workspace source.
fn knobs_in_source() -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for path in source_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        extract_with_prefix(&text, "ECC_PARITY_", &mut found);
        extract_with_prefix(&text, "CRITERION_SHIM_", &mut found);
        if text.contains("SOAK_DEBUG") {
            found.insert("SOAK_DEBUG".to_string());
        }
    }
    found
}

#[test]
fn every_source_knob_is_documented() {
    let doc_path = repo_root().join("docs/KNOBS.md");
    let doc = std::fs::read_to_string(&doc_path).expect("read docs/KNOBS.md");
    let source_knobs = knobs_in_source();
    assert!(
        source_knobs.contains("ECC_PARITY_METRICS"),
        "knob extraction found nothing plausible: {source_knobs:?}"
    );

    let undocumented: Vec<&String> = source_knobs
        .iter()
        .filter(|k| !doc.contains(k.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "knobs read by source but missing from docs/KNOBS.md: {undocumented:?}"
    );

    // The reverse direction: the doc must not advertise knobs the source
    // no longer reads.
    let mut doc_knobs = BTreeSet::new();
    extract_with_prefix(&doc, "ECC_PARITY_", &mut doc_knobs);
    extract_with_prefix(&doc, "CRITERION_SHIM_", &mut doc_knobs);
    let stale: Vec<&String> = doc_knobs
        .iter()
        .filter(|k| !source_knobs.contains(k.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "docs/KNOBS.md documents knobs no source file reads: {stale:?}"
    );
}

/// The ```json fenced blocks of a markdown document, with the line
/// number each block starts on.
fn json_blocks(text: &str) -> Vec<(usize, String)> {
    let mut blocks = Vec::new();
    let mut current: Option<(usize, String)> = None;
    for (idx, line) in text.lines().enumerate() {
        match &mut current {
            None if line.trim() == "```json" => current = Some((idx + 1, String::new())),
            Some((start, body)) => {
                if line.trim() == "```" {
                    blocks.push((*start, std::mem::take(body)));
                    current = None;
                } else {
                    body.push_str(line);
                    body.push('\n');
                }
            }
            None => {}
        }
    }
    assert!(current.is_none(), "unterminated ```json block");
    blocks
}

#[test]
fn schema_examples_are_valid_json() {
    let path = repo_root().join("docs/SCHEMAS.md");
    let text = std::fs::read_to_string(&path).expect("read docs/SCHEMAS.md");
    let blocks = json_blocks(&text);
    assert!(
        blocks.len() >= 10,
        "expected an example per schema section, found {} json blocks",
        blocks.len()
    );
    for (line, body) in blocks {
        // A block may hold several one-line examples (JSONL formats);
        // each non-empty line must parse on its own unless the block is
        // one pretty-printed object.
        let parsed_whole = serde_json::from_str::<serde_json::Value>(&body);
        if parsed_whole.is_ok() {
            continue;
        }
        for (off, l) in body.lines().enumerate() {
            if l.trim().is_empty() {
                continue;
            }
            serde_json::from_str::<serde_json::Value>(l).unwrap_or_else(|e| {
                panic!(
                    "docs/SCHEMAS.md json block at line {} (example line {}): {e}",
                    line,
                    line + off + 1
                )
            });
        }
    }
}

/// Relative link targets of a markdown document: the `](target)` parts,
/// minus external URLs and pure in-page anchors.
fn relative_links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find("](") {
        let start = from + pos + 2;
        let Some(len) = text[start..].find(')') else {
            break;
        };
        let target = &text[start..start + len];
        from = start + len;
        if target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with('#')
            || target.is_empty()
        {
            continue;
        }
        out.push(target.to_string());
    }
    out
}

#[test]
fn markdown_links_resolve() {
    let root = repo_root();
    let mut docs: Vec<PathBuf> = [
        "README.md",
        "ARCHITECTURE.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        "CHANGES.md",
    ]
    .iter()
    .map(|f| root.join(f))
    .filter(|p| p.is_file())
    .collect();
    for entry in std::fs::read_dir(root.join("docs")).expect("read docs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    assert!(docs.len() >= 6, "doc walk looks broken: {docs:?}");

    let mut broken = Vec::new();
    for doc in &docs {
        let text =
            std::fs::read_to_string(doc).unwrap_or_else(|e| panic!("read {}: {e}", doc.display()));
        let base = doc.parent().unwrap_or(Path::new(""));
        for link in relative_links(&text) {
            let file = link.split('#').next().unwrap_or(&link);
            if file.is_empty() {
                continue; // same-page anchor
            }
            if !base.join(file).exists() {
                broken.push(format!("{} -> {link}", doc.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative markdown links:\n{}",
        broken.join("\n")
    );
}

/// `--flag` tokens in `text`.
fn flags_in(text: &str, into: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find("--") {
        let start = from + pos;
        let mut end = start + 2;
        while end < bytes.len() && (bytes[end].is_ascii_lowercase() || bytes[end] == b'-') {
            end += 1;
        }
        if end > start + 2 {
            into.insert(text[start..end].to_string());
        }
        from = end;
    }
}

/// The flags a binary's argument parser matches on: the string literals
/// of its `"--flag" =>` arms, without `--help` (usage, not a setting).
fn parsed_flags(bin_source: &str) -> BTreeSet<String> {
    let path = repo_root().join(bin_source);
    let text = std::fs::read_to_string(&path).expect("read binary source");
    let mut flags = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"--") && line.contains("=>") {
            let arm = &line[..line.find("=>").expect("arm")];
            flags_in(arm, &mut flags);
        }
    }
    flags.remove("--help");
    flags
}

/// The flags in the first column of the table under `heading` in
/// `docs/OPERATIONS.md` (up to the next `## ` heading).
fn documented_flags(heading: &str) -> BTreeSet<String> {
    let doc = std::fs::read_to_string(repo_root().join("docs/OPERATIONS.md"))
        .expect("read docs/OPERATIONS.md");
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("docs/OPERATIONS.md lacks the {heading:?} section"));
    let body = &doc[start + heading.len()..];
    let section = &body[..body.find("\n## ").unwrap_or(body.len())];
    let mut flags = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let first_cell = row[1..].split(" | ").next().unwrap_or("");
        flags_in(first_cell, &mut flags);
    }
    flags
}

#[test]
fn flag_tables_match_the_argument_parsers() {
    for (bin, heading) in [
        ("src/bin/eccparityd.rs", "## `eccparityd` flags"),
        (
            "src/bin/eccparity-loadgen.rs",
            "## Driving load: `eccparity-loadgen`",
        ),
    ] {
        let parsed = parsed_flags(bin);
        let documented = documented_flags(heading);
        assert!(
            parsed.len() >= 10 && parsed.contains("--socket"),
            "{bin}: flag extraction looks broken: {parsed:?}"
        );
        let undocumented: Vec<&String> = parsed.difference(&documented).collect();
        assert!(
            undocumented.is_empty(),
            "{bin} parses flags missing from its table in docs/OPERATIONS.md: {undocumented:?}"
        );
        let stale: Vec<&String> = documented.difference(&parsed).collect();
        assert!(
            stale.is_empty(),
            "docs/OPERATIONS.md documents {bin} flags it no longer parses: {stale:?}"
        );
    }
}

/// The metric names of every `counter!("…")`, `histogram!("…")` and
/// `gauge!("…")` in `text`.
fn metric_names(text: &str, into: &mut BTreeSet<String>) {
    for mac in ["counter!(", "histogram!(", "gauge!("] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(mac) {
            let rest = text[from + pos + mac.len()..].trim_start();
            if let Some(lit) = rest.strip_prefix('"') {
                let end = lit.find('"').expect("a closed metric name literal");
                into.insert(lit[..end].to_string());
            }
            from += pos + mac.len();
        }
    }
}

/// Is `name` in `doc` as a whole metric name, not as a prefix or suffix
/// of a longer one?
fn names_metric(doc: &str, name: &str) -> bool {
    let part_of_name = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
    doc.match_indices(name).any(|(at, _)| {
        let before = doc.as_bytes()[..at].last().copied();
        let after = doc.as_bytes().get(at + name.len()).copied();
        !before.is_some_and(part_of_name) && !after.is_some_and(part_of_name)
    })
}

#[test]
fn every_daemon_metric_is_documented() {
    let mut names = BTreeSet::new();
    let dir = repo_root().join("crates/service/src");
    for entry in std::fs::read_dir(&dir).expect("read crates/service/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read service source");
            metric_names(&text, &mut names);
        }
    }
    assert!(
        names.len() >= 30 && names.contains("service.events_ingested"),
        "metric extraction looks broken: {names:?}"
    );
    let docs: Vec<String> = ["ARCHITECTURE.md", "docs/OPERATIONS.md"]
        .iter()
        .map(|d| std::fs::read_to_string(repo_root().join(d)).expect("read doc"))
        .collect();
    let undocumented: Vec<&String> = names
        .iter()
        .filter(|n| !docs.iter().any(|d| names_metric(d, n)))
        .collect();
    assert!(
        undocumented.is_empty(),
        "crates/service/src emits metrics that neither ARCHITECTURE.md nor \
         docs/OPERATIONS.md names: {undocumented:?}"
    );
}

/// The metric names of `ARCHITECTURE.md`'s metrics table: each row's one
/// `prefix.*` joined to every backticked suffix of its metrics column. A
/// suffix with a placeholder, such as `corrections.<name>`, stands for
/// names made at run time and is not a name itself.
fn tabled_metrics() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(repo_root().join("ARCHITECTURE.md")).expect("read doc");
    let start = doc
        .find("| Prefix | Site | Metrics |")
        .expect("ARCHITECTURE.md has a metrics table");
    let backticked = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    let mut names = BTreeSet::new();
    for row in doc[start..]
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
    {
        let cells: Vec<&str> = row.split('|').collect();
        let prefix = match backticked(cells[1]).as_slice() {
            [p] if p.ends_with(".*") => p.trim_end_matches('*').to_string(),
            other => panic!("a metrics row needs one `prefix.*`, not {other:?}: {row}"),
        };
        let name_like = |s: &String| {
            s.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.')
        };
        for suffix in backticked(cells[3]).iter().filter(|s| name_like(s)) {
            names.insert(format!("{prefix}{suffix}"));
        }
    }
    names
}

/// The non-comment lines of every source file under `crates/*/src` and
/// `src/`, one string per file.
fn production_code() -> Vec<String> {
    let root = repo_root();
    let mut files = Vec::new();
    for path in source_files() {
        let rel = path.strip_prefix(&root).expect("a repo path");
        let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
        let in_src = match parts.next().as_deref() {
            Some("src") => true,
            Some("crates") => parts.nth(1).as_deref() == Some("src"),
            _ => false,
        };
        if !in_src {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read source");
        files.push(
            text.lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .map(|l| format!("{l}\n"))
                .collect(),
        );
    }
    files
}

/// The metric names emitted by non-comment code under `crates/*/src` and
/// `src/`.
fn emitted_metrics() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for code in production_code() {
        metric_names(&code, &mut names);
    }
    names
}

#[test]
fn metrics_table_matches_the_code() {
    let emitted = emitted_metrics();
    let tabled = tabled_metrics();
    for names in [&emitted, &tabled] {
        assert!(
            names.len() >= 80 && names.contains("dram.activates"),
            "metric extraction looks broken: {names:?}"
        );
    }
    let unlisted: Vec<&String> = emitted.difference(&tabled).collect();
    assert!(
        unlisted.is_empty(),
        "metrics emitted in code but missing from ARCHITECTURE.md's metrics table: {unlisted:?}"
    );
    let stale: Vec<&String> = tabled.difference(&emitted).collect();
    assert!(
        stale.is_empty(),
        "ARCHITECTURE.md's metrics table lists metrics no code emits: {stale:?}"
    );
}

/// The first argument of every call `call` (such as `"trace::event("`) in
/// `code`: `Ok` with the literal's contents, or `Err` with the text of a
/// non-literal argument.
fn first_args(code: &str, call: &str) -> Vec<Result<String, String>> {
    code.match_indices(call)
        .filter(|(at, _)| {
            // A whole call, not the tail of a longer name (`fn f(` vs `g_f(`).
            let before = code.as_bytes()[..*at].last().copied();
            !before.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        })
        .map(|(at, _)| {
            let rest = code[at + call.len()..].trim_start();
            match rest.strip_prefix('"') {
                Some(lit) => Ok(lit[..lit.find('"').expect("a closed literal")].to_string()),
                None => Err(rest[..rest.find([',', ')']).unwrap_or(rest.len())].to_string()),
            }
        })
        .collect()
}

/// The trace event names emitted by non-comment code under `crates/*/src`
/// and `src/`: the literal first argument of every `trace::event(` call.
/// Where that argument is a variable, the call sits in a wrapper such as
/// `cache.rs`'s `trace_lookup(kind, ..)`; the names are then the literal
/// first arguments of the wrapper's calls in the same file.
fn emitted_trace_events() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for code in production_code() {
        for arg in first_args(&code, "trace::event(") {
            let kind = match arg {
                Ok(name) => {
                    names.insert(name);
                    continue;
                }
                Err(kind) => kind,
            };
            // The wrapper: the fn whose parameter list names `kind`.
            let wrapper = code
                .match_indices("fn ")
                .find_map(|(at, _)| {
                    let (name, rest) = code[at + 3..].split_once('(')?;
                    let (params, _) = rest.split_once(')')?;
                    params.contains(&format!("{kind}: &str")).then_some(name)
                })
                .unwrap_or_else(|| panic!("no wrapper fn takes the trace kind `{kind}`"));
            let calls: Vec<String> = first_args(&code, &format!("{wrapper}("))
                .into_iter()
                .filter_map(Result::ok)
                .collect();
            assert!(
                !calls.is_empty(),
                "`{wrapper}` is never called with a literal kind"
            );
            names.extend(calls);
        }
    }
    names
}

/// The names in `ARCHITECTURE.md`'s trace-event list: every backticked
/// dotted lowercase name from the `Trace events (` line to the blank line
/// that ends the list.
fn listed_trace_events() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(repo_root().join("ARCHITECTURE.md")).expect("read doc");
    let start = doc
        .find("Trace events (")
        .expect("ARCHITECTURE.md lists the trace events");
    let head = doc[start..]
        .find("\n\n")
        .expect("a blank line after the heading");
    let list_end = doc[start + head + 2..]
        .find("\n\n")
        .map_or(doc.len(), |end| start + head + 2 + end);
    doc[start..list_end]
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| {
            s.contains('.')
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.')
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn trace_event_list_matches_the_code() {
    let emitted = emitted_trace_events();
    let listed = listed_trace_events();
    for names in [&emitted, &listed] {
        assert!(
            names.len() >= 10 && names.contains("cache.hit") && names.contains("run.start"),
            "trace event extraction looks broken: {names:?}"
        );
    }
    let unlisted: Vec<&String> = emitted.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "trace events emitted in code but missing from ARCHITECTURE.md's list: {unlisted:?}"
    );
    let stale: Vec<&String> = listed.difference(&emitted).collect();
    assert!(
        stale.is_empty(),
        "ARCHITECTURE.md's trace-event list names events no code emits: {stale:?}"
    );
}

/// The `group/bench_function` ids of `ecc_codecs.rs` whose group name is a
/// literal. The per-scheme groups of `bench_codec` are named at run time
/// and are not recorded in `BENCH_gf_kernels.json`.
fn gf_kernel_bench_ids() -> BTreeSet<String> {
    let path = repo_root().join("crates/bench/benches/ecc_codecs.rs");
    let code = std::fs::read_to_string(path).expect("read ecc_codecs.rs");
    let mut ids = BTreeSet::new();
    let mut group: Option<String> = None;
    for line in code.lines() {
        if let Some(arg) = first_args(line, "benchmark_group(").pop() {
            group = arg.ok();
        }
        if let (Some(g), Some(Ok(f))) = (&group, first_args(line, "bench_function(").pop()) {
            ids.insert(format!("{g}/{f}"));
        }
    }
    ids
}

#[test]
fn gf_kernel_results_match_the_bench() {
    let text =
        std::fs::read_to_string(repo_root().join("BENCH_gf_kernels.json")).expect("read json");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCH_gf_kernels.json");
    let keys = |field: &str| -> BTreeSet<String> {
        json.get(field)
            .and_then(serde_json::Value::as_object)
            .unwrap_or_else(|| panic!("BENCH_gf_kernels.json has an object `{field}`"))
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    let timed = keys("results_ns_per_iter");
    let throughput = keys("results_throughput");
    let bench = gf_kernel_bench_ids();
    assert!(
        bench.len() >= 5 && bench.contains("rs_encode/linear_table"),
        "bench id extraction looks broken: {bench:?}"
    );
    let stale: Vec<&String> = timed
        .union(&throughput)
        .filter(|id| !bench.contains(*id))
        .collect();
    assert!(
        stale.is_empty(),
        "BENCH_gf_kernels.json holds results for ids ecc_codecs.rs no longer has: {stale:?}"
    );
    let missing: Vec<&String> = bench.difference(&timed).collect();
    assert!(
        missing.is_empty(),
        "ecc_codecs.rs ids with no result in BENCH_gf_kernels.json: {missing:?}"
    );
}
