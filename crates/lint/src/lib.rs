//! btc-lint — the workspace's own static-analysis pass.
//!
//! A multi-pass analyzer, not a grep: every `.rs` file under `crates/`,
//! `src/`, `tests/` and `examples/` is lexed, parsed to its item surface
//! (functions, impl blocks, calls, `use` imports), indexed, and linked into
//! a conservative workspace call graph. Rules come in three layers:
//!
//! | rule             | scope                             | what it enforces                     |
//! |------------------|-----------------------------------|--------------------------------------|
//! | `wallclock`      | whole workspace (+ transitive)    | no `Instant::now`/`SystemTime::now`/ |
//! |                  |                                   | `RandomState`; no sim-crate call     |
//! |                  |                                   | chain into exempted wall-clock reads |
//! | `unordered-map`  | sim-deterministic crates          | no `HashMap`/`HashSet`               |
//! | `panic-path`     | peer-input files + transitive     | no unwrap/expect/panic!/`[i]` on     |
//! |                  |                                   | (or reachable from) peer bytes       |
//! | `narrowing-cast` | wire parse files                  | no `as u8/u16/u32`                   |
//! | `hot-path-alloc` | receive-path files + transitive   | no `to_vec()`/`copy_from_slice`/     |
//! |                  |                                   | `Vec::new` on the steady-state path  |
//! | `score-arith`    | `crates/node/src/banscore/`       | saturating/checked score arithmetic  |
//! | `rng-stream`     | RNG roots + reachable fns         | draws stay on the owning salted      |
//! |                  |                                   | stream; `SimRng::new` is salted      |
//! | `lock-order`     | par + netsim                      | Mutex acquisitions follow the        |
//! |                  |                                   | declared total order                 |
//! | `ban-exhaustive` | message.rs / rules.rs / node.rs   | Table I covers all 26 types          |
//! | `stale-allow`    | markers + lint-allow.txt          | every exemption still suppresses     |
//! |                  |                                   | something                            |
//!
//! Exemptions are explicit and audited: inline `lint:allow(<rule>): <reason>`
//! markers for single lines, `crates/lint/lint-allow.txt` path prefixes for
//! whole files/trees. Suppression happens here in the driver — rules report
//! everything outside test code, the driver matches exemptions and tracks
//! which ones actually fire, so a stale exemption is itself a finding.
//! Findings print as `file:line:rule: message [chain]`; `--json` emits the
//! same plus call-graph resolution stats.

pub mod callgraph;
pub mod findings;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scope;
pub mod symbols;

use callgraph::Graph;
use findings::Finding;
use lexer::SourceFile;
use parse::ParsedFile;
use rules::Workspace;
use scope::Allowlist;
use std::path::{Path, PathBuf};
use symbols::Index;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// Top-level directories scanned under the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// The full analysis result: findings plus call-graph accounting.
pub struct Analysis {
    /// Sorted, deduplicated, exemption-filtered findings.
    pub findings: Vec<Finding>,
    /// Call-graph resolution stats (for `--json` and DESIGN.md honesty).
    pub stats: callgraph::Stats,
}

/// Runs every rule over the workspace at `root`.
pub fn analyze(root: &Path) -> Analysis {
    let (allow, allow_findings) = Allowlist::load(root);

    // Pass 1: collect + lex + parse.
    let mut rels: Vec<String> = Vec::new();
    let mut files: Vec<SourceFile> = Vec::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut io_findings: Vec<Finding> = Vec::new();
    for path in collect_rs_files(root) {
        let rel = relative_path(root, &path);
        let Ok(src) = std::fs::read_to_string(&path) else {
            io_findings.push(Finding::new(&rel, 1, "io", "file vanished or is not UTF-8"));
            continue;
        };
        let sf = lexer::lex(&rel, &src);
        parsed.push(parse::parse(&sf));
        rels.push(rel);
        files.push(sf);
    }

    // Pass 2: symbol index + call graph.
    let index = Index::build(rels.iter().map(String::as_str).zip(parsed.iter()));
    let parsed_refs: Vec<&ParsedFile> = parsed.iter().collect();
    let graph = Graph::build(&index, &parsed_refs);
    let ws = Workspace { rels: &rels, files: &files, parsed: &parsed, index: &index, graph: &graph };

    // Pass 3: rules. Everything lands in `raw`; suppression comes after.
    let mut raw: Vec<Finding> = Vec::new();
    for (fi, rel) in rels.iter().enumerate() {
        let sf = &files[fi];
        for &line in &sf.bad_marker_lines {
            raw.push(Finding::new(
                rel,
                line,
                "allow-marker",
                "`lint:allow` marker without a reason; write `lint:allow(<rule>): <why>`",
            ));
        }
        rules::determinism::wallclock(sf, &mut raw);
        if scope::in_sim_deterministic(rel) {
            rules::determinism::unordered_map(sf, &mut raw);
        }
        if scope::is_peer_input(rel) {
            rules::panics::panic_path(sf, &mut raw);
        }
        if scope::is_wire_parse(rel) {
            rules::casts::narrowing_cast(sf, &mut raw);
        }
        if scope::is_recv_path(rel) {
            rules::alloc::hot_path_alloc(sf, &mut raw);
        }
        if rel.starts_with(scope::SCORE_ARITH_SCOPE) {
            rules::score_arith::score_arith(sf, &mut raw);
        }
    }
    rules::transitive::panic_path_transitive(&ws, &mut raw);
    rules::transitive::hot_path_alloc_transitive(&ws, &mut raw);
    rules::transitive::wallclock_transitive(&ws, &allow, &mut raw);
    rules::rng_stream::rng_stream(&ws, &mut raw);
    rules::lock_order::lock_order(&ws, &mut raw);

    match (ws.file_idx("crates/wire/src/message.rs"),
           ws.file_idx("crates/node/src/banscore/rules.rs"),
           ws.file_idx("crates/node/src/node.rs"))
    {
        (Some(m), Some(r), Some(n)) => {
            rules::ban_rules::ban_exhaustive(&files[m], &files[r], &files[n], &mut raw);
        }
        _ => {
            raw.push(Finding::new(
                "crates",
                1,
                rules::ban_rules::BAN_EXHAUSTIVE,
                "missing one of message.rs / banscore/rules.rs / node.rs; \
                 the ban-decision cross-check could not run",
            ));
        }
    }

    // Pass 4: suppression + stale-exemption audit. A finding survives unless
    // an inline marker (same line or the line above, matching rule) or an
    // allowlist path-prefix entry covers it; every exemption that fires is
    // marked used, and unused ones become `stale-allow` findings.
    let mut marker_used: Vec<Vec<bool>> =
        files.iter().map(|sf| vec![false; sf.markers.len()]).collect();
    let mut entry_used: Vec<bool> = vec![false; allow.entries().len()];

    let mut all: Vec<Finding> = allow_findings;
    all.extend(io_findings);
    for f in raw {
        let fi = ws.file_idx(&f.file);
        let marker = fi.and_then(|fi| {
            files[fi]
                .markers
                .iter()
                .position(|m| m.rule == f.rule && (m.line == f.line || m.line + 1 == f.line))
                .map(|mi| (fi, mi))
        });
        if let Some((fi, mi)) = marker {
            marker_used[fi][mi] = true;
            continue;
        }
        if let Some(ei) = allow
            .entries()
            .iter()
            .position(|e| e.rule == f.rule && f.file.starts_with(&e.path))
        {
            entry_used[ei] = true;
            continue;
        }
        all.push(f);
    }

    for (fi, used) in marker_used.iter().enumerate() {
        for (mi, &u) in used.iter().enumerate() {
            let m = &files[fi].markers[mi];
            if u || files[fi].in_test(m.line) {
                continue;
            }
            all.push(Finding::new(
                &rels[fi],
                m.line,
                "stale-allow",
                format!(
                    "`lint:allow({})` suppresses nothing (the {} rule no longer fires here); \
                     remove the marker",
                    m.rule, m.rule
                ),
            ));
        }
    }
    for (ei, &u) in entry_used.iter().enumerate() {
        if u {
            continue;
        }
        let e = &allow.entries()[ei];
        all.push(Finding::new(
            "crates/lint/lint-allow.txt",
            e.line,
            "stale-allow",
            format!(
                "allowlist entry `{} {}` exempts nothing (the rule no longer fires under \
                 that prefix); remove the entry",
                e.rule, e.path
            ),
        ));
    }

    all.sort();
    all.dedup();
    Analysis { findings: all, stats: graph.stats }
}

/// Runs every rule over the workspace at `root` and returns sorted findings.
/// An empty result means the workspace is lint-clean.
pub fn run(root: &Path) -> Vec<Finding> {
    analyze(root).findings
}

/// Every `.rs` file under the scan roots, sorted for deterministic output.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in SCAN_ROOTS {
        walk(&root.join(dir), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let skip = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| SKIP_DIRS.contains(&n));
            if !skip {
                walk(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_path_is_slash_separated() {
        let root = Path::new("/ws");
        let p = Path::new("/ws/crates/wire/src/message.rs");
        assert_eq!(relative_path(root, p), "crates/wire/src/message.rs");
    }
}
