//! `repolint`: source-level invariants clippy cannot express.
//!
//! A line-based scanner over every `.rs` file in the workspace,
//! enforcing the ten concurrency-hygiene rules the correctness plane
//! depends on:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-std-sync` | no direct `std::sync::{Mutex, RwLock, Condvar}` outside the shim crates — all locking must route through `crates/shims/parking_lot` so the model checker sees it |
//! | `sleep-polling` | no `thread::sleep` outside tests/benches — sleeping in product code is always a disguised poll loop; block on a channel or condvar instead |
//! | `safety-comment` | every `unsafe` block / `unsafe impl` / `unsafe fn` is preceded (within a few lines) by a `// SAFETY:` comment stating the invariant it relies on |
//! | `no-static-mut` | no `static mut` anywhere — use an atomic or a lock |
//! | `relaxed-allowlist` | `Ordering::Relaxed` only at sites on the audited allowlist below, each with a recorded justification |
//! | `blocking-net` | blocking `std::net` / Unix-socket stream and listener types only in files on the audited `NET_ALLOWLIST` — the wire plane owns every socket, and each exempt file records where its blocking reads park and what unblocks them |
//! | `par-gate` | every `par_iter` / `into_par_iter` / `par_iter_mut` / `par_chunks_mut` / `rayon::scope` / `rayon::join` call in product code sits within a few lines below a comparison against `PAR_MIN_WORK` (the dispatch rule, DESIGN.md §9: a region is two thread spawns, so request-sized work must not open one), or its file is on the audited `PAR_ALLOWLIST` |
//! | `one-publish` | within `crates/service/src`, a `ServiceView` is published (`.view.write()`) from exactly one non-test function — every path that changes what readers see goes through it, so a step that must precede publication (re-keying the zoo at a plane install, DESIGN.md §7) has one place to go |
//! | `orphan-pub` | every free or inherent `pub fn` under `crates/{tensor,nn,clustering,datastore,flows,core,service}/src` — the crates the service links — has its name in at least one other `.rs` file of the workspace (`benches/e2e/src` counts), or its site is on the audited `ORPHAN_ALLOWLIST` with the caller text cannot see: what nothing outside its own file runs loses its `pub` or goes (DESIGN.md §11). Trait methods carry no `pub` and are not scanned |
//! | `stale-allowlist` | every `RELAXED_ALLOWLIST`, `NET_ALLOWLIST` and `PAR_ALLOWLIST` entry records a justification and names a file that exists and still has a site its rule would flag without the entry — an exemption outlives neither its file nor its reason |
//!
//! Zones: the shim crates are exempt from `no-std-sync` / `sleep-polling`
//! / `relaxed-allowlist` / `par-gate` (they *implement* those layers), and
//! `crates/check` is exempt entirely (the checker's own scheduler is
//! built on `std::sync`, and this file spells the patterns out). Test
//! code — `tests/`, `benches/`, or below a `#[cfg(test)]` line — may
//! sleep and may open ungated regions.
//!
//! Findings are produced as structured values; the `repolint` binary
//! renders them human-readable or as JSON (`--json`) and exits non-zero
//! on any finding, which CI gates on.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule identifier (kebab-case, stable — scripts key on it).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Finding {
    /// `path:line: [rule] message` — the human-readable form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {} | {}",
            self.path, self.line, self.rule, self.message, self.excerpt
        )
    }

    /// One JSON object (hand-rolled; no serde in the workspace).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"excerpt\":\"{}\"}}",
            esc(self.rule),
            esc(&self.path),
            self.line,
            esc(&self.message),
            esc(&self.excerpt)
        )
    }
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            '\t' => vec!['\\', 't'],
            c => vec![c],
        })
        .collect()
}

/// Audited `Ordering::Relaxed` sites: (path suffix, justification).
/// Adding a site here is a reviewed decision — the justification is
/// printed by `repolint --allowlist`.
pub const RELAXED_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/datastore/src/store.rs",
        "monotonic id allocation: fetch_add uniqueness is all that is needed; ids never order other memory",
    ),
    (
        "crates/service/src/metrics.rs",
        "monotonic metric counters read only by the stats endpoint; no memory is published through them",
    ),
    (
        "crates/service/src/server.rs",
        "monotonic metric counters (requests, drops); approximate reads are acceptable and order nothing",
    ),
    (
        "crates/service/src/training.rs",
        "the training-job and retrain-install counters, moved here from server.rs with the \
         completion function that bumps them; read only by the stats endpoint, they order nothing",
    ),
    (
        "crates/core/src/reuse.rs",
        "hit/miss/eviction statistics counters read only by the stats endpoint; the table itself is guarded by its shard locks",
    ),
    (
        "crates/core/src/fairds.rs",
        "sampling sequence counter: uniqueness per draw is all that is needed; it guards no data",
    ),
    (
        "crates/core/src/read_index.rs",
        "read-index probe/prune/decode statistics read only by the stats endpoint; the index \
         itself is published through its RwLock, never through them",
    ),
    (
        "crates/flows/src/jobs.rs",
        "test-only completion counters asserted after join(), which already orders them",
    ),
];

/// Audited blocking-socket files: (path suffix, justification). The wire
/// plane (DESIGN.md §13) is built on blocking `std::net` I/O with
/// thread-per-connection state machines; that is a deliberate design, but
/// *only there*. Every exempt file must say where its blocking reads park
/// and what unblocks them, so a stray `TcpStream::read` in a request
/// handler (which would wedge the service plane on a slow peer) fails
/// repolint instead of shipping.
pub const NET_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/service/src/net/server.rs",
        "wire-plane server: blocking reads live on dedicated per-connection reader threads, \
         blocking writes on the per-connection reply sequencer (a reader's own window-1 \
         reply is one write that does not wait; a full socket's remainder is sequenced); accept \
         blocks on its own listener thread. Drain unblocks all of them by closing the sockets \
         (shutdown + a self-connect to wake the accept loop)",
    ),
    (
        "crates/service/src/net/client.rs",
        "wire-plane client: blocking reads are the demux loop on each connection's dedicated \
         thread and a `call` reading its own reply when nothing else is in flight on the \
         connection; every other caller blocks on a channel, never on the socket. Dropping \
         the client shuts the socket down, which unblocks the reader with a clean EOF",
    ),
];

/// Audited ungated parallel-iterator files: (path suffix, justification).
/// Everything else states its work and compares it against
/// `ops::PAR_MIN_WORK` before opening a region.
pub const PAR_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/datasets/src/voigt.rs",
        "label_batch: the conventional labeler's per-node fan-out, a ~0.1 ms pseudo-Voigt fit \
         per patch over a dataset-sized batch; offline, and the thing the paper's reuse avoids",
    ),
    (
        "crates/bench/src/figures/fig09.rs",
        "figure regenerator: the same per-patch Voigt fit over a whole scan, offline",
    ),
];

/// An audited allowlist: (path suffix, justification) per entry.
type Allowlist<'a> = &'a [(&'a str, &'a str)];

/// The lists `stale-allowlist` keeps honest: (the rule an entry exempts a
/// file from, the list's name, its entries).
const ALLOWLISTS: [(&str, &str, Allowlist); 3] = [
    ("relaxed-allowlist", "RELAXED_ALLOWLIST", RELAXED_ALLOWLIST),
    ("blocking-net", "NET_ALLOWLIST", NET_ALLOWLIST),
    ("par-gate", "PAR_ALLOWLIST", PAR_ALLOWLIST),
];

/// The crates `fairdms-service` links; `orphan-pub` scans their `src/`.
const LINKED_CRATES: [&str; 7] = [
    "tensor",
    "nn",
    "clustering",
    "datastore",
    "flows",
    "core",
    "service",
];

/// Audited `pub fn`s no other file names: (`path::name`, who calls it in a
/// way text cannot see — a macro that pastes the name together, a symbol
/// looked up at run time). At most five; a sixth means the rule is wrong.
pub const ORPHAN_ALLOWLIST: &[(&str, &str)] = &[];

/// How many lines above a parallel-iterator call `par-gate` looks for the
/// comparison (the furthest audited site, `ReadIndex::build_index`'s
/// second pass, sits 15 above its region).
const PAR_GATE_WINDOW: usize = 15;

/// Lints every `.rs` file under `root`. Paths in findings are relative
/// to `root`.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .filter_map(|f| {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            Some((rel, fs::read_to_string(f).ok()?))
        })
        .collect();
    let mut findings = Vec::new();
    let mut publishers = Vec::new();
    for (rel, text) in &sources {
        lint_file(rel, text, &mut findings);
        publishers.extend(publish_sites(rel, text));
    }
    findings.extend(one_publish(publishers));
    findings.extend(orphan_pub(&sources, ORPHAN_ALLOWLIST));
    findings.extend(stale_allowlist(&sources, &ALLOWLISTS));
    findings
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

struct Zone {
    shim: bool,
    check_crate: bool,
    test_file: bool,
}

fn zone_of(rel: &str) -> Zone {
    Zone {
        shim: rel.contains("crates/shims/"),
        check_crate: rel.contains("crates/check/"),
        test_file: rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/")
            || rel.starts_with("tests/")
            || rel.starts_with("benches/")
            || rel.starts_with("examples/"),
    }
}

fn is_comment(trimmed: &str) -> bool {
    trimmed.starts_with("//")
}

/// Lints one file's text; appends findings.
pub fn lint_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    let zone = zone_of(rel);
    if zone.check_crate {
        return;
    }
    let lines: Vec<&str> = text.lines().collect();
    let mut in_cfg_test = false;
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        let lineno = i + 1;
        if line.starts_with("#[cfg(test)]") {
            in_cfg_test = true;
        }
        let in_test = zone.test_file || in_cfg_test;
        let comment = is_comment(line);

        // no-std-sync
        if !zone.shim
            && !comment
            && line.contains("std::sync::")
            && ["Mutex", "RwLock", "Condvar"]
                .iter()
                .any(|p| line[line.find("std::sync::").unwrap()..].contains(p))
        {
            out.push(Finding {
                rule: "no-std-sync",
                path: rel.to_string(),
                line: lineno,
                excerpt: line.to_string(),
                message: "use the parking_lot shim (crates/shims/parking_lot) so the model \
                          checker can instrument this lock"
                    .to_string(),
            });
        }

        // sleep-polling
        if !zone.shim && !in_test && !comment && line.contains("thread::sleep") {
            out.push(Finding {
                rule: "sleep-polling",
                path: rel.to_string(),
                line: lineno,
                excerpt: line.to_string(),
                message: "sleeping in product code is a disguised poll loop; block on a \
                          channel/condvar (or move this under #[cfg(test)])"
                    .to_string(),
            });
        }

        // no-static-mut
        if !comment && line.contains("static mut ") {
            out.push(Finding {
                rule: "no-static-mut",
                path: rel.to_string(),
                line: lineno,
                excerpt: line.to_string(),
                message: "static mut is unsynchronized shared state; use an atomic or a \
                          shim lock"
                    .to_string(),
            });
        }

        // safety-comment
        if !comment && has_unsafe_marker(line) {
            // Same line or up to 10 lines above.
            let ok = lines[i.saturating_sub(10)..=i]
                .iter()
                .any(|l| l.contains("SAFETY:"));
            if !ok {
                out.push(Finding {
                    rule: "safety-comment",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt: line.to_string(),
                    message: "every unsafe block/impl/fn needs a `// SAFETY:` comment \
                              within the 10 preceding lines stating the invariant it \
                              relies on"
                        .to_string(),
                });
            }
        }

        // blocking-net
        if !zone.shim
            && !in_test
            && !comment
            && ["TcpListener", "TcpStream", "UnixListener", "UnixStream"]
                .iter()
                .any(|t| line.contains(t))
        {
            let allowed = NET_ALLOWLIST.iter().any(|(p, _)| rel.ends_with(p));
            if !allowed {
                out.push(Finding {
                    rule: "blocking-net",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt: line.to_string(),
                    message: "blocking sockets outside the audited wire plane \
                              (crates/check/src/lint.rs NET_ALLOWLIST); route I/O through \
                              fairdms_service::net, or justify and allowlist the file"
                        .to_string(),
                });
            }
        }

        // par-gate
        if !zone.shim && !in_test && !comment && opens_region(line) {
            let gated = lines[i.saturating_sub(PAR_GATE_WINDOW)..=i]
                .iter()
                .any(|l| compares_par_min_work(l));
            let allowed = PAR_ALLOWLIST.iter().any(|(p, _)| rel.ends_with(p));
            if !gated && !allowed {
                out.push(Finding {
                    rule: "par-gate",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt: line.to_string(),
                    message: format!(
                        "parallel region without a work gate: state the work in \
                         multiply–add equivalents and compare it against ops::PAR_MIN_WORK \
                         within the {PAR_GATE_WINDOW} lines above (DESIGN.md §9), or justify and \
                         allowlist the file (crates/check/src/lint.rs PAR_ALLOWLIST)"
                    ),
                });
            }
        }

        // relaxed-allowlist
        if !zone.shim && !comment && line.contains("Ordering::Relaxed") {
            let allowed = RELAXED_ALLOWLIST.iter().any(|(p, _)| rel.ends_with(p));
            if !allowed {
                out.push(Finding {
                    rule: "relaxed-allowlist",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt: line.to_string(),
                    message: "Ordering::Relaxed outside the audited allowlist \
                              (crates/check/src/lint.rs RELAXED_ALLOWLIST); justify and \
                              allowlist it, or use Acquire/Release"
                        .to_string(),
                });
            }
        }
    }
}

/// The `one-publish` candidates of one file: each non-test, non-comment
/// line under `crates/service/src` that publishes a `ServiceView`, keyed
/// by its file and the function it sits in (the nearest `fn` above it).
fn publish_sites(rel: &str, text: &str) -> Vec<(String, Finding)> {
    let mut sites = Vec::new();
    if !rel.contains("crates/service/src/") {
        return sites;
    }
    let mut function = "";
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        if is_comment(line) {
            continue;
        }
        if let Some(at) = line.find("fn ") {
            let name = &line[at + 3..];
            function = &name[..name.find(['(', '<']).unwrap_or(name.len())];
        }
        if line.contains(".view.write()") {
            let finding = Finding {
                rule: "one-publish",
                path: rel.to_string(),
                line: i + 1,
                excerpt: line.to_string(),
                message: format!(
                    "`{function}` publishes a ServiceView and so does another function; keep \
                     one (`Shared::publish`) and call it, so nothing that must precede \
                     publication can be skipped"
                ),
            };
            sites.push((format!("{rel}::{function}"), finding));
        }
    }
    sites
}

/// `one-publish` over the whole workspace: clean when every site sits in
/// one function; otherwise every site is a finding (the rule cannot know
/// which one is meant to stay), and no site at all is one too — the
/// publication moved somewhere this rule no longer sees.
fn one_publish(mut sites: Vec<(String, Finding)>) -> Vec<Finding> {
    sites.dedup_by(|b, a| a.0 == b.0);
    match sites.len() {
        1 => Vec::new(),
        0 => vec![Finding {
            rule: "one-publish",
            path: "crates/service/src".to_string(),
            line: 0,
            excerpt: String::new(),
            message: "no `.view.write()` found: if publication was renamed, rename it in \
                      crates/check/src/lint.rs too"
                .to_string(),
        }],
        _ => sites.into_iter().map(|(_, f)| f).collect(),
    }
}

/// `orphan-pub` over the whole workspace (`(path, text)` of every `.rs`
/// file): a finding for each non-test `pub fn` of a linked crate whose name
/// is a word of no other file and whose `path::name` is not in `allow`.
fn orphan_pub(files: &[(String, String)], allow: &[(&str, &str)]) -> Vec<Finding> {
    let words: Vec<HashSet<&str>> = files
        .iter()
        .map(|(_, text)| {
            text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .collect()
        })
        .collect();
    let mut findings = Vec::new();
    for (at, (rel, text)) in files.iter().enumerate() {
        let linked = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once("/src/"))
            .is_some_and(|(krate, _)| LINKED_CRATES.contains(&krate));
        if !linked {
            continue;
        }
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            let Some(decl) = line
                .strip_prefix("pub fn ")
                .or_else(|| line.strip_prefix("pub const fn "))
            else {
                continue;
            };
            let name = &decl[..decl.find(['(', '<']).unwrap_or(decl.len())];
            let named_elsewhere = words
                .iter()
                .enumerate()
                .any(|(other, w)| other != at && w.contains(name));
            let site = format!("{rel}::{name}");
            if !named_elsewhere && !allow.iter().any(|(s, _)| *s == site) {
                findings.push(Finding {
                    rule: "orphan-pub",
                    path: rel.clone(),
                    line: i + 1,
                    excerpt: line.to_string(),
                    message: format!(
                        "no other file names `{name}`: nothing outside this file runs it — \
                         drop the `pub`, delete it if only this file's tests call it, or \
                         record its caller in ORPHAN_ALLOWLIST"
                    ),
                });
            }
        }
    }
    findings
}

/// `stale-allowlist` over the whole workspace (`(path, text)` of every `.rs`
/// file): a finding for each entry of `lists` that records no justification,
/// that matches no file, or whose files, linted as if no list named them,
/// raise nothing under its rule.
fn stale_allowlist(files: &[(String, String)], lists: &[(&str, &str, Allowlist)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &(rule, list, entries) in lists {
        for (path, why) in entries {
            if why.trim().is_empty() {
                findings.push(Finding {
                    rule: "stale-allowlist",
                    path: path.to_string(),
                    line: 0,
                    excerpt: String::new(),
                    message: format!(
                        "{list} entry records no justification; say why the site is \
                         safe in crates/check/src/lint.rs"
                    ),
                });
            }
            let matched: Vec<_> = files
                .iter()
                .filter(|(rel, _)| rel.ends_with(path))
                .collect();
            let needed = matched.iter().any(|(rel, text)| {
                // Same directory, so the same zone; a name no entry matches.
                let mut out = Vec::new();
                lint_file(&format!("{rel}.unlisted"), text, &mut out);
                out.iter().any(|f| f.rule == rule)
            });
            if !needed {
                let why = if matched.is_empty() {
                    "no such file".to_string()
                } else {
                    format!("the file has no `{rule}` site left to exempt")
                };
                findings.push(Finding {
                    rule: "stale-allowlist",
                    path: path.to_string(),
                    line: 0,
                    excerpt: String::new(),
                    message: format!(
                        "{list} entry exempts nothing ({why}); delete it from \
                         crates/check/src/lint.rs"
                    ),
                });
            }
        }
    }
    findings
}

/// Whether the line calls one of the shim's region-opening iterators, or
/// opens a scope or a join (a training step's helper thread).
fn opens_region(line: &str) -> bool {
    [
        ".par_iter()",
        ".into_par_iter()",
        ".par_iter_mut()",
        ".par_chunks_mut(",
        "rayon::scope(",
        "rayon::join(",
    ]
    .iter()
    .any(|call| line.contains(call))
}

/// Whether the line compares something against `PAR_MIN_WORK`.
fn compares_par_min_work(line: &str) -> bool {
    let line = line.trim();
    !is_comment(line)
        && line.match_indices("PAR_MIN_WORK").any(|(at, _)| {
            let before = line[..at].trim_end();
            [" <", " >", "<=", ">="]
                .iter()
                .any(|op| before.ends_with(op))
        })
}

fn has_unsafe_marker(line: &str) -> bool {
    // Cheap tokenless scan: `unsafe` followed by `{`, `impl`, or `fn`.
    // Good enough for this codebase (no raw strings containing these).
    if let Some(pos) = line.find("unsafe") {
        let rest = line[pos + "unsafe".len()..].trim_start();
        return rest.starts_with('{') || rest.starts_with("impl") || rest.starts_with("fn");
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, text: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_file(rel, text, &mut out);
        out
    }

    #[test]
    fn flags_std_sync_mutex() {
        let f = lint_str("crates/core/src/x.rs", "use std::sync::Mutex;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-std-sync");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn allows_std_sync_arc_and_atomics() {
        let f = lint_str(
            "crates/core/src/x.rs",
            "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn shims_may_wrap_std_sync() {
        let f = lint_str(
            "crates/shims/parking_lot/src/lib.rs",
            "use std::sync::Mutex;\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn flags_sleep_outside_tests_only() {
        let body = "fn f() { std::thread::sleep(d); }\n";
        assert_eq!(
            lint_str("crates/core/src/x.rs", body)[0].rule,
            "sleep-polling"
        );
        assert!(lint_str("crates/core/tests/x.rs", body).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{ {body} }}\n");
        assert!(lint_str("crates/core/src/x.rs", &gated).is_empty());
    }

    #[test]
    fn flags_unsafe_without_safety_comment() {
        let bad = "fn f() { unsafe { danger() } }\n";
        let good = "// SAFETY: serialized by the write lock.\nfn f() { unsafe { danger() } }\n";
        assert_eq!(
            lint_str("crates/service/src/x.rs", bad)[0].rule,
            "safety-comment"
        );
        assert!(lint_str("crates/service/src/x.rs", good).is_empty());
    }

    #[test]
    fn flags_unsafe_impl_and_static_mut() {
        let f = lint_str(
            "crates/service/src/x.rs",
            "unsafe impl Send for X {}\nstatic mut G: u8 = 0;\n",
        );
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"safety-comment"));
        assert!(rules.contains(&"no-static-mut"));
    }

    #[test]
    fn relaxed_needs_allowlist() {
        let body = "x.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(
            lint_str("crates/core/src/other.rs", body)[0].rule,
            "relaxed-allowlist"
        );
        assert!(lint_str("crates/core/src/reuse.rs", body).is_empty());
    }

    #[test]
    fn blocking_net_needs_allowlist() {
        let body = "let s = std::net::TcpStream::connect(addr)?;\n";
        assert_eq!(
            lint_str("crates/core/src/x.rs", body)[0].rule,
            "blocking-net"
        );
        // The wire plane's own files are the audited exemptions.
        assert!(lint_str("crates/service/src/net/server.rs", body).is_empty());
        assert!(lint_str("crates/service/src/net/client.rs", body).is_empty());
        // Tests may open raw sockets (hostile-bytes injection needs them).
        assert!(lint_str("crates/service/tests/x.rs", body).is_empty());
        // Address *types* are not blocking I/O.
        assert!(lint_str("crates/bench/src/load.rs", "use std::net::SocketAddr;\n").is_empty());
    }

    #[test]
    fn par_region_needs_a_work_gate_above_it() {
        let ungated = "fn f(v: &mut [f32]) {\n    v.par_iter_mut().for_each(|x| *x += 1.0);\n}\n";
        let f = lint_str("crates/core/src/x.rs", ungated);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("par-gate", 2));
        // A gate on another rule is not a gate on this one.
        let other_rule =
            "if touched.len() <= 1 {\n    seq()\n} else {\n    t.par_iter().map(f).collect()\n}\n";
        assert_eq!(
            lint_str("crates/core/src/x.rs", other_rule)[0].rule,
            "par-gate"
        );
        // Mentioning the constant in a comment is not comparing against it.
        let comment =
            "// stays below PAR_MIN_WORK\nlet h = (0..n).into_par_iter().map(f).collect();\n";
        assert_eq!(lint_str("crates/core/src/x.rs", comment).len(), 1);
        // Too far above to be this region's gate.
        let far = format!(
            "if work >= PAR_MIN_WORK {{ a() }}\n{}out.par_chunks_mut(k).for_each(f);\n",
            "let _ = 0;\n".repeat(PAR_GATE_WINDOW)
        );
        assert_eq!(lint_str("crates/core/src/x.rs", &far).len(), 1);
        // A scope or a join is a region too.
        for call in ["rayon::scope(|s| s.spawn(f));", "rayon::join(a, b);"] {
            let ungated = format!("fn f() {{\n    {call}\n}}\n");
            let f = lint_str("crates/nn/src/x.rs", &ungated);
            assert_eq!(
                (f.len(), f[0].rule, f[0].line),
                (1, "par-gate", 2),
                "{call}"
            );
            let gated = format!("if 3 * work >= PAR_MIN_WORK {{\n    {call}\n}}\n");
            assert!(lint_str("crates/nn/src/x.rs", &gated).is_empty(), "{call}");
        }
    }

    #[test]
    fn gated_allowlisted_shim_and_test_regions_pass() {
        let either_side = [
            "if n * k * d < PAR_MIN_WORK {\n    seq()\n} else {\n    out.par_iter_mut().for_each(f);\n}\n",
            "let split =\n    ids.len() * ROW_WORK >= PAR_MIN_WORK;\nlet r = if split {\n    ids.par_iter().map(f).collect()\n};\n",
        ];
        for body in either_side {
            assert!(lint_str("crates/core/src/x.rs", body).is_empty(), "{body}");
        }
        let ungated = "let fits = patches.par_iter().map(fit).collect();\n";
        assert!(lint_str("crates/datasets/src/voigt.rs", ungated).is_empty());
        assert!(lint_str("crates/shims/rayon/src/lib.rs", ungated).is_empty());
        assert!(lint_str("crates/bench/benches/kernels.rs", ungated).is_empty());
        let gated_test = format!("#[cfg(test)]\nmod tests {{ fn t() {{ {ungated} }} }}\n");
        assert!(lint_str("crates/core/src/x.rs", &gated_test).is_empty());
    }

    #[test]
    fn a_service_view_is_published_from_one_function() {
        let lint = |files: &[(&str, &str)]| {
            one_publish(
                files
                    .iter()
                    .flat_map(|(p, t)| publish_sites(p, t))
                    .collect(),
            )
        };
        let home = "impl Shared {\n    fn publish(&self, t: &T) {\n        *self.view.write() = of(t);\n    }\n}\n";
        let server = "crates/service/src/server.rs";
        assert!(lint(&[(server, home)]).is_empty());
        // Twice in the one function is still one home.
        let twice = home.replace("}\n}\n", "    *self.view.write() = of(t);\n}\n}\n");
        assert!(lint(&[(server, &twice)]).is_empty());
        // A second function — same file or another — is flagged with the first.
        let second = "fn complete<T>(shared: &Shared) {\n    *shared.view.write() = v;\n}\n";
        let f = lint(&[(server, &format!("{home}{second}"))]);
        let at: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(at, [("one-publish", 3), ("one-publish", 7)], "{f:?}");
        assert!(f[1].message.contains("`complete`"), "{}", f[1].message);
        let f = lint(&[(server, home), ("crates/service/src/training.rs", second)]);
        assert_eq!(f.len(), 2, "{f:?}");
        // Tests, comments and other crates are not publication sites…
        let quiet = [
            ("crates/service/tests/x.rs", second),
            ("crates/core/src/x.rs", second),
            (server, "// *shared.view.write() = v;\n"),
            // A reader takes the read guard, which publishes nothing.
            (
                server,
                "fn load(&self) -> Arc<View> {\n    self.view.read().clone()\n}\n",
            ),
            (
                server,
                "#[cfg(test)]\nmod tests {\n    fn t() { *s.view.write() = v; }\n}\n",
            ),
        ];
        for (path, text) in quiet {
            assert!(
                lint(&[(server, home), (path, text)]).is_empty(),
                "{path}: {text}"
            );
        }
        // …and a tree with none has lost its publication to a rename.
        assert_eq!(lint(&[(server, "fn f() {}\n")])[0].rule, "one-publish");
        // The workspace itself has exactly one.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let f = lint_workspace(&root);
        assert!(f.iter().all(|f| f.rule != "one-publish"), "{f:?}");
    }

    #[test]
    fn a_linked_crates_pub_fn_is_named_by_another_file() {
        let lint = |files: &[(&str, &str)], allow: &[(&str, &str)]| {
            let files: Vec<_> = files
                .iter()
                .map(|(p, t)| (p.to_string(), t.to_string()))
                .collect();
            orphan_pub(&files, allow)
        };
        let store = "crates/datastore/src/store.rs";
        let decl = "impl Collection {\n    /// Calls `lookup_many`.\n    pub fn lookup_many<T>(&self) {}\n    pub const fn cap() -> usize { 4 }\n}\n";
        let f = lint(&[(store, decl)], &[]);
        let at: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(at, [("orphan-pub", 3), ("orphan-pub", 4)], "{f:?}");
        assert!(f[0].message.contains("`lookup_many`"), "{}", f[0].message);
        // Any other file naming it is a caller — a test, the e2e adapter —
        // as a whole word only.
        for caller in ["tests/persistence.rs", "benches/e2e/src/sut.rs"] {
            let uses = (caller, "fn t() { c.lookup_many(); Collection::cap(); }\n");
            assert!(lint(&[(store, decl), uses], &[]).is_empty(), "{caller}");
        }
        let near = ("tests/x.rs", "fn t() { c.lookup_many_more(); recap(); }\n");
        assert_eq!(lint(&[(store, decl), near], &[]).len(), 2);
        // An allowlisted site passes; so do private fns, trait methods, the
        // file's own test module, and crates the service does not link.
        let allow = [
            ("crates/datastore/src/store.rs::lookup_many", "a macro"),
            ("crates/datastore/src/store.rs::cap", "a macro"),
        ];
        assert!(lint(&[(store, decl)], &allow).is_empty());
        let quiet = [
            (store, "fn helper() {}\npub(crate) fn inner() {}\n"),
            (store, "impl Codec for Raw {\n    fn encode(&self) {}\n}\n"),
            (
                store,
                "#[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n",
            ),
            ("crates/datasets/src/tomo.rs", "pub fn phantom() {}\n"),
            ("crates/bench/src/table.rs", "pub fn render() {}\n"),
        ];
        for (path, text) in quiet {
            assert!(lint(&[(path, text)], &[]).is_empty(), "{path}: {text}");
        }
        // The workspace itself has none, and its allowlist stays short.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let f = lint_workspace(&root);
        assert!(f.iter().all(|f| f.rule != "orphan-pub"), "{f:?}");
        assert!(ORPHAN_ALLOWLIST.len() <= 5);
    }

    #[test]
    fn an_allowlist_entry_needs_a_file_with_a_site_it_exempts() {
        let files: Vec<(String, String)> = [
            (
                "crates/core/src/live.rs",
                "x.fetch_add(1, Ordering::Relaxed);\n",
            ),
            (
                "crates/core/src/quiet.rs",
                "// Ordering::Relaxed, once\nfn f() {}\n",
            ),
        ]
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
        let entries = [
            ("crates/core/src/live.rs", "a counter"),
            ("crates/core/src/quiet.rs", "a counter, since removed"),
            ("crates/core/src/gone.rs", "a deleted file"),
        ];
        let f = stale_allowlist(
            &files,
            &[("relaxed-allowlist", "RELAXED_ALLOWLIST", &entries)],
        );
        let at: Vec<_> = f.iter().map(|f| (f.rule, f.path.as_str())).collect();
        assert_eq!(
            at,
            [
                ("stale-allowlist", "crates/core/src/quiet.rs"),
                ("stale-allowlist", "crates/core/src/gone.rs"),
            ],
            "{f:?}"
        );
        assert!(f[1].message.contains("no such file"), "{}", f[1].message);
        // Only a site of the entry's own rule keeps it alive.
        let net = [("crates/core/src/live.rs", "a socket")];
        assert_eq!(
            stale_allowlist(&files, &[("blocking-net", "NET_ALLOWLIST", &net)]).len(),
            1
        );
        // An entry that says nothing about its site is a finding too, even
        // on a live file.
        let mute = [("crates/core/src/live.rs", " ")];
        let f = stale_allowlist(&files, &[("relaxed-allowlist", "RELAXED_ALLOWLIST", &mute)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("no justification"),
            "{}",
            f[0].message
        );
        // Every entry of the workspace's own lists is live and justified.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let f = lint_workspace(&root);
        assert!(f.iter().all(|f| f.rule != "stale-allowlist"), "{f:?}");
    }

    #[test]
    fn json_escapes_quotes() {
        let f = Finding {
            rule: "r",
            path: "p".into(),
            line: 1,
            excerpt: "say \"hi\"".into(),
            message: "m".into(),
        };
        assert!(f.to_json().contains("say \\\"hi\\\""));
    }
}
