//! Workspace source gate. Run as `cargo run -p fairdms-check --bin repolint`.
//!
//! Exit code 0 = clean tree; 1 = findings (printed to stdout); CI gates
//! on this next to `clippy -- -D warnings`.
//!
//! Flags:
//! * `--json` — one JSON object per finding (machine-readable).
//! * `--root <dir>` — lint a tree other than the current workspace.
//! * `--allowlist` — print the audited `Ordering::Relaxed`, blocking-
//!   socket, ungated parallel-region and orphan-`pub fn` sites with their
//!   justifications, then exit.

use std::path::PathBuf;
use std::process::ExitCode;

use fairdms_check::lint;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut show_allowlist = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--allowlist" => show_allowlist = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("repolint [--json] [--allowlist] [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("repolint: unknown flag {other:?} (see --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    if show_allowlist {
        println!("# Ordering::Relaxed");
        for (path, why) in lint::RELAXED_ALLOWLIST {
            println!("{path}\n    {why}");
        }
        println!("# blocking sockets");
        for (path, why) in lint::NET_ALLOWLIST {
            println!("{path}\n    {why}");
        }
        println!("# ungated parallel regions");
        for (path, why) in lint::PAR_ALLOWLIST {
            println!("{path}\n    {why}");
        }
        println!("# pub fns no other file names");
        for (site, caller) in lint::ORPHAN_ALLOWLIST {
            println!("{site}\n    {caller}");
        }
        return ExitCode::SUCCESS;
    }

    // Default root: the workspace this binary was built from (repolint is
    // an xtask; CARGO_MANIFEST_DIR = crates/check, two levels down).
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let findings = lint::lint_workspace(&root);
    if json {
        println!("[");
        for (i, f) in findings.iter().enumerate() {
            let comma = if i + 1 < findings.len() { "," } else { "" };
            println!("  {}{comma}", f.to_json());
        }
        println!("]");
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            println!("repolint: clean ({} rules enforced)", 10);
        } else {
            println!("repolint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
