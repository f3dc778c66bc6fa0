//! Stamps the build into the binary: every record the benchmark prints says
//! which compiler, profile and target CPU produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    // Cargo joins the flags it passes rustc with 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("generic")
        .to_string();
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=E2E_RUSTC={version}");
    println!("cargo:rustc-env=E2E_TARGET_CPU={target_cpu}");
    println!("cargo:rustc-env=E2E_PROFILE={profile}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
