//! Records the compiler and build profile the benchmark is built with, so
//! every result it prints can be stamped with them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_default();
    let opt = std::env::var("OPT_LEVEL").unwrap_or_default();
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    println!("cargo:rustc-env=E2EBENCH_PROFILE={profile} opt-level={opt}");
    println!("cargo:rerun-if-changed=build.rs");
}
