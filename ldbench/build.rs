//! Records the compiler and code-generation settings of this build for the
//! host fingerprint printed with every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    let features: Vec<String> = std::env::var("CARGO_CFG_TARGET_FEATURE")
        .unwrap_or_default()
        .split(',')
        .filter(|f| ["avx2", "avx512f", "fma"].contains(f))
        .map(str::to_string)
        .collect();
    println!("cargo:rustc-env=LDBENCH_RUSTC={version}");
    println!("cargo:rustc-env=LDBENCH_RUSTFLAGS={rustflags}");
    println!(
        "cargo:rustc-env=LDBENCH_TARGET_FEATURES={}",
        features.join(",")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
