//! Derives the code salt stamped into every sweep record log header and
//! folded into every memo key (`src/journal.rs`): FNV-1a over the relative
//! path and bytes of every `*.rs` and `Cargo.toml` under `crates/` and
//! `vendor/`, plus the root `Cargo.toml` and `Cargo.lock`, in sorted path
//! order. Editing any of them changes the salt, so a journal or memo store
//! written by other code is refused instead of replayed.

use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("../..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    let mut rel: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|p| Some((p.strip_prefix(&root).ok()?.to_str()?.to_owned(), p)))
        .collect();
    rel.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (name, path) in &rel {
        let bytes = std::fs::read(path).unwrap_or_default();
        let len = (bytes.len() as u64).to_le_bytes();
        for &b in name.as_bytes().iter().chain(&[0]).chain(&len).chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    println!("cargo:rustc-env=AFF_CODE_SALT={h:016x}");
    for watched in ["crates", "vendor", "Cargo.toml", "Cargo.lock"] {
        println!("cargo:rerun-if-changed={}", root.join(watched).display());
    }
}
