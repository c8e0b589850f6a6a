//! JSON and text export of experiment results.
//!
//! The `repro` binary writes every figure/table's result into `results/`
//! (or `--out DIR`): the typed result as pretty JSON, its rendering as
//! text, so external tooling can re-plot it.

use serde::Serialize;
use std::fs;
use std::io;
use std::path::Path;

/// Serialize `value` as pretty JSON into `path`, creating parent dirs.
pub fn write_json<T: Serialize, P: AsRef<Path>>(path: P, value: &T) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    fs::write(path, json)
}

/// Write a string to `path`, creating parent dirs.
pub fn write_text<P: AsRef<Path>>(path: P, text: &str) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_text_roundtrip() {
        let dir = std::env::temp_dir().join("sybil_repro_test_export");
        let _ = std::fs::remove_dir_all(&dir);
        let p = dir.join("nested/value.json");
        write_json(&p, &serde_json::json!({"k": 1})).unwrap();
        let back: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(back["k"], 1);
        let t = dir.join("nested/plot.txt");
        write_text(&t, "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&t).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
