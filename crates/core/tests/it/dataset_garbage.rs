//! Garbage in, typed error out, for the one reader of outside data that
//! is not a store: the CSV dataset importer (`osn_sim::io`). Whatever a
//! truncated copy, a hand edit or a hostile file puts in the three CSVs,
//! `import_dataset` answers `Ok` or an `InvalidData` error and never
//! panics — and whatever it accepts, the pipeline downstream of it
//! (feature extraction over every account, the streaming replay) runs
//! without a panic too.

use osn_graph::NodeId;
use osn_sim::io::{export_dataset, import_dataset};
use osn_sim::{simulate, SimConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use sybil_core::realtime::{replay, RealtimeConfig};
use sybil_features::FeatureExtractor;

const FILES: [&str; 3] = ["accounts.csv", "edges.csv", "requests.csv"];

/// A small simulation's export: the three files' lines, in `FILES` order.
fn base() -> &'static [Vec<String>; 3] {
    static BASE: OnceLock<[Vec<String>; 3]> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut cfg = SimConfig::tiny(17);
        cfg.hours = 300;
        cfg.n_normal = 40;
        cfg.n_sybil = 6;
        let dir = scratch("base");
        export_dataset(&simulate(cfg), &dir).unwrap();
        let read = |name: &str| -> Vec<String> {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            text.lines().map(str::to_string).collect()
        };
        let files = FILES.map(read);
        std::fs::remove_dir_all(&dir).unwrap();
        files
    })
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dataset-garbage-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A detector that checks at every opportunity, so a replay of a small
/// dataset reaches the rule, the adaptive trackers and the audits.
fn eager() -> RealtimeConfig {
    RealtimeConfig {
        warmup_requests: 1,
        check_every: 1,
        min_decided: 1,
        min_friends: 1,
        adaptive: true,
        feedback_delay_h: 1,
        audit_every: 1,
        ..RealtimeConfig::default()
    }
}

/// Write `files` as a dataset in a directory named `tag` (one per test,
/// since tests run in parallel), import it, and drive whatever imports
/// through feature extraction and both replays.
fn check(tag: &str, files: &[Vec<u8>; 3]) -> Result<(), TestCaseError> {
    let dir = scratch(tag);
    for (name, bytes) in FILES.iter().zip(files) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let got = import_dataset(&dir, SimConfig::tiny(0));
    std::fs::remove_dir_all(&dir).unwrap();
    match got {
        Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e),
        Ok(out) => {
            let nodes: Vec<NodeId> = out.graph.nodes().collect();
            prop_assert_eq!(nodes.len(), out.accounts.len());
            let fx = FeatureExtractor::new(&out);
            prop_assert_eq!(fx.features_for_all(&nodes).len(), nodes.len());
            replay(&out, &RealtimeConfig::default());
            replay(&out, &eager());
        }
    }
    Ok(())
}

fn joined(lines: &[String]) -> Vec<u8> {
    let mut text = lines.join("\n");
    text.push('\n');
    text.into_bytes()
}

/// One line-level edit of a file.
#[derive(Clone, Debug)]
enum LineEdit {
    Drop(usize),
    Repeat(usize),
    Swap(usize, usize),
    /// Replace one comma-separated field with a number.
    Field(usize, usize, u64),
}

fn line_edit() -> impl Strategy<Value = LineEdit> {
    let numbers = [0, 1, 2, 63, u64::from(u32::MAX), u64::MAX];
    (
        0u8..4,
        any::<usize>(),
        any::<usize>(),
        0usize..8,
        0usize..8,
        any::<u64>(),
    )
        .prop_map(move |(kind, a, b, field, pick, raw)| match kind {
            0 => LineEdit::Drop(a),
            1 => LineEdit::Repeat(a),
            2 => LineEdit::Swap(a, b),
            // Small and boundary values mostly, an arbitrary one otherwise.
            _ => LineEdit::Field(a, field, numbers.get(pick).copied().unwrap_or(raw)),
        })
}

fn apply(lines: &mut Vec<String>, edit: &LineEdit) {
    if lines.is_empty() {
        return;
    }
    let at = |i: usize| i % lines.len();
    match *edit {
        LineEdit::Drop(i) => {
            lines.remove(at(i));
        }
        LineEdit::Repeat(i) => {
            let line = lines[at(i)].clone();
            lines.insert(at(i), line);
        }
        LineEdit::Swap(a, b) => {
            let (a, b) = (at(a), at(b));
            lines.swap(a, b);
        }
        LineEdit::Field(i, f, v) => {
            let i = at(i);
            let mut cols: Vec<String> = lines[i].split(',').map(str::to_string).collect();
            let f = f % cols.len();
            cols[f] = v.to_string();
            lines[i] = cols.join(",");
        }
    }
}

/// The unmutated export imports and runs: the properties below start
/// from a dataset the pipeline accepts.
#[test]
fn the_base_export_imports() {
    let files = base().clone().map(|lines| joined(&lines));
    let dir = scratch("clean");
    for (name, bytes) in FILES.iter().zip(&files) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let out = import_dataset(&dir, SimConfig::tiny(0)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.accounts.len(), 46);
    assert!(out.graph.num_edges() > 0 && !out.log.is_empty());
    check("clean", &files).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Byte flips, truncation and random tails on any of the three files.
    #[test]
    fn mutated_bytes_import_ok_or_typed(
        file in 0usize..3,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
        truncate in any::<bool>(),
        tail in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut files = base().clone().map(|lines| joined(&lines));
        let bytes = &mut files[file];
        for &(at, b) in &flips {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        if truncate {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        bytes.extend_from_slice(&tail);
        check("bytes", &files)?;
    }

    /// Dropped, repeated and swapped lines, and fields replaced by small,
    /// boundary and arbitrary numbers, across all three files.
    #[test]
    fn mutated_lines_import_ok_or_typed(
        edits in prop::collection::vec((0usize..3, line_edit()), 1..5),
    ) {
        let mut lines = base().clone();
        for (file, edit) in &edits {
            apply(&mut lines[*file], edit);
        }
        check("lines", &lines.map(|l| joined(&l)))?;
    }
}
