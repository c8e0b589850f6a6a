//! A checkpoint is streamed into its file: `SnapshotStore::save` builds
//! no buffer proportional to the checkpoint, only the writer's one
//! chunk.
//!
//! This binary installs a recording allocator (`support.rs`); the test
//! saves the epoch-64 checkpoint of an uninterrupted 20k-account run
//! (the stream `alloc_budget.rs` serves; the file is ≈1.4 MB). The largest single
//! allocation during the save must stay under [`SAVE_ALLOC_BOUND`], where
//! encoding the whole file first would allocate the whole file. The
//! saved bytes must be exactly what `encode_checkpoint` returns and must
//! decode back to the checkpoint, so chunk boundaries fall across
//! records, words and sections of a real file here, and the trailer
//! folded chunk by chunk is checked against the decoder's fold over
//! whole sections.

use osn_sim::scale::{generate, ScaleConfig};
use sybil_core::realtime::RealtimeConfig;
use sybil_core::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeSession};
use sybil_store::format::{decode_checkpoint, encode_checkpoint};
use sybil_store::{SnapshotStore, StorePlane};

use crate::support::{largest_alloc_during, tmpdir};

/// The largest single allocation a save may make.
const SAVE_ALLOC_BOUND: usize = 256 * 1024;

#[test]
fn saving_a_checkpoint_allocates_no_buffer_the_size_of_the_file() {
    let out = generate(&ScaleConfig::at(20_000, 9));
    // `alloc_budget.rs`'s detector: the benchmark's scan detector with
    // its frequency cut lowered so a stream this small flags accounts.
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.4,
            min_freq: 2.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::for_detect(detect)
    };
    let dir = tmpdir(module_path!(), "save");
    let mut plane = StorePlane::open(dir.join("run")).expect("store opens");
    ServeSession::new(cfg)
        .store(&mut plane)
        .run(&out)
        .expect("the run completes");
    let store = plane.store();
    assert!(store.checkpoints().unwrap().contains(&64));
    let cp = store.load(64).expect("the epoch-64 checkpoint loads");
    let encoded = encode_checkpoint(&cp);
    assert!(
        encoded.len() > 4 * SAVE_ALLOC_BOUND,
        "a {}-byte checkpoint is too small to tell a streamed save from a buffered one",
        encoded.len()
    );

    let target = SnapshotStore::open(dir.join("copy")).expect("store opens");
    let (path, largest) = largest_alloc_during(|| target.save(&cp).expect("save succeeds"));
    assert!(
        largest < SAVE_ALLOC_BOUND,
        "saving a {}-byte checkpoint allocated {largest} bytes at once (bound {SAVE_ALLOC_BOUND})",
        encoded.len()
    );

    let saved = std::fs::read(&path).unwrap();
    assert!(saved == encoded, "the saved file is the encoder's bytes");
    let decoded = decode_checkpoint(&saved).expect("the saved file decodes");
    assert_eq!(decoded, cp);
    std::fs::remove_dir_all(&dir).unwrap();
}
