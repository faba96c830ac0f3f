//! Pins the f64 model-blob layout against blobs written by an earlier
//! build.
//!
//! The artifact store stamps every payload with
//! [`yali_ml::serialize::CODEC_VERSION`] and reads a mismatch as a miss,
//! so a bumped version or a shifted layout would turn an existing
//! `YALI_STORE` cold without a word. The fixtures under `tests/fixtures/`
//! are `VectorClassifier::to_bytes()` output from the build before int8
//! inference was deleted: lr, svm, mlp, rf and knn, trained on a fixed
//! 24-sample, 4-feature, 3-class corpus with
//! `TrainConfig { seed: 7, epochs: 3, n_trees: 4, k: 3 }`. Each must
//! still decode, re-encode to the same bytes, and carry today's version.

use yali_ml::serialize::CODEC_VERSION;
use yali_ml::VectorClassifier;

const FIXTURES: [(&str, &[u8]); 5] = [
    ("lr", include_bytes!("fixtures/lr.bin")),
    ("svm", include_bytes!("fixtures/svm.bin")),
    ("mlp", include_bytes!("fixtures/mlp.bin")),
    ("rf", include_bytes!("fixtures/rf.bin")),
    ("knn", include_bytes!("fixtures/knn.bin")),
];

#[test]
fn earlier_blobs_decode_and_re_encode_byte_identically() {
    for (name, blob) in FIXTURES {
        assert_eq!(blob[0], CODEC_VERSION, "{name}: version byte");
        let model = VectorClassifier::from_bytes(blob);
        assert_eq!(model.to_bytes(), blob, "{name}: re-encoded bytes differ");
    }
}
