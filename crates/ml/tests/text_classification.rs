//! Integration: the sketch-classifier pipeline on Zipf text corpora
//! (wmh-data's topic-mixture generator), across sketch algorithms.

use wmh_core::cws::{Icws, ZeroBitCws};
use wmh_core::extensions::OnePermutationHasher;
use wmh_core::{SketchError, SketchScratch, Sketcher};
use wmh_data::text::TextConfig;
use wmh_ml::SketchClassifier;
use wmh_sets::WeightedSet;

/// Two-topic corpus with binary labels (topic 1 vs topic 2; topic 0 is the
/// shared background block).
fn corpus(docs_per_topic: usize, seed: u64) -> Vec<(WeightedSet, bool)> {
    let cfg = TextConfig { topics: 3, ..TextConfig::small() };
    cfg.generate(docs_per_topic, seed)
        .expect("valid config")
        .into_iter()
        .filter(|(_, topic)| *topic > 0)
        .map(|(doc, topic)| (doc, topic == 1))
        .collect()
}

#[test]
fn zero_bit_cws_classifies_zipf_topics() {
    let train = corpus(120, 1);
    let test = corpus(50, 2);
    let mut clf = SketchClassifier::new(ZeroBitCws::new(3, 128), 3, 8192).expect("valid dim");
    clf.fit(&train, 10).expect("trainable");
    let acc = clf.accuracy(&test).expect("evaluable");
    assert!(acc > 0.9, "0-bit CWS accuracy {acc}");
}

#[test]
fn icws_codes_also_work_as_features() {
    // Full (k, t) codes are sparser features than k-only codes but still
    // separate clear topics.
    let train = corpus(120, 3);
    let test = corpus(50, 4);
    struct IcwsAdapter(Icws);
    impl Sketcher for IcwsAdapter {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn num_hashes(&self) -> usize {
            self.0.num_hashes()
        }
        fn seed(&self) -> u64 {
            self.0.seed()
        }
        fn sketch_codes_into(
            &self,
            set: &WeightedSet,
            out: &mut [u64],
            scratch: &mut SketchScratch,
        ) -> Result<(), SketchError> {
            self.0.sketch_codes_into(set, out, scratch)
        }
    }
    let mut clf =
        SketchClassifier::new(IcwsAdapter(Icws::new(5, 128)), 5, 8192).expect("valid dim");
    clf.fit(&train, 10).expect("trainable");
    let acc = clf.accuracy(&test).expect("evaluable");
    assert!(acc > 0.85, "ICWS-feature accuracy {acc}");
}

#[test]
fn oph_features_degrade_gracefully_on_weight_heavy_topics() {
    // OPH sketches the supports only; with a shared background vocabulary
    // the supports still differ enough on Zipf text, so accuracy is decent
    // but the weighted pipeline should not be worse.
    let train = corpus(120, 5);
    let test = corpus(50, 6);

    let mut oph_clf = SketchClassifier::new(
        OphAdapter(OnePermutationHasher::new(7, 128).expect("valid bins")),
        7,
        8192,
    )
    .expect("valid dim");
    oph_clf.fit(&train, 10).expect("trainable");
    let oph_acc = oph_clf.accuracy(&test).expect("evaluable");

    let mut zb_clf = SketchClassifier::new(ZeroBitCws::new(7, 128), 7, 8192).expect("valid dim");
    zb_clf.fit(&train, 10).expect("trainable");
    let zb_acc = zb_clf.accuracy(&test).expect("evaluable");

    assert!(oph_acc > 0.7, "OPH accuracy {oph_acc}");
    assert!(zb_acc + 0.05 >= oph_acc, "weighted features should not lose: {zb_acc} vs {oph_acc}");

    struct OphAdapter(OnePermutationHasher);
    impl Sketcher for OphAdapter {
        fn name(&self) -> &'static str {
            "OPH"
        }
        fn num_hashes(&self) -> usize {
            128
        }
        fn seed(&self) -> u64 {
            7
        }
        fn sketch_codes_into(
            &self,
            set: &WeightedSet,
            out: &mut [u64],
            _scratch: &mut SketchScratch,
        ) -> Result<(), SketchError> {
            out.copy_from_slice(&self.0.sketch(set)?.codes);
            Ok(())
        }
    }
}
