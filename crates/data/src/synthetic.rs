//! The `SynESS` synthetic dataset generator (paper §6.1, Table 4).

use wmh_rng::dist::pareto_from_unit;
use wmh_rng::{Prng, Xoshiro256pp};
use wmh_sets::WeightedSet;

/// Configuration of one `SynEeSs` dataset.
///
/// ```
/// use wmh_data::SynConfig;
/// let cfg = SynConfig { docs: 10, features: 1000, density: 0.02,
///                       exponent: 3.0, scale: 0.2 };
/// assert_eq!(cfg.name(), "Syn3E0.2S");
/// let ds = cfg.generate(1).unwrap();
/// assert_eq!(ds.len(), 10);
/// assert_eq!(ds.docs[0].len(), 20); // features · density
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynConfig {
    /// Number of documents ("# of Docs", 1 000 in the paper).
    pub docs: usize,
    /// Universe size ("# of Features", 100 000 in the paper).
    pub features: u64,
    /// Fraction of features with positive weight per document (0.005).
    pub density: f64,
    /// Power-law exponent `e` (Pareto shape α; 3 in all paper datasets).
    pub exponent: f64,
    /// Power-law scale `s` (Pareto scale; 0.2 … 0.3 in the paper).
    pub scale: f64,
}

impl SynConfig {
    /// The paper's naming scheme: `Syn{e}E{s}S`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("Syn{}E{}S", self.exponent, self.scale)
    }

    /// Nonzero features per document (`⌈features · density⌉`).
    #[must_use]
    pub fn nonzeros_per_doc(&self) -> usize {
        (self.features as f64 * self.density).round() as usize
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.docs == 0 {
            return Err("docs must be positive".into());
        }
        if self.features == 0 {
            return Err("features must be positive".into());
        }
        if !(self.density > 0.0 && self.density <= 1.0) {
            return Err(format!("density {} outside (0, 1]", self.density));
        }
        if !(self.exponent.is_finite() && self.exponent > 0.0) {
            return Err(format!("exponent {} must be positive", self.exponent));
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!("scale {} must be positive", self.scale));
        }
        Ok(())
    }

    /// A laptop-scale copy of this configuration (fewer docs/features, same
    /// density and weight law — the MSE behaviour per pair is unchanged).
    #[must_use]
    pub fn scaled_down(&self, docs: usize, features: u64) -> Self {
        Self { docs, features, ..*self }
    }

    /// A laptop-scale copy that *preserves the expected pairwise overlap*:
    /// the expected number of common features between two documents is
    /// `density² · features` (2.5 for the paper's 0.005 × 100 000), so the
    /// density is rescaled by `√(features_old / features_new)`. This keeps
    /// pair similarities — and therefore the MSE regime of Figure 8 — at
    /// the paper's level while shrinking the universe.
    #[must_use]
    pub fn scaled_down_preserving_overlap(&self, docs: usize, features: u64) -> Self {
        let density = (self.density * (self.features as f64 / features as f64).sqrt()).min(1.0);
        Self { docs, features, density, ..*self }
    }

    /// Generate the dataset deterministically from `seed`.
    ///
    /// # Errors
    /// Propagates [`Self::validate`] failures.
    pub fn generate(&self, seed: u64) -> Result<Dataset, String> {
        self.validate()?;
        let nnz = self.nonzeros_per_doc().max(1);
        let mut rng = Xoshiro256pp::new(seed ^ 0x5D47_A5E7);
        let mut docs = Vec::with_capacity(self.docs);
        for _ in 0..self.docs {
            // "we uniformly produce the dimensions" — distinct features per
            // doc, uniform over the universe.
            let indices = rng.sample_distinct(self.features, nnz);
            let pairs = indices.into_iter().map(|k| {
                let w = pareto_from_unit(rng.next_f64(), self.exponent, self.scale);
                (k, w)
            });
            docs.push(WeightedSet::from_pairs(pairs).expect("generator emits valid weights"));
        }
        Ok(Dataset { name: self.name(), config: *self, docs })
    }
}

/// The six datasets of Table 4: `e = 3`, `s ∈ {0.2, 0.22, …, 0.3}`.
pub const PAPER_DATASETS: [SynConfig; 6] = {
    const fn cfg(scale: f64) -> SynConfig {
        SynConfig { docs: 1000, features: 100_000, density: 0.005, exponent: 3.0, scale }
    }
    [cfg(0.2), cfg(0.22), cfg(0.24), cfg(0.26), cfg(0.28), cfg(0.3)]
};

/// A generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Paper-style name, e.g. `Syn3E0.2S`.
    pub name: String,
    /// The generating configuration.
    pub config: SynConfig,
    /// The documents.
    pub docs: Vec<WeightedSet>,
}

wmh_json::json_object!(SynConfig { docs, features, density, exponent, scale });
wmh_json::json_object!(Dataset { name, config, docs });

impl Dataset {
    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Persist to a JSON file (floats render shortest-roundtrip, so the
    /// file is bit-exact on reload).
    ///
    /// # Errors
    /// I/O failures, stringified.
    pub fn save_json(&self, path: &std::path::Path) -> Result<(), String> {
        let text = wmh_json::to_string(self);
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Load from a JSON file produced by [`Self::save_json`].
    ///
    /// # Errors
    /// I/O or parse failures, stringified.
    pub fn load_json(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        wmh_json::from_str(&text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynConfig {
        SynConfig { docs: 50, features: 2_000, density: 0.01, exponent: 3.0, scale: 0.2 }
    }

    #[test]
    fn paper_configs_are_valid_and_named() {
        for cfg in PAPER_DATASETS {
            cfg.validate().expect("paper config valid");
            assert_eq!(cfg.docs, 1000);
            assert_eq!(cfg.features, 100_000);
            assert_eq!(cfg.nonzeros_per_doc(), 500);
        }
        assert_eq!(PAPER_DATASETS[0].name(), "Syn3E0.2S");
        assert_eq!(PAPER_DATASETS[5].name(), "Syn3E0.3S");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = small();
        c.docs = 0;
        assert!(c.validate().is_err());
        let mut c = small();
        c.density = 0.0;
        assert!(c.validate().is_err());
        let mut c = small();
        c.density = 1.5;
        assert!(c.validate().is_err());
        let mut c = small();
        c.exponent = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = small();
        c.scale = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let cfg = small();
        let a = cfg.generate(7).unwrap();
        let b = cfg.generate(7).unwrap();
        let c = cfg.generate(8).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_ne!(a.docs, c.docs);
    }

    #[test]
    fn documents_have_requested_shape() {
        let cfg = small();
        let ds = cfg.generate(1).unwrap();
        assert_eq!(ds.len(), 50);
        for doc in &ds.docs {
            assert_eq!(doc.len(), cfg.nonzeros_per_doc());
            assert!(doc.indices().iter().all(|&i| i < cfg.features));
            // Pareto support: every weight at least the scale parameter.
            assert!(doc.weights().iter().all(|&w| w >= cfg.scale));
        }
    }

    #[test]
    fn weights_follow_the_configured_power_law() {
        let cfg = SynConfig { docs: 200, ..small() };
        let ds = cfg.generate(3).unwrap();
        let all: Vec<f64> = ds.docs.iter().flat_map(|d| d.weights().to_vec()).collect();
        // Pareto(3, 0.2): mean 0.3.
        let (mean, _) = wmh_rng::stats::mean_and_var(&all);
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
        let d = wmh_rng::stats::ks_statistic(&all, |x| {
            if x < 0.2 {
                0.0
            } else {
                1.0 - (0.2f64 / x).powi(3)
            }
        });
        assert!(d < 1.63 / (all.len() as f64).sqrt() * 2.0, "KS D = {d}");
    }

    #[test]
    fn scaled_down_preserves_the_law() {
        let full = PAPER_DATASETS[0];
        let small = full.scaled_down(20, 1_000);
        assert_eq!(small.density, full.density);
        assert_eq!(small.exponent, full.exponent);
        assert_eq!(small.scale, full.scale);
        assert_eq!(small.docs, 20);
        small.validate().unwrap();
    }

    #[test]
    fn file_roundtrip_is_bit_exact() {
        let ds = small().generate(11).unwrap();
        let dir = wmh_check::scratch("dataset");
        let path = dir.join("roundtrip.json");
        ds.save_json(&path).unwrap();
        let back = Dataset::load_json(&path).unwrap();
        assert_eq!(ds.docs, back.docs);
        assert_eq!(ds.config, back.config);
        assert!(Dataset::load_json(std::path::Path::new("/missing/nope.json")).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serde_roundtrip() {
        let ds = small().generate(9).unwrap();
        let json = wmh_json::to_string(&ds);
        let back: Dataset = wmh_json::from_str(&json).unwrap();
        assert_eq!(ds.docs, back.docs);
        assert_eq!(ds.name, back.name);
    }
}
