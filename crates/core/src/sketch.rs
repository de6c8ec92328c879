//! Sketches, the collision estimator, and the common [`Sketcher`] trait.

use wmh_hash::mix::{combine, fmix64};
use wmh_sets::WeightedSet;

/// A MinHash fingerprint: `D` collision codes plus provenance.
///
/// Codes are opaque 64-bit values; equality of codes is the *collision*
/// event whose probability each algorithm ties to the (generalized) Jaccard
/// similarity. Structured codes such as ICWS's `(k, y_k)` are packed through
/// [`pack2`]/[`pack3`], which are injective in practice (deterministic
/// avalanche mixing; accidental 64-bit collisions are negligible at paper
/// scales).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// Name of the producing algorithm (catalog name).
    pub algorithm: String,
    /// Master seed the producing sketcher was configured with.
    pub seed: u64,
    /// The `D` collision codes, indexed by hash function `d`.
    pub codes: Vec<u64>,
}

wmh_json::json_object!(Sketch { algorithm, seed, codes });

impl Sketch {
    /// Number of hash functions `D`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sketch has no codes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The collision estimator of paper §6.2:
    /// `Sim(S,T) = Σ_d 1(x_{S,d} = x_{T,d}) / D`.
    ///
    /// # Errors
    /// Returns [`SketchError::Incompatible`] when the sketches come from
    /// different algorithms, seeds or lengths — their codes would not share
    /// the random variables the estimator's unbiasedness relies on.
    pub fn try_estimate_similarity(&self, other: &Self) -> Result<f64, SketchError> {
        if self.algorithm != other.algorithm
            || self.seed != other.seed
            || self.codes.len() != other.codes.len()
            || self.codes.is_empty()
        {
            return Err(SketchError::Incompatible {
                left: (self.algorithm.clone(), self.seed, self.codes.len()),
                right: (other.algorithm.clone(), other.seed, other.codes.len()),
            });
        }
        let hits = self.codes.iter().zip(&other.codes).filter(|(a, b)| a == b).count();
        Ok(hits as f64 / self.codes.len() as f64)
    }

    /// Panicking convenience wrapper around
    /// [`Self::try_estimate_similarity`].
    ///
    /// # Panics
    /// Panics when the sketches are incompatible (different algorithm, seed
    /// or length).
    #[must_use]
    pub fn estimate_similarity(&self, other: &Self) -> f64 {
        self.try_estimate_similarity(other)
            .expect("sketches must come from the same configured sketcher")
    }

    /// Serialize the codes into a compact little-endian byte buffer,
    /// e.g. for storage alongside an index.
    #[must_use]
    pub fn code_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.codes.len() * 8);
        for &c in &self.codes {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        buf
    }
}

/// Errors produced by sketchers and the estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// The input set has no elements: no MinHash is defined.
    EmptySet,
    /// A configuration parameter was invalid.
    BadParameter {
        /// Which parameter.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A bounded sampling or enumeration loop spent its whole budget
    /// without producing a sample (rejection draws, subelement enumeration,
    /// record chains). Deterministic for a given input and configuration;
    /// the evaluation harness renders it as the paper's dash cell.
    BudgetExhausted {
        /// Which loop ran out.
        what: &'static str,
        /// The budget that was spent.
        spent: u64,
    },
    /// The input set violated a [`wmh_sets`] invariant mid-algorithm — only
    /// reachable through defense-in-depth checks, since every public
    /// constructor validates.
    Set(wmh_sets::SetError),
    /// A weight exceeded a bound required by the algorithm (e.g.
    /// [Shrivastava, 2016] pre-scanned upper bounds).
    WeightExceedsBound {
        /// Element whose weight broke the bound.
        element: u64,
        /// The weight.
        weight: f64,
        /// The bound that was exceeded.
        bound: f64,
    },
    /// Estimator inputs from different algorithms / seeds / lengths.
    Incompatible {
        /// `(algorithm, seed, D)` of the left sketch.
        left: (String, u64, usize),
        /// `(algorithm, seed, D)` of the right sketch.
        right: (String, u64, usize),
    },
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptySet => write!(f, "cannot sketch an empty set"),
            Self::BadParameter { what, value } => write!(f, "invalid {what}: {value}"),
            Self::BudgetExhausted { what, spent } => {
                write!(f, "{what} exhausted its budget of {spent}")
            }
            Self::Set(e) => write!(f, "invalid input set: {e}"),
            Self::WeightExceedsBound { element, weight, bound } => {
                write!(f, "element {element} weight {weight} exceeds pre-scanned bound {bound}")
            }
            Self::Incompatible { left, right } => write!(
                f,
                "incompatible sketches: {}/seed {}/D={} vs {}/seed {}/D={}",
                left.0, left.1, left.2, right.0, right.1, right.2
            ),
        }
    }
}

impl std::error::Error for SketchError {}

impl From<wmh_sets::SetError> for SketchError {
    fn from(e: wmh_sets::SetError) -> Self {
        Self::Set(e)
    }
}

/// Coarse, stable classification of a [`SketchError`] — what the
/// evaluation harness records in checkpoint files and reports when a cell
/// fails, so a resumed run can reproduce the same dash cell without
/// re-running the failing algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// [`SketchError::EmptySet`].
    EmptySet,
    /// [`SketchError::BadParameter`].
    BadParameter,
    /// [`SketchError::BudgetExhausted`].
    BudgetExhausted,
    /// [`SketchError::Set`].
    InvalidSet,
    /// [`SketchError::WeightExceedsBound`].
    WeightExceedsBound,
    /// [`SketchError::Incompatible`].
    Incompatible,
    /// A transient I/O failure (checkpoint or store write) that exhausted
    /// the supervisor's retry budget; the cell is quarantined, not a
    /// property of the algorithm or its input.
    TransientIo,
}

impl ErrorKind {
    /// Stable kebab-case name (the checkpoint wire format).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::EmptySet => "empty-set",
            Self::BadParameter => "bad-parameter",
            Self::BudgetExhausted => "budget-exhausted",
            Self::InvalidSet => "invalid-set",
            Self::WeightExceedsBound => "weight-exceeds-bound",
            Self::Incompatible => "incompatible",
            Self::TransientIo => "transient-io",
        }
    }

    /// Inverse of [`Self::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "empty-set" => Some(Self::EmptySet),
            "bad-parameter" => Some(Self::BadParameter),
            "budget-exhausted" => Some(Self::BudgetExhausted),
            "invalid-set" => Some(Self::InvalidSet),
            "weight-exceeds-bound" => Some(Self::WeightExceedsBound),
            "incompatible" => Some(Self::Incompatible),
            "transient-io" => Some(Self::TransientIo),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl SketchError {
    /// The error's [`ErrorKind`].
    #[must_use]
    pub fn kind(&self) -> ErrorKind {
        match self {
            Self::EmptySet => ErrorKind::EmptySet,
            Self::BadParameter { .. } => ErrorKind::BadParameter,
            Self::BudgetExhausted { .. } => ErrorKind::BudgetExhausted,
            Self::Set(_) => ErrorKind::InvalidSet,
            Self::WeightExceedsBound { .. } => ErrorKind::WeightExceedsBound,
            Self::Incompatible { .. } => ErrorKind::Incompatible,
        }
    }
}

/// Reusable working memory for the scratch-backed sketching kernels.
///
/// The hot sketching loops ([`Sketcher::sketch_codes_into`]) borrow their
/// temporary buffers from here instead of allocating per call, so a batch
/// or sweep that threads one `SketchScratch` through every call performs
/// zero heap allocations after the first (warmup) call — the property the
/// allocation-regression test `crates/core/tests/alloc.rs` pins.
///
/// The contents carry no state between calls: every kernel fully
/// re-initializes what it uses, so one scratch may be shared across
/// different sketchers and algorithms freely (but not across threads).
#[derive(Debug, Default)]
pub struct SketchScratch {
    /// `(index, integer weight)` working set for the quantizing algorithms
    /// (e.g. the Gollapudi active-index walk's floor-quantized weights).
    pairs: Vec<(u64, u64)>,
    /// Lexicographic rank-key state for the dart-based samplers
    /// (DartMinHash bucket minima, BagMinHash tournament tree).
    rank_keys: Vec<RankKey>,
    /// Structure-of-arrays lanes for the vectorized sketching kernels.
    lanes: LaneBuffers,
}

/// Lexicographic `(band, rank, code)` dart key: band-major comparison so
/// the dart-based samplers never collapse ranks into one float. Smaller is
/// better (earlier band, then smaller rank hash).
pub type RankKey = (i64, u64, u64);

impl SketchScratch {
    /// Fresh scratch with empty buffers (they grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The reusable `(index, integer weight)` pair buffer. Kernels must
    /// `clear()` before use — contents from a previous call are garbage.
    pub fn pairs(&mut self) -> &mut Vec<(u64, u64)> {
        &mut self.pairs
    }

    /// The reusable [`RankKey`] buffer. Kernels must `clear()` before use —
    /// contents from a previous call are garbage.
    pub fn rank_keys(&mut self) -> &mut Vec<RankKey> {
        &mut self.rank_keys
    }

    /// Both scratch buffers at once, for kernels that need the pair buffer
    /// and the rank-key buffer simultaneously (one `&mut self` borrow can
    /// only hand out one field accessor at a time).
    pub fn pairs_and_rank_keys(&mut self) -> (&mut Vec<(u64, u64)>, &mut Vec<RankKey>) {
        (&mut self.pairs, &mut self.rank_keys)
    }

    /// The structure-of-arrays lane buffers the vectorized kernels fill.
    /// Kernels must [`LaneBuffers::resize`] (or resize individual lanes)
    /// before use — contents from a previous call are garbage.
    pub fn lanes(&mut self) -> &mut LaneBuffers {
        &mut self.lanes
    }
}

/// Structure-of-arrays working lanes for the vectorized sketching kernels.
///
/// The hot CWS-family loops are *d-outer, element-inner*: for each hash
/// index `d` they hoist the `(role, d)` hash prefixes once (a
/// [`wmh_hash::seeded::HashPrefix`] each) and run the
/// per-element uniforms, closed-form arithmetic, and a branchless
/// min-reduction in one fused register pass — an A/B against a buffered
/// fill-then-scan layout showed the lane round-trip costs more than it
/// saves when the hash finalizer is this cheap. What *does* pay to stage
/// are the per-element quantities that are invariant across all `D` hash
/// indices: those lanes live here, computed once per set and re-read `D`
/// times.
///
/// Fields are public on purpose: a kernel typically needs several lanes
/// mutably at once, which accessor methods cannot express under one
/// `&mut self` borrow. Every lane is garbage between calls; kernels resize
/// and overwrite what they use (capacity is retained, preserving the
/// zero-allocation warm-path contract).
#[derive(Debug, Default)]
pub struct LaneBuffers {
    /// Per-element `ln(weight)` lane, hoisted once per set (the scalar path
    /// recomputes the identical `f64::ln` per `(element, d)` — same bits).
    pub ln_weight: Vec<f64>,
    /// Per-element integer lane (e.g. the CWS starting interval exponent).
    pub exponent: Vec<i64>,
}

impl LaneBuffers {
    /// Resize every lane to `n` elements without initializing contents
    /// beyond what `Vec::resize` writes (reuses capacity when possible).
    /// Individual kernels may instead resize only the lanes they touch.
    pub fn resize(&mut self, n: usize) {
        self.ln_weight.resize(n, 0.0);
        self.exponent.resize(n, 0);
    }
}

/// A reusable `rows × D` matrix of sketch codes — the allocation-free
/// output target of [`Sketcher::sketch_batch_into`].
///
/// Row `i` holds the `D` codes of input set `i`, the same values
/// [`Sketch::codes`] would carry; reusing the batch across calls of the
/// same shape performs no heap allocation ([`Self::reset`] keeps
/// capacity).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodeBatch {
    codes: Vec<u64>,
    rows: usize,
    width: usize,
}

impl CodeBatch {
    /// An empty batch (buffers grow on first [`Self::reset`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize to `rows × width` and zero all codes, reusing the existing
    /// allocation whenever capacity allows.
    pub fn reset(&mut self, rows: usize, width: usize) {
        self.rows = rows;
        self.width = width;
        self.codes.clear();
        self.codes.resize(rows * width, 0);
    }

    /// Number of rows (input sets).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Codes per row (the fingerprint length `D`).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`'s codes.
    ///
    /// # Panics
    /// Panics when `i ≥ rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.codes[i * self.width..(i + 1) * self.width]
    }

    /// Mutable view of row `i`'s codes.
    ///
    /// # Panics
    /// Panics when `i ≥ rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.codes[i * self.width..(i + 1) * self.width]
    }

    /// The whole matrix, row-major.
    #[must_use]
    pub fn as_flat(&self) -> &[u64] {
        &self.codes
    }
}

/// Typed guard for the kernel output-buffer contract (`out.len() == D`).
/// A slice of the wrong length is a caller bug, but the kernels stay
/// total: they report it as a typed error instead of slicing out of
/// bounds.
pub(crate) fn check_out_len(out: &[u64], num_hashes: usize) -> Result<(), SketchError> {
    if out.len() == num_hashes {
        Ok(())
    } else {
        Err(SketchError::BadParameter {
            what: "code output buffer length (must equal num_hashes)",
            value: out.len() as f64,
        })
    }
}

/// The common interface of all fifteen algorithms.
///
/// Every algorithm comes down to one kernel, [`Self::sketch_codes_into`],
/// which writes the `D` collision codes of a set; the allocating and batch
/// entry points are provided on top of it, so no two paths can drift
/// apart.
pub trait Sketcher {
    /// Catalog name (matches [`crate::catalog::Algorithm::name`]).
    fn name(&self) -> &'static str;

    /// Fingerprint length `D`.
    fn num_hashes(&self) -> usize;

    /// The master seed the sketcher was configured with (the provenance
    /// recorded in every [`Sketch`] it produces).
    fn seed(&self) -> u64;

    /// The sketching kernel: write the `D` codes of `set` into `out` (whose
    /// length must equal [`Self::num_hashes`]), borrowing any temporary
    /// buffers from `scratch`.
    ///
    /// Every input produces either the codes or a typed [`SketchError`]; no
    /// panic, no hang, no non-finite output.
    ///
    /// # Errors
    /// [`SketchError::BadParameter`] for a mis-sized `out`;
    /// [`SketchError::EmptySet`] for empty inputs; algorithm-specific errors
    /// (e.g. bound violations) as documented on each implementation. On
    /// error the buffer contents are unspecified.
    fn sketch_codes_into(
        &self,
        set: &WeightedSet,
        out: &mut [u64],
        scratch: &mut SketchScratch,
    ) -> Result<(), SketchError>;

    /// Sketch a weighted set.
    ///
    /// # Errors
    /// Exactly those of [`Self::sketch_codes_into`].
    fn sketch(&self, set: &WeightedSet) -> Result<Sketch, SketchError> {
        self.sketch_with(set, &mut SketchScratch::new())
    }

    /// [`Self::sketch`] with caller-provided scratch: allocates the code
    /// vector (the `Sketch` owns it) but no temporaries.
    ///
    /// # Errors
    /// Exactly those of [`Self::sketch_codes_into`].
    fn sketch_with(
        &self,
        set: &WeightedSet,
        scratch: &mut SketchScratch,
    ) -> Result<Sketch, SketchError> {
        let mut codes = vec![0u64; self.num_hashes()];
        self.sketch_codes_into(set, &mut codes, scratch)?;
        Ok(Sketch { algorithm: self.name().to_owned(), seed: self.seed(), codes })
    }

    /// Sketch a batch of weighted sets, threading one [`SketchScratch`]
    /// through every set and stopping at the first error.
    ///
    /// # Errors
    /// The first error [`Self::sketch`] would report, in batch order.
    fn sketch_batch(&self, sets: &[WeightedSet]) -> Result<Vec<Sketch>, SketchError> {
        let mut scratch = SketchScratch::new();
        sets.iter().map(|s| self.sketch_with(s, &mut scratch)).collect()
    }

    /// Fully allocation-free batch sketching: codes land in a reusable
    /// [`CodeBatch`] (row `i` = set `i`), temporaries come from `scratch`.
    /// After a warmup call of the same shape, a scratch-backed algorithm
    /// performs zero heap allocations per call — the allocation-regression
    /// test `crates/core/tests/alloc.rs` enforces this for MinHash, ICWS
    /// and CWS.
    ///
    /// # Errors
    /// The first error [`Self::sketch`] would report, in batch order; the
    /// batch contents are unspecified on error.
    fn sketch_batch_into(
        &self,
        sets: &[WeightedSet],
        out: &mut CodeBatch,
        scratch: &mut SketchScratch,
    ) -> Result<(), SketchError> {
        out.reset(sets.len(), self.num_hashes());
        for (i, set) in sets.iter().enumerate() {
            self.sketch_codes_into(set, out.row_mut(i), scratch)?;
        }
        Ok(())
    }
}

/// Boxed sketchers delegate, so a runtime-selected algorithm (the
/// catalog's `Box<dyn Sketcher + Send + Sync>`) slots into generic
/// consumers — `wmh_lsh::LshIndex`, the serving layer's shards — exactly
/// like a concrete one. Only the required methods are forwarded; the
/// provided paths then route through the delegated kernel.
impl<S: Sketcher + ?Sized> Sketcher for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn num_hashes(&self) -> usize {
        (**self).num_hashes()
    }

    fn seed(&self) -> u64 {
        (**self).seed()
    }

    fn sketch_codes_into(
        &self,
        set: &WeightedSet,
        out: &mut [u64],
        scratch: &mut SketchScratch,
    ) -> Result<(), SketchError> {
        (**self).sketch_codes_into(set, out, scratch)
    }
}

/// Pack a 2-component structured code into an opaque 64-bit code.
#[inline]
#[must_use]
pub fn pack2(a: u64, b: u64) -> u64 {
    fmix64(combine(a ^ 0x5EE7_C0DE, b))
}

/// Pack a 3-component structured code into an opaque 64-bit code.
#[inline]
#[must_use]
pub fn pack3(a: u64, b: u64, c: u64) -> u64 {
    fmix64(combine(combine(a ^ 0x5EE7_C0DE, b), c))
}

/// Pack the bit pattern of an `f64` code component.
///
/// Collision semantics require *identical* floats (produced by identical
/// arithmetic on identical inputs), so bit-pattern equality is exactly
/// float equality here; `-0.0`/`0.0` never arise (codes are positive).
#[inline]
#[must_use]
pub fn float_bits(x: f64) -> u64 {
    x.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sk(alg: &str, seed: u64, codes: Vec<u64>) -> Sketch {
        Sketch { algorithm: alg.to_owned(), seed, codes }
    }

    #[test]
    fn estimator_counts_collisions() {
        let a = sk("x", 1, vec![1, 2, 3, 4]);
        let b = sk("x", 1, vec![1, 9, 3, 8]);
        assert_eq!(a.try_estimate_similarity(&b).unwrap(), 0.5);
        assert_eq!(a.estimate_similarity(&a), 1.0);
    }

    #[test]
    fn estimator_rejects_mismatches() {
        let a = sk("x", 1, vec![1, 2]);
        assert!(matches!(
            a.try_estimate_similarity(&sk("y", 1, vec![1, 2])),
            Err(SketchError::Incompatible { .. })
        ));
        assert!(a.try_estimate_similarity(&sk("x", 2, vec![1, 2])).is_err());
        assert!(a.try_estimate_similarity(&sk("x", 1, vec![1])).is_err());
        let e = sk("x", 1, vec![]);
        assert!(e.try_estimate_similarity(&e).is_err(), "empty sketches have no estimator");
    }

    #[test]
    #[should_panic(expected = "same configured sketcher")]
    fn panicking_wrapper_panics() {
        let _ = sk("x", 1, vec![1]).estimate_similarity(&sk("y", 1, vec![1]));
    }

    #[test]
    fn packers_distinguish_components_and_order() {
        assert_ne!(pack2(1, 2), pack2(2, 1));
        assert_ne!(pack2(1, 2), pack2(1, 3));
        assert_ne!(pack3(1, 2, 3), pack3(3, 2, 1));
        assert_ne!(pack2(1, 2), pack3(1, 2, 0));
    }

    #[test]
    fn float_bits_is_exact_equality() {
        let y = 0.1f64 + 0.2;
        assert_eq!(float_bits(y), float_bits(0.1 + 0.2));
        assert_ne!(float_bits(y), float_bits(0.3));
    }

    #[test]
    fn code_bytes_roundtrip() {
        let s = sk("x", 1, vec![0xDEAD_BEEF, 42]);
        let b = s.code_bytes();
        assert_eq!(b.len(), 16);
        let back = u64::from_le_bytes(b[..8].try_into().unwrap());
        assert_eq!(back, 0xDEAD_BEEF);
    }

    #[test]
    fn sketch_serde_roundtrip() {
        let s = sk("icws", 7, vec![1, 2, 3]);
        let json = wmh_json::to_string(&s);
        let back: Sketch = wmh_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn code_batch_reset_reshapes_and_zeroes() {
        let mut b = CodeBatch::new();
        b.reset(2, 3);
        b.row_mut(1).copy_from_slice(&[7, 8, 9]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.width(), 3);
        assert_eq!(b.row(0), &[0, 0, 0]);
        assert_eq!(b.row(1), &[7, 8, 9]);
        assert_eq!(b.as_flat(), &[0, 0, 0, 7, 8, 9]);
        // Shrinking must clear stale codes, not expose them.
        b.reset(1, 2);
        assert_eq!(b.as_flat(), &[0, 0]);
    }

    /// A minimal sketcher that implements only the kernel — exercises
    /// every provided method in the trait.
    struct ConstSketcher(usize);

    impl Sketcher for ConstSketcher {
        fn name(&self) -> &'static str {
            "const"
        }

        fn num_hashes(&self) -> usize {
            self.0
        }

        fn seed(&self) -> u64 {
            9
        }

        fn sketch_codes_into(
            &self,
            set: &WeightedSet,
            out: &mut [u64],
            _scratch: &mut SketchScratch,
        ) -> Result<(), SketchError> {
            check_out_len(out, self.0)?;
            if set.is_empty() {
                return Err(SketchError::EmptySet);
            }
            for (d, slot) in out.iter_mut().enumerate() {
                *slot = pack2(d as u64, set.len() as u64);
            }
            Ok(())
        }
    }

    #[test]
    fn default_batch_into_matches_sketch_and_validates_output_len() {
        let s = ConstSketcher(4);
        let set = WeightedSet::from_pairs([(1, 1.0), (2, 0.5)]).unwrap();
        let sets = vec![set.clone(), set.clone()];
        let mut scratch = SketchScratch::new();
        let mut batch = CodeBatch::new();
        s.sketch_batch_into(&sets, &mut batch, &mut scratch).unwrap();
        let direct = s.sketch(&set).unwrap();
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.row(0), direct.codes.as_slice());
        assert_eq!(batch.row(1), direct.codes.as_slice());
        // sketch_with carries name/seed through the scratch path.
        let via_scratch = s.sketch_with(&set, &mut scratch).unwrap();
        assert_eq!(via_scratch, direct);
        // A wrong-length output buffer is a typed error, not a panic.
        let mut short = [0u64; 3];
        assert!(matches!(
            s.sketch_codes_into(&set, &mut short, &mut scratch),
            Err(SketchError::BadParameter { .. })
        ));
    }

    #[test]
    fn batch_into_on_empty_input_resets_to_zero_rows() {
        let s = ConstSketcher(2);
        let mut batch = CodeBatch::new();
        batch.reset(3, 2);
        s.sketch_batch_into(&[], &mut batch, &mut SketchScratch::new()).unwrap();
        assert_eq!(batch.rows(), 0);
        assert!(batch.as_flat().is_empty());
    }
}
