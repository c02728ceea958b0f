//! MEMQSIM configuration.

use mq_compress::{CodecSpec, Precision};

/// Which base storage tier [`build_store`](crate::store::build_store)
/// assembles the stack on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Codec-compressed chunks with integrity checksums
    /// ([`CompressedTier`](crate::store::CompressedTier)) — the paper's
    /// representation and the default.
    #[default]
    Compressed,
    /// Uncompressed chunks ([`DenseStore`](crate::store::DenseStore)) —
    /// the no-codec baseline for widths where codec overhead dominates.
    Dense,
    /// Compressed chunks bounded by an in-memory byte budget; overflow
    /// spills to temp files ([`SpillStore`](crate::store::SpillStore)) —
    /// the beyond-RAM "+5 qubits" direction.
    Spill {
        /// Maximum compressed bytes resident in CPU memory at once.
        resident_budget: usize,
    },
}

/// How chunks cross the CPU↔GPU link in the hybrid engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// Decompress on the host and ship raw amplitudes (the paper's
    /// strategies and the default).
    #[default]
    Raw,
    /// Ship the *compressed* payload and run the codec as staged device
    /// kernels (`DecodeChunk` / `EncodeChunk`): link bytes drop by the
    /// codec ratio at the cost of modeled decode/encode-kernel time.
    /// Payloads pass straight between the compressed store and the device,
    /// so the final state stays bit-identical to [`TransferMode::Raw`].
    Compressed,
}

/// Configuration shared by the MEMQSIM engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemQSimConfig {
    /// log2 of amplitudes per compressed chunk.
    pub chunk_bits: u32,
    /// Maximum distinct cross-chunk pairing qubits per stage (working set
    /// per chunk group is `2^max_high_qubits` chunks).
    pub max_high_qubits: u32,
    /// Which codec compresses resident chunks.
    pub codec: CodecSpec,
    /// Members of the worker team inside each chunk group of the CPU
    /// engine's decompress → apply → recompress loop — the only CPU thread
    /// count there is; the default is the host's core count
    /// ([`mq_num::parallel::cores`]). The hybrid engine does not read it:
    /// its host side is the caller's thread (decode and issue) and one
    /// completer thread per device, plus one stream worker per device.
    pub workers: usize,
    /// Which base storage tier holds the chunks (compressed, dense, or
    /// disk-spill).
    pub store_kind: StoreKind,
    /// How chunks cross the CPU↔GPU link in the hybrid engine (raw
    /// amplitudes, or compressed payloads decoded on the device).
    pub transfer_mode: TransferMode,
    /// End-state fidelity target (`None` = no budget). When set (requires
    /// [`CodecSpec::Auto`]), the engine converts `1 - target` into a total
    /// per-amplitude error allowance, splits it evenly across stages, and
    /// feeds each stage's bound to the adaptive codec
    /// — tracking actual per-stage spend in telemetry.
    pub fidelity_budget: Option<f64>,
    /// Numeric width of stored chunks. [`Precision::Adaptive`] (requires
    /// [`CodecSpec::Auto`]) lets the codec demote chunks to f32 pairs when
    /// the rounding error fits the stage's allowance.
    pub precision: Precision,
}

impl Default for MemQSimConfig {
    fn default() -> Self {
        MemQSimConfig {
            chunk_bits: 16,
            max_high_qubits: 2,
            codec: CodecSpec::Sz { eb: 1e-10 },
            workers: mq_num::parallel::cores(),
            store_kind: StoreKind::Compressed,
            transfer_mode: TransferMode::Raw,
            fidelity_budget: None,
            precision: Precision::F64,
        }
    }
}

impl MemQSimConfig {
    /// Starts a fail-fast builder from the default configuration.
    ///
    /// [`MemQSimConfigBuilder::build`] validates, so an invalid combination
    /// surfaces at construction instead of at engine start:
    ///
    /// ```
    /// use memqsim_core::MemQSimConfig;
    ///
    /// let cfg = MemQSimConfig::builder()
    ///     .chunk_bits(12)
    ///     .workers(4)
    ///     .build()
    ///     .expect("valid config");
    /// assert_eq!(cfg.chunk_bits, 12);
    /// assert!(MemQSimConfig::builder().workers(0).build().is_err());
    /// ```
    pub fn builder() -> MemQSimConfigBuilder {
        MemQSimConfigBuilder {
            cfg: MemQSimConfig::default(),
        }
    }

    /// Effective chunk bits for an `n`-qubit register: chunks never exceed
    /// the state vector itself.
    pub fn effective_chunk_bits(&self, n_qubits: u32) -> u32 {
        self.chunk_bits.min(n_qubits)
    }

    /// Validates parameter sanity, returning a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_high_qubits == 0 {
            return Err("max_high_qubits must be >= 1".into());
        }
        if self.max_high_qubits > 8 {
            return Err("max_high_qubits > 8 would need 256-chunk groups".into());
        }
        if self.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        if let Some(target) = self.fidelity_budget {
            if !(target > 0.0 && target < 1.0) {
                return Err(format!("fidelity_budget {target} outside (0, 1)"));
            }
            if !matches!(self.codec, CodecSpec::Auto { .. }) {
                return Err("fidelity_budget requires the adaptive codec (CodecSpec::Auto)".into());
            }
        }
        if self.precision == Precision::Adaptive && !matches!(self.codec, CodecSpec::Auto { .. }) {
            return Err("Precision::Adaptive requires the adaptive codec (CodecSpec::Auto)".into());
        }
        Ok(())
    }
}

/// Builder for [`MemQSimConfig`]; created by [`MemQSimConfig::builder`].
///
/// Starts from [`MemQSimConfig::default`]; every setter overrides one field
/// and [`build`](Self::build) runs [`MemQSimConfig::validate`] so the result
/// is valid by construction. The struct-literal path (`MemQSimConfig { .. }`)
/// remains available for tests and call sites that want raw field access.
#[derive(Debug, Clone)]
pub struct MemQSimConfigBuilder {
    cfg: MemQSimConfig,
}

impl MemQSimConfigBuilder {
    /// log2 of amplitudes per compressed chunk.
    pub fn chunk_bits(mut self, chunk_bits: u32) -> Self {
        self.cfg.chunk_bits = chunk_bits;
        self
    }

    /// Maximum distinct cross-chunk pairing qubits per stage.
    pub fn max_high_qubits(mut self, max_high_qubits: u32) -> Self {
        self.cfg.max_high_qubits = max_high_qubits;
        self
    }

    /// Which codec compresses resident chunks.
    pub fn codec(mut self, codec: CodecSpec) -> Self {
        self.cfg.codec = codec;
        self
    }

    /// Members of the worker team inside each chunk group.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Which base storage tier holds the chunks.
    pub fn store_kind(mut self, store_kind: StoreKind) -> Self {
        self.cfg.store_kind = store_kind;
        self
    }

    /// How chunks cross the CPU↔GPU link in the hybrid engine.
    pub fn transfer_mode(mut self, transfer_mode: TransferMode) -> Self {
        self.cfg.transfer_mode = transfer_mode;
        self
    }

    /// End-state fidelity target in (0, 1); requires [`CodecSpec::Auto`].
    pub fn fidelity_budget(mut self, target: f64) -> Self {
        self.cfg.fidelity_budget = Some(target);
        self
    }

    /// Numeric width of stored chunks ([`Precision::Adaptive`] requires
    /// [`CodecSpec::Auto`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Validates and returns the configuration, or a description of the
    /// first problem found.
    pub fn build(self) -> Result<MemQSimConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(MemQSimConfig::default().validate().is_ok());
    }

    #[test]
    fn effective_chunk_bits_clamps() {
        let cfg = MemQSimConfig {
            chunk_bits: 16,
            ..Default::default()
        };
        assert_eq!(cfg.effective_chunk_bits(10), 10);
        assert_eq!(cfg.effective_chunk_bits(20), 16);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let bad = [
            MemQSimConfig {
                max_high_qubits: 0,
                ..Default::default()
            },
            MemQSimConfig {
                max_high_qubits: 9,
                ..Default::default()
            },
            MemQSimConfig {
                workers: 0,
                ..Default::default()
            },
            // Budget outside (0, 1).
            MemQSimConfig {
                codec: CodecSpec::Auto { eb: None },
                fidelity_budget: Some(1.0),
                ..Default::default()
            },
            // Budget without the adaptive codec.
            MemQSimConfig {
                fidelity_budget: Some(0.999),
                ..Default::default()
            },
            // Adaptive precision without the adaptive codec.
            MemQSimConfig {
                precision: Precision::Adaptive,
                ..Default::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
        // The valid combination: budget + adaptive precision on Auto.
        assert!(MemQSimConfig {
            codec: CodecSpec::Auto { eb: None },
            fidelity_budget: Some(0.999999),
            precision: Precision::Adaptive,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn builder_round_trips_every_field() {
        // Two builds, because `fidelity_budget` and `Precision::Adaptive`
        // need the adaptive codec. No `..` in the pattern: a new field does
        // not compile until it has a setter and a line here.
        let MemQSimConfig {
            chunk_bits,
            max_high_qubits,
            codec,
            workers,
            store_kind,
            transfer_mode,
            fidelity_budget,
            precision,
        } = MemQSimConfig::builder()
            .chunk_bits(10)
            .max_high_qubits(3)
            .codec(CodecSpec::Fpc)
            .workers(2)
            .store_kind(StoreKind::Spill {
                resident_budget: 1 << 24,
            })
            .transfer_mode(TransferMode::Compressed)
            .build()
            .unwrap();
        assert_eq!((chunk_bits, max_high_qubits, workers), (10, 3, 2));
        assert_eq!(codec, CodecSpec::Fpc);
        assert_eq!(
            store_kind,
            StoreKind::Spill {
                resident_budget: 1 << 24
            }
        );
        assert_eq!(transfer_mode, TransferMode::Compressed);
        assert_eq!((fidelity_budget, precision), (None, Precision::F64));
        let adaptive = MemQSimConfig::builder()
            .codec(CodecSpec::Auto { eb: Some(1e-8) })
            .fidelity_budget(0.999999)
            .precision(Precision::Adaptive)
            .build()
            .unwrap();
        assert_eq!(adaptive.fidelity_budget, Some(0.999999));
        assert_eq!(adaptive.precision, Precision::Adaptive);
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(
            MemQSimConfig::builder().build().unwrap(),
            MemQSimConfig::default()
        );
    }

    #[test]
    fn builder_rejects_invalid_combinations_at_build_time() {
        assert!(MemQSimConfig::builder().workers(0).build().is_err());
        assert!(MemQSimConfig::builder().max_high_qubits(0).build().is_err());
        let err = MemQSimConfig::builder()
            .fidelity_budget(0.999)
            .build()
            .unwrap_err();
        assert!(err.contains("fidelity_budget"), "{err}");
        let err = MemQSimConfig::builder()
            .precision(Precision::Adaptive)
            .build()
            .unwrap_err();
        assert!(err.contains("Precision::Adaptive"), "{err}");
    }
}
