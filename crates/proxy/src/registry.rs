//! Dynamic filter instantiation: [`FilterSpec`] and [`FilterRegistry`].
//!
//! The paper's `ControlManager` "uses serialization of filter objects to
//! deliver new filters to the proxy".  Rust does not load foreign code at
//! run time, so the equivalent mechanism is a *description* of the desired
//! filter — kind plus parameters — shipped over the control channel and
//! instantiated by a registry of factory functions on the proxy side.
//! Third-party filters participate by registering a factory under a new
//! kind name, which preserves the paper's extensibility goal: the set of
//! filters a proxy can host is open-ended and not fixed at compile time.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rapidware_filters::{
    AudioTranscoderFilter, CompressorFilter, DecompressorFilter, DecryptFilter, DescramblerFilter,
    DropEveryNth, EncryptFilter, FecDecoderFilter, FecEncoderFilter, Filter, NullFilter,
    RateLimiterFilter, ScramblerFilter, TapFilter, TranscodeMode,
};

use crate::error::ProxyError;

/// A serialisable description of a filter to instantiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Registered kind name (e.g. `fec-encoder`).
    pub kind: String,
    /// Kind-specific parameters (e.g. `n = 6`, `k = 4`).
    pub params: BTreeMap<String, String>,
}

impl FilterSpec {
    /// Creates a spec with no parameters.
    pub fn new(kind: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            params: BTreeMap::new(),
        }
    }

    /// Adds a parameter, returning `self` for chaining.
    #[must_use]
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Looks up a string parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// Looks up a required numeric parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InvalidSpec`] if the parameter is missing or
    /// not a number.
    pub fn usize_param(&self, key: &str) -> Result<usize, ProxyError> {
        let raw = self.param(key).ok_or_else(|| ProxyError::InvalidSpec {
            parameter: key.to_string(),
            reason: "missing".to_string(),
        })?;
        raw.parse().map_err(|_| ProxyError::InvalidSpec {
            parameter: key.to_string(),
            reason: format!("not a number: {raw}"),
        })
    }

    /// Looks up a numeric parameter with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InvalidSpec`] if the parameter is present but
    /// not a number.
    pub fn usize_param_or(&self, key: &str, default: usize) -> Result<usize, ProxyError> {
        match self.param(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ProxyError::InvalidSpec {
                parameter: key.to_string(),
                reason: format!("not a number: {raw}"),
            }),
        }
    }
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        for (key, value) in &self.params {
            write!(f, " {key}={value}")?;
        }
        Ok(())
    }
}

type Factory = Arc<dyn Fn(&FilterSpec) -> Result<Box<dyn Filter>, ProxyError> + Send + Sync>;

/// A registry mapping filter kind names to factory functions.
#[derive(Clone)]
pub struct FilterRegistry {
    factories: BTreeMap<String, Factory>,
}

impl fmt::Debug for FilterRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilterRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for FilterRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl FilterRegistry {
    /// Creates an empty registry (no kinds registered).
    pub fn empty() -> Self {
        Self {
            factories: BTreeMap::new(),
        }
    }

    /// Creates a registry pre-populated with every built-in filter kind:
    /// `null`, `tap`, `fec-encoder`, `fec-decoder`, `transcoder`,
    /// `compressor`, `decompressor`, `rate-limiter`, `scrambler`,
    /// `descrambler`, `encrypt`, `decrypt` (the AEAD secure-channel pair),
    /// and `drop-every` (fault injection).
    pub fn with_builtins() -> Self {
        let mut registry = Self::empty();
        registry.register("null", |_spec| Ok(Box::new(NullFilter::new())));
        registry.register("tap", |spec| {
            let name = spec.param("name").unwrap_or("tap").to_string();
            Ok(Box::new(TapFilter::new(name)))
        });
        registry.register("fec-encoder", |spec| {
            let n = spec.usize_param_or("n", 6)?;
            let k = spec.usize_param_or("k", 4)?;
            let frame_aligned = spec.param("frame_aligned") == Some("true");
            let encoder = FecEncoderFilter::new(n, k).map_err(ProxyError::Filter)?;
            Ok(Box::new(if frame_aligned {
                encoder.frame_aligned()
            } else {
                encoder
            }))
        });
        registry.register("fec-decoder", |spec| {
            let n = spec.usize_param_or("n", 6)?;
            let k = spec.usize_param_or("k", 4)?;
            Ok(Box::new(
                FecDecoderFilter::new(n, k).map_err(ProxyError::Filter)?,
            ))
        });
        registry.register("transcoder", |spec| {
            let mode = match spec.param("mode").unwrap_or("stereo-to-mono") {
                "stereo-to-mono" => TranscodeMode::StereoToMono,
                "halve-sample-rate" => TranscodeMode::HalveSampleRate,
                "16-to-8-bit" => TranscodeMode::SixteenToEightBit,
                other => {
                    return Err(ProxyError::InvalidSpec {
                        parameter: "mode".to_string(),
                        reason: format!("unknown transcode mode {other}"),
                    })
                }
            };
            Ok(Box::new(AudioTranscoderFilter::new(mode)))
        });
        registry.register("compressor", |_spec| Ok(Box::new(CompressorFilter::new())));
        registry.register("decompressor", |_spec| {
            Ok(Box::new(DecompressorFilter::new()))
        });
        registry.register("rate-limiter", |spec| {
            let bitrate = spec.usize_param_or("bits_per_second", 128_000)?;
            Ok(Box::new(RateLimiterFilter::with_bitrate(bitrate as u64)))
        });
        registry.register("scrambler", |spec| {
            let key = spec.usize_param_or("key", 0x5EED)? as u64;
            Ok(Box::new(ScramblerFilter::new(key)))
        });
        registry.register("descrambler", |spec| {
            let key = spec.usize_param_or("key", 0x5EED)? as u64;
            Ok(Box::new(DescramblerFilter::new(key)))
        });
        registry.register("encrypt", |spec| {
            let key = spec.usize_param_or("key", 0x5EED)? as u64;
            Ok(Box::new(EncryptFilter::new(key)))
        });
        registry.register("decrypt", |spec| {
            let key = spec.usize_param_or("key", 0x5EED)? as u64;
            Ok(Box::new(DecryptFilter::new(key)))
        });
        registry.register("drop-every", |spec| {
            let n = spec.usize_param_or("n", 10)?;
            if n == 0 {
                return Err(ProxyError::InvalidSpec {
                    parameter: "n".to_string(),
                    reason: "must be non-zero".to_string(),
                });
            }
            Ok(Box::new(DropEveryNth::new(n as u64)))
        });
        registry
    }

    /// Registers (or replaces) a factory for `kind`.
    pub fn register<F>(&mut self, kind: impl Into<String>, factory: F)
    where
        F: Fn(&FilterSpec) -> Result<Box<dyn Filter>, ProxyError> + Send + Sync + 'static,
    {
        self.factories.insert(kind.into(), Arc::new(factory));
    }

    /// Registered kind names, sorted.
    pub fn kinds(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// Returns `true` if `kind` is registered.
    pub fn contains(&self, kind: &str) -> bool {
        self.factories.contains_key(kind)
    }

    /// Instantiates a filter from its specification.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownFilterKind`] for unregistered kinds, or
    /// whatever error the factory reports for bad parameters.
    pub fn instantiate(&self, spec: &FilterSpec) -> Result<Box<dyn Filter>, ProxyError> {
        let factory = self
            .factories
            .get(&spec.kind)
            .ok_or_else(|| ProxyError::UnknownFilterKind(spec.kind.clone()))?;
        factory(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidware_filters::FilterCounters;

    #[test]
    fn builtin_kinds_are_registered() {
        let registry = FilterRegistry::with_builtins();
        for kind in [
            "null",
            "tap",
            "fec-encoder",
            "fec-decoder",
            "transcoder",
            "compressor",
            "decompressor",
            "rate-limiter",
            "scrambler",
            "descrambler",
            "encrypt",
            "decrypt",
            "drop-every",
        ] {
            assert!(registry.contains(kind), "missing builtin {kind}");
        }
        assert_eq!(registry.kinds().len(), 13);
    }

    #[test]
    fn secure_channel_pair_round_trips_through_the_registry() {
        use rapidware_packet::{Packet, PacketKind, SeqNo, StreamId};
        let registry = FilterRegistry::default();
        let mut encrypt = registry
            .instantiate(&FilterSpec::new("encrypt").with_param("key", "4242"))
            .unwrap();
        let mut decrypt = registry
            .instantiate(&FilterSpec::new("decrypt").with_param("key", "4242"))
            .unwrap();
        assert_eq!(encrypt.name(), "encrypt(key=0x1092)");
        assert_eq!(decrypt.name(), "decrypt(key=0x1092)");
        assert!(matches!(encrypt.counters(), Some(FilterCounters::Secure(_))));
        let original =
            Packet::new(StreamId::new(1), SeqNo::new(0), PacketKind::AudioData, vec![1u8; 32]);
        let mut sealed: Vec<Packet> = Vec::new();
        encrypt.process(original.clone(), &mut sealed).unwrap();
        let mut opened: Vec<Packet> = Vec::new();
        decrypt.process(sealed.pop().unwrap(), &mut opened).unwrap();
        assert_eq!(opened, vec![original]);
    }

    #[test]
    fn instantiates_fec_encoder_with_parameters() {
        let registry = FilterRegistry::default();
        let spec = FilterSpec::new("fec-encoder")
            .with_param("n", "8")
            .with_param("k", "6");
        let filter = registry.instantiate(&spec).unwrap();
        assert_eq!(filter.name(), "fec-encoder(8,6)");
    }

    #[test]
    fn default_parameters_match_the_paper() {
        let registry = FilterRegistry::default();
        let encoder = registry.instantiate(&FilterSpec::new("fec-encoder")).unwrap();
        assert_eq!(encoder.name(), "fec-encoder(6,4)");
        let decoder = registry.instantiate(&FilterSpec::new("fec-decoder")).unwrap();
        assert_eq!(decoder.name(), "fec-decoder(6,4)");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let registry = FilterRegistry::default();
        let err = registry
            .instantiate(&FilterSpec::new("quantum-entangler"))
            .unwrap_err();
        assert_eq!(err, ProxyError::UnknownFilterKind("quantum-entangler".into()));
    }

    #[test]
    fn invalid_parameters_are_reported() {
        let registry = FilterRegistry::default();
        let spec = FilterSpec::new("fec-encoder").with_param("n", "six");
        assert!(matches!(
            registry.instantiate(&spec),
            Err(ProxyError::InvalidSpec { .. })
        ));
        let spec = FilterSpec::new("fec-encoder").with_param("n", "2").with_param("k", "4");
        assert!(matches!(
            registry.instantiate(&spec),
            Err(ProxyError::Filter(_))
        ));
        let spec = FilterSpec::new("transcoder").with_param("mode", "nonsense");
        assert!(matches!(
            registry.instantiate(&spec),
            Err(ProxyError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn third_party_filters_can_be_registered() {
        let mut registry = FilterRegistry::empty();
        registry.register("third-party-null", |_spec| Ok(Box::new(NullFilter::new())));
        assert!(registry.contains("third-party-null"));
        assert!(!registry.contains("null"));
        let filter = registry
            .instantiate(&FilterSpec::new("third-party-null"))
            .unwrap();
        assert_eq!(filter.name(), "null");
    }

    #[test]
    fn spec_accessors_and_display() {
        let spec = FilterSpec::new("fec-encoder")
            .with_param("n", "6")
            .with_param("k", "4");
        assert_eq!(spec.param("n"), Some("6"));
        assert_eq!(spec.param("missing"), None);
        assert_eq!(spec.usize_param("k").unwrap(), 4);
        assert!(spec.usize_param("missing").is_err());
        assert_eq!(spec.usize_param_or("missing", 9).unwrap(), 9);
        assert_eq!(spec.to_string(), "fec-encoder k=4 n=6");
    }

    #[test]
    fn registry_debug_lists_kinds() {
        let registry = FilterRegistry::with_builtins();
        assert!(format!("{registry:?}").contains("fec-encoder"));
    }
}
