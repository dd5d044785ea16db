//! What this CPU can execute, decided once per process for every kernel.
//!
//! The workspace's hot loops — the CRC-32 under every frame
//! (`crc_simd.rs`), the GF(2⁸) multiply-adds under every FEC parity
//! (`rapidware-fec`'s `gf256_simd.rs`), and the ChaCha20 keystream and
//! Poly1305 MAC under every sealed payload (`rapidware-filters`'
//! `chacha_simd.rs` and `poly1305_simd.rs`) — each have a portable
//! reference and one or more wider kernels compiled for instruction sets
//! the build target does not promise.  Calling such a kernel on a CPU
//! without the instructions is undefined behaviour, so each kernel demands
//! a *proof token*: a zero-sized value ([`Ssse3`], [`Clmul`], [`Avx2`],
//! [`Avx512`]) whose only field is private to this module.  This module is
//! therefore the only code that can make one, and it makes one only after
//! `is_x86_feature_detected!` has confirmed the instructions.
//!
//! A [`Cpu`] carries the tokens one host has:
//!
//! * [`Cpu::active`] is what the codecs and filters run on: detected once,
//!   cached for the process, and emptied of every token when the
//!   environment sets `RAPIDWARE_FORCE_SCALAR` to anything but empty or
//!   `0` — the one switch that pins every kernel family to its reference.
//! * [`Cpu::detected`] ignores that switch, and [`Cpu::tiers`] steps from
//!   [`Cpu::scalar`] up to it, so the parity suites and the kernel bench
//!   can name every kernel this host has whatever the switch says.
//!
//! Each kernel family builds its kernel from a `Cpu` (`CrcKernel::new`,
//! `gf256::Kernel::new`, `Keystream::new`), taking the widest one it has
//! for the tokens present.  A new instruction set is one more token here
//! and one more kernel module there.

use std::sync::OnceLock;

/// Proof that this CPU executes SSSE3 (`pshufb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ssse3(());

/// Proof that this CPU executes `PCLMULQDQ` (carry-less multiply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clmul(());

/// Proof that this CPU executes AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx2(());

/// Proof that this CPU executes AVX-512F, AVX-512BW and AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx512(());

impl Avx512 {
    /// The AVX2 token, which this one implies.
    pub fn avx2(self) -> Avx2 {
        Avx2(())
    }
}

/// The instruction sets one process's kernels may use: a token for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpu {
    ssse3: Option<Ssse3>,
    clmul: Option<Clmul>,
    avx2: Option<Avx2>,
    avx512: Option<Avx512>,
    forced_scalar: bool,
}

impl Cpu {
    /// No tokens: every kernel family runs its portable reference.
    pub const fn scalar() -> Self {
        Self {
            ssse3: None,
            clmul: None,
            avx2: None,
            avx512: None,
            forced_scalar: false,
        }
    }

    /// Every token this CPU has, regardless of `RAPIDWARE_FORCE_SCALAR`.
    /// Off x86-64 there are none.
    pub fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2");
            Self {
                ssse3: has!("ssse3").then_some(Ssse3(())),
                clmul: has!("pclmulqdq").then_some(Clmul(())),
                avx2: avx2.then_some(Avx2(())),
                avx512: (avx2 && has!("avx512f") && has!("avx512bw")).then_some(Avx512(())),
                forced_scalar: false,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Self::scalar()
    }

    /// The tokens this process runs on, decided at first use: those of
    /// [`detected`](Self::detected), or none when `RAPIDWARE_FORCE_SCALAR`
    /// is set to anything but empty or `0`.
    #[inline]
    pub fn active() -> Self {
        static ACTIVE: OnceLock<Cpu> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let forced = std::env::var_os("RAPIDWARE_FORCE_SCALAR")
                .is_some_and(|v| !v.is_empty() && v != "0");
            if forced {
                Self {
                    forced_scalar: true,
                    ..Self::scalar()
                }
            } else {
                Self::detected()
            }
        })
    }

    /// [`scalar`](Self::scalar), then each wider tier this host has — the
    /// 128-bit one (SSSE3 and `PCLMULQDQ`), AVX2, AVX-512 — each holding
    /// the tokens of the tiers below it.  Ignores `RAPIDWARE_FORCE_SCALAR`:
    /// mapping the tiers through a kernel family's constructor names every
    /// kernel of that family this host can run, the reference first.
    pub fn tiers() -> impl Iterator<Item = Cpu> {
        let host = Self::detected();
        let scalar = Self::scalar();
        let narrow = Self {
            ssse3: host.ssse3,
            clmul: host.clmul,
            ..scalar
        };
        let avx2 = Self {
            avx2: host.avx2,
            ..narrow
        };
        let mut tiers = vec![scalar, narrow, avx2, host];
        tiers.dedup();
        tiers.into_iter()
    }

    /// The SSSE3 token, if this process may use it.
    pub fn ssse3(self) -> Option<Ssse3> {
        self.ssse3
    }

    /// The `PCLMULQDQ` token, if this process may use it.
    pub fn clmul(self) -> Option<Clmul> {
        self.clmul
    }

    /// The AVX2 token, if this process may use it.
    pub fn avx2(self) -> Option<Avx2> {
        self.avx2
    }

    /// The AVX-512F/BW token, if this process may use it.
    pub fn avx512(self) -> Option<Avx512> {
        self.avx512
    }

    /// Whether `RAPIDWARE_FORCE_SCALAR` emptied this value (only ever true
    /// of [`active`](Self::active)).
    pub fn forced_scalar(self) -> bool {
        self.forced_scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_climb_from_scalar_to_the_host() {
        let tiers: Vec<Cpu> = Cpu::tiers().collect();
        assert_eq!(tiers.first(), Some(&Cpu::scalar()));
        assert_eq!(tiers.last(), Some(&Cpu::detected()));
        for pair in tiers.windows(2) {
            assert_ne!(pair[0], pair[1], "each tier adds a token");
        }
        let host = Cpu::detected();
        assert!(
            host.avx512.is_none() || host.avx2.is_some(),
            "AVX-512 implies AVX2"
        );
    }

    #[test]
    fn the_active_value_is_the_host_or_forced_empty() {
        let active = Cpu::active();
        assert_eq!(active, Cpu::active(), "decided once");
        if active.forced_scalar() {
            assert_eq!(
                Cpu {
                    forced_scalar: false,
                    ..active
                },
                Cpu::scalar()
            );
        } else {
            assert_eq!(active, Cpu::detected());
        }
    }
}
