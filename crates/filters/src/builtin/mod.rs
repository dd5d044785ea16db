//! The library of built-in proxy filters.
//!
//! These are the RAPIDware "raplet payloads" a proxy typically installs:
//! FEC coding, transcoding, compression, rate limiting, scrambling, plus
//! diagnostic and fault-injection filters used by the test suite and the
//! experiment harness.

mod chacha_simd;
pub(crate) mod compress;
pub(crate) mod faults;
pub(crate) mod fec_decode;
pub(crate) mod fec_encode;
pub(crate) mod null;
mod poly1305_simd;
pub(crate) mod ratelimit;
pub(crate) mod scramble;
pub(crate) mod secure;
pub(crate) mod tap;
pub(crate) mod transcode;
