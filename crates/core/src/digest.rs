//! Hand-rolled content digests over canonical encodings.
//!
//! The store ([`gdf-store`]) keys objects by the digest of their
//! canonical text, and the result cache keys entries by
//! `(circuit digest, config digest)` — both need a digest that is
//! deterministic across processes and platforms, cheap, and wide enough
//! that distinct artifacts practically never collide. No external crypto
//! crates exist in this workspace, so the digest is built from two
//! independently keyed **SipHash-2-4** passes (128 bits total), with
//! **FNV-1a** kept alongside as the cheap single-word mixer behind
//! trace span ids and the tests.
//!
//! SipHash-2-4 here is the reference construction (SipRound with 2
//! compression and 4 finalization rounds); the two fixed keys are
//! arbitrary but frozen — changing them would invalidate every stored
//! object address, exactly like changing a schema version.
//!
//! [`gdf-store`]: ../../gdf_store/index.html

use std::fmt;
use std::str::FromStr;

/// 64-bit FNV-1a over `bytes` — the classic offset basis / prime pair.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// Keyed SipHash-2-4 over `bytes` (the reference 64-bit construction).
pub fn siphash24(k0: u64, k1: u64, bytes: &[u8]) -> u64 {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }
    // Final block: remaining bytes plus the length in the top byte.
    let rest = chunks.remainder();
    let mut last = (bytes.len() as u64 & 0xff) << 56;
    for (i, &b) in rest.iter().enumerate() {
        last |= (b as u64) << (8 * i);
    }
    v[3] ^= last;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= last;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// The two frozen store keys: two independent SipHash-2-4 instances make
/// the 128-bit content address. Arbitrary constants, fixed forever (they
/// are part of the on-disk address format).
const KEY_A: (u64, u64) = (0x6764_665f_7374_6f72, 0x655f_6b65_795f_6131);
const KEY_B: (u64, u64) = (0x1995_0308_da7e_ba5e, 0xb10f_11e5_0f5e_ed42);

/// A 128-bit content digest, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    /// SipHash-2-4 under the first frozen key.
    pub a: u64,
    /// SipHash-2-4 under the second frozen key.
    pub b: u64,
}

impl Digest {
    /// Digests arbitrary bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Digest {
            a: siphash24(KEY_A.0, KEY_A.1, bytes),
            b: siphash24(KEY_B.0, KEY_B.1, bytes),
        }
    }

    /// Digests a canonical text encoding.
    pub fn of_text(text: &str) -> Self {
        Self::of_bytes(text.as_bytes())
    }

    /// The 32-hex-digit rendering — the object's store address.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.a, self.b)
    }
}

/// Parse error of [`Digest::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestParseError(pub String);

impl fmt::Display for DigestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad digest `{}`: expected 32 hex digits", self.0)
    }
}

impl std::error::Error for DigestParseError {}

impl FromStr for Digest {
    type Err = DigestParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(DigestParseError(s.to_string()));
        }
        let a = u64::from_str_radix(&s[..16], 16).map_err(|_| DigestParseError(s.to_string()))?;
        let b = u64::from_str_radix(&s[16..], 16).map_err(|_| DigestParseError(s.to_string()))?;
        Ok(Digest { a, b })
    }
}

/// Digest of a [`RunConfig`](crate::engine::RunConfig)'s canonical
/// encoding — the flat [`encode_config`](crate::artifact::encode_config)
/// field list rendered as one JSON object. Two configs digest equal iff
/// they encode equal, which is exactly the cache's correctness
/// requirement: the encoding round-trips every field that can reach the
/// generated bytes.
pub fn config_digest(config: &crate::engine::RunConfig) -> Digest {
    let text = crate::json::Json::Obj(crate::artifact::encode_config(config)).pretty();
    Digest::of_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, RunConfig};

    #[test]
    fn siphash24_matches_reference_vector() {
        // The reference test vector from the SipHash paper: key
        // 000102…0f, message 000102…0e -> 0xa129ca6149be45e5.
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let msg: Vec<u8> = (0u8..15).collect();
        assert_eq!(siphash24(k0, k1, &msg), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn fnv1a64_known_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_round_trips_through_hex() {
        let d = Digest::of_text("the quick brown fox");
        let back: Digest = d.hex().parse().unwrap();
        assert_eq!(back, d);
        assert_eq!(d.hex().len(), 32);
    }

    #[test]
    fn hostile_digest_strings_are_rejected() {
        for bad in ["", "zz", "0123", &"0".repeat(31), &"g".repeat(32), "../x"] {
            assert!(bad.parse::<Digest>().is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn config_digest_separates_distinct_configs() {
        let base = RunConfig::new(Backend::NonScan);
        let seeded = base.with_seed(99);
        assert_eq!(config_digest(&base), config_digest(&base));
        assert_ne!(config_digest(&base), config_digest(&seeded));
        assert_ne!(
            config_digest(&base),
            config_digest(&RunConfig::new(Backend::StuckAt))
        );
    }
}
