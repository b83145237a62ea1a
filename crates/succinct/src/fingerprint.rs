//! Content-addressed environment identity.
//!
//! The interactive setting prepares a program point, queries it, the user
//! edits, and the point comes back *slightly* changed — or comes back
//! unchanged. An [`EnvFingerprint`] gives such environments a first-class
//! identity: a 128-bit digest over the *multiset* of declarations (each
//! hashed with its name, type and effective weight), insensitive to
//! declaration order.
//!
//! The fingerprint is a cache *key*, not a proof. The engine shares prepared
//! state only with a request for the identical declaration list, because
//! equal-weight completions emit in declaration order: a permutation (which
//! fingerprints equal) or a (vanishingly unlikely) collision degrades to an
//! uncached preparation, never to a different answer. The digest stays
//! order-insensitive anyway, because as a key it only has to be equal for
//! equal lists, and because a multiset digest can be updated by an edit's
//! delta alone: both accumulators are invertible, so removing a declaration
//! can undo its item without rehashing the rest of the environment.
//!
//! # Example
//!
//! ```
//! use insynth_intern::StableHasher;
//! use insynth_succinct::EnvFingerprintBuilder;
//!
//! let item = |name: &str| {
//!     let mut h = StableHasher::new();
//!     h.write_str(name);
//!     h.finish()
//! };
//! // Order-insensitive: the same items in any order produce the same digest.
//! let mut fwd = EnvFingerprintBuilder::new();
//! fwd.add_item(item("a"));
//! fwd.add_item(item("b"));
//! let mut rev = EnvFingerprintBuilder::new();
//! rev.add_item(item("b"));
//! rev.add_item(item("a"));
//! assert_eq!(fwd.finish(), rev.finish());
//! ```

use std::fmt;

use insynth_intern::StableHasher;

/// The content address of a type environment: a stable 128-bit digest over
/// its declaration multiset (order-insensitive) plus the weight-configuration
/// inputs that affect prepared artifacts.
///
/// Equal fingerprints are the engine's signal that two program points may
/// share one preparation and one derivation-graph cache line; the engine
/// still requires the identical declaration list before sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnvFingerprint(u128);

impl EnvFingerprint {
    /// The raw 128-bit digest.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl fmt::Display for EnvFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Accumulates per-item digests into an order-insensitive [`EnvFingerprint`].
///
/// Items combine through two commutative accumulators (a wrapping sum and a
/// wrapping product of odd-forced halves) plus the item count, so the final
/// digest depends on the multiset of items but not on the order they were
/// added. Configuration inputs ([`EnvFingerprintBuilder::mix_config`]) are
/// order-*sensitive* — they describe one fixed configuration, not a set.
#[derive(Debug, Clone)]
pub struct EnvFingerprintBuilder {
    sum_hi: u64,
    sum_lo: u64,
    prod_hi: u64,
    prod_lo: u64,
    count: u64,
    config: StableHasher,
}

impl Default for EnvFingerprintBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EnvFingerprintBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        EnvFingerprintBuilder {
            sum_hi: 0,
            sum_lo: 0,
            prod_hi: 1,
            prod_lo: 1,
            count: 0,
            config: StableHasher::new(),
        }
    }

    /// Adds one item digest (e.g. the [`StableHasher`] digest of a
    /// declaration). Commutative: add order does not affect the result.
    pub fn add_item(&mut self, item: u128) {
        let hi = (item >> 64) as u64;
        let lo = item as u64;
        self.sum_hi = self.sum_hi.wrapping_add(hi);
        self.sum_lo = self.sum_lo.wrapping_add(lo);
        // Forcing the factors odd keeps the products from collapsing to zero.
        self.prod_hi = self.prod_hi.wrapping_mul(hi | 1);
        self.prod_lo = self.prod_lo.wrapping_mul(lo | 1);
        self.count += 1;
    }

    /// Mixes order-sensitive configuration input into the digest.
    pub fn mix_config(&mut self, f: impl FnOnce(&mut StableHasher)) {
        f(&mut self.config);
    }

    /// The combined fingerprint.
    pub fn finish(&self) -> EnvFingerprint {
        let mut h = self.config.clone();
        h.write_u64(self.count);
        h.write_u64(self.sum_hi);
        h.write_u64(self.sum_lo);
        h.write_u64(self.prod_hi);
        h.write_u64(self.prod_lo);
        EnvFingerprint(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(tag: u64) -> u128 {
        let mut h = StableHasher::new();
        h.write_u64(tag);
        h.finish()
    }

    #[test]
    fn order_of_items_is_irrelevant() {
        let mut a = EnvFingerprintBuilder::new();
        for i in 0..16 {
            a.add_item(item(i));
        }
        let mut b = EnvFingerprintBuilder::new();
        for i in (0..16).rev() {
            b.add_item(item(i));
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn multiplicity_matters() {
        let mut once = EnvFingerprintBuilder::new();
        once.add_item(item(3));
        let mut twice = EnvFingerprintBuilder::new();
        twice.add_item(item(3));
        twice.add_item(item(3));
        assert_ne!(once.finish(), twice.finish());
    }

    #[test]
    fn different_items_fingerprint_differently() {
        let mut a = EnvFingerprintBuilder::new();
        a.add_item(item(1));
        let mut b = EnvFingerprintBuilder::new();
        b.add_item(item(2));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn config_input_is_part_of_the_identity() {
        let mut a = EnvFingerprintBuilder::new();
        a.add_item(item(1));
        let mut b = a.clone();
        b.mix_config(|h| h.write_f64(1.0));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_renders_fixed_width_hex() {
        let fp = EnvFingerprintBuilder::new().finish();
        assert_eq!(fp.to_string().len(), 32);
    }
}
