//! Per-event result digests.
//!
//! One FNV-1a hash per event over its index, opcode, point and visible
//! results: the session fingerprint for an open or update, the rendered
//! terms of the page for a completion. The trace digest XOR-folds them, the
//! same fold `insynth-trace replay` reports, so a digest printed here can be
//! compared with that tool's. Keeping the per-event values lets a server
//! pass be checked against a library pass event by event.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub struct EventDigest(u64);

impl EventDigest {
    pub fn new(index: usize, op: char, point: u32) -> EventDigest {
        let mut d = EventDigest(FNV_OFFSET);
        d.bytes(&(index as u64).to_le_bytes());
        d.bytes(&[op as u8]);
        d.bytes(&point.to_le_bytes());
        d
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The order-insensitive trace digest of per-event digests.
pub fn fold(events: &[u64]) -> u64 {
    events.iter().fold(0, |acc, d| acc ^ d)
}
