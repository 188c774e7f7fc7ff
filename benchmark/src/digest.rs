//! A structural checksum of decoded host values: every run's result is
//! reduced to one `u64` that must equal the value an independent route
//! (the reference interpreter, the in-process twin, the first run)
//! produced. FNV-1a over a tagged, length-prefixed walk, so `[[1],[2]]`
//! and `[[1,2]]` differ.

pub struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

pub trait Digest {
    fn feed(&self, h: &mut Fnv);

    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.feed(&mut h);
        h.0
    }
}

impl Digest for i64 {
    fn feed(&self, h: &mut Fnv) {
        h.bytes(b"i");
        h.u64(*self as u64);
    }
}

impl Digest for f64 {
    fn feed(&self, h: &mut Fnv) {
        h.bytes(b"d");
        h.u64(self.to_bits());
    }
}

impl Digest for String {
    fn feed(&self, h: &mut Fnv) {
        h.bytes(b"s");
        h.u64(self.len() as u64);
        h.bytes(self.as_bytes());
    }
}

impl<T: Digest> Digest for Vec<T> {
    fn feed(&self, h: &mut Fnv) {
        h.bytes(b"[");
        h.u64(self.len() as u64);
        for x in self {
            x.feed(h);
        }
    }
}

impl<A: Digest, B: Digest> Digest for (A, B) {
    fn feed(&self, h: &mut Fnv) {
        h.bytes(b"(");
        self.0.feed(h);
        self.1.feed(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_part_of_the_checksum() {
        let a: Vec<Vec<i64>> = vec![vec![1], vec![2]];
        let b: Vec<Vec<i64>> = vec![vec![1, 2]];
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(
            ("ab".to_string(), "c".to_string()).digest(),
            ("a".to_string(), "bc".to_string()).digest()
        );
    }
}
