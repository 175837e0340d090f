//! Seeded input generation: the benchmark's own generator (not the repo's
//! `rand` stand-in), so the same seed gives the same inputs on every commit.

/// SplitMix64.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one part of a workload.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        // The multiply-shift bias is below 2^-40 for the ranges used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rank sampler: zipf with exponent `theta` over `0..n` (rank 0 hottest),
/// or uniform when `theta` is 0.
pub struct Ranks {
    n: u64,
    /// Cumulative probabilities; empty for uniform.
    cdf: Vec<f64>,
}

impl Ranks {
    pub fn new(n: u64, theta: f64) -> Ranks {
        assert!(n > 0);
        let mut cdf = Vec::new();
        if theta > 0.0 {
            let mut sum = 0.0;
            cdf = (1..=n)
                .map(|r| {
                    sum += 1.0 / (r as f64).powf(theta);
                    sum
                })
                .collect();
            for c in &mut cdf {
                *c /= sum;
            }
        }
        Ranks { n, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.cdf.is_empty() {
            return rng.below(self.n);
        }
        let u = rng.unit_f64();
        (self.cdf.partition_point(|&c| c <= u) as u64).min(self.n - 1)
    }
}

pub const KEY_LEN: usize = 16;

pub fn key_bytes(id: u64) -> [u8; KEY_LEN] {
    let mut out = *b"key:000000000000";
    let mut rest = id;
    for slot in out[4..].iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out
}

/// Bytes at the front of a value that name the key and the write that
/// produced it; the rest is filler derived from them.
pub const VALUE_HEADER: usize = 16;

/// Fills `out` with the value for write number `version` of key `key`, so a
/// reader can tell from a value alone whether it is one the generator wrote.
pub fn fill_value(out: &mut [u8], key: u64, version: u64) {
    assert!(out.len() >= VALUE_HEADER);
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&version.to_le_bytes());
    let mut state = Rng::stream(key, version);
    for chunk in out[VALUE_HEADER..].chunks_mut(8) {
        let word = state.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Inverse of [`fill_value`]: `(key, version)` if `bytes` is a value the
/// generator could have written.
pub fn parse_value(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < VALUE_HEADER {
        return None;
    }
    let key = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    let version = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let mut expect = vec![0u8; bytes.len()];
    fill_value(&mut expect, key, version);
    (expect == bytes).then_some((key, version))
}

/// FNV-1a over the generated inputs; printed with every result so two runs
/// can be shown to have had the same inputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Appends one RESP command (an array of bulk strings) to `out`.
pub fn push_command(out: &mut Vec<u8>, parts: &[&[u8]]) {
    use std::io::Write as _;
    let _ = write!(out, "*{}\r\n", parts.len());
    for part in parts {
        let _ = write!(out, "${}\r\n", part.len());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::stream(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
    }

    #[test]
    fn zipf_is_skewed_and_in_range_uniform_is_not() {
        let mut rng = Rng::stream(1, 0);
        let zipf = Ranks::new(1000, 0.99);
        let draws: Vec<u64> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let hot = draws.iter().filter(|&&r| r < 10).count();
        assert!(hot > 5_000, "top 1% of ranks drew {hot} of 20000");
        let uniform = Ranks::new(1000, 0.0);
        let hot = (0..20_000)
            .filter(|_| uniform.sample(&mut rng) < 10)
            .count();
        assert!(hot < 400, "uniform drew {hot} of 20000 from the top 1%");
    }

    #[test]
    fn values_identify_their_write() {
        let mut v = [0u8; 128];
        fill_value(&mut v, 42, 7);
        assert_eq!(parse_value(&v), Some((42, 7)));
        v[100] ^= 1;
        assert_eq!(parse_value(&v), None);
        assert_eq!(&key_bytes(1234), b"key:000000001234");
    }

    #[test]
    fn commands_encode_as_resp_arrays() {
        let mut out = Vec::new();
        push_command(&mut out, &[b"GET", b"k"]);
        assert_eq!(out, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
    }
}
