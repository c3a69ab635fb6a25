//! Bit-exact fingerprints of numeric outputs.

/// FNV-1a over the bit patterns of `data`: equal only when every value
/// is bit-identical, so a one-ulp drift in any element shows.
pub fn digest_f32(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_ulp_anywhere_changes_the_digest() {
        let base: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        let d0 = digest_f32(&base);
        assert_eq!(d0, digest_f32(&base.clone()));
        for at in [0, 499, 999] {
            let mut bumped = base.clone();
            bumped[at] = f32::from_bits(bumped[at].to_bits() + 1);
            assert_ne!(digest_f32(&bumped), d0, "ulp at {at} went unseen");
        }
    }

    #[test]
    fn signed_zero_and_order_are_distinguished() {
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
        assert_ne!(digest_f32(&[1.0, 2.0]), digest_f32(&[2.0, 1.0]));
    }
}
