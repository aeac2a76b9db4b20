//! XOR-based (pseudo-random) cache-set placement.
//!
//! §II-A of the paper: *"We interleave the L2 cache sets using a simple
//! mapping scheme based on irreducible polynomials suggested in [Rau'91,
//! González'97]. This scheme eliminates pathological behaviour where a
//! particular strided memory access uses the same cache set for all its
//! requests."*
//!
//! The implementation follows Rau's formulation: the line address, viewed as
//! a polynomial over GF(2), is reduced modulo an irreducible polynomial of
//! degree `h = log2(sets)`; the residue is the set index. Strides that are
//! powers of two then spread over all sets instead of aliasing onto one.

/// Irreducible polynomials over GF(2) by degree (index = degree, 1..=16).
/// Entry `d` encodes the polynomial's coefficient bits including the leading
/// `x^d` term.
const POLYS: [u64; 17] = [
    0,                       // degree 0 unused
    0b11,                    // x + 1
    0b111,                   // x^2 + x + 1
    0b1011,                  // x^3 + x + 1
    0b1_0011,                // x^4 + x + 1
    0b10_0101,               // x^5 + x^2 + 1
    0b100_0011,              // x^6 + x + 1
    0b1000_0011,             // x^7 + x + 1
    0b1_0001_1101,           // x^8 + x^4 + x^3 + x^2 + 1
    0b10_0001_0001,          // x^9 + x^4 + 1
    0b100_0000_1001,         // x^10 + x^3 + 1
    0b1000_0000_0101,        // x^11 + x^2 + 1
    0b1_0000_0101_0011,      // x^12 + x^6 + x^4 + x + 1
    0b10_0000_0001_1011,     // x^13 + x^4 + x^3 + x + 1
    0b100_0000_0100_0011,    // x^14 + x^6 + x + 1 (x^14+x^10+x^6+x+1 variant ok)
    0b1000_0000_0000_0011,   // x^15 + x + 1
    0b1_0000_0000_0010_1101, // x^16 + x^5 + x^3 + x^2 + 1
];

/// Reduces `line_addr` (as a GF(2) polynomial) modulo the degree-`h`
/// irreducible polynomial, producing a set index in `[0, 2^h)`.
pub fn poly_mod_index(line_addr: u64, sets: u64) -> u64 {
    debug_assert!(sets.is_power_of_two());
    let h = sets.trailing_zeros() as u64;
    if h == 0 {
        return 0;
    }
    assert!(h <= 16, "no polynomial tabulated for degree {h}");
    let poly = POLYS[h as usize];
    let mut a = line_addr;
    // Cancel the set bits from the top down to degree h.
    while a >> h != 0 {
        let bit = 63 - a.leading_zeros() as u64;
        a ^= poly << (bit - h);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The reduction one bit position at a time, zero bits included, as
    /// it was before `poly_mod_index` jumped from set bit to set bit.
    fn poly_mod_index_bit_by_bit(line_addr: u64, sets: u64) -> u64 {
        let h = sets.trailing_zeros() as u64;
        if h == 0 {
            return 0;
        }
        let poly = POLYS[h as usize];
        let mut a = line_addr;
        let mut bit = 63;
        while bit >= h {
            if (a >> bit) & 1 == 1 {
                a ^= poly << (bit - h);
            }
            if bit == 0 {
                break;
            }
            bit -= 1;
        }
        a & (sets - 1)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        #[test]
        fn jumping_between_set_bits_reduces_to_the_same_index(
            addr in proptest::any::<u64>(),
            shift in 0u32..64,
            degree in 0u32..17,
        ) {
            // Shifted down so that short addresses, where the reduction
            // stops early, are as common as full-width ones.
            let (addr, sets) = (addr >> shift, 1u64 << degree);
            proptest::prop_assert_eq!(
                poly_mod_index(addr, sets),
                poly_mod_index_bit_by_bit(addr, sets)
            );
        }
    }

    #[test]
    fn index_is_in_range() {
        for sets in [2u64, 8, 64, 512, 4096] {
            for a in 0..10_000u64 {
                assert!(poly_mod_index(a * 37 + 5, sets) < sets);
            }
        }
    }

    #[test]
    fn sequential_lines_cover_all_sets() {
        let sets = 512;
        let seen: HashSet<u64> = (0..sets).map(|a| poly_mod_index(a, sets)).collect();
        assert_eq!(seen.len(), sets as usize);
    }

    #[test]
    fn power_of_two_stride_no_longer_aliases() {
        // The pathological case the paper cites: stride = sets × line.
        // Modulo placement maps everything to set 0; XOR placement spreads.
        let sets = 512u64;
        let stride_lines = sets; // stride of 512 lines
        let idxs: HashSet<u64> = (0..64u64)
            .map(|i| poly_mod_index(i * stride_lines, sets))
            .collect();
        assert!(
            idxs.len() >= 32,
            "XOR placement left {} distinct sets only",
            idxs.len()
        );
        // Sanity: plain modulo placement collapses to exactly one set.
        let naive: HashSet<u64> = (0..64u64).map(|i| (i * stride_lines) % sets).collect();
        assert_eq!(naive.len(), 1);
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let sets = 64u64;
        let mut counts = vec![0usize; sets as usize];
        for a in 0..64_000u64 {
            counts[poly_mod_index(a, sets) as usize] += 1;
        }
        let (min, max) = (
            counts.iter().min().copied().unwrap(),
            counts.iter().max().copied().unwrap(),
        );
        assert!(max - min <= max / 4, "imbalanced: min {min}, max {max}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            poly_mod_index(0xDEAD_BEEF, 512),
            poly_mod_index(0xDEAD_BEEF, 512)
        );
    }

    #[test]
    fn single_set_degenerates_to_zero() {
        assert_eq!(poly_mod_index(12345, 1), 0);
    }

    #[test]
    fn identity_below_degree() {
        // Addresses smaller than 2^h reduce to themselves.
        for a in 0..512u64 {
            assert_eq!(poly_mod_index(a, 512), a);
        }
    }
}
