//! The irregular-DLP instructions: **VPI**, **VLU** (from VSR sort, HPCA
//! 2015 — paper §V-A) and the paper's novel **VGAx** family (§V-B).
//!
//! All five instructions are register-to-register ("self-contained
//! non-memory instructions"), so GMS conflicts are resolved deterministically
//! *before* any memory access — the key difference from scatter-add and
//! AVX-512-CDI discussed in §VI-B.

use crate::cam::Cam;
use crate::exec::RedOp;

/// Result of a CAM-class instruction: the output operand plus the cycle
/// count the CAM model charged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CamResult<T> {
    /// The architectural result.
    pub value: T,
    /// Occupancy of the CAM functional unit in cycles.
    pub cycles: u64,
}

/// `VPI` — Vector Prior Instances (Figure 10a).
///
/// `out[i]` = how many earlier elements of `keys[..i]` equal `keys[i]`.
pub fn vpi(keys: &[u64], vl: usize, ports: usize) -> CamResult<Vec<u64>> {
    let mut value = vec![0; keys.len()];
    let cycles = vpi_on(&mut Cam::new(keys.len(), ports), keys, vl, &mut value);
    CamResult { value, cycles }
}

/// [`vpi`] on a CAM the caller keeps (a machine has one, not one per
/// instruction), into `out`: elements from `vl` on are zeroed, as in
/// [`vpi`]'s value. Returns the cycles.
pub fn vpi_on(cam: &mut Cam, keys: &[u64], vl: usize, out: &mut [u64]) -> u64 {
    out[vl..].fill(0);
    cam.pass(keys, vl, |prev, i| {
        out[i] = prev.map_or(0, |c| c + 1);
        out[i]
    });
    cam.cycles()
}

/// `VLU` — Vector Last Unique (Figure 10b).
///
/// Output mask bit `i` is set iff `keys[i]` does not occur again in
/// `keys[i+1..vl]`.
pub fn vlu(keys: &[u64], vl: usize, ports: usize) -> CamResult<Vec<bool>> {
    let mut value = vec![false; keys.len()];
    let cycles = vlu_on(&mut Cam::new(keys.len(), ports), keys, vl, &mut value);
    CamResult { value, cycles }
}

/// [`vlu`] on a CAM the caller keeps, into `out` (every bit is written).
/// Returns the cycles.
pub fn vlu_on(cam: &mut Cam, keys: &[u64], vl: usize, out: &mut [bool]) -> u64 {
    cam.pass(keys, vl, |prev, _| prev.map_or(0, |c| c + 1));
    cam.last_unique_mask_into(out);
    cam.cycles()
}

/// `VGAx` — Vector Group Aggregate (Figures 13/14).
///
/// For each element, the accumulator of the element's group (identified by
/// `keys[i]`) is combined with `values[i]`, and the output takes the
/// accumulator *after* the update (inclusive running aggregate) — the
/// documented difference from VPI, whose output precedes the increment.
pub fn vga(
    op: RedOp,
    keys: &[u64],
    values: &[u64],
    vl: usize,
    ports: usize,
) -> CamResult<Vec<u64>> {
    let mut value = vec![0; keys.len()];
    let mut cam = Cam::new(keys.len(), ports);
    let cycles = vga_on(&mut cam, op, keys, values, vl, &mut value);
    CamResult { value, cycles }
}

/// [`vga`] on a CAM the caller keeps, into `out`: elements from `vl` on
/// are zeroed, as in [`vga`]'s value. Returns the cycles.
pub fn vga_on(
    cam: &mut Cam,
    op: RedOp,
    keys: &[u64],
    values: &[u64],
    vl: usize,
    out: &mut [u64],
) -> u64 {
    assert!(values.len() >= vl, "value operand shorter than VL");
    out[vl..].fill(0);
    cam.pass(keys, vl, |prev, i| {
        out[i] = match prev {
            Some(acc) => op.fold(acc, values[i]),
            None => values[i],
        };
        out[i]
    });
    cam.cycles()
}

/// `VGAsum` (Figure 13).
pub fn vga_sum(keys: &[u64], values: &[u64], vl: usize, ports: usize) -> CamResult<Vec<u64>> {
    vga(RedOp::Sum, keys, values, vl, ports)
}

/// `VGAmin`.
pub fn vga_min(keys: &[u64], values: &[u64], vl: usize, ports: usize) -> CamResult<Vec<u64>> {
    vga(RedOp::Min, keys, values, vl, ports)
}

/// `VGAmax`.
pub fn vga_max(keys: &[u64], values: &[u64], vl: usize, ports: usize) -> CamResult<Vec<u64>> {
    vga(RedOp::Max, keys, values, vl, ports)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The exact vectors from the paper's figures.
    const FIG10_KEYS: [u64; 8] = [7, 5, 5, 5, 11, 9, 9, 11];

    #[test]
    fn vpi_matches_figure_10a() {
        let r = vpi(&FIG10_KEYS, 8, 4);
        assert_eq!(r.value, vec![0, 0, 1, 2, 0, 0, 1, 1]);
    }

    #[test]
    fn vlu_matches_figure_10b() {
        let r = vlu(&FIG10_KEYS, 8, 4);
        assert_eq!(
            r.value,
            vec![true, false, false, true, false, false, true, true]
        );
    }

    #[test]
    fn vga_sum_matches_figure_13() {
        // Figure 13: ing = 7 5 5 5 11 9 9 11, inv = 6 3 4 9 15 2 3 4
        // out = 6 3 7 16 15 2 5 19.
        let values = [6u64, 3, 4, 9, 15, 2, 3, 4];
        let r = vga_sum(&FIG10_KEYS, &values, 8, 4);
        assert_eq!(r.value, vec![6, 3, 7, 16, 15, 2, 5, 19]);
    }

    #[test]
    fn vga_output_is_post_update_unlike_vpi() {
        // With all-ones values, VGAsum equals VPI + 1 on every element.
        let ones = [1u64; 8];
        let s = vga_sum(&FIG10_KEYS, &ones, 8, 4);
        let p = vpi(&FIG10_KEYS, 8, 4);
        for i in 0..8 {
            assert_eq!(s.value[i], p.value[i] + 1, "element {i}");
        }
    }

    #[test]
    fn vga_min_and_max_running_semantics() {
        let keys = [1u64, 1, 1, 2, 2];
        let vals = [5u64, 3, 9, 4, 6];
        assert_eq!(vga_min(&keys, &vals, 5, 4).value, vec![5, 3, 3, 4, 4]);
        assert_eq!(vga_max(&keys, &vals, 5, 4).value, vec![5, 5, 9, 4, 6]);
    }

    #[test]
    fn vpi_naive_equivalence() {
        // O(VL²) reference.
        let keys = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 1];
        let r = vpi(&keys, keys.len(), 4);
        for i in 0..keys.len() {
            let expect = keys[..i].iter().filter(|&&k| k == keys[i]).count() as u64;
            assert_eq!(r.value[i], expect, "element {i}");
        }
    }

    #[test]
    fn vlu_naive_equivalence() {
        let keys = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 1];
        let r = vlu(&keys, keys.len(), 4);
        for i in 0..keys.len() {
            let expect = !keys[i + 1..].contains(&keys[i]);
            assert_eq!(r.value[i], expect, "element {i}");
        }
    }

    #[test]
    fn vl_limits_the_scan() {
        let r = vpi(&FIG10_KEYS, 4, 4);
        assert_eq!(&r.value[..4], &[0, 0, 1, 2]);
        assert_eq!(&r.value[4..], &[0, 0, 0, 0]); // untouched
                                                  // VLU over the truncated window: last instances within [0, 4).
        let l = vlu(&FIG10_KEYS, 4, 4);
        assert_eq!(l.value[..4], [true, false, false, true]);
    }

    #[test]
    fn sorted_input_costs_more_cycles_than_distinct() {
        let sorted = [4u64, 4, 4, 4, 4, 4, 4, 4];
        let distinct = [0u64, 1, 2, 3, 4, 5, 6, 7];
        let cs = vpi(&sorted, 8, 4).cycles;
        let cd = vpi(&distinct, 8, 4).cycles;
        assert!(cs > cd, "sorted {cs} should exceed distinct {cd}");
        assert_eq!(cs, 16);
        assert_eq!(cd, 4);
    }

    #[test]
    #[should_panic(expected = "shorter than VL")]
    fn vga_checks_value_length() {
        vga_sum(&FIG10_KEYS, &[1, 2], 8, 4);
    }
}
