//! Bit packing and unpacking, MSB-first.

/// Unpacks bytes into individual bits, most significant bit first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in (0..8).rev() {
            bits.push((b >> k) & 1);
        }
    }
    bits
}

/// Packs bits (values 0/1, MSB-first) into bytes. The bit count must be a
/// multiple of 8.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    assert!(
        bits.len().is_multiple_of(8),
        "bit count must be a multiple of 8"
    );
    bits.chunks(8)
        .map(|chunk| chunk.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1)))
        .collect()
}

/// Groups a bit stream into `width`-bit integers, MSB-first, zero-padding
/// the tail group.
pub fn group_bits(bits: &[u8], width: usize) -> Vec<u16> {
    assert!((1..=16).contains(&width), "group width must be 1..=16");
    bits.chunks(width)
        .map(|chunk| {
            let mut v: u16 = 0;
            for k in 0..width {
                let bit = chunk.get(k).copied().unwrap_or(0);
                v = (v << 1) | bit as u16;
            }
            v
        })
        .collect()
}

/// Ungroups `width`-bit integers back into a bit stream.
pub fn ungroup_bits(groups: &[u16], width: usize) -> Vec<u8> {
    assert!((1..=16).contains(&width), "group width must be 1..=16");
    let mut bits = Vec::with_capacity(groups.len() * width);
    for &g in groups {
        for k in (0..width).rev() {
            bits.push(((g >> k) & 1) as u8);
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let data = vec![0x00, 0xFF, 0xA5, 0x3C];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn msb_first_ordering() {
        assert_eq!(bytes_to_bits(&[0b1000_0001]), vec![1, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn grouping_round_trip_exact() {
        let bits = bytes_to_bits(&[0xDE, 0xAD, 0xBE, 0xEF]);
        for width in [1usize, 2, 4, 8] {
            let grouped = group_bits(&bits, width);
            assert_eq!(ungroup_bits(&grouped, width), bits, "width {width}");
        }
    }

    #[test]
    fn grouping_pads_tail_with_zeros() {
        let bits = [1u8, 1, 1];
        let grouped = group_bits(&bits, 2);
        assert_eq!(grouped, vec![0b11, 0b10]);
    }

    #[test]
    fn group_values_fit_width() {
        let bits = bytes_to_bits(&[0xFF, 0xFF]);
        for g in group_bits(&bits, 6) {
            assert!(g < 64);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn pack_rejects_ragged_input() {
        bits_to_bytes(&[1, 0, 1]);
    }
}
