//! Zero-mean intra-symbol shaping — the substrate of multipath cancellation.
//!
//! Digital symbols are DC-balanced by design (Fig 8 of the paper). We make
//! the balance explicit: each symbol `x` is transmitted as
//! [`SLOTS_PER_SYMBOL`] chips `+x, −x` (a Manchester-style split), so the
//! symbol integrates to zero over its own period.
//!
//! Any channel that is **static within the symbol** therefore contributes
//! `H_e·x − H_e·x = 0` to the plain intra-symbol sum. The metasurface,
//! switching faster than the symbol clock (2.56 MHz configurations vs
//! 1 Msym/s), flips its weight by π in the second chip, so its path
//! contributes `W·x + (−W)(−x) = 2·W·x` — the computation survives and the
//! environment cancels, with no channel estimation at all.
//!
//! Delay-spread bookkeeping: in this symbol-level simulator a cyclic-prefix
//! guard is assumed long enough that all environmental echoes of symbol `i`
//! land within symbol `i`'s integration window, which is how they fold into
//! a single per-symbol gain `H_e(i)` (see `metaai_rf::environment`).

use metaai_math::C64;

/// Chips per symbol. Two is the minimum that balances a symbol.
pub const SLOTS_PER_SYMBOL: usize = 2;

/// Chip polarity `p(s)`: `+1` on even slots, `−1` on odd slots. The mean
/// over a symbol period is zero.
pub fn polarity(slot: usize) -> f64 {
    if slot.is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// The transmitted chip for symbol value `x` in intra-symbol slot `slot`.
pub fn shape_chip(x: C64, slot: usize) -> C64 {
    x * polarity(slot)
}

/// The weight the metasurface must present during `slot` so that the MTS
/// path adds coherently under plain intra-symbol summation: the weight is
/// flipped in antiphase with the chip.
pub fn weight_chip(w: C64, slot: usize) -> C64 {
    w * polarity(slot)
}

/// Receiver combining across one symbol's chips: a plain sum. Static
/// in-symbol channels cancel; the polarity-flipped MTS path adds to
/// `SLOTS_PER_SYMBOL · W·x`.
pub fn combine(chips: &[C64]) -> C64 {
    chips.iter().copied().sum()
}

/// The coherent gain of the cancellation scheme: the MTS term is scaled by
/// this factor after combining.
pub fn coherent_gain() -> f64 {
    SLOTS_PER_SYMBOL as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chips_are_zero_mean() {
        let x = C64::new(0.7, -0.3);
        let total: C64 = (0..SLOTS_PER_SYMBOL).map(|s| shape_chip(x, s)).sum();
        assert!(total.abs() < 1e-12);
    }

    #[test]
    fn static_channel_cancels_exactly() {
        let x = C64::new(0.5, 0.25);
        let h_env = C64::new(-0.9, 0.4);
        let received: Vec<C64> = (0..SLOTS_PER_SYMBOL)
            .map(|s| h_env * shape_chip(x, s))
            .collect();
        assert!(combine(&received).abs() < 1e-12);
    }

    #[test]
    fn mts_path_survives_with_coherent_gain() {
        let x = C64::new(0.5, 0.25);
        let w = C64::new(0.3, -0.8);
        let received: Vec<C64> = (0..SLOTS_PER_SYMBOL)
            .map(|s| weight_chip(w, s) * shape_chip(x, s))
            .collect();
        let out = combine(&received);
        let expected = w * x * coherent_gain();
        assert!((out - expected).abs() < 1e-12);
    }

    #[test]
    fn combined_path_keeps_only_computation() {
        // Full scenario: env + MTS superposed on every chip.
        let x = C64::new(-0.4, 0.9);
        let w = C64::new(0.2, 0.7);
        let h_env = C64::new(1.1, -0.2);
        let received: Vec<C64> = (0..SLOTS_PER_SYMBOL)
            .map(|s| (h_env + weight_chip(w, s)) * shape_chip(x, s))
            .collect();
        let out = combine(&received);
        assert!((out - w * x * coherent_gain()).abs() < 1e-12);
    }

    #[test]
    fn dynamic_between_symbol_channel_still_cancels() {
        // The env gain may differ from symbol to symbol; within a symbol
        // it is constant, so each symbol cancels independently.
        let x = [C64::new(1.0, 0.0), C64::new(0.0, 1.0)];
        let h = [C64::new(0.5, 0.5), C64::new(-0.7, 0.1)];
        for (xi, hi) in x.iter().zip(&h) {
            let rx: Vec<C64> = (0..SLOTS_PER_SYMBOL)
                .map(|s| *hi * shape_chip(*xi, s))
                .collect();
            assert!(combine(&rx).abs() < 1e-12);
        }
    }

    #[test]
    fn polarity_alternates() {
        assert_eq!(polarity(0), 1.0);
        assert_eq!(polarity(1), -1.0);
        assert_eq!(polarity(2), 1.0);
    }
}
