//! DRAM fault model and injection.
//!
//! A rank of x8 devices transfers a 72-byte codeword (64 B data + 8 B
//! ECC field) in 8 beats; each beat carries one byte from each of the 9
//! chips. In Synergy/ITESP the ECC field holds the block's MAC. Chip
//! `c`'s contribution to the codeword is therefore byte `c` of every
//! beat — 8 bytes, or 8 pins x 8 beats of bits.
//!
//! Fault classes follow the field studies the paper cites [38], [39]:
//! single-bit upsets, single-pin (column) faults, and whole-chip faults
//! (the chipkill case).

use itesp_snap::Persist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Environment variable pinning every fault-campaign RNG to one seed —
/// the same knob the oracle's `with_seeds` replay machinery honors.
pub const SEED_ENV: &str = "ITESP_TEST_SEED";

/// The seed a fault campaign should use: the `ITESP_TEST_SEED` override
/// if set, otherwise `default`.
///
/// # Panics
/// Panics if the variable is set but not a `u64` (a silently ignored
/// typo would un-pin a replay).
pub fn env_seed(default: u64) -> u64 {
    match std::env::var(SEED_ENV) {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_ENV} not a u64: {s:?}")),
        Err(_) => default,
    }
}

/// Data chips in a x8 rank.
pub const DATA_CHIPS: usize = 8;
/// Total chips including the ECC chip.
pub const TOTAL_CHIPS: usize = 9;
/// Beats per burst.
pub const BEATS: usize = 8;

/// One 72-byte DRAM codeword: a data block plus its ECC-field contents
/// (the MAC, under Synergy/ITESP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeWord {
    pub data: [u8; 64],
    pub mac_field: [u8; 8],
}

impl CodeWord {
    pub fn new(data: [u8; 64], mac: u64) -> Self {
        CodeWord {
            data,
            mac_field: mac.to_le_bytes(),
        }
    }

    /// The MAC carried in the ECC field.
    pub fn mac(&self) -> u64 {
        u64::from_le_bytes(self.mac_field)
    }

    /// Byte contributed by chip `chip` on beat `beat`.
    ///
    /// # Panics
    /// Panics if `chip >= 9` or `beat >= 8`.
    pub fn chip_byte(&self, chip: usize, beat: usize) -> u8 {
        assert!(chip < TOTAL_CHIPS && beat < BEATS);
        if chip < DATA_CHIPS {
            self.data[beat * DATA_CHIPS + chip]
        } else {
            self.mac_field[beat]
        }
    }

    /// Set the byte contributed by chip `chip` on beat `beat`.
    pub fn set_chip_byte(&mut self, chip: usize, beat: usize, v: u8) {
        assert!(chip < TOTAL_CHIPS && beat < BEATS);
        if chip < DATA_CHIPS {
            self.data[beat * DATA_CHIPS + chip] = v;
        } else {
            self.mac_field[beat] = v;
        }
    }
}

/// A hardware fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Persist)]
pub enum Fault {
    /// Single bit flip: chip, beat, pin.
    Bit { chip: u8, beat: u8, pin: u8 },
    /// A stuck pin: flips that pin's bit on every beat.
    Pin { chip: u8, pin: u8 },
    /// Whole-chip failure: all 64 bits from the chip are corrupted.
    Chip { chip: u8 },
}

/// A placeholder that snapshot decoding overwrites (maps of faults
/// build each value from `Default` before loading it).
impl Default for Fault {
    fn default() -> Self {
        Fault::Chip { chip: 0 }
    }
}

impl Fault {
    /// The chip this fault lives on.
    pub fn chip(&self) -> usize {
        match *self {
            Fault::Bit { chip, .. } | Fault::Pin { chip, .. } | Fault::Chip { chip } => {
                chip as usize
            }
        }
    }

    /// Sample a random fault of a random class on a random chip.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        match rng.gen_range(0..3) {
            0 => Fault::Bit {
                chip: rng.gen_range(0..TOTAL_CHIPS as u8),
                beat: rng.gen_range(0..BEATS as u8),
                pin: rng.gen_range(0..8),
            },
            1 => Fault::Pin {
                chip: rng.gen_range(0..TOTAL_CHIPS as u8),
                pin: rng.gen_range(0..8),
            },
            _ => Fault::Chip {
                chip: rng.gen_range(0..TOTAL_CHIPS as u8),
            },
        }
    }
}

/// A seeded, replayable stream of random faults — the single RNG front
/// door for every fault campaign (runtime RAS pipeline and oracle
/// alike), so `ITESP_TEST_SEED` pins them all to the same sequence.
#[derive(Debug, Clone)]
pub struct FaultStream {
    seed: u64,
    rng: StdRng,
}

impl FaultStream {
    /// A stream drawing from exactly `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultStream {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A stream seeded from [`env_seed`]: the `ITESP_TEST_SEED`
    /// override if set, otherwise `default`.
    pub fn from_env(default: u64) -> Self {
        Self::seeded(env_seed(default))
    }

    /// The seed this stream was built from (for replay lines).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw the next fault.
    pub fn next_fault(&mut self) -> Fault {
        Fault::random(&mut self.rng)
    }

    /// The underlying RNG, for injection garbage and auxiliary draws
    /// that must stay on the replayable sequence.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

impl Iterator for FaultStream {
    type Item = Fault;

    fn next(&mut self) -> Option<Fault> {
        Some(self.next_fault())
    }
}

/// Apply `fault` to a codeword. Chip faults draw replacement garbage
/// from `rng` (guaranteed to differ in at least one bit).
pub fn inject<R: Rng>(word: &mut CodeWord, fault: Fault, rng: &mut R) {
    match fault {
        Fault::Bit { chip, beat, pin } => {
            let b = word.chip_byte(chip as usize, beat as usize) ^ (1 << pin);
            word.set_chip_byte(chip as usize, beat as usize, b);
        }
        Fault::Pin { chip, pin } => {
            for beat in 0..BEATS {
                let b = word.chip_byte(chip as usize, beat) ^ (1 << pin);
                word.set_chip_byte(chip as usize, beat, b);
            }
        }
        Fault::Chip { chip } => {
            let mut changed = false;
            for beat in 0..BEATS {
                let old = word.chip_byte(chip as usize, beat);
                let new: u8 = rng.gen();
                changed |= new != old;
                word.set_chip_byte(chip as usize, beat, new);
            }
            if !changed {
                // Force at least one flipped bit so the fault is real.
                let b = word.chip_byte(chip as usize, 0) ^ 1;
                word.set_chip_byte(chip as usize, 0, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn word() -> CodeWord {
        let mut data = [0u8; 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        CodeWord::new(data, 0xDEAD_BEEF_CAFE_F00D)
    }

    #[test]
    fn chip_byte_layout_round_trips() {
        let mut w = word();
        for chip in 0..TOTAL_CHIPS {
            for beat in 0..BEATS {
                let v = w.chip_byte(chip, beat);
                w.set_chip_byte(chip, beat, v ^ 0xFF);
                assert_eq!(w.chip_byte(chip, beat), v ^ 0xFF);
                w.set_chip_byte(chip, beat, v);
            }
        }
        assert_eq!(w, word());
    }

    #[test]
    fn data_chips_cover_all_64_bytes_disjointly() {
        let mut w = word();
        for chip in 0..DATA_CHIPS {
            for beat in 0..BEATS {
                w.set_chip_byte(chip, beat, 0xAA);
            }
        }
        assert_eq!(w.data, [0xAA; 64]);
        assert_eq!(w.mac(), 0xDEAD_BEEF_CAFE_F00D, "ECC chip untouched");
    }

    #[test]
    fn bit_fault_flips_exactly_one_bit() {
        let mut w = word();
        let mut rng = StdRng::seed_from_u64(0);
        inject(
            &mut w,
            Fault::Bit {
                chip: 3,
                beat: 2,
                pin: 5,
            },
            &mut rng,
        );
        let orig = word();
        let diff: u32 = w
            .data
            .iter()
            .zip(orig.data.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn pin_fault_flips_one_bit_per_beat() {
        let mut w = word();
        let mut rng = StdRng::seed_from_u64(0);
        inject(&mut w, Fault::Pin { chip: 0, pin: 1 }, &mut rng);
        let orig = word();
        for beat in 0..BEATS {
            let delta = w.chip_byte(0, beat) ^ orig.chip_byte(0, beat);
            assert_eq!(delta, 0b10);
        }
    }

    #[test]
    fn chip_fault_confined_to_one_chip() {
        let mut w = word();
        let mut rng = StdRng::seed_from_u64(1);
        inject(&mut w, Fault::Chip { chip: 4 }, &mut rng);
        let orig = word();
        let mut changed_chips = std::collections::HashSet::new();
        for chip in 0..TOTAL_CHIPS {
            for beat in 0..BEATS {
                if w.chip_byte(chip, beat) != orig.chip_byte(chip, beat) {
                    changed_chips.insert(chip);
                }
            }
        }
        assert_eq!(changed_chips.len(), 1);
        assert!(changed_chips.contains(&4));
    }

    #[test]
    fn ecc_chip_fault_corrupts_mac_only() {
        let mut w = word();
        let mut rng = StdRng::seed_from_u64(2);
        inject(&mut w, Fault::Chip { chip: 8 }, &mut rng);
        assert_eq!(w.data, word().data);
        assert_ne!(w.mac(), word().mac());
    }

    #[test]
    fn random_faults_are_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let f = Fault::random(&mut rng);
            assert!(f.chip() < TOTAL_CHIPS);
            let mut w = word();
            inject(&mut w, f, &mut rng);
            assert_ne!(w, word(), "fault {f:?} changed nothing");
        }
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let a: Vec<Fault> = FaultStream::seeded(42).take(64).collect();
        let b: Vec<Fault> = FaultStream::seeded(42).take(64).collect();
        assert_eq!(a, b, "same seed must replay the same faults");
        let c: Vec<Fault> = FaultStream::seeded(43).take(64).collect();
        assert_ne!(a, c, "different seeds must diverge");
        assert_eq!(FaultStream::seeded(42).seed(), 42);
    }

    #[test]
    fn fault_stream_matches_bare_rng_draws() {
        // The stream is exactly `Fault::random` over a seeded StdRng, so
        // pre-stream campaigns that drew directly replay identically.
        let mut rng = StdRng::seed_from_u64(7);
        let direct: Vec<Fault> = (0..32).map(|_| Fault::random(&mut rng)).collect();
        let streamed: Vec<Fault> = FaultStream::seeded(7).take(32).collect();
        assert_eq!(direct, streamed);
    }
}
