//! MAC-guided chipkill correction (Sections II-C and III-C/G).
//!
//! Detection: the MAC (carried in the ECC field) is checked on every
//! read; any corruption makes it mismatch with overwhelming probability.
//!
//! Correction: a 64-bit parity word captures, for each (pin, beat)
//! position, the XOR across all chips of the rank. When an error is
//! detected, the controller *tries* each chip in turn — reconstructing
//! that chip's bits from the parity and the other chips — and accepts
//! the candidate whose MAC matches ("the correction procedure walks
//! through every failure possibility until the corrected block has a
//! matching MAC").
//!
//! With **shared parity**, one parity word covers N blocks in different
//! ranks; correcting block i first subtracts the other N-1 blocks'
//! column parities out of the shared word, which is only valid if they
//! are error-free — the reliability trade-off quantified in Table II.

use serde::{Deserialize, Serialize};

use itesp_core::mac::{mac_block, MacKey};

use crate::inject::{CodeWord, BEATS, TOTAL_CHIPS};

/// Compute the 64-bit column parity of a codeword: bit `beat*8 + pin`
/// is the XOR across all 9 chips of that pin on that beat.
pub fn column_parity(word: &CodeWord) -> u64 {
    let mut parity = 0u64;
    for beat in 0..BEATS {
        let mut acc = 0u8;
        for chip in 0..TOTAL_CHIPS {
            acc ^= word.chip_byte(chip, beat);
        }
        parity |= u64::from(acc) << (beat * 8);
    }
    parity
}

/// XOR-combine per-block column parities into one shared parity word.
pub fn shared_parity<'a>(words: impl IntoIterator<Item = &'a CodeWord>) -> u64 {
    words.into_iter().map(column_parity).fold(0, |a, b| a ^ b)
}

/// Outcome of a correction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Correction {
    /// No error was present (MAC matched as read).
    Clean,
    /// Corrected; the failed chip was identified.
    Corrected { chip: u8, mac_trials: u8 },
    /// More than one candidate produced a matching MAC (Table II
    /// Case 3): detected but uncorrectable.
    Ambiguous,
    /// No candidate matched (Table II Case 4): detected, uncorrectable.
    Uncorrectable,
}

/// Verify-and-correct one codeword against its expected MAC inputs.
///
/// `parity` must be the column parity covering exactly this codeword
/// (for shared parity, subtract the sharing blocks first — see
/// [`correct_shared`]).
pub fn verify_and_correct(
    word: &CodeWord,
    parity: u64,
    key: &MacKey,
    counter: u64,
    addr: u64,
) -> (Correction, CodeWord) {
    // Fast path: MAC matches as read.
    if mac_block(key, &word.data, counter, addr) == word.mac() {
        return (Correction::Clean, *word);
    }

    // Trial-correct every chip hypothesis: nine reconstructions, one
    // MAC each — the paper's correction cost.
    let mut matches: Vec<(u8, CodeWord)> = Vec::new();
    for chip in 0..TOTAL_CHIPS as u8 {
        let candidate = reconstruct(word, parity, chip as usize);
        if mac_block(key, &candidate.data, counter, addr) == candidate.mac() {
            matches.push((chip, candidate));
        }
    }
    match matches.len() {
        0 => (Correction::Uncorrectable, *word),
        1 => {
            let (chip, fixed) = matches.remove(0);
            (
                Correction::Corrected {
                    chip,
                    mac_trials: TOTAL_CHIPS as u8,
                },
                fixed,
            )
        }
        _ => (Correction::Ambiguous, *word),
    }
}

/// Rebuild `word` under the hypothesis that `failed_chip` is bad: its
/// bytes are recomputed from the parity and the other chips.
pub fn reconstruct(word: &CodeWord, parity: u64, failed_chip: usize) -> CodeWord {
    let mut fixed = *word;
    for beat in 0..BEATS {
        let pbyte = ((parity >> (beat * 8)) & 0xFF) as u8;
        let mut others = 0u8;
        for chip in 0..TOTAL_CHIPS {
            if chip != failed_chip {
                others ^= word.chip_byte(chip, beat);
            }
        }
        fixed.set_chip_byte(failed_chip, beat, pbyte ^ others);
    }
    fixed
}

/// Correct a block protected by *shared* parity: `shared` covers
/// `companions` plus the target. The companions are read from their
/// ranks and assumed error-free; their column parities are subtracted
/// to recover the target's own parity.
pub fn correct_shared(
    word: &CodeWord,
    shared: u64,
    companions: &[CodeWord],
    key: &MacKey,
    counter: u64,
    addr: u64,
) -> (Correction, CodeWord) {
    let own_parity = companions
        .iter()
        .map(column_parity)
        .fold(shared, |a, b| a ^ b);
    verify_and_correct(word, own_parity, key, counter, addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{inject, Fault};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (CodeWord, u64, MacKey, u64, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = MacKey::derive(1, 0);
        let counter = rng.gen_range(1..1 << 20);
        let addr = rng.gen_range(0..1u64 << 36) & !63;
        let mut data = [0u8; 64];
        rng.fill(&mut data[..]);
        let mac = mac_block(&key, &data, counter, addr);
        let word = CodeWord::new(data, mac);
        let parity = column_parity(&word);
        (word, parity, key, counter, addr)
    }

    #[test]
    fn clean_word_verifies_without_trials() {
        let (word, parity, key, counter, addr) = setup(0);
        let (res, out) = verify_and_correct(&word, parity, &key, counter, addr);
        assert_eq!(res, Correction::Clean);
        assert_eq!(out, word);
    }

    #[test]
    fn single_chip_failure_is_corrected() {
        for chip in 0..TOTAL_CHIPS as u8 {
            let (word, parity, key, counter, addr) = setup(u64::from(chip) + 10);
            let mut bad = word;
            let mut rng = StdRng::seed_from_u64(99);
            inject(&mut bad, Fault::Chip { chip }, &mut rng);
            let (res, fixed) = verify_and_correct(&bad, parity, &key, counter, addr);
            match res {
                Correction::Corrected {
                    chip: c,
                    mac_trials,
                } => {
                    assert_eq!(c, chip);
                    assert_eq!(mac_trials, 9, "paper: 9 MACs computed during correction");
                }
                other => panic!("chip {chip}: expected correction, got {other:?}"),
            }
            assert_eq!(fixed, word, "reconstruction must restore the word");
        }
    }

    #[test]
    fn pin_and_bit_faults_are_corrected_too() {
        let (word, parity, key, counter, addr) = setup(42);
        let mut rng = StdRng::seed_from_u64(7);
        for fault in [
            Fault::Pin { chip: 2, pin: 3 },
            Fault::Bit {
                chip: 6,
                beat: 1,
                pin: 0,
            },
        ] {
            let mut bad = word;
            inject(&mut bad, fault, &mut rng);
            let (res, fixed) = verify_and_correct(&bad, parity, &key, counter, addr);
            assert!(
                matches!(res, Correction::Corrected { .. }),
                "{fault:?}: {res:?}"
            );
            assert_eq!(fixed, word);
        }
    }

    #[test]
    fn double_chip_failure_is_detected_not_corrected() {
        let (word, parity, key, counter, addr) = setup(5);
        let mut bad = word;
        let mut rng = StdRng::seed_from_u64(13);
        inject(&mut bad, Fault::Chip { chip: 1 }, &mut rng);
        inject(&mut bad, Fault::Chip { chip: 5 }, &mut rng);
        let (res, _) = verify_and_correct(&bad, parity, &key, counter, addr);
        assert_eq!(res, Correction::Uncorrectable, "Table II Case 4");
    }

    #[test]
    fn shared_parity_corrects_with_clean_companions() {
        let (word, _, key, counter, addr) = setup(77);
        // Three companion blocks in other ranks.
        let mut rng = StdRng::seed_from_u64(21);
        let companions: Vec<CodeWord> = (0..3)
            .map(|_| {
                let mut d = [0u8; 64];
                rng.fill(&mut d[..]);
                CodeWord::new(d, rng.gen())
            })
            .collect();
        let shared = shared_parity(companions.iter().chain(std::iter::once(&word)));
        let mut bad = word;
        inject(&mut bad, Fault::Chip { chip: 3 }, &mut rng);
        let (res, fixed) = correct_shared(&bad, shared, &companions, &key, counter, addr);
        assert!(
            matches!(res, Correction::Corrected { chip: 3, .. }),
            "{res:?}"
        );
        assert_eq!(fixed, word);
    }

    #[test]
    fn shared_parity_fails_when_a_companion_is_also_corrupt() {
        // The Table II Case 4 regression ITESP accepts: concurrent
        // errors in two *different ranks* sharing a parity.
        let (word, _, key, counter, addr) = setup(78);
        let mut rng = StdRng::seed_from_u64(22);
        let mut companions: Vec<CodeWord> = (0..3)
            .map(|_| {
                let mut d = [0u8; 64];
                rng.fill(&mut d[..]);
                CodeWord::new(d, rng.gen())
            })
            .collect();
        let shared = shared_parity(companions.iter().chain(std::iter::once(&word)));
        let mut bad = word;
        inject(&mut bad, Fault::Chip { chip: 3 }, &mut rng);
        // A companion in another rank fails concurrently.
        inject(&mut companions[1], Fault::Chip { chip: 0 }, &mut rng);
        let (res, _) = correct_shared(&bad, shared, &companions, &key, counter, addr);
        assert_eq!(res, Correction::Uncorrectable);
    }

    #[test]
    fn parity_is_linear_under_xor() {
        let (a, _, _, _, _) = setup(1);
        let (b, _, _, _, _) = setup(2);
        assert_eq!(
            column_parity(&a) ^ column_parity(&b),
            shared_parity([&a, &b])
        );
    }

    #[test]
    fn reconstruct_is_identity_on_clean_words() {
        let (word, parity, _, _, _) = setup(3);
        for chip in 0..TOTAL_CHIPS {
            assert_eq!(reconstruct(&word, parity, chip), word);
        }
    }

    #[test]
    fn monte_carlo_single_faults_always_recover() {
        let mut rng = StdRng::seed_from_u64(1000);
        let mut corrected = 0;
        for i in 0..200 {
            let (word, parity, key, counter, addr) = setup(2000 + i);
            let mut bad = word;
            inject(&mut bad, Fault::random(&mut rng), &mut rng);
            let (res, fixed) = verify_and_correct(&bad, parity, &key, counter, addr);
            if matches!(res, Correction::Corrected { .. }) {
                assert_eq!(fixed, word);
                corrected += 1;
            }
        }
        assert_eq!(corrected, 200, "every single-chip-confined fault recovers");
    }
}
