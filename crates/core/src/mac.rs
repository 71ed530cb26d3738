//! Keyed message authentication codes.
//!
//! Every data block carries a 64-bit MAC computed over the block's
//! contents, its encryption counter, and its address (Section III-F:
//! `MAC = f(Data, Counter, Key)`); the address binding prevents block
//! relocation. We implement SipHash-2-4 from scratch — a keyed PRF that
//! is entirely adequate for a simulator and lets the reliability engine
//! run real trial-correction loops (Section II-C) where candidate blocks
//! are accepted only when their MAC matches.

use serde::{Deserialize, Serialize};

/// A 128-bit MAC key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacKey {
    pub k0: u64,
    pub k1: u64,
}

impl MacKey {
    /// Derive a per-enclave key from a master seed (a stand-in for the
    /// processor's key-derivation function).
    pub fn derive(master: u64, enclave: u64) -> Self {
        MacKey {
            k0: splitmix(master ^ enclave.wrapping_mul(0xA076_1D64_78BD_642F)),
            k1: splitmix(
                master
                    .wrapping_add(enclave)
                    .wrapping_mul(0xE703_7ED1_A0B4_28DB),
            ),
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SipHash-2-4 over an arbitrary byte message.
pub fn siphash24(key: &MacKey, msg: &[u8]) -> u64 {
    let mut v0 = 0x736f_6d65_7073_6575u64 ^ key.k0;
    let mut v1 = 0x646f_7261_6e64_6f6du64 ^ key.k1;
    let mut v2 = 0x6c79_6765_6e65_7261u64 ^ key.k0;
    let mut v3 = 0x7465_6462_7974_6573u64 ^ key.k1;

    macro_rules! sipround {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = msg.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        v3 ^= m;
        sipround!();
        sipround!();
        v0 ^= m;
    }
    // Final block: remaining bytes plus the length in the top byte.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = msg.len() as u8;
    let m = u64::from_le_bytes(last);
    v3 ^= m;
    sipround!();
    sipround!();
    v0 ^= m;

    v2 ^= 0xff;
    sipround!();
    sipround!();
    sipround!();
    sipround!();
    v0 ^ v1 ^ v2 ^ v3
}

/// One SipHash round over a `[v0, v1, v2, v3]` state, for
/// [`siphash24_words`].
#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 over a message of whole little-endian u64 words, without
/// materializing the byte buffer. Matches `siphash24(key, bytes)` for
/// `bytes` = the words' little-endian concatenation — the counter and
/// summary packings the functional verifier hashes.
pub fn siphash24_words(key: &MacKey, words: &[u64]) -> u64 {
    let mut v = [
        0x736f_6d65_7073_6575u64 ^ key.k0,
        0x646f_7261_6e64_6f6du64 ^ key.k1,
        0x6c79_6765_6e65_7261u64 ^ key.k0,
        0x7465_6462_7974_6573u64 ^ key.k1,
    ];
    for &m in words {
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }
    // Whole-word messages have an empty remainder: the final block is
    // just the byte length (truncated to u8, as in the byte path) in
    // the top byte.
    let m = ((words.len() as u64 * 8) & 0xFF) << 56;
    v[3] ^= m;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= m;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// Compute the 64-bit MAC of a 64-byte data block.
///
/// Binds the data to its counter value and physical address, matching
/// `MAC = f(Data, Counter, Key)` with address tweak.
pub fn mac_block(key: &MacKey, data: &[u8; 64], counter: u64, addr: u64) -> u64 {
    let mut msg = [0u8; 80];
    msg[..64].copy_from_slice(data);
    msg[64..72].copy_from_slice(&counter.to_le_bytes());
    msg[72..80].copy_from_slice(&addr.to_le_bytes());
    siphash24(key, &msg)
}

/// Compute the hash stored in a tree node: `Hash = g(node, parent_counter,
/// key)` (Section III-F). The parity words inside an ITESP leaf are part
/// of `node_bytes` — "padding before the leaf node is sent through the
/// hash function".
pub fn hash_node(key: &MacKey, node_bytes: &[u8], parent_counter: u64) -> u64 {
    // Nodes are one cache block; hash from a stack buffer instead of a
    // per-call allocation (oversized callers keep the heap path).
    let len = node_bytes.len();
    if len <= 248 {
        let mut buf = [0u8; 256];
        buf[..len].copy_from_slice(node_bytes);
        buf[len..len + 8].copy_from_slice(&parent_counter.to_le_bytes());
        siphash24(key, &buf[..len + 8])
    } else {
        let mut msg = Vec::with_capacity(len + 8);
        msg.extend_from_slice(node_bytes);
        msg.extend_from_slice(&parent_counter.to_le_bytes());
        siphash24(key, &msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The official reference key 000102...0f.
    fn reference_key() -> MacKey {
        MacKey {
            k0: u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]),
            k1: u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]),
        }
    }

    /// Official SipHash-2-4 test vectors: key 000102...0f, message
    /// prefixes of 00 01 02 ... — all 64 entries of the reference
    /// implementation's `vectors_sip64` table.
    const SIP64_VECTORS: [u64; 64] = [
        0x726f_db47_dd0e_0e31,
        0x74f8_39c5_93dc_67fd,
        0x0d6c_8009_d9a9_4f5a,
        0x8567_6696_d7fb_7e2d,
        0xcf27_94e0_2771_87b7,
        0x1876_5564_cd99_a68d,
        0xcbc9_466e_58fe_e3ce,
        0xab02_00f5_8b01_d137,
        0x93f5_f579_9a93_2462,
        0x9e00_82df_0ba9_e4b0,
        0x7a5d_bbc5_94dd_b9f3,
        0xf4b3_2f46_226b_ada7,
        0x751e_8fbc_860e_e5fb,
        0x14ea_5627_c084_3d90,
        0xf723_ca90_8e7a_f2ee,
        0xa129_ca61_49be_45e5,
        0x3f2a_cc7f_57c2_9bdb,
        0x699a_e9f5_2cbe_4794,
        0x4bc1_b3f0_968d_d39c,
        0xbb6d_c91d_a779_61bd,
        0xbed6_5cf2_1aa2_ee98,
        0xd0f2_cbb0_2e3b_67c7,
        0x9353_6795_e3a3_3e88,
        0xa80c_038c_cd5c_cec8,
        0xb8ad_50c6_f649_af94,
        0xbce1_92de_8a85_b8ea,
        0x17d8_35b8_5bbb_15f3,
        0x2f2e_6163_076b_cfad,
        0xde4d_aaac_a71d_c9a5,
        0xa6a2_5066_8795_6571,
        0xad87_a353_5c49_ef28,
        0x32d8_92fa_d841_c342,
        0x7127_512f_72f2_7cce,
        0xa7f3_2346_f959_78e3,
        0x12e0_b01a_bb05_1238,
        0x15e0_34d4_0fa1_97ae,
        0x314d_ffbe_0815_a3b4,
        0x0279_90f0_2962_3981,
        0xcadc_d4e5_9ef4_0c4d,
        0x9abf_d876_6a33_735c,
        0x0e3e_a96b_5304_a7d0,
        0xad0c_42d6_fc58_5992,
        0x1873_06c8_9bc2_15a9,
        0xd4a6_0abc_f379_2b95,
        0xf935_451d_e4f2_1df2,
        0xa953_8f04_1975_5787,
        0xdb9a_cddf_f56c_a510,
        0xd06c_98cd_5c09_75eb,
        0xe612_a3cb_9ecb_a951,
        0xc766_e62c_fcad_af96,
        0xee64_435a_9752_fe72,
        0xa192_d576_b245_165a,
        0x0a87_87bf_8ecb_74b2,
        0x81b3_e73d_20b4_9b6f,
        0x7fa8_220b_a3b2_ecea,
        0x2457_31c1_3ca4_2499,
        0xb78d_bfaf_3a8d_83bd,
        0xea1a_d565_322a_1a0b,
        0x60e6_1c23_a379_5013,
        0x6606_d7e4_4628_2b93,
        0x6ca4_ecb1_5c5f_91e1,
        0x9f62_6da1_5c96_25f3,
        0xe51b_3860_8ef2_5f57,
        0x958a_324c_eb06_4572,
    ];

    #[test]
    fn siphash_reference_vectors() {
        let key = reference_key();
        let msg: Vec<u8> = (0u8..64).collect();
        for (len, want) in SIP64_VECTORS.iter().enumerate() {
            assert_eq!(
                siphash24(&key, &msg[..len]),
                *want,
                "vector mismatch at len {len}"
            );
        }
    }

    /// `siphash24_words` matches the byte path on the words' LE
    /// concatenation for every whole-word length the verifier packs.
    #[test]
    fn siphash_words_matches_byte_path() {
        let key = MacKey::derive(77, 7);
        let words: Vec<u64> = (0..130u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for n in [0usize, 1, 2, 7, 8, 16, 64, 127, 128, 130] {
            let bytes: Vec<u8> = words[..n].iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(
                siphash24_words(&key, &words[..n]),
                siphash24(&key, &bytes),
                "word-path mismatch at {n} words"
            );
        }
    }

    #[test]
    fn mac_changes_with_data_counter_and_addr() {
        let key = MacKey::derive(42, 0);
        let data = [0u8; 64];
        let base = mac_block(&key, &data, 1, 0x1000);
        let mut tweaked = data;
        tweaked[5] ^= 1;
        assert_ne!(base, mac_block(&key, &tweaked, 1, 0x1000));
        assert_ne!(base, mac_block(&key, &data, 2, 0x1000));
        assert_ne!(base, mac_block(&key, &data, 1, 0x1040));
        assert_eq!(base, mac_block(&key, &data, 1, 0x1000));
    }

    #[test]
    fn replay_of_old_counter_is_detected() {
        // A replayed (data, MAC) pair from counter 1 fails under counter 2.
        let key = MacKey::derive(7, 3);
        let data = [0xABu8; 64];
        let old_mac = mac_block(&key, &data, 1, 0x40);
        let current = mac_block(&key, &data, 2, 0x40);
        assert_ne!(old_mac, current);
    }

    #[test]
    fn derived_keys_differ_per_enclave() {
        let a = MacKey::derive(99, 0);
        let b = MacKey::derive(99, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn node_hash_depends_on_parent_counter() {
        let key = MacKey::derive(1, 1);
        let node = [0x5Au8; 64];
        assert_ne!(hash_node(&key, &node, 10), hash_node(&key, &node, 11));
    }

    /// The stack-buffer fast path and the heap fallback agree with a
    /// straight concat-and-hash on both sides of the 248-byte cutoff.
    #[test]
    fn node_hash_stack_and_heap_paths_agree() {
        let key = MacKey::derive(9, 4);
        for len in [0usize, 1, 64, 247, 248, 249, 300] {
            let node: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(7)).collect();
            let mut msg = node.clone();
            msg.extend_from_slice(&0xFACE_u64.to_le_bytes());
            assert_eq!(
                hash_node(&key, &node, 0xFACE),
                siphash24(&key, &msg),
                "hash_node mismatch at node len {len}"
            );
        }
    }
}
