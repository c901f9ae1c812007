//! The workspace's one hash kernel.
//!
//! [`lane_hashes`] runs keyed multiply-rotate chains over 64-bit words, four
//! independent lanes per chain and several items side by side, finished with
//! the splitmix64 mixer ([`mix64`]). It gives [`checksum`] (the trailer of the
//! model and suite formats, and the disk tier's record checksum), the
//! network fingerprints of `dnnip_nn::fingerprint` and every tensor's content
//! key ([`crate::Tensor::content_keys`]), which addresses `dnnip-core`'s
//! covered-set caches.
//!
//! The kernel is not cryptographic: the caches only need collision
//! resistance against accidental coincidence, and the checksums catch
//! corruption in transit, not forgery.

/// The splitmix64 finalizer: a cheap bijective mixer with full avalanche.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Lanes per hash chain: independent multiply chains, so the hash runs at
/// the multiplier's throughput instead of the latency of one dependent chain.
const HASH_LANES: usize = 4;

/// Items whose lane chains [`lane_hashes`] advances side by side.
const HASH_BATCH: usize = 8;

/// Four-word blocks an item advances by before the next item's turn: long
/// enough that a scalar build keeps one item's lanes in registers for a
/// while, short enough that a vectorised build still overlaps the items'
/// multiply chains.
const BLOCKS_PER_TURN: usize = 4;

/// One keyed multiply-rotate chain of [`lane_hashes`]: the odd multiplier of
/// its lane step, the seeds of its lanes and the key its fold starts from.
#[derive(Debug, Clone, Copy)]
pub struct Chain {
    k: u64,
    seed: [u64; HASH_LANES],
    key: u64,
}

/// The low half of a tensor's content key and of a network fingerprint;
/// also the whole [`checksum`].
pub const CHAIN_LO: Chain = Chain {
    k: 0x9e37_79b9_7f4a_7c15,
    seed: [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ],
    key: 0x2545_f491_4f6c_dd1d,
};

/// The high half of a tensor's content key and of a network fingerprint.
pub const CHAIN_HI: Chain = Chain {
    k: 0xc2b2_ae3d_27d4_eb4f,
    seed: [
        0x4528_21e6_38d0_1377,
        0xbe54_66cf_34e9_0c6c,
        0xc0ac_29b7_c97c_50dd,
        0x3f84_d5b5_b547_0917,
    ],
    key: 0x6a09_e667_f3bc_c909,
};

/// Elements that [`lane_hashes`] reads as 64-bit words.
pub trait Words: Copy {
    /// Elements per word.
    const PER_WORD: usize;

    /// Up to [`Words::PER_WORD`] elements as one word, the first element in
    /// the lowest bits and the missing ones zero.
    fn word(elems: &[Self]) -> u64;
}

/// Two `f32`s per word, as their exact bit patterns.
impl Words for f32 {
    const PER_WORD: usize = 2;

    #[inline(always)]
    fn word(pair: &[f32]) -> u64 {
        pair.iter()
            .rev()
            .fold(0, |w, x| (w << 32) | x.to_bits() as u64)
    }
}

/// Eight bytes per word, little-endian.
impl Words for u8 {
    const PER_WORD: usize = 8;

    #[inline(always)]
    fn word(bytes: &[u8]) -> u64 {
        let mut padded = [0u8; 8];
        padded[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(padded)
    }
}

/// `H` keyed chains over each item, the one hash kernel of the workspace:
/// it gives tensors their content keys ([`crate::Tensor::content_keys`]),
/// [`checksum`] here, and the network fingerprints of `dnnip-nn`.
///
/// Per item and chain: word `i` goes to lane `i mod 4` by the step
/// `s = ((s ^ w) · K).rotate_left(29)`. The fold then runs the splitmix64
/// finalizer over the chain's key xor the item's length, each lane, and the
/// trailing elements that fill no whole four-word block, one (zero-padded)
/// word at a time. With `K` odd, every lane step and every finalizer step is
/// a bijection in both the state and the word, so two items of one length
/// that differ in a single word end in different values of every chain.
///
/// Runs of equally long items are hashed eight (`HASH_BATCH`) at a time: each
/// item keeps its own lanes and its own word order, and only the items' steps
/// are interleaved (`BLOCKS_PER_TURN` blocks per turn), so the multiplier
/// always has independent work. A run's last group, and a run of one, go
/// through the same loop with fewer live items. The values do not depend on
/// the batch around an item.
pub fn lane_hashes<T: Words, const H: usize>(items: &[&[T]], chains: [Chain; H]) -> Vec<[u64; H]> {
    const ROT: u32 = 29;
    let block = HASH_LANES * T::PER_WORD;
    let mut out = Vec::with_capacity(items.len());
    let mut rest = items;
    while let Some(first) = rest.first() {
        let len = first.len();
        let live = rest
            .iter()
            .take(HASH_BATCH)
            .take_while(|item| item.len() == len)
            .count();
        let (group, later) = rest.split_at(live);
        rest = later;
        let whole = len - len % block;
        let data: [&[T]; HASH_BATCH] =
            std::array::from_fn(|s| group.get(s).map_or(&[][..], |item| &item[..whole]));
        let mut lanes = [chains.map(|c| c.seed); HASH_BATCH];
        // Each live item in turn advances its own lanes by up to
        // `BLOCKS_PER_TURN` blocks. The fixed trip count with an early exit
        // lets the compiler keep every live item's lanes in registers when
        // it has enough of them.
        let blocks = whole / block;
        let mut first_block = 0;
        while first_block < blocks {
            let end_block = (first_block + BLOCKS_PER_TURN).min(blocks);
            for s in 0..HASH_BATCH {
                if s == live {
                    break;
                }
                let mut state = lanes[s];
                let turn = &data[s][first_block * block..end_block * block];
                for words in turn.chunks_exact(block) {
                    for (l, elems) in words.chunks_exact(T::PER_WORD).enumerate() {
                        let w = T::word(elems);
                        for (lane, chain) in state.iter_mut().zip(&chains) {
                            lane[l] = ((lane[l] ^ w).wrapping_mul(chain.k)).rotate_left(ROT);
                        }
                    }
                }
                lanes[s] = state;
            }
            first_block = end_block;
        }
        for (item, lanes) in group.iter().zip(&lanes) {
            let tail = &item[whole..];
            out.push(std::array::from_fn(|c| {
                let mut h = mix64(chains[c].key ^ len as u64);
                for lane in lanes[c] {
                    h = mix64(h ^ lane);
                }
                for elems in tail.chunks(T::PER_WORD) {
                    h = mix64(h ^ T::word(elems));
                }
                h
            }));
        }
    }
    out
}

/// The 64-bit checksum of `bytes`: one [`CHAIN_LO`] chain of
/// [`lane_hashes`], read as little-endian 8-byte words. The trailer of every
/// model and suite stream and the disk tier's record checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    lane_hashes(&[bytes], [CHAIN_LO])[0][0]
}
