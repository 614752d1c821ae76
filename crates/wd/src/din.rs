//! DIN: disturbance-aware data encoding for word-lines
//! [Jiang et al., DSN'14].
//!
//! DIN shrinks the word-line guard band to the minimal 2F and compensates
//! with coding: before storing a line, each bit group is optionally
//! *inverted* so that the stored pattern minimizes the number of
//! WD-vulnerable word-line patterns (idle `0` cells adjacent to cells
//! receiving RESET pulses). One flag bit per group records the inversion
//! and travels with the line (modelled here as explicit [`DinFlags`]; in
//! hardware the flags occupy the row's spare region, which is engineered
//! WD-robust).
//!
//! The encoder is greedy left-to-right: for each group it tries both
//! polarities against the currently stored (encoded) bits, counts the
//! word-line-vulnerable cells the resulting differential write would
//! expose (including the boundary with the previously decided group), and
//! keeps the polarity with fewer victims, breaking ties toward fewer
//! programmed cells and then toward the old flag (to avoid gratuitous
//! group rewrites).

use sdpcm_pcm::line::{LineBuf, LINE_BITS, LINE_WORDS};

/// Per-group inversion flags of one encoded line (up to 64 groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DinFlags(pub u64);

impl DinFlags {
    /// Whether group `g` is stored inverted.
    #[must_use]
    pub fn inverted(self, g: usize) -> bool {
        (self.0 >> g) & 1 == 1
    }

    /// Returns a copy with group `g`'s flag set to `v`.
    #[must_use]
    pub fn with(self, g: usize, v: bool) -> DinFlags {
        if v {
            DinFlags(self.0 | (1 << g))
        } else {
            DinFlags(self.0 & !(1 << g))
        }
    }

    /// Per-word inversion mask for `group_bits`-cell groups: every cell
    /// of each flagged group set. Flags past the line's last group are
    /// ignored.
    fn inversion_mask(self, group_bits: usize) -> [u64; LINE_WORDS] {
        let field = group_bits.min(64);
        let span = group_bits / field; // words per group
        let per_word = 64 / field; // groups per word when `span == 1`
        let lsb = field_lsbs(field);
        let msb = lsb << (field - 1);
        // Bit `i` of field `i`, for every field of a word.
        let diagonal = (0..per_word).fold(0, |d, i| d | 1 << ((field + 1) * i));
        let mut mask = [0u64; LINE_WORDS];
        for (w, word) in mask.iter_mut().enumerate() {
            let chunk = (self.0 >> (w / span * per_word)) & (u64::MAX >> (64 - per_word));
            // Flag `i` of the word into field `i`, then each non-zero
            // field filled with ones.
            let spread = chunk.wrapping_mul(lsb) & diagonal;
            let nonzero = (spread + (msb - lsb)) & msb;
            *word = (nonzero >> (field - 1)).wrapping_mul(u64::MAX >> (64 - field));
        }
        mask
    }

    /// `line` with every flagged `group_bits`-cell group inverted: the
    /// stored bits of plain `line`, or the plain bits of stored `line`.
    /// All-clear flags return `line` untouched.
    pub(crate) fn invert_groups(self, line: &LineBuf, group_bits: usize) -> LineBuf {
        if self.0 == 0 {
            return *line;
        }
        line.xor(&LineBuf::from_words(self.inversion_mask(group_bits)))
    }
}

/// The DIN group-inversion codec.
///
/// # Examples
///
/// ```
/// use sdpcm_pcm::line::LineBuf;
/// use sdpcm_wd::din::{DinCodec, DinFlags};
///
/// let codec = DinCodec::new(32);
/// let plain = LineBuf::zeroed();
/// let stored = LineBuf::zeroed();
/// let (encoded, flags) = codec.encode(&plain, &stored, DinFlags::default());
/// assert_eq!(codec.decode(&encoded, flags), plain);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DinCodec {
    group_bits: usize,
}

impl DinCodec {
    /// Creates a codec with `group_bits` cells per inversion group.
    ///
    /// # Panics
    ///
    /// Panics unless `group_bits` divides 512 and yields at most 64
    /// groups (the flag word) and at least 2 bits per group.
    #[must_use]
    pub fn new(group_bits: usize) -> DinCodec {
        assert!(
            group_bits >= 2 && LINE_BITS.is_multiple_of(group_bits) && LINE_BITS / group_bits <= 64,
            "group size must divide 512 into at most 64 groups"
        );
        DinCodec { group_bits }
    }

    /// Default: 8-bit groups (64 flag bits per 64 B line). Smaller
    /// groups give the inversion coder more freedom; this calibration
    /// leaves ~0.9 residual word-line errors per write — the same order
    /// as the original DIN's reported 0.4 (DSN'14 uses a richer code
    /// dictionary than pure inversion; see EXPERIMENTS.md).
    #[must_use]
    pub fn paper_default() -> DinCodec {
        DinCodec::new(8)
    }

    /// Cells per group.
    #[must_use]
    pub fn group_bits(&self) -> usize {
        self.group_bits
    }

    /// Number of groups per line.
    #[must_use]
    pub fn groups(&self) -> usize {
        LINE_BITS / self.group_bits
    }

    /// Flag-storage overhead per line, in bits.
    #[must_use]
    pub fn overhead_bits(&self) -> usize {
        self.groups()
    }

    /// Encodes `plain` for storage over the currently stored (encoded)
    /// bits `stored_old`, returning the new encoded bits and flags.
    ///
    /// The greedy scores group `g` against a line whose earlier groups
    /// are already decided and whose later groups still hold
    /// `stored_old`, so a score sees earlier decisions only through the
    /// previous group's polarity (its cells `lo-2` and `lo-1`). That
    /// makes every score computable up front, word-parallel:
    ///
    /// 1. For both polarities, the candidate's RESET, idle-`0` and
    ///    programmed cells are whole-line masks.
    /// 2. A group's victims split into cells whose neighbours lie inside
    ///    the group, plus cell `hi` (idle right of a RESET `hi-1`),
    ///    which depend on the group's own polarity only, and cells
    ///    `lo-1` and `lo`, which also depend on the previous group's.
    ///    The first part is one mask per polarity; the second is one
    ///    bit at `lo` per (previous, current) polarity pair.
    /// 3. SWAR field popcounts turn the masks into per-group counts in
    ///    `min(group_bits, 64)`-bit fields (a wider group sums its
    ///    words), and one packed comparison per previous polarity yields
    ///    every group's choice: fewer victims, then fewer programmed
    ///    cells, then the old flag.
    /// 4. A walk over the groups threads each choice into the next
    ///    group's previous polarity; the flags then invert `plain`.
    ///
    /// Per line this is a fixed few hundred word operations and a
    /// 64-step bit walk: no per-group `count_ones` (a software popcount
    /// on the x86-64 baseline), no per-bit loop. It sits on the
    /// per-write hot path of every DIN scheme. Decisions and tie-breaks
    /// are bit-identical to the straightforward per-bit scorer (see the
    /// equivalence tests).
    #[must_use]
    pub fn encode(
        &self,
        plain: &LineBuf,
        stored_old: &LineBuf,
        old_flags: DinFlags,
    ) -> (LineBuf, DinFlags) {
        let gb = self.group_bits;
        let choices = match gb {
            8 => group_choices::<8>,
            16 => group_choices::<16>,
            32 => group_choices::<32>,
            _ => group_choices::<64>,
        };
        let [after_kept, after_inverted] =
            choices(gb, plain.words(), stored_old.words(), old_flags);
        let mut flags = 0u64;
        let mut prev = 0u64;
        for g in 0..self.groups() {
            // Branch-free select: the polarities are data, and a
            // mispredicted branch per group costs as much as the scoring.
            let choice = after_kept ^ ((after_kept ^ after_inverted) & prev.wrapping_neg());
            prev = (choice >> g) & 1;
            flags |= prev << g;
        }
        let flags = DinFlags(flags);
        (flags.invert_groups(plain, gb), flags)
    }

    /// Decodes stored (encoded) bits back to plain data.
    #[must_use]
    pub fn decode(&self, stored: &LineBuf, flags: DinFlags) -> LineBuf {
        flags.invert_groups(stored, self.group_bits)
    }
}

impl Default for DinCodec {
    fn default() -> Self {
        DinCodec::paper_default()
    }
}

/// Every group's greedy choice given its predecessor's polarity, for
/// `FIELD = min(group_bits, 64)`: bit `g` of the first (second) word is
/// set where group `g` is stored inverted after a group `g - 1` stored
/// as is (inverted).
fn group_choices<const FIELD: usize>(
    group_bits: usize,
    plain: &[u64; LINE_WORDS],
    old: &[u64; LINE_WORDS],
    old_flags: DinFlags,
) -> [u64; 2] {
    let span = group_bits / FIELD; // words per group
    let per_word = 64 / FIELD; // groups per word when `span == 1`
    let lsb = field_lsbs(FIELD);
    let msb = lsb << (FIELD - 1);

    // Index `w + 1` holds word `w` of polarity 0 (stored as is) and 1
    // (inverted); the zero pad words make every neighbour read at the
    // line's ends see "no such cell".
    let mut reset = [[0u64; LINE_WORDS + 2]; 2];
    let mut idle = [[0u64; LINE_WORDS + 2]; 2];
    let mut idle_old = [0u64; LINE_WORDS + 2];
    for w in 0..LINE_WORDS {
        let (o, p) = (old[w], plain[w]);
        reset[0][w + 1] = o & !p;
        reset[1][w + 1] = o & p;
        idle[0][w + 1] = !o & !p;
        idle[1][w + 1] = !o & p;
        idle_old[w + 1] = !o;
    }
    // Bit `b` of word `w` holding cell `b - 1`, `b - 2` or `b + 1`.
    let left = |x: &[u64; LINE_WORDS + 2], w: usize| (x[w + 1] << 1) | (x[w] >> 63);
    let left2 = |x: &[u64; LINE_WORDS + 2], w: usize| (x[w + 1] << 2) | (x[w] >> 62);
    let right = |x: &[u64; LINE_WORDS + 2], w: usize| (x[w + 1] >> 1) | (x[w + 2] << 63);

    // Per-group counts, summed into the group's first word:
    // victims[prev][cur] and programmed[cur].
    let mut victims = [[[0u64; LINE_WORDS]; 2]; 2];
    let mut programmed = [[0u64; LINE_WORDS]; 2];
    for w in 0..LINE_WORDS {
        let first = w - w % span;
        let start = if w % span == 0 { lsb } else { 0 };
        let end = if w % span == span - 1 { msb } else { 0 };
        let prog = field_popcount::<FIELD>(old[w] ^ plain[w]);
        programmed[0][first] += prog;
        programmed[1][first] += lsb * FIELD as u64 - prog;
        for cur in 0..2 {
            let z = idle[cur][w + 1];
            let r = reset[cur][w + 1];
            let rr = right(&reset[cur], w);
            // Neighbours across the group edges count as not RESET here;
            // cell `hi` is disjoint from `hi - 1` (stored 0 vs 1), so it
            // is counted at `hi - 1`.
            let inner = (z & ((left(&reset[cur], w) & !start) | (rr & !end)))
                | (r & right(&idle_old, w) & end);
            let inner = field_popcount::<FIELD>(inner);
            for prev in 0..2 {
                // Cell `lo` victimised by its left neighbour alone, or
                // cell `lo - 1` victimised (stored 1 vs 0, so never both).
                let at_lo = z & !rr & left(&reset[prev], w);
                let at_lo1 = left(&idle[prev], w) & (left2(&reset[prev], w) | r);
                victims[prev][cur][first] += inner + ((at_lo | at_lo1) & start);
            }
        }
    }

    // A field's msb is set where the inverted polarity wins. The keys
    // order victims, then programmed cells, and stay below the msb so
    // the borrow compares them.
    let old_inv = old_flags.inversion_mask(group_bits);
    let weight = group_bits as u64 + 1;
    let mut choices = [0u64; 2];
    for w in (0..LINE_WORDS).step_by(span) {
        for (prev, choice) in choices.iter_mut().enumerate() {
            let k0 = victims[prev][0][w] * weight + programmed[0][w];
            let k1 = victims[prev][1][w] * weight + programmed[1][w];
            let k0_ge = ((k0 | msb) - k1) & msb;
            let k1_ge = ((k1 | msb) - k0) & msb;
            let inverts = k0_ge & (!k1_ge | old_inv[w]);
            *choice |= gather_msbs::<FIELD>(inverts) << (w / span * per_word);
        }
    }
    choices
}

/// The lowest bit of every `field`-bit field of a word.
const fn field_lsbs(field: usize) -> u64 {
    let mut lsbs = 1u64;
    let mut width = field;
    while width < 64 {
        lsbs |= lsbs << width;
        width *= 2;
    }
    lsbs
}

/// Popcount of every `FIELD`-bit field of `x` (`FIELD` a power of two,
/// 8 to 64), each left in its own field.
fn field_popcount<const FIELD: usize>(x: u64) -> u64 {
    let x = x - ((x >> 1) & 0x5555_5555_5555_5555);
    let x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    let mut x = (x + (x >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    let mut half = 8;
    while half < FIELD {
        x = (x + (x >> half)) & (field_lsbs(2 * half) * (u64::MAX >> (64 - half)));
        half *= 2;
    }
    x
}

/// The msb of every `FIELD`-bit field of `x`, field `i`'s at bit `i`.
/// One multiply moves field `i`'s bit to bit `64 - m + i` (`m` fields):
/// the multiplier's terms put no two input bits on one product bit, so
/// nothing carries.
fn gather_msbs<const FIELD: usize>(x: u64) -> u64 {
    let m = 64 / FIELD;
    let magic = (0..m).fold(0u64, |acc, k| {
        acc | 1 << (64 - m - (FIELD - 1) * (m - 1 - k))
    });
    ((x >> (FIELD - 1)) & field_lsbs(FIELD)).wrapping_mul(magic) >> (64 - m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::wordline_vulnerable_count;
    use proptest::prelude::*;
    use sdpcm_engine::SimRng;
    use sdpcm_pcm::line::DiffMask;

    /// The straightforward per-bit encoder the word-parallel
    /// [`DinCodec::encode`] must match decision-for-decision.
    fn encode_reference(
        codec: &DinCodec,
        plain: &LineBuf,
        stored_old: &LineBuf,
        old_flags: DinFlags,
    ) -> (LineBuf, DinFlags) {
        fn group_score(cand: &LineBuf, stored_old: &LineBuf, lo: usize, hi: usize) -> (u32, u32) {
            let diff = DiffMask::between(stored_old, cand);
            let mut victims = 0;
            for bit in lo.saturating_sub(1)..(hi + 1).min(LINE_BITS) {
                if diff.is_programmed(bit) || cand.bit(bit) {
                    continue;
                }
                let left = bit > 0 && diff.is_reset(bit - 1);
                let right = bit + 1 < LINE_BITS && diff.is_reset(bit + 1);
                if left || right {
                    victims += 1;
                }
            }
            let mut programmed = 0;
            for bit in lo..hi {
                if diff.is_programmed(bit) {
                    programmed += 1;
                }
            }
            (victims, programmed)
        }

        let mut enc = *stored_old;
        let mut flags = DinFlags::default();
        for g in 0..codec.groups() {
            let lo = g * codec.group_bits();
            let hi = lo + codec.group_bits();
            let mut best: Option<(u32, u32, bool)> = None;
            for flag in [false, true] {
                let mut cand = enc;
                for bit in lo..hi {
                    cand.set_bit(bit, plain.bit(bit) ^ flag);
                }
                let (victims, programmed) = group_score(&cand, stored_old, lo, hi);
                let better = match &best {
                    None => true,
                    Some((v, p, f)) => {
                        victims < *v
                            || (victims == *v && programmed < *p)
                            || (victims == *v
                                && programmed == *p
                                && *f != old_flags.inverted(g)
                                && flag == old_flags.inverted(g))
                    }
                };
                if better {
                    best = Some((victims, programmed, flag));
                }
            }
            let (_, _, flag) = best.unwrap();
            for bit in lo..hi {
                enc.set_bit(bit, plain.bit(bit) ^ flag);
            }
            flags = flags.with(g, flag);
        }
        (enc, flags)
    }

    #[test]
    fn word_parallel_encode_matches_reference() {
        for group_bits in [8, 16, 32, 64, 128, 256, 512] {
            let codec = DinCodec::new(group_bits);
            let mut rng = SimRng::from_seed(77 + group_bits as u64);
            let mut stored = LineBuf::zeroed();
            let mut flags = DinFlags::default();
            for round in 0..200 {
                // Mix dense random lines with sparse ones (few
                // programmed bits) so both crowded and empty victim
                // windows are exercised.
                let plain = if round % 3 == 0 {
                    let mut sparse = stored;
                    for _ in 0..4 {
                        let b = (rng.next_u64() % LINE_BITS as u64) as usize;
                        sparse.set_bit(b, !sparse.bit(b));
                    }
                    sparse
                } else {
                    random_line(&mut rng)
                };
                let fast = codec.encode(&plain, &stored, flags);
                let slow = encode_reference(&codec, &plain, &stored, flags);
                assert_eq!(
                    fast, slow,
                    "divergence at group_bits={group_bits} round={round}"
                );
                (stored, flags) = fast;
            }
        }
    }

    fn random_line(rng: &mut SimRng) -> LineBuf {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.next_u64();
        }
        LineBuf::from_words(words)
    }

    /// The per-bit decoder the mask-XOR [`DinCodec::decode`] must match.
    fn decode_reference(codec: &DinCodec, stored: &LineBuf, flags: DinFlags) -> LineBuf {
        let mut plain = *stored;
        for g in 0..codec.groups() {
            if flags.inverted(g) {
                let lo = g * codec.group_bits();
                for b in lo..lo + codec.group_bits() {
                    plain.set_bit(b, !stored.bit(b));
                }
            }
        }
        plain
    }

    fn line_strategy() -> impl Strategy<Value = LineBuf> {
        prop::array::uniform8(any::<u64>()).prop_map(LineBuf::from_words)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn encode_matches_reference_for_any_inputs(
            plain in line_strategy(),
            stored in line_strategy(),
            flips in prop::array::uniform8(any::<u64>()),
            old_flags in any::<u64>(),
            group_pow in 3usize..10, // 8..512-bit groups
        ) {
            let codec = DinCodec::new(1 << group_pow);
            let old_flags = DinFlags(old_flags);
            prop_assert_eq!(
                codec.encode(&plain, &stored, old_flags),
                encode_reference(&codec, &plain, &stored, old_flags)
            );
            // A near-rewrite (about one cell in eight differs) leaves
            // many groups tied, exercising the keep-the-old-flag rule.
            let mut near = *stored.words();
            for (w, (f, p)) in near.iter_mut().zip(flips.iter().zip(plain.words())) {
                *w ^= f & p & f.rotate_left(17);
            }
            let near = LineBuf::from_words(near);
            prop_assert_eq!(
                codec.encode(&near, &stored, old_flags),
                encode_reference(&codec, &near, &stored, old_flags)
            );
        }

        #[test]
        fn decode_matches_reference_for_any_flags(
            stored in line_strategy(),
            flags in prop_oneof![
                prop::sample::select(vec![0, u64::MAX]),
                any::<u64>(),
            ],
            group_pow in 3usize..10,
        ) {
            let codec = DinCodec::new(1 << group_pow);
            let flags = DinFlags(flags);
            prop_assert_eq!(
                codec.decode(&stored, flags),
                decode_reference(&codec, &stored, flags)
            );
        }
    }

    #[test]
    fn roundtrip_random_lines() {
        let codec = DinCodec::paper_default();
        let mut rng = SimRng::from_seed(11);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        for _ in 0..50 {
            let plain = random_line(&mut rng);
            let (enc, f) = codec.encode(&plain, &stored, flags);
            assert_eq!(codec.decode(&enc, f), plain);
            stored = enc;
            flags = f;
        }
    }

    #[test]
    fn encoding_never_increases_victims() {
        // Compare against the identity (no-DIN) vulnerable count.
        let codec = DinCodec::paper_default();
        let mut rng = SimRng::from_seed(12);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        let mut din_total = 0usize;
        let mut raw_total = 0usize;
        for _ in 0..100 {
            let plain = random_line(&mut rng);
            // Identity encoding victims.
            let raw_diff = DiffMask::between(&stored, &plain);
            raw_total += wordline_vulnerable_count(&plain, &raw_diff);
            // DIN victims.
            let (enc, f) = codec.encode(&plain, &stored, flags);
            let diff = DiffMask::between(&stored, &enc);
            din_total += wordline_vulnerable_count(&enc, &diff);
            stored = enc;
            flags = f;
        }
        assert!(
            din_total < raw_total,
            "DIN should reduce WL-vulnerable patterns: {din_total} vs {raw_total}"
        );
    }

    #[test]
    fn all_zero_write_over_all_ones_inverts() {
        // Storing all-zero over stored all-ones: identity encoding RESETs
        // everything (no idle cells -> 0 victims) but programs 512 cells;
        // inverting stores all-ones unchanged (0 programmed).
        let codec = DinCodec::new(32);
        let ones = LineBuf::zeroed().not();
        let plain = LineBuf::zeroed();
        let (enc, flags) = codec.encode(&plain, &ones, DinFlags::default());
        assert_eq!(enc, ones, "inversion avoids reprogramming");
        for g in 0..codec.groups() {
            assert!(flags.inverted(g));
        }
        assert_eq!(codec.decode(&enc, flags), plain);
    }

    #[test]
    fn flag_accessors() {
        let f = DinFlags::default()
            .with(3, true)
            .with(5, true)
            .with(3, false);
        assert!(!f.inverted(3));
        assert!(f.inverted(5));
        assert!(!f.inverted(0));
    }

    #[test]
    fn overhead_matches_groups() {
        assert_eq!(DinCodec::new(32).overhead_bits(), 16);
        assert_eq!(DinCodec::new(64).overhead_bits(), 8);
        assert_eq!(DinCodec::new(8).groups(), 64);
        assert_eq!(DinCodec::paper_default().group_bits(), 8);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn bad_group_size_panics() {
        let _ = DinCodec::new(7);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn too_many_groups_panics() {
        let _ = DinCodec::new(4); // 128 groups > 64 flag bits
    }
}
