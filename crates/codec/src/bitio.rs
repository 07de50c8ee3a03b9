//! Bit-exact bitstream I/O with Exp-Golomb codes.
//!
//! The entropy layer of the codec: a big-endian bit writer/reader plus
//! unsigned (`ue`) and signed (`se`) Exp-Golomb codes, the universal VLC
//! family used for all runs, levels and motion vectors.
//!
//! Both sides run on a `u64` accumulator: the writer batches whole fields
//! into the accumulator and drains aligned 32-bit words (the old
//! implementation pushed one *bit* per iteration into the `Vec`); the
//! reader refills its accumulator with one big-endian 8-byte load and
//! reads an Exp-Golomb code in one step from the accumulator's
//! leading-zero count. The emitted byte sequence is byte-identical to
//! the old bit-at-a-time code, including trailing-byte zero padding, and
//! every read returns the old value or error.
//!
//! Run/level pairs go through tables in [`crate::zigzag`]: the reader's
//! crate-private `peek12` / `skip` pair lets the block decoder take a
//! whole pair from its next 12 bits at once (the reference reader never
//! offers a peeked bit, so it keeps reading code by code), and the
//! block encoder writes a pair's precomputed code with one
//! [`BitWriter::put_bits`]. A value with no code a reader accepts (`ue`
//! `u32::MAX`, `se` `i32::MIN`) panics in every build.
//!
//! The pre-word-level implementations are retained behind
//! [`BitWriter::new_reference`] / [`BitReader::new_reference`]: one bit
//! per iteration, exactly as the codec shipped before the fast path.
//! They emit/consume identical bytes and exist so the *whole* retained
//! reference codec path (float kernels + bitwise I/O + unpruned search)
//! can be timed against the fast path by `codec_throughput`.

use crate::error::CodecError;

/// The panic message of a value whose Exp-Golomb code needs a prefix of
/// 32 zeros or more: the readers stop at 31, so `ue` ends at
/// `u32::MAX - 1` and `se` at ±`i32::MAX`.
const NO_CODE: &str = "value has no Exp-Golomb code a reader accepts";

/// The `ue` code number of a signed value (0, 1, −1, 2, −2, … →
/// 0, 1, 2, 3, 4, …), panicking with [`NO_CODE`] for `i32::MIN`.
#[inline(always)]
fn se_code_number(value: i32) -> u32 {
    if value > 0 {
        value as u32 * 2 - 1
    } else {
        value.unsigned_abs().checked_mul(2).expect(NO_CODE)
    }
}

/// Writes bits MSB-first into a growable byte buffer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned: the low `nbits` bits of `acc` are the
    /// not-yet-flushed tail of the stream (`<= 32` between calls on the
    /// word-level path, `< 8` on the retained bitwise path).
    acc: u64,
    nbits: u32,
    /// Use the retained bit-at-a-time reference loop.
    bitwise: bool,
}

impl BitWriter {
    /// Creates an empty writer (word-level fast path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with `cap` bytes of pre-reserved output
    /// capacity (word-level fast path).
    pub fn with_capacity(cap: usize) -> Self {
        Self { bytes: Vec::with_capacity(cap), ..Self::default() }
    }

    /// Creates an empty writer running the retained bit-at-a-time
    /// reference loop (byte-identical output, pre-fast-path speed).
    pub fn new_reference() -> Self {
        Self { bitwise: true, ..Self::default() }
    }

    /// Creates an empty writer that reuses `buf`'s allocation (word-level
    /// fast path). The buffer is cleared; its capacity is kept, so a
    /// scratch-driven encode loop reaches a steady state with zero
    /// allocator traffic once the buffer has grown to its peak size.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { bytes: buf, ..Self::default() }
    }

    /// Like [`BitWriter::from_vec`] but running the retained
    /// bit-at-a-time reference loop.
    pub fn from_vec_reference(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { bytes: buf, bitwise: true, ..Self::default() }
    }

    /// Appends the lowest `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    #[inline(always)]
    pub fn put_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write {count} bits at once");
        if self.bitwise {
            self.put_bits_bitwise(value, count);
            return;
        }
        let count = u32::from(count);
        // nbits <= 32 on entry, so nbits + count <= 64: no overflow.
        self.acc = (self.acc << count) | u64::from(value) & ((1u64 << count) - 1);
        self.nbits += count;
        if self.nbits > 32 {
            // Drain one aligned 32-bit word (big-endian, so the oldest
            // bits land first) and keep the rest pending. Deferring the
            // flush until a whole word is ready amortises the `Vec`
            // append to one call per ~4 bytes instead of one per field.
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// The retained reference loop: one bit per iteration.
    fn put_bits_bitwise(&mut self, value: u32, count: u8) {
        for i in (0..count).rev() {
            let bit = u64::from((value >> i) & 1);
            self.acc = (self.acc << 1) | bit;
            self.nbits += 1;
            if self.nbits == 8 {
                self.nbits = 0;
                self.bytes.push(self.acc as u8);
            }
        }
    }

    /// Appends a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u32::from(bit), 1);
    }

    /// Appends an unsigned Exp-Golomb code.
    ///
    /// # Panics
    ///
    /// Panics with "value has no Exp-Golomb code a reader accepts" if
    /// `value` is `u32::MAX`, whose code needs a 32-zero prefix.
    #[inline]
    pub fn put_ue(&mut self, value: u32) {
        let v = value.checked_add(1).expect(NO_CODE);
        let bits = 32 - v.leading_zeros() as u8; // position of MSB, >= 1
        if bits <= 16 {
            // Single call: `v`'s leading zeros double as the Exp-Golomb
            // prefix, so `2·bits − 1` low bits of `v` are the whole code.
            self.put_bits(v, 2 * bits - 1);
        } else {
            self.put_bits(0, bits - 1); // leading zeros
            self.put_bits(v, bits);
        }
    }

    /// Appends a signed Exp-Golomb code (0, 1, −1, 2, −2, … mapping).
    ///
    /// # Panics
    ///
    /// Panics with "value has no Exp-Golomb code a reader accepts" if
    /// `value` is `i32::MIN`, whose code number 2³² needs a 32-zero prefix.
    #[inline]
    pub fn put_se(&mut self, value: i32) {
        self.put_ue(se_code_number(value));
    }

    /// Appends an unsigned Exp-Golomb code followed by a signed one —
    /// exactly [`BitWriter::put_ue`]`(first)` then
    /// [`BitWriter::put_se`]`(second)`, emitting the identical bit
    /// sequence. When both codes fit one 32-bit field (the common case:
    /// a run/level pair) they are concatenated into a single
    /// [`BitWriter::put_bits`] call.
    ///
    /// # Panics
    ///
    /// Panics with "value has no Exp-Golomb code a reader accepts" if
    /// `first` is `u32::MAX` or `second` is `i32::MIN`, as the two calls it
    /// stands for do.
    #[inline]
    pub fn put_ue_then_se(&mut self, first: u32, second: i32) {
        let mapped = se_code_number(second);
        let v1 = first.checked_add(1).expect(NO_CODE);
        let v2 = mapped + 1;
        let b1 = 32 - v1.leading_zeros();
        let b2 = 32 - v2.leading_zeros();
        let (n1, n2) = (2 * b1 - 1, 2 * b2 - 1);
        if n1 + n2 <= 32 {
            self.put_bits((v1 << n2) | v2, (n1 + n2) as u8);
        } else {
            self.put_ue(first);
            self.put_ue(mapped);
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }

    /// Pads to a byte boundary with zero bits and returns the buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.bytes.push((self.acc >> self.nbits) as u8);
        }
        if self.nbits > 0 {
            // Left-align the partial tail in its byte; low bits are zero
            // padding, matching the old bit-at-a-time writer exactly.
            self.bytes.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    byte_pos: usize,
    /// Loaded-but-unconsumed bits, left-aligned: the top `acc_bits` bits
    /// of `acc` are the next stream bits. Every bit below them is either
    /// zero or the stream bit at that offset (a refill may load past
    /// `acc_bits`), so OR-ing the same stream bytes in again is harmless.
    acc: u64,
    /// Valid bits in `acc`; never more than 63.
    acc_bits: u32,
    /// Bits consumed so far by the bit-at-a-time reference loop (the
    /// word-level path derives its position from `byte_pos` and
    /// `acc_bits` instead).
    consumed: usize,
    /// Use the retained bit-at-a-time reference loop.
    bitwise: bool,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes` (word-level fast path).
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, byte_pos: 0, acc: 0, acc_bits: 0, consumed: 0, bitwise: false }
    }

    /// Creates a reader running the retained bit-at-a-time reference
    /// loop (identical semantics, pre-fast-path speed).
    pub fn new_reference(bytes: &'a [u8]) -> Self {
        Self { bitwise: true, ..Self::new(bytes) }
    }

    /// Tops up the accumulator to between 56 and 63 valid bits, or with
    /// every remaining byte near the end of the input. Away from the end
    /// this is one big-endian 8-byte load: the whole bytes that fit below
    /// the valid bits are counted, and the rest of the load is the
    /// look-ahead the invariant on `acc` allows.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(chunk) = self.bytes.get(self.byte_pos..self.byte_pos + 8) {
            let word = u64::from_be_bytes(chunk.try_into().expect("slice of 8 bytes"));
            self.acc |= word >> self.acc_bits;
            self.byte_pos += ((63 - self.acc_bits) >> 3) as usize;
            self.acc_bits |= 56;
        } else {
            self.refill_tail();
        }
    }

    /// [`Self::refill`] within 8 bytes of the end: a byte at a time.
    #[cold]
    #[inline(never)]
    fn refill_tail(&mut self) {
        while self.acc_bits <= 55 {
            let Some(&b) = self.bytes.get(self.byte_pos) else { break };
            self.acc |= u64::from(b) << (56 - self.acc_bits);
            self.acc_bits += 8;
            self.byte_pos += 1;
        }
    }

    /// Drops the top `count` (`1..=63`) bits of the accumulator.
    #[inline(always)]
    fn consume(&mut self, count: u32) {
        self.acc <<= count;
        self.acc_bits -= count;
    }

    /// Reads `count` bits as an unsigned value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] at end of input (the request is
    /// checked against the remaining bit budget *before* any state
    /// changes, so a failed read consumes nothing).
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    #[inline]
    pub fn get_bits(&mut self, count: u8) -> Result<u32, CodecError> {
        assert!(count <= 32, "cannot read {count} bits at once");
        let count = u32::from(count);
        if count == 0 {
            return Ok(0);
        }
        if self.bitwise {
            // Retained reference loop: one bit per iteration. The budget
            // check happens up front so a failed read consumes nothing
            // (same contract as the fast path).
            if self.consumed + count as usize > self.bytes.len() * 8 {
                return Err(underrun());
            }
            let mut v = 0u32;
            for _ in 0..count {
                let bit = (self.bytes[self.consumed / 8] >> (7 - self.consumed % 8)) & 1;
                v = (v << 1) | u32::from(bit);
                self.consumed += 1;
            }
            return Ok(v);
        }
        if self.acc_bits < count {
            self.refill();
            if self.acc_bits < count {
                return Err(underrun());
            }
        }
        let v = (self.acc >> (64 - count)) as u32;
        self.consume(count);
        Ok(v)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] at end of input.
    pub fn get_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_bits(1)? == 1)
    }

    /// Reads an unsigned Exp-Golomb code.
    ///
    /// On the fast path the code's prefix length is the accumulator's
    /// leading-zero count `z`, and the whole `2z + 1`-bit code is taken in
    /// one step. A code that does not fit the loaded bits (at the end of
    /// the input, or with a prefix longer than the 31 zeros a `u32`
    /// allows) goes through the bit-by-bit loop, which fails exactly as
    /// the reference reader does.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] at end of input or for a prefix
    /// of more than 31 zeros.
    #[inline(always)]
    pub fn get_ue(&mut self) -> Result<u32, CodecError> {
        if !self.bitwise {
            let mut len = 2 * self.acc.leading_zeros() + 1;
            if len > self.acc_bits {
                self.refill();
                len = 2 * self.acc.leading_zeros() + 1;
            }
            if len <= self.acc_bits {
                // `len <= 63`, so the prefix has at most 31 zeros and the
                // code's top `len` bits are `1 << z | rest` in 32 bits.
                let v = (self.acc >> (64 - len)) as u32 - 1;
                self.consume(len);
                return Ok(v);
            }
        }
        self.get_ue_bitwise()
    }

    /// The bit-at-a-time Exp-Golomb loop: the reference reader's only
    /// path, and the fast reader's fallback for codes that do not fit its
    /// loaded bits.
    #[inline]
    fn get_ue_bitwise(&mut self) -> Result<u32, CodecError> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 31 {
                return Err(CodecError::Malformed { reason: "exp-golomb code too long".into() });
            }
        }
        let rest = self.get_bits(zeros)?;
        Ok(((1u32 << zeros) | rest) - 1)
    }

    /// Reads a signed Exp-Golomb code.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] at end of input or for a prefix
    /// of more than 31 zeros.
    #[inline(always)]
    pub fn get_se(&mut self) -> Result<i32, CodecError> {
        let v = self.get_ue()?;
        if v % 2 == 1 {
            Ok(v.div_ceil(2) as i32)
        } else {
            Ok(-((v / 2) as i32))
        }
    }

    /// The next 12 bits of the input, right-aligned, and how many of them
    /// are loaded and may be [`Self::skip`]ped: all 12 away from the end
    /// of the input (bits past the loaded ones are zeros or the input
    /// bits that follow), and none on the reference reader, whose callers
    /// then read code by code.
    #[inline(always)]
    pub(crate) fn peek12(&mut self) -> (usize, u32) {
        if self.bitwise {
            return (0, 0);
        }
        if self.acc_bits < 12 {
            self.refill();
        }
        ((self.acc >> 52) as usize, self.acc_bits)
    }

    /// Drops `count` (`1..=12`) bits that [`Self::peek12`] reported loaded.
    #[inline(always)]
    pub(crate) fn skip(&mut self, count: u32) {
        debug_assert!(count <= self.acc_bits && !self.bitwise, "skip past the peeked bits");
        self.consume(count);
    }

    /// Current bit position (bits consumed so far).
    pub fn bit_pos(&self) -> usize {
        if self.bitwise {
            self.consumed
        } else {
            self.byte_pos * 8 - self.acc_bits as usize
        }
    }
}

fn underrun() -> CodecError {
    CodecError::Malformed { reason: "bitstream underrun".into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0xFFFF, 16);
        w.put_bit(false);
        w.put_bits(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(16).unwrap(), 0xFFFF);
        assert!(!r.get_bit().unwrap());
        assert_eq!(r.get_bits(2).unwrap(), 0b11);
    }

    #[test]
    fn ue_small_values() {
        // Classic table: 0→1, 1→010, 2→011, 3→00100 …
        for v in 0..200u32 {
            let mut w = BitWriter::new();
            w.put_ue(v);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn ue_zero_is_single_bit() {
        let mut w = BitWriter::new();
        w.put_ue(0);
        assert_eq!(w.bit_len(), 1);
    }

    #[test]
    fn se_roundtrip() {
        for v in -300..=300i32 {
            let mut w = BitWriter::new();
            w.put_se(v);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.get_se().unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn se_ordering_is_compact() {
        // Smaller magnitudes get shorter codes.
        let len = |v: i32| {
            let mut w = BitWriter::new();
            w.put_se(v);
            w.bit_len()
        };
        assert!(len(0) < len(1));
        assert!(len(1) <= len(-1));
        assert!(len(-1) < len(5));
    }

    #[test]
    fn mixed_sequence_roundtrip() {
        let mut w = BitWriter::new();
        let seq: Vec<i32> = vec![0, -1, 7, 100, -42, 3, 0, 0, 255, -128];
        for &v in &seq {
            w.put_se(v);
            w.put_ue(v.unsigned_abs());
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &seq {
            assert_eq!(r.get_se().unwrap(), v);
            assert_eq!(r.get_ue().unwrap(), v.unsigned_abs());
        }
    }

    #[test]
    fn underrun_is_error() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.get_bits(8).is_ok());
        assert!(r.get_bit().is_err());
    }

    #[test]
    fn large_ue_values() {
        for v in [1_000u32, 65_535, 1 << 20, u32::MAX / 4] {
            let mut w = BitWriter::new();
            w.put_ue(v);
            let bytes = w.into_bytes();
            assert_eq!(BitReader::new(&bytes).get_ue().unwrap(), v);
        }
    }

    /// The old bit-at-a-time writer, kept as a byte-identity oracle.
    #[derive(Default)]
    struct OracleWriter {
        bytes: Vec<u8>,
        bit_pos: u8,
    }

    impl OracleWriter {
        fn put_bits(&mut self, value: u32, count: u8) {
            for i in (0..count).rev() {
                let bit = (value >> i) & 1;
                if self.bit_pos == 0 {
                    self.bytes.push(0);
                }
                let last = self.bytes.len() - 1;
                self.bytes[last] |= (bit as u8) << (7 - self.bit_pos);
                self.bit_pos = (self.bit_pos + 1) % 8;
            }
        }
    }

    #[test]
    fn word_writer_byte_identical_to_bitwise_oracle() {
        let mut w = BitWriter::new();
        let mut o = OracleWriter::default();
        let mut state = 0x2545F491u32;
        for i in 0..4000u32 {
            // xorshift-ish mix for varied field widths and values.
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let count = (state % 33) as u8;
            let value = state.rotate_left(i % 32);
            w.put_bits(value, count);
            o.put_bits(value, count);
        }
        assert_eq!(w.into_bytes(), o.bytes);
    }

    #[test]
    fn fused_ue_se_matches_separate_calls() {
        let mut fused = BitWriter::new();
        let mut separate = BitWriter::new();
        let mut state = 0x9E3779B9u32;
        let mut cases: Vec<(u32, i32)> =
            vec![(0, 0), (0, 1), (0, -1), (62, 2047), (62, -2048), (63, 0), (u32::MAX / 4, i32::MAX / 4)];
        for _ in 0..2000 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let run = state % 64;
            let level = ((state >> 8) % 4096) as i32 - 2048;
            cases.push((run, level));
        }
        for &(run, level) in &cases {
            fused.put_ue_then_se(run, level);
            separate.put_ue(run);
            separate.put_se(level);
        }
        assert_eq!(fused.bit_len(), separate.bit_len());
        let bytes = fused.into_bytes();
        assert_eq!(bytes, separate.into_bytes());
        // And the stream still parses field-by-field.
        let mut r = BitReader::new(&bytes);
        for &(run, level) in &cases {
            assert_eq!(r.get_ue().unwrap(), run);
            assert_eq!(r.get_se().unwrap(), level);
        }
    }

    #[test]
    fn get_bits_zero_is_noop() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.get_bits(0).unwrap(), 0);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.get_bits(8).unwrap(), 0xAB);
        assert_eq!(r.get_bits(0).unwrap(), 0); // also fine at EOF
    }

    #[test]
    fn failed_read_consumes_nothing() {
        let mut r = BitReader::new(&[0b1010_0000]);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert!(r.get_bits(6).is_err());
        assert_eq!(r.bit_pos(), 3, "failed read must not advance");
        assert_eq!(r.get_bits(5).unwrap(), 0);
    }

    #[test]
    fn reader_crosses_accumulator_refills() {
        // > 64 bits of alternating fields forces several refills.
        let mut w = BitWriter::new();
        for i in 0..64u32 {
            w.put_bits(i, 7);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for i in 0..64u32 {
            assert_eq!(r.get_bits(7).unwrap(), i);
        }
        assert_eq!(r.bit_pos(), 64 * 7);
    }

    #[test]
    fn reference_writer_and_reader_match_fast_path() {
        let mut fast = BitWriter::new();
        let mut refr = BitWriter::new_reference();
        let mut state = 0x9E3779B9u32;
        let mut fields = Vec::new();
        for i in 0..2000u32 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let count = (state % 33) as u8;
            let value = state.rotate_left(i % 32);
            fast.put_bits(value, count);
            refr.put_bits(value, count);
            fields.push((value, count));
        }
        let bytes = fast.into_bytes();
        assert_eq!(bytes, refr.into_bytes(), "reference writer must be byte-identical");
        let mut fr = BitReader::new(&bytes);
        let mut rr = BitReader::new_reference(&bytes);
        for &(value, count) in &fields {
            let expect = if count == 0 { 0 } else { value & (((1u64 << count) - 1) as u32) };
            assert_eq!(fr.get_bits(count).unwrap(), expect);
            assert_eq!(rr.get_bits(count).unwrap(), expect);
            assert_eq!(fr.bit_pos(), rr.bit_pos());
        }
    }

    #[test]
    fn reference_reader_failed_read_consumes_nothing() {
        let mut r = BitReader::new_reference(&[0b1010_0000]);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert!(r.get_bits(6).is_err());
        assert_eq!(r.bit_pos(), 3);
        assert_eq!(r.get_bits(5).unwrap(), 0);
        assert!(r.get_bit().is_err());
    }

    #[test]
    fn longest_codes_read_on_both_readers() {
        // 31-zero prefixes (the longest legal codes) at every bit offset
        // of the accumulator, then a 32-zero prefix, which is an error.
        for offset in 0..8u8 {
            let mut w = BitWriter::new();
            w.put_bits(0, offset);
            w.put_ue(u32::MAX - 1);
            w.put_ue(u32::MAX / 2);
            w.put_se(i32::MAX);
            w.put_se(-i32::MAX);
            w.put_bits(0, 32);
            w.put_bit(true);
            let bytes = w.into_bytes();
            for mut r in [BitReader::new(&bytes), BitReader::new_reference(&bytes)] {
                r.get_bits(offset).unwrap();
                assert_eq!(r.get_ue().unwrap(), u32::MAX - 1);
                assert_eq!(r.get_ue().unwrap(), u32::MAX / 2);
                assert_eq!(r.get_se().unwrap(), i32::MAX);
                assert_eq!(r.get_se().unwrap(), -i32::MAX);
                assert_eq!(r.bit_pos(), usize::from(offset) + 4 * 63);
                let err = r.get_ue().unwrap_err().to_string();
                assert!(err.contains("exp-golomb code too long"), "{err}");
                assert_eq!(r.bit_pos(), usize::from(offset) + 4 * 63 + 32);
            }
        }
    }

    #[test]
    fn truncated_code_fails_as_the_bitwise_loop_does() {
        // The 13-bit code of 100 (six zeros, then 1100101) cut to its
        // first byte: the prefix and its closing 1 are consumed, the
        // short suffix read is not.
        let mut w = BitWriter::new();
        w.put_ue(100);
        let mut bytes = w.into_bytes();
        bytes.truncate(1); // 000000 1 1
        for mut r in [BitReader::new(&bytes), BitReader::new_reference(&bytes)] {
            let err = r.get_ue().unwrap_err().to_string();
            assert!(err.contains("bitstream underrun"), "{err}");
            assert_eq!(r.bit_pos(), 7);
            assert!(r.get_bit().unwrap());
            assert!(r.get_bit().is_err());
        }
    }

    #[test]
    #[should_panic(expected = "value has no Exp-Golomb code a reader accepts")]
    fn put_ue_of_u32_max_panics() {
        BitWriter::new().put_ue(u32::MAX);
    }

    #[test]
    #[should_panic(expected = "value has no Exp-Golomb code a reader accepts")]
    fn put_se_of_i32_min_panics() {
        BitWriter::new().put_se(i32::MIN);
    }

    #[test]
    #[should_panic(expected = "value has no Exp-Golomb code a reader accepts")]
    fn put_ue_then_se_of_i32_min_panics() {
        BitWriter::new().put_ue_then_se(0, i32::MIN);
    }

    #[test]
    #[should_panic(expected = "value has no Exp-Golomb code a reader accepts")]
    fn put_ue_then_se_of_u32_max_panics() {
        BitWriter::new().put_ue_then_se(u32::MAX, 0);
    }

    #[test]
    fn peek12_offers_only_loaded_bits_and_none_on_the_reference_reader() {
        let bytes = [0b1011_0011, 0b1100_0000];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek12(), (0b1011_0011_1100, 16));
        r.skip(5);
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.peek12(), (0b0111_1000_0000, 11));
        assert_eq!(BitReader::new_reference(&bytes).peek12(), (0, 0));
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.put_bits(0, 3);
        assert_eq!(w.bit_len(), 8);
        w.put_bit(true);
        assert_eq!(w.bit_len(), 9);
    }
}
