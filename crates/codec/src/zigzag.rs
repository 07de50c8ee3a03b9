//! Zig-zag scan and run/level coding of quantised blocks.
//!
//! A block is its DC as a signed predicted difference, then one
//! `ue(run)`/`se(level)` pair per nonzero AC coefficient in zig-zag
//! order, then the 13-bit end-of-block code `ue(63)`. Almost every pair
//! is short (about 25 per block at under 7 bits each in the paper clips'
//! intra-heavy streams), so both directions code a pair by table lookup:
//!
//! * the decoder looks the reader's next 12 bits up in a 4,096-entry
//!   table that holds the run, level and code length of every pair whose
//!   two codes fit 12 bits, and falls back to reading the two codes one
//!   at a time for anything else: a longer pair, the end-of-block code,
//!   a run past the block's end, a zero level, or the input's last bits;
//! * the encoder writes each pair with a level in −32..=31 from a
//!   63 × 64 table of finished codes, and any larger level with
//!   [`BitWriter::put_ue_then_se`].
//!
//! Both tables are built at compile time from one `pair_code`, so the
//! two directions cannot disagree, and the bytes and decoded levels are
//! those of the code-at-a-time loops.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::quant::QBlock;

/// The 8×8 zig-zag scan order (row-major index for each scan position).
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// End-of-block sentinel for the AC run value (a real run is ≤ 62).
const EOB_RUN: u32 = 63;

/// Bits the pair decoder looks up at once.
const PAIR_BITS: u32 = 12;

/// The code of a run/level pair, `ue(run)` then `se(level)`, as
/// `(bits, length)`, for `run <= 62` and `-32 <= level <= 32` (at most
/// 24 bits): the one definition both pair tables are built from.
const fn pair_code(run: u32, level: i32) -> (u32, u32) {
    let mapped = if level > 0 { level as u32 * 2 - 1 } else { level.unsigned_abs() * 2 };
    let (v1, v2) = (run + 1, mapped + 1);
    // The Exp-Golomb code of `v` is `v + 1` in binary after as many
    // zeros as `v + 1` has bits past its leading one.
    let n1 = 2 * (32 - v1.leading_zeros()) - 1;
    let n2 = 2 * (32 - v2.leading_zeros()) - 1;
    ((v1 << n2) | v2, n1 + n2)
}

/// Run/level pairs by the next [`PAIR_BITS`] bits of a block: entry `w`
/// is `len | run << 4 | (level & 63) << 10` for the pair whose `len`-bit
/// code starts `w`, and 0 where no pair's codes fit 12 bits, or they
/// code the end of block (run 63) or a zero level.
static PAIR_DECODE: [u16; 1 << PAIR_BITS] = pair_decode_table();

const fn pair_decode_table() -> [u16; 1 << PAIR_BITS] {
    let mut table = [0u16; 1 << PAIR_BITS];
    let mut run = 0;
    while run < EOB_RUN {
        let mut level = -32;
        while level <= 31 {
            let (code, len) = pair_code(run, level);
            if level != 0 && len <= PAIR_BITS {
                let free = PAIR_BITS - len;
                let entry = len as u16 | (run as u16) << 4 | ((level & 63) as u16) << 10;
                let mut tail = 0;
                while tail < 1 << free {
                    table[(code << free | tail) as usize] = entry;
                    tail += 1;
                }
            }
            level += 1;
        }
        run += 1;
    }
    table
}

/// Finished pair codes for the encoder: `PAIR_ENCODE[run][level + 32]` is
/// `bits << 5 | len` for runs 0..=62 and levels −32..=31.
static PAIR_ENCODE: [[u32; 64]; 63] = pair_encode_table();

const fn pair_encode_table() -> [[u32; 64]; 63] {
    let mut table = [[0u32; 64]; 63];
    let mut run = 0;
    while run < 63 {
        let mut i = 0;
        while i < 64 {
            let (code, len) = pair_code(run as u32, i as i32 - 32);
            table[run][i] = code << 5 | len;
            i += 1;
        }
        run += 1;
    }
    table
}

/// Writes a quantised block: DC as a signed predicted difference, then
/// (run, level) pairs over the zig-zag-ordered AC coefficients, terminated
/// by an end-of-block code.
///
/// The block is copied into scan order once, and bit `k` of a 64-bit
/// mask built from that copy is set when scan position `k` holds a
/// nonzero AC level. The emitter walks the set bits with
/// `trailing_zeros` (the run is the gap since the previous set bit),
/// writing each pair's finished code from the pair table in one field
/// when its level is in −32..=31.
///
/// Returns the block's DC level so the caller can thread the predictor.
pub fn encode_block(w: &mut BitWriter, block: &QBlock, dc_pred: i16) -> i16 {
    let dc = block[0];
    w.put_se(i32::from(dc) - i32::from(dc_pred));
    let mut scan = [0i16; 64];
    for (s, &idx) in scan.iter_mut().zip(&ZIGZAG) {
        *s = block[idx];
    }
    // One flag byte per position (a vector compare), then each run of 8
    // flags packed into a mask byte by one multiply: the multiplier moves
    // flag byte `i` to bit `56 + i` of the product without carries.
    let nonzero: [u8; 64] = std::array::from_fn(|k| u8::from(scan[k] != 0));
    let mut mask = 0u64;
    for (c, flags) in nonzero.chunks_exact(8).enumerate() {
        let flags = u64::from_le_bytes(flags.try_into().expect("chunks of 8 bytes"));
        mask |= (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * c);
    }
    // The DC is coded above.
    mask &= !1;
    // Scan position of the previous coded coefficient (the DC at 0).
    let mut prev = 0usize;
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        let (run, level) = (k - prev - 1, i32::from(scan[k]));
        // A level below −32 wraps to an index past the row.
        match PAIR_ENCODE[run].get((level + 32) as usize) {
            Some(&code) => w.put_bits(code >> 5, (code & 31) as u8),
            None => w.put_ue_then_se(run as u32, level),
        }
        prev = k;
        mask &= mask - 1;
    }
    w.put_ue(EOB_RUN);
    dc
}

/// Reads a block written by [`encode_block`].
///
/// Returns the reconstructed block and its DC level (the next predictor).
///
/// # Errors
///
/// Returns [`CodecError::Malformed`] for truncated input, out-of-range
/// runs, zero levels, or coefficient overflow.
pub fn decode_block(r: &mut BitReader<'_>, dc_pred: i16) -> Result<(QBlock, i16), CodecError> {
    let mut block = [0i16; 64];
    let dc = decode_block_into(r, dc_pred, &mut block)?;
    Ok((block, dc))
}

/// [`decode_block`] writing the levels straight into `block`, which must
/// be all zeros on entry (only the coded coefficients are stored).
///
/// Each AC pair is first looked up by the reader's next 12 bits, and
/// taken when the table holds a pair there, its code is loaded and its
/// run stays inside the block; otherwise the two codes are read one at
/// a time, which decides every error. The reference reader offers no
/// bits to look up, so it always reads code by code.
///
/// Returns the block's DC level (the next predictor). On error `block`
/// may hold a partial decode.
///
/// # Errors
///
/// As [`decode_block`].
#[inline]
pub fn decode_block_into(
    r: &mut BitReader<'_>,
    dc_pred: i16,
    block: &mut QBlock,
) -> Result<i16, CodecError> {
    let dc_diff = r.get_se()?;
    // Widened: a 31-zero prefix codes a difference near ±2³¹.
    let dc = i64::from(dc_pred) + i64::from(dc_diff);
    if !(-2048..=2047).contains(&dc) {
        return Err(CodecError::Malformed { reason: format!("DC overflow: {dc}") });
    }
    block[0] = dc as i16;
    let mut pos = 1usize; // zig-zag position of the next coefficient
    loop {
        let (window, loaded) = r.peek12();
        let entry = PAIR_DECODE[window];
        let len = u32::from(entry & 15);
        let next = pos + usize::from(entry >> 4 & 63);
        if len != 0 && len <= loaded && next < 64 {
            block[ZIGZAG[next]] = entry as i16 >> 10;
            r.skip(len);
            pos = next + 1;
            continue;
        }
        let run = r.get_ue()?;
        if run == EOB_RUN {
            break;
        }
        let next = pos + run as usize;
        if next >= 64 {
            return Err(CodecError::Malformed { reason: format!("AC run past block end: {run}") });
        }
        let level = r.get_se()?;
        if level == 0 {
            return Err(CodecError::Malformed { reason: "zero AC level".into() });
        }
        if !(-2048..=2047).contains(&level) {
            return Err(CodecError::Malformed { reason: format!("AC overflow: {level}") });
        }
        block[ZIGZAG[next]] = level as i16;
        pos = next + 1;
    }
    Ok(block[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_starts_at_dc_and_low_freqs() {
        assert_eq!(ZIGZAG[0], 0);
        assert_eq!(ZIGZAG[1], 1);
        assert_eq!(ZIGZAG[2], 8);
        assert_eq!(ZIGZAG[63], 63);
    }

    fn roundtrip(block: &QBlock, dc_pred: i16) -> QBlock {
        let mut w = BitWriter::new();
        encode_block(&mut w, block, dc_pred);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let (out, _) = decode_block(&mut r, dc_pred).unwrap();
        out
    }

    #[test]
    fn empty_block_roundtrip() {
        let block = [0i16; 64];
        assert_eq!(roundtrip(&block, 0), block);
    }

    #[test]
    fn dense_block_roundtrip() {
        let mut block = [0i16; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as i16 % 17) - 8;
        }
        assert_eq!(roundtrip(&block, 5), block);
    }

    #[test]
    fn sparse_block_roundtrip() {
        let mut block = [0i16; 64];
        block[0] = 120;
        block[1] = -3;
        block[8] = 7;
        block[63] = -1;
        assert_eq!(roundtrip(&block, 100), block);
    }

    #[test]
    fn dc_prediction_chains() {
        let mut w = BitWriter::new();
        let mut blocks = Vec::new();
        let mut pred = 0i16;
        for dc in [100i16, 103, 99, 110] {
            let mut b = [0i16; 64];
            b[0] = dc;
            pred = encode_block(&mut w, &b, pred);
            blocks.push(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut pred = 0i16;
        for b in &blocks {
            let (out, next) = decode_block(&mut r, pred).unwrap();
            assert_eq!(&out, b);
            pred = next;
        }
    }

    #[test]
    fn sparse_blocks_code_compactly() {
        let mut dense = [3i16; 64];
        dense[0] = 100;
        let mut sparse = [0i16; 64];
        sparse[0] = 100;
        sparse[5] = 2;
        let size = |b: &QBlock| {
            let mut w = BitWriter::new();
            encode_block(&mut w, b, 0);
            w.bit_len()
        };
        assert!(size(&sparse) * 4 < size(&dense));
    }

    #[test]
    fn pair_decode_table_matches_the_code_readers() {
        for (window, &entry) in PAIR_DECODE.iter().enumerate() {
            // The window's 12 bits, then 4 zero bits.
            let bytes = [(window >> 4) as u8, (window << 4) as u8];
            let mut r = BitReader::new(&bytes);
            let pair = r.get_ue().and_then(|run| Ok((run, r.get_se()?)));
            let expected = match pair {
                Ok((run, level)) if r.bit_pos() <= 12 && run != EOB_RUN && level != 0 => {
                    Some((run, level, r.bit_pos() as u32))
                }
                _ => None,
            };
            let got = (entry != 0).then(|| {
                (u32::from(entry >> 4 & 63), i32::from(entry as i16 >> 10), u32::from(entry & 15))
            });
            assert_eq!(got, expected, "window {window:#014b}");
        }
    }

    #[test]
    fn pair_encode_table_matches_put_ue_then_se() {
        for (run, row) in (0u32..).zip(&PAIR_ENCODE) {
            for (level, &code) in (-32i32..).zip(row) {
                let mut table = BitWriter::new();
                table.put_bits(code >> 5, (code & 31) as u8);
                let mut fused = BitWriter::new();
                fused.put_ue_then_se(run, level);
                assert_eq!(table.bit_len(), fused.bit_len(), "run {run} level {level}");
                assert_eq!(table.into_bytes(), fused.into_bytes(), "run {run} level {level}");
            }
        }
    }

    #[test]
    fn dc_overflow_reports_the_true_sum() {
        // A 31-zero prefix codes i32::MAX; added to a predictor of 2047 it
        // must be reported, not wrapped or panicked on.
        let mut w = BitWriter::new();
        w.put_se(i32::MAX);
        w.put_ue(EOB_RUN);
        let bytes = w.into_bytes();
        for mut r in [BitReader::new(&bytes), BitReader::new_reference(&bytes)] {
            let err = decode_block(&mut r, 2047).unwrap_err().to_string();
            assert!(err.contains("DC overflow: 2147485694"), "{err}");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        // Run past block end.
        let mut w = BitWriter::new();
        w.put_se(0); // DC diff
        w.put_ue(62); // run to position 63
        w.put_se(1);
        w.put_ue(5); // now runs past 64
        w.put_se(1);
        w.put_ue(EOB_RUN);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(decode_block(&mut r, 0).is_err());

        // Truncated stream.
        let mut w = BitWriter::new();
        w.put_se(4);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // DC parses; the AC loop then hits zero-filled padding, which may
        // decode as runs; eventually underruns or errors.
        assert!(decode_block(&mut r, 0).is_err());
    }
}
