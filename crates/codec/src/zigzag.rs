//! Zig-zag scan and run/level coding of quantised blocks.

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

/// Writes a quantised block: DC as a signed predicted difference, then
/// (run, level) pairs over the zig-zag-ordered AC coefficients, terminated
/// by an end-of-block code.
///
/// The AC scan is branch-free: bit `k` of a 64-bit mask is set when scan
/// position `k` holds a nonzero level, and the emitter walks the set bits
/// with `trailing_zeros`, writing one fused run/level field per nonzero
/// coefficient (the run is the gap since the previous set bit).
///
/// Returns the block's DC level so the caller can thread the predictor.
pub fn encode_block(w: &mut BitWriter, block: &QBlock, dc_pred: i16) -> i16 {
    let dc = block[0];
    w.put_se(i32::from(dc) - i32::from(dc_pred));
    let mut mask = 0u64;
    for (k, &idx) in ZIGZAG.iter().enumerate().skip(1) {
        mask |= u64::from(block[idx] != 0) << k;
    }
    // Scan position of the previous coded coefficient (the DC at 0).
    let mut prev = 0u32;
    while mask != 0 {
        let k = mask.trailing_zeros();
        w.put_ue_then_se(k - prev - 1, i32::from(block[ZIGZAG[k as usize]]));
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
    let dc = i32::from(dc_pred) + dc_diff;
    if !(-2048..=2047).contains(&dc) {
        return Err(CodecError::Malformed { reason: format!("DC overflow: {dc}") });
    }
    block[0] = dc as i16;
    let mut pos = 1usize; // zig-zag position of the next coefficient
    loop {
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
