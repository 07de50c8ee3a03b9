//! Property-based tests over the codec, scaling and quality-metric
//! substrates, on the in-tree `annolight_support::check` harness.

use annolight::codec::motion::{estimate, predict_into, MotionVector, SEARCH_RANGE};
use annolight::codec::zigzag::{decode_block, encode_block};
use annolight::imgproc::{downscale_2x, ssim_luma, Frame};

fn frame_from_seed(seed: u64, w: u32, h: u32) -> Frame {
    Frame::from_fn(w, h, |x, y| {
        let hsh = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(x) << 17 ^ u64::from(y));
        let v = (hsh >> 29) as u8;
        [v, v.wrapping_add(13), v.wrapping_mul(3)]
    })
}

annolight_support::check! {
    /// Run/level block coding round-trips arbitrary sparse blocks exactly.
    fn block_coding_roundtrip(g) {
        use annolight::codec::bitio::{BitReader, BitWriter};
        let coeffs = g.vec(0..20usize, |g| (g.draw(0usize..64), g.draw(-500i16..=500)));
        let dc: i16 = g.draw(-1000i16..=1000);
        let mut block = [0i16; 64];
        block[0] = dc;
        for &(idx, level) in &coeffs {
            if idx > 0 {
                block[idx] = level;
            }
        }
        let mut w = BitWriter::new();
        encode_block(&mut w, &block, 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let (decoded, _) = decode_block(&mut r, 0).unwrap();
        assert_eq!(decoded, block);
    }

    /// On *smooth* content (where the SAD landscape has a gradient for the
    /// three-step search to follow) motion estimation recovers exact
    /// translations within the search window.
    fn motion_finds_exact_translation_on_smooth_content(g) {
        let phase: f64 = g.draw(0.0f64..std::f64::consts::TAU);
        let dx: i32 = g.draw(-SEARCH_RANGE..=SEARCH_RANGE);
        let dy: i32 = g.draw(-SEARCH_RANGE..=SEARCH_RANGE);
        let w = 48usize;
        let sample = |x: i32, y: i32| -> u8 {
            let v = 128.0
                + 70.0 * ((x as f64) * 0.11 + phase).sin()
                + 50.0 * ((y as f64) * 0.13 + phase * 0.7).cos();
            v.round().clamp(0.0, 255.0) as u8
        };
        let base: Vec<u8> = (0..w * w)
            .map(|i| sample((i % w) as i32, (i / w) as i32))
            .collect();
        let cur: Vec<u8> = (0..w * w)
            .map(|i| sample((i % w) as i32 + dx, (i / w) as i32 + dy))
            .collect();
        let (mv, sad) = estimate(&cur, &base, w, w, 1, 1);
        assert_eq!(sad, 0, "mv {mv:?} for shift ({dx}, {dy})");
        let mut pred = vec![0u8; 256];
        predict_into(&base, w, w, 16, 16, mv.dx.into(), mv.dy.into(), 16, &mut pred);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(pred[y * 16 + x], cur[(16 + y) * w + 16 + x]);
            }
        }
    }

    /// On *arbitrary* content the greedy search gives no optimality
    /// guarantee, but it must stay consistent: the vector is in range and
    /// never worse than the zero vector (which it starts from).
    fn motion_is_consistent_on_arbitrary_content(g) {
        use annolight::codec::motion::sad;
        let a_seed = g.any::<u64>();
        let b_seed = g.any::<u64>();
        let w = 48usize;
        let base = frame_from_seed(a_seed, 48, 48).to_luma();
        let cur = frame_from_seed(b_seed, 48, 48).to_luma();
        let (mv, best) = estimate(cur.samples(), base.samples(), w, w, 1, 1);
        assert!(i32::from(mv.dx).abs() <= SEARCH_RANGE);
        assert!(i32::from(mv.dy).abs() <= SEARCH_RANGE);
        let zero = sad(cur.samples(), base.samples(), w, w, 16, 16, 0, 0, 16);
        assert!(best <= zero, "found {best} worse than zero-vector {zero}");
        // The reported SAD matches a recount at the found vector.
        let recount = sad(
            cur.samples(), base.samples(), w, w, 16, 16,
            mv.dx.into(), mv.dy.into(), 16,
        );
        assert_eq!(best, recount);
        let _ = MotionVector::default();
    }

    /// Downscaling preserves mean luminance for arbitrary frames.
    fn downscale_preserves_mean(g) {
        let seed = g.any::<u64>();
        let f = frame_from_seed(seed, 32, 32);
        let d = downscale_2x(&f).unwrap();
        assert!((f.mean_luma() - d.mean_luma()).abs() < 2.0);
        assert_eq!(d.width(), 16);
    }

    /// SSIM is bounded, symmetric, and 1 on identical frames.
    fn ssim_axioms(g) {
        let a_seed = g.any::<u64>();
        let b_seed = g.any::<u64>();
        let a = frame_from_seed(a_seed, 24, 24).to_luma();
        let b = frame_from_seed(b_seed, 24, 24).to_luma();
        let s_ab = ssim_luma(&a, &b);
        let s_ba = ssim_luma(&b, &a);
        assert!((-1.0..=1.0 + 1e-12).contains(&s_ab));
        assert!((s_ab - s_ba).abs() < 1e-12);
        assert!((ssim_luma(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// The full intra+inter pipeline never drifts: decoding reproduces
    /// the encoder's reconstruction bit-exactly for arbitrary frames.
    fn encoder_decoder_agree_bit_exact(g) {
        use annolight::codec::picture::{decode_inter, decode_intra, encode_inter, encode_intra};
        use annolight::codec::quant::QScale;
        let seed = g.any::<u64>();
        let qscale: u8 = g.draw(1u8..=31);
        let a = frame_from_seed(seed, 32, 32).to_yuv420().unwrap();
        let b = frame_from_seed(seed.wrapping_add(1), 32, 32).to_yuv420().unwrap();
        let q = QScale::new(qscale);
        let ia = encode_intra(&a, q);
        let da = decode_intra(&ia.bytes, 32, 32).unwrap();
        assert_eq!(&da, &ia.reconstruction);
        let pb = encode_inter(&b, &ia.reconstruction, q);
        let db = decode_inter(&pb.bytes, &da).unwrap();
        assert_eq!(&db, &pb.reconstruction);
    }

    /// Rate control keeps qscale in the legal range whatever sizes it is
    /// fed.
    fn rate_control_stays_legal(g) {
        use annolight::codec::quant::QScale;
        use annolight::codec::rate::RateController;
        let sizes = g.vec(1..50usize, |g| g.draw(0usize..100_000));
        let mut rc = RateController::new(500.0, QScale::new(8));
        for s in sizes {
            rc.update(s);
            let q = rc.qscale().value();
            assert!((1..=31).contains(&q));
        }
    }
}
