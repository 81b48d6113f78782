//! The shared tally dump: one `ix iy value` line per non-zero cell, the
//! value in the shortest decimal form that parses back to the same `f64`
//! — byte for byte what `format!("{v:e}")` prints (DESIGN.md §16).
//!
//! `neutral_cli --dump-tally`, `GET /solves/:id/tallies` and the repo
//! benchmark all render through [`write_tally_dump`], so textual equality
//! of two dumps is bitwise equality of two tallies; CI checks the CLI
//! against the server with `cmp`, the fuzz suite's serve oracle checks it
//! in-process, and the benchmark's pinned checksum is over these bytes.
//!
//! The digits come from Schubfach (R. Giulietti, *The Schubfach way to
//! render doubles*, 2020): scale the value and its two rounding-interval
//! boundaries by a power of ten read from a 128-bit table — three
//! 64 × 128-bit multiplies, each rounded to odd so one sticky bit stands
//! for everything cut off — and pick the shortest integer inside the
//! interval, the closest one when several are as short. Where the value
//! lies *exactly* half way between two candidates `std` takes the upper
//! one, not the even one (`2⁻²⁵` prints `2.9802322387695313e-8`), so this
//! does too. `std`'s formatter stays as the test oracle and as the cold
//! arm for `NaN` and the infinities; no finite value goes through it.

use std::io::{self, Write};

/// Smallest and largest power of ten the table covers: `10^-k` for every
/// `k = floor(log10 2^q)` a double's binary exponent `q ∈ [-1074, 971]`
/// can produce.
const K_MIN: i32 = -292;
const K_MAX: i32 = 324;
const POW10_LEN: usize = (K_MAX - K_MIN + 1) as usize;

/// `g(k) = ceil(10^k · 2^-r)` as `(high, low)` words, with `r =
/// floor(log2 10^k) - 127` so that `2^127 <= g < 2^128`: exact for
/// `0 <= k <= 55`, rounded up elsewhere. Computed by the compiler from
/// [`pow10_table`]; a unit test re-derives every entry from its defining
/// inequality `(g-1)·2^r < 10^k <= g·2^r`.
static POW10: [(u64, u64); POW10_LEN] = pow10_table();

/// Limbs of the table builder's integers: 896 bits hold `5^324` (753
/// bits) and `2^895 / 5^292` with 128 bits to spare.
const LIMBS: usize = 14;

const fn pow10_table() -> [(u64, u64); POW10_LEN] {
    let mut table = [(0u64, 0u64); POW10_LEN];
    // k >= 0: the leading 128 bits of 5^k (10^k = 5^k · 2^k), rounded up
    // when the bits below them are not all zero.
    let mut x = [0u64; LIMBS];
    x[0] = 1;
    let mut k = 0;
    while k <= K_MAX {
        table[(k - K_MIN) as usize] = leading_128(&x, false);
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let t = x[i] as u128 * 5 + carry;
            x[i] = t as u64;
            carry = t >> 64;
            i += 1;
        }
        k += 1;
    }
    // k < 0: floor(2^895 / 5^n) by n short divisions (floors of integer
    // quotients compose exactly), its leading 128 bits, plus one — 5^n
    // never divides a power of two, so the quotient is never exact.
    let mut x = [0u64; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut n = 1;
    while n <= -K_MIN {
        let mut rem = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let t = (rem << 64) | x[i] as u128;
            x[i] = (t / 5) as u64;
            rem = t % 5;
        }
        table[(-n - K_MIN) as usize] = leading_128(&x, true);
        n += 1;
    }
    table
}

/// The 128 most significant bits of `x`, plus one if `inexact` or any bit
/// below them is set.
const fn leading_128(x: &[u64; LIMBS], inexact: bool) -> (u64, u64) {
    let mut top = LIMBS - 1;
    while x[top] == 0 {
        top -= 1;
    }
    let shift = x[top].leading_zeros();
    let a = x[top];
    let b = if top >= 1 { x[top - 1] } else { 0 };
    let c = if top >= 2 { x[top - 2] } else { 0 };
    let (hi, lo, cut) = if shift == 0 {
        (a, b, c)
    } else {
        (
            (a << shift) | (b >> (64 - shift)),
            (b << shift) | (c >> (64 - shift)),
            c << shift,
        )
    };
    let mut sticky = inexact || cut != 0;
    let mut i = 0;
    while i + 2 < top {
        sticky = sticky || x[i] != 0;
        i += 1;
    }
    if !sticky {
        return (hi, lo);
    }
    let (lo, carry) = lo.overflowing_add(1);
    (hi + carry as u64, lo)
}

/// `"00" "01" … "99"`: digits leave two at a time.
static PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The high 128 bits of `g · cp` (`g` a table entry, `cp < 2^64`), with
/// the lowest kept bit set if any lower bit was: enough to compare the
/// product against an integer or an integer plus one half.
fn round_to_odd((g_hi, g_lo): (u64, u64), cp: u64) -> u64 {
    let low = u128::from(g_lo) * u128::from(cp);
    let high = u128::from(g_hi) * u128::from(cp) + (low >> 64);
    (high >> 64) as u64 | u64::from(high as u64 > 1)
}

/// Schubfach: the shortest `digits · 10^exponent` that reads back as the
/// finite non-zero double with fraction field `frac` and biased exponent
/// field `exp` (`digits` may end in zeros).
fn shortest(frac: u64, exp: i32) -> (u64, i32) {
    let (c, q) = if exp != 0 {
        (frac | 1 << 52, exp - 1075)
    } else {
        (frac, -1074)
    };
    // An even significand owns its interval's end points (round half to
    // even on the way back in).
    let closed = c & 1 == 0;
    // At a power of two the lower neighbour is half as far away.
    let near_lower = frac == 0 && exp > 1;
    let cb = 4 * c;
    let cbl = cb - 2 + u64::from(near_lower);
    let cbr = cb + 2;
    // k = floor(log10 2^q), or floor(log10 (3/4)·2^q) for the uneven
    // interval; h = q + floor(log2 10^-k) + 1 lands in 1..=4.
    let k = if near_lower {
        (q * 1_262_611 - 524_031) >> 22
    } else {
        (q * 1_262_611) >> 22
    };
    let h = q + ((-k * 1_741_647) >> 19) + 1;
    let g = POW10[(-k - K_MIN) as usize];
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    let lower = vbl + u64::from(!closed);
    let upper = vbr - u64::from(!closed);

    let s = vb / 4;
    if s >= 10 {
        // One digit fewer, if exactly one such candidate is inside.
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return (sp + u64::from(up_inside), k + 1);
        }
    }
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    if down_inside != up_inside {
        return (s + u64::from(up_inside), k);
    }
    // Both inside: the closer one, and on an exact tie the upper — std's
    // rule (half up), not IEEE's (half to even).
    (s + u64::from(vb >= 4 * s + 2), k)
}

/// Append `n` in decimal.
fn push_uint(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `v` exactly as `write!(out, "{v:e}")` would.
fn push_f64_e(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let frac = bits & ((1 << 52) - 1);
    let exp = (bits >> 52 & 0x7ff) as i32;
    if exp == 0x7ff {
        // NaN and the infinities: nothing to shorten.
        let _ = write!(out, "{v:e}");
        return;
    }
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    if exp == 0 && frac == 0 {
        out.extend_from_slice(b"0e0");
        return;
    }
    let (mut digits, mut exp10) = shortest(frac, exp);
    while digits.is_multiple_of(10) {
        digits /= 10;
        exp10 += 1;
    }
    let from = out.len();
    // A gap for the point after the first digit, closed again if the
    // first digit is the only one.
    out.push(b'0');
    push_uint(out, digits);
    let n = out.len() - from - 1;
    out[from] = out[from + 1];
    if n == 1 {
        out.pop();
    } else {
        out[from + 1] = b'.';
    }
    out.push(b'e');
    let exp10 = exp10 + n as i32 - 1;
    if exp10 < 0 {
        out.push(b'-');
    }
    push_uint(out, u64::from(exp10.unsigned_abs()));
}

/// Longest `value` text: sign, 17 digits, point, `e-`, three digits.
const MAX_VALUE_LEN: usize = 24;

/// Longest line: two 20-digit indices, two spaces, the value, the newline.
const MAX_LINE_LEN: usize = 20 + 1 + 20 + 1 + MAX_VALUE_LEN + 1;

/// Bytes [`write_tally_dump`] renders before handing them to the writer.
const CHUNK: usize = 32 * 1024;

fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Upper bound on the bytes [`write_tally_dump`] writes for `tally`: its
/// non-zero cells times the longest line its indices allow.
#[must_use]
pub fn tally_dump_capacity(tally: &[f64], nx: usize) -> usize {
    let cells = tally.iter().filter(|&&v| v != 0.0).count();
    let line = decimal_len(nx) + decimal_len(tally.len() / nx) + MAX_VALUE_LEN + 3;
    cells * line
}

/// The shared tally dump format: one `ix iy value` line per non-zero
/// cell of the row-major `tally` (`nx > 0` cells per row). A value is the
/// shortest decimal that parses back to the same `f64`, in the form and
/// with the bytes of `{:e}` (see the module docs; the unit tests hold the
/// formatter to `std`'s on every exponent, the exact-tie family and
/// millions of random bit patterns), so textual equality of two dumps is
/// bitwise equality of two tallies.
pub fn write_tally_dump(tally: &[f64], nx: usize, out: &mut impl Write) -> io::Result<()> {
    let mut chunk: Vec<u8> = Vec::with_capacity(CHUNK);
    let mut row_tag = Vec::with_capacity(24);
    for (iy, row) in tally.chunks(nx).enumerate() {
        row_tag.clear();
        row_tag.push(b' ');
        push_uint(&mut row_tag, iy as u64);
        row_tag.push(b' ');
        for (ix, &v) in row.iter().enumerate() {
            if v != 0.0 {
                if chunk.len() + MAX_LINE_LEN > CHUNK {
                    out.write_all(&chunk)?;
                    chunk.clear();
                }
                push_uint(&mut chunk, ix as u64);
                chunk.extend_from_slice(&row_tag);
                push_f64_e(&mut chunk, v);
                chunk.push(b'\n');
            }
        }
    }
    out.write_all(&chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::Gen;

    /// The writer this module replaced — `std`'s formatter, the oracle.
    fn reference_dump(tally: &[f64], nx: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, &v) in tally.iter().enumerate() {
            if v != 0.0 {
                writeln!(out, "{} {} {v:e}", i % nx, i / nx).unwrap();
            }
        }
        out
    }

    fn dump(tally: &[f64], nx: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_tally_dump(tally, nx, &mut out).unwrap();
        out
    }

    /// `v` (and `-v`) formats as `std` formats it and, when it is a
    /// number, parses back to its own bits.
    #[track_caller]
    fn check(buf: &mut Vec<u8>, v: f64) {
        for v in [v, -v] {
            buf.clear();
            push_f64_e(buf, v);
            let text = std::str::from_utf8(buf).unwrap();
            assert_eq!(text, format!("{v:e}"), "bits {:#018x}", v.to_bits());
            if !v.is_nan() {
                let back: f64 = text.parse().unwrap();
                assert_eq!(back.to_bits(), v.to_bits(), "{text}");
            }
        }
    }

    /// `2^q`, exactly, subnormal results included.
    fn pow2(q: i32) -> f64 {
        if q >= -1022 {
            f64::from_bits(((q + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (q + 1074))
        }
    }

    #[test]
    fn every_exponent_at_its_edge_mantissas() {
        let buf = &mut Vec::new();
        for e in 0..=2047u64 {
            for m in [0, 1, 2, 1 << 51, (1 << 52) - 2, (1 << 52) - 1] {
                check(buf, f64::from_bits(e << 52 | m));
            }
        }
    }

    #[test]
    fn powers_of_ten_and_their_neighbours() {
        let buf = &mut Vec::new();
        for k in -323..=308 {
            let v: f64 = format!("1e{k}").parse().unwrap();
            for bits in [v.to_bits() - 1, v.to_bits(), v.to_bits() + 1] {
                check(buf, f64::from_bits(bits));
            }
        }
    }

    /// `(c + ½)·2^q` has a decimal expansion that ends exactly half way
    /// between two 17-digit candidates for many `c`: the family that
    /// separates `std`'s half-up from round-half-even.
    #[test]
    fn exact_ties_round_half_up_like_std() {
        let buf = &mut Vec::new();
        check(buf, pow2(-25));
        assert_eq!(buf, b"-2.9802322387695313e-8");
        for q in -120..120 {
            let unit = pow2(q);
            for c in 0..3000u32 {
                check(buf, f64::from(c) * unit);
                check(buf, (f64::from(c) + 0.5) * unit);
            }
        }
    }

    #[test]
    fn subnormals_integers_fractions_and_named_values() {
        let buf = &mut Vec::new();
        for q in -1074..=-1000 {
            for c in 1..3000u64 {
                check(buf, c as f64 * pow2(q));
            }
        }
        for i in 0..100_000u32 {
            let i = f64::from(i);
            check(buf, i);
            check(buf, i * 0.1);
            check(buf, 1.0 / i);
        }
        for v in [
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.0,
            9_007_199_254_740_994.0,
            f64::EPSILON,
            1e23,
            f64::NAN,
            f64::INFINITY,
            0.0,
        ] {
            check(buf, v);
        }
    }

    /// Little-endian base-2^32 naturals: just enough arithmetic to restate
    /// the table's definition without the builder's shortcuts.
    fn big(mut n: u128) -> Vec<u32> {
        let mut limbs = Vec::new();
        while n != 0 {
            limbs.push(n as u32);
            n >>= 32;
        }
        limbs
    }

    fn mul(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = u64::from(x) * u64::from(y) + u64::from(out[i + j]) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + b.len()] = carry as u32;
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn bit_len(a: &[u32]) -> usize {
        32 * a.len() - a.last().map_or(0, |top| top.leading_zeros() as usize)
    }

    fn pow(base: u32, n: usize) -> Vec<u32> {
        (0..n).fold(big(1), |acc, _| mul(&acc, &[base]))
    }

    fn less(a: &[u32], b: &[u32]) -> bool {
        (a.len(), a.iter().rev().collect::<Vec<_>>()) < (b.len(), b.iter().rev().collect())
    }

    /// Every entry is the one `g` with `(g-1)·2^r < 10^k <= g·2^r` and
    /// `2^127 <= g < 2^128`, multiplied out in full.
    #[test]
    fn pow10_table_meets_its_definition() {
        for k in K_MIN..=K_MAX {
            let (hi, lo) = POW10[(k - K_MIN) as usize];
            assert!(hi >> 63 == 1, "k = {k}: not normalised");
            let g = u128::from(hi) << 64 | u128::from(lo);
            let ten = pow(10, k.unsigned_abs() as usize);
            // Both sides of the inequality scaled to integers:
            // (g-1)·a < b <= g·a.
            let (a, b) = if k < 0 {
                // 10^k = 1/10^n and -r = bit_len(10^n) + 127.
                (ten.clone(), pow(2, bit_len(&ten) + 127))
            } else if bit_len(&ten) >= 128 {
                (pow(2, bit_len(&ten) - 128), ten)
            } else {
                (big(1), mul(&ten, &pow(2, 128 - bit_len(&ten))))
            };
            assert!(less(&mul(&big(g - 1), &a), &b), "k = {k}: too large");
            assert!(!less(&mul(&big(g), &a), &b), "k = {k}: too small");
        }
        // The two ends as the Schubfach reference implementations print them.
        assert_eq!(POW10[0], (0xFF77_B1FC_BEBC_DC4F, 0x25E8_E89C_13BB_0F7B));
        assert_eq!(
            POW10[POW10_LEN - 1],
            (0x9E19_DB92_B4E3_1BA9, 0x6C07_A2C2_6A83_46D2)
        );
    }

    /// A writer that takes one byte per call.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend(buf.first());
            Ok(buf.len().min(1))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dump_is_the_reference_dump_whatever_the_writer_accepts() {
        let g = &mut Gen::new(7);
        // Wide enough for several chunks, ragged last row, values of every
        // magnitude, and a NaN and an infinity for the cold arm.
        let mut tally: Vec<f64> = (0..5 * CHUNK / 20 + 3)
            .map(|_| match g.usize_in(0, 4) {
                0 => 0.0,
                1 => g.log_uniform(1e-150, 1e150),
                2 => g.usize_in(0, 1000) as f64,
                _ => g.f64_unit(),
            })
            .collect();
        tally[5] = f64::NAN;
        tally[6] = f64::NEG_INFINITY;
        tally[7] = -0.0;
        for nx in [1, 7, 1000, tally.len() + 5] {
            let expected = reference_dump(&tally, nx);
            assert!(expected.len() > 2 * CHUNK);
            assert!(dump(&tally, nx) == expected, "nx = {nx}");
            assert!(expected.len() <= tally_dump_capacity(&tally, nx));
            let mut trickle = Trickle(Vec::new());
            write_tally_dump(&tally, nx, &mut trickle).unwrap();
            assert!(trickle.0 == expected, "nx = {nx}, one byte per write");
            // Each line parses back to the cell it came from.
            for line in std::str::from_utf8(&expected).unwrap().lines() {
                let mut it = line.split(' ');
                let ix: usize = it.next().unwrap().parse().unwrap();
                let iy: usize = it.next().unwrap().parse().unwrap();
                let v: f64 = it.next().unwrap().parse().unwrap();
                let cell = tally[iy * nx + ix];
                assert!(v.to_bits() == cell.to_bits() || (v.is_nan() && cell.is_nan()));
            }
        }
        assert_eq!(dump(&[], 4), b"");
    }

    #[test]
    fn random_bit_patterns_match_std() {
        let g = &mut Gen::new(20_170_905);
        let buf = &mut Vec::new();
        for _ in 0..1_000_000 {
            check(buf, f64::from_bits(g.u64_any()));
        }
    }
}
