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
//!
//! A line is assembled where it lands, in a zeroed window at the end of
//! the output buffer, from whole words: the column's digits split out of
//! one word by two multiplies, the row's `" iy "` tag copied whole, the
//! value's 17 digits as a top digit and four groups of four (each group
//! its own quotient, so no group waits for another), and the exponent
//! text from a table. Zero cells are skipped eight per test.
//!
//! A tally of more than one row band (16 384 cells) renders its bands on
//! up to the host's width of threads, the caller one of them, one thread
//! per ≈ 0.27 ms of estimated work.
//! Every band goes through the one renderer, and only the calling thread
//! writes, in band order, so the bytes are the one-thread bytes whatever
//! the width (DESIGN.md §16 "Row bands").

use std::convert::Infallible;
use std::hint::select_unpredictable;
use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::sync::{mpsc, OnceLock};
use std::thread;

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
/// field `exp` (`digits < 10^17`, and may end in zeros).
#[inline(always)]
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
    let sp = s / 10;
    // One digit fewer, if exactly one such candidate is inside.
    let sp_down = lower <= 40 * sp;
    let sp_up = 40 * sp + 40 <= upper;
    let shorter = (s >= 10) & (sp_down != sp_up);
    // Otherwise the one candidate inside or, both inside, the closer one,
    // and on an exact tie the upper — std's rule (half up), not IEEE's
    // (half to even). Selects, not branches: which case a value falls in
    // is close to a coin toss.
    let down = lower <= 4 * s;
    let up = 4 * s + 4 <= upper;
    let round_up = select_unpredictable(down == up, vb >= 4 * s + 2, up);
    select_unpredictable(
        shorter,
        (sp + u64::from(sp_up), k + 1),
        (s + u64::from(round_up), k),
    )
}

/// `'0'` in every byte of a word.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// The four decimal digits of each 32-bit lane of `x` (each below
/// 10^4), zero-padded, one per byte — digit values, not yet ASCII — the
/// first digit in the lowest byte, so `to_le_bytes` reads them in print
/// order. Each step splits every lane in two with one multiply: 4 digits
/// into 2 + 2, then 2 into 1 + 1, as `q + (x - q·d)·2^w`, written
/// `x·2^w + q·(1 - d·2^w)` to keep the chain short.
fn digit_lanes(x: u64) -> u64 {
    // In each 32-bit lane: ⌊x·10 486 / 2^20⌋ = ⌊x / 100⌋ for x < 43 699.
    let q = ((x * 10_486) >> 20) & 0x0000_007F_0000_007F;
    let x = (x << 16).wrapping_add(q.wrapping_mul(1u64.wrapping_sub(100 << 16)));
    // In each 16-bit lane: ⌊x·103 / 2^10⌋ = ⌊x / 10⌋ for x < 179.
    let q = ((x * 103) >> 10) & 0x000F_000F_000F_000F;
    (x << 8).wrapping_add(q.wrapping_mul(1u64.wrapping_sub(10 << 8)))
}

/// The eight decimal digits of `n < 10^8` as [`digit_lanes`] lays them
/// out.
fn eight_digits(n: u64) -> u64 {
    digit_lanes((n / 10_000) | ((n % 10_000) << 32))
}

/// Write `n` in decimal at `line[at..]` and return where it ends. Eight
/// bytes are stored at a time, so up to seven bytes past the end are
/// overwritten.
#[inline(always)]
fn put_uint(line: &mut [u8], at: usize, n: u64) -> usize {
    let (word, len) = if n < 10_000 {
        (digit_lanes(n), 4)
    } else if n < 100_000_000 {
        (eight_digits(n), 8)
    } else {
        return put_long_uint(line, at, n);
    };
    // The leading zeros are the low zero bytes; a zero keeps one.
    let skip = (word.trailing_zeros() / 8).min(len - 1);
    let text = (word + ZEROS) >> (8 * skip);
    line[at..at + 8].copy_from_slice(&text.to_le_bytes());
    at + (len - skip) as usize
}

/// [`put_uint`] for `n >= 10^8`: an index no tally of a sane size has.
#[cold]
fn put_long_uint(line: &mut [u8], at: usize, n: u64) -> usize {
    let at = put_uint(line, at, n / 100_000_000);
    let low = eight_digits(n % 100_000_000) + ZEROS;
    line[at..at + 8].copy_from_slice(&low.to_le_bytes());
    at + 8
}

/// The smallest 17-digit number.
const E16: u64 = 10u64.pow(16);

/// Smallest and largest decimal exponent of a finite non-zero double in
/// `{:e}` form (`5e-324`, `1.7976931348623157e308`).
const E_MIN: i32 = -324;
const E_MAX: i32 = 308;

/// `"e-324"` … `"e308"`, one 8-byte entry per exponent, its length in
/// the last byte: the exponent text leaves in one store.
static EXP_TEXT: [[u8; 8]; (E_MAX - E_MIN + 1) as usize] = {
    let mut table = [[0u8; 8]; (E_MAX - E_MIN + 1) as usize];
    let mut i = 0;
    while i < table.len() {
        let e = E_MIN + i as i32;
        let m = e.unsigned_abs();
        let t = &mut table[i];
        t[0] = b'e';
        let mut n = 1;
        if e < 0 {
            t[n] = b'-';
            n += 1;
        }
        if m >= 100 {
            t[n] = b'0' + (m / 100) as u8;
            n += 1;
        }
        if m >= 10 {
            t[n] = b'0' + (m / 10 % 10) as u8;
            n += 1;
        }
        t[n] = b'0' + (m % 10) as u8;
        t[7] = n as u8 + 1;
        i += 1;
    }
    table
};

/// Write `v` exactly as `write!(…, "{v:e}")` would at `line[at..]` and
/// return where it ends; bytes past the end may be overwritten.
#[inline(always)]
fn put_value(line: &mut [u8; LINE_BUF], at: usize, v: f64) -> usize {
    let bits = v.to_bits();
    let frac = bits & ((1 << 52) - 1);
    let exp = (bits >> 52 & 0x7ff) as i32;
    if exp == 0x7ff {
        return put_nan_or_infinity(line, at, v);
    }
    line[at] = b'-';
    let at = at + (bits >> 63) as usize;
    if exp == 0 && frac == 0 {
        line[at..at + 3].copy_from_slice(b"0e0");
        return at + 3;
    }
    let (digits, exp10) = shortest(frac, exp);
    // Scale the digits to exactly 17: a normal double's are 16 or 17, and
    // only a subnormal's may be fewer. `e` is the exponent of the first.
    let short = digits < E16;
    let mut digits = select_unpredictable(short, digits * 10, digits);
    let mut e = exp10 + 16 - i32::from(short);
    while digits < E16 {
        digits *= 10;
        e -= 1;
    }
    // The first digit, and four groups of four, each its own quotient of
    // `digits`: no group waits for another. Spelled out, not `array::map`,
    // which is left as a call.
    let q = [
        digits / 10u64.pow(16),
        digits / 10u64.pow(12),
        digits / 10u64.pow(8),
        digits / 10u64.pow(4),
    ];
    let group = |i: usize| q[i + 1] - q[i] * 10_000;
    let low = digits - q[3] * 10_000;
    let rest = u128::from(digit_lanes(group(0) | group(1) << 32))
        | u128::from(digit_lanes(group(2) | low << 32)) << 64;
    // The digits after the first, trailing zeros (high zero bytes) off.
    let rest_len = (128 - rest.leading_zeros()).div_ceil(8) as usize;
    line[at] = b'0' + q[0] as u8;
    line[at + 1] = b'.';
    let text = rest + (u128::from(ZEROS) << 64 | u128::from(ZEROS));
    line[at + 2..at + 18].copy_from_slice(&text.to_le_bytes());
    let at = at + 1 + usize::from(rest_len != 0) + rest_len;
    let text = &EXP_TEXT[(e - E_MIN) as usize];
    line[at..at + 8].copy_from_slice(text);
    at + usize::from(text[7])
}

/// `NaN` and the infinities, through `std`'s formatter: nothing to
/// shorten.
#[cold]
fn put_nan_or_infinity(line: &mut [u8], at: usize, v: f64) -> usize {
    let mut rest = &mut line[at..];
    let room = rest.len();
    write!(rest, "{v:e}").expect("a line has room for NaN and the infinities");
    at + room - rest.len()
}

/// Longest `value` text: sign, 17 digits, point, `e-`, three digits.
const MAX_VALUE_LEN: usize = 24;

/// Longest line: two 20-digit indices, two spaces, the value, the newline.
const MAX_LINE_LEN: usize = 20 + 1 + 20 + 1 + MAX_VALUE_LEN + 1;

/// Bytes a line is assembled in: the longest line, plus room for the
/// whole words stored past the end of its text (the widest is the
/// 32-byte row tag).
const LINE_BUF: usize = MAX_LINE_LEN + 32;

/// Bytes [`write_tally_dump`] renders before handing them to the writer
/// when it renders on the calling thread.
const CHUNK: usize = 32 * 1024;

/// Bytes of zeros [`render_rows`] lays ahead of its lines at a time.
const ZEROED_AHEAD: usize = 4096;

/// Cells in one band of the parallel dump, rounded up to whole rows. At
/// ≈ 33 ns a line a dense band renders in ≈ 0.5 ms, which dwarfs the tens
/// of µs a scoped thread takes to start; a 512² tally is 16 bands, a 128²
/// tally one (DESIGN.md §16 "Row bands").
const BAND_CELLS: usize = 16_384;

/// Estimated dump lines that pay for one more rendering thread: ≈ 0.27
/// ms of rendering at ≈ 33 ns a line, about what a helper's start and its
/// band hand-offs cost. Two threads start at twice that, where a measured
/// two-thread render of 14 281 lines scattered over a 512² tally already
/// read 0.88 → 0.60 ms. A sparse tally renders on fewer threads than it
/// has bands: `scatter`'s 512² tally (3 001 lines, ≈ 0.13 ms) stays on
/// the calling thread.
const LINES_PER_THREAD: usize = 8_192;

/// Zero cells the renderer scans in the time it renders one line
/// (≈ 0.13 ns, eight cells a test, against ≈ 33 ns).
const SCAN_CELLS_PER_LINE: usize = 256;

/// Band buffers one helper owns. One is enough: the caller hands it back
/// as soon as it has written the band, then renders a band of its own
/// while the helper renders its next.
const HELPER_BUFFERS: usize = 1;

fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Upper bound on the bytes [`write_tally_dump`] writes for `tally`: its
/// non-zero cells times the longest line its indices allow.
#[must_use]
pub fn tally_dump_capacity(tally: &[f64], nx: usize) -> usize {
    nonzero_cells(tally) * line_bound(tally.len(), nx)
}

/// The cells of `cells` that make a dump line (all but `+0.0` and
/// `-0.0`): one branch-free pass of float compares, two words per SSE2
/// instruction. The same test on shifted bits does not vectorize without
/// a 64-bit integer compare and read 3× slower.
fn nonzero_cells(cells: &[f64]) -> usize {
    cells.iter().filter(|&&v| v != 0.0).count()
}

/// The longest line the indices of a `cells`-cell tally of `nx` columns
/// allow.
fn line_bound(cells: usize, nx: usize) -> usize {
    decimal_len(nx) + decimal_len(cells / nx) + MAX_VALUE_LEN + 3
}

/// The shared tally dump format: one `ix iy value` line per non-zero
/// cell of the row-major `tally` (`nx > 0` cells per row). A value is the
/// shortest decimal that parses back to the same `f64`, in the form and
/// with the bytes of `{:e}` (see the module docs; the unit tests hold the
/// formatter to `std`'s on every exponent, the exact-tie family and
/// millions of random bit patterns), so textual equality of two dumps is
/// bitwise equality of two tallies.
///
/// A tally of more than one band of 16 384 cells with enough non-zero
/// cells renders on up to `available_parallelism` threads (see the
/// module docs); only the calling thread writes to `out`, so `out` need
/// not be `Send`.
pub fn write_tally_dump(tally: &[f64], nx: usize, out: &mut impl Write) -> io::Result<()> {
    let band_rows = BAND_CELLS.div_ceil(nx);
    let threads = host_width().min(estimated_lines(tally, nx, band_rows) / LINES_PER_THREAD);
    write_bands(tally, nx, band_rows, threads, out)
}

/// The dump's work in lines, estimated from the first row of each band
/// (≈ 3 % of a 512² tally): its non-zero cells scaled to the band, plus
/// one line per [`SCAN_CELLS_PER_LINE`] cells scanned.
fn estimated_lines(tally: &[f64], nx: usize, band_rows: usize) -> usize {
    let sampled: usize = tally
        .chunks(nx * band_rows)
        .map(|band| nonzero_cells(&band[..nx.min(band.len())]))
        .sum();
    sampled * band_rows + tally.len() / SCAN_CELLS_PER_LINE
}

/// `available_parallelism`, read once: `std` re-reads the cgroup quota
/// files on every call.
fn host_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// [`write_tally_dump`] in bands of `band_rows` rows on at most `threads`
/// threads, the caller one of them. One band, or one thread, renders on
/// the calling thread with no spawn. Otherwise, with `n` threads, band `b`
/// belongs to thread `b % n`: the caller renders its own bands straight
/// into `out`, [`CHUNK`] bytes at a time, and each helper renders its
/// bands into its [`HELPER_BUFFERS`] recycled buffers and sends them over
/// its own bounded channel. The caller allocates those buffers, with room
/// for a band's longest text, so they stay in the caller's allocator
/// arena. The caller writes every band in order and hands each buffer
/// back, so only it touches `out`. A helper that cannot
/// be spawned leaves its bands to the caller. When `out` fails, dropping
/// the channels stops every helper at its next send or receive, and the
/// scope joins them before the error returns.
pub(crate) fn write_bands(
    tally: &[f64],
    nx: usize,
    band_rows: usize,
    threads: usize,
    out: &mut impl Write,
) -> io::Result<()> {
    let bands: Vec<&[f64]> = tally.chunks(nx * band_rows).collect();
    let threads = threads.min(bands.len());
    let mut chunk = Vec::with_capacity(CHUNK);
    if threads <= 1 {
        return write_rows(tally, nx, 0, &mut chunk, out);
    }
    // Room for a band's longest text and the window its last line is
    // assembled in, so a helper never grows its buffer, but for rows wider
    // than a band: there it grows past the cap.
    let band_bytes = (nx * band_rows).min(2 * BAND_CELLS) * line_bound(tally.len(), nx) + LINE_BUF;
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|h| {
                let (full_tx, full_rx) = mpsc::sync_channel(HELPER_BUFFERS);
                let (empty_tx, empty_rx) = mpsc::channel();
                for _ in 0..HELPER_BUFFERS {
                    let _ = empty_tx.send(Vec::with_capacity(band_bytes));
                }
                let mine = bands.iter().enumerate().skip(h).step_by(threads);
                let render = move || {
                    for (b, band) in mine {
                        let Ok(mut buf) = empty_rx.recv() else {
                            return;
                        };
                        buf.clear();
                        let iy0 = b * band_rows;
                        let Ok(()) =
                            render_rows::<Infallible>(band, nx, iy0, &mut buf, usize::MAX, |_| {
                                Ok(())
                            });
                        if full_tx.send(buf).is_err() {
                            return;
                        }
                    }
                };
                let spawned = thread::Builder::new()
                    .name("dump-band".into())
                    .spawn_scoped(scope, render);
                spawned.is_ok().then_some((full_rx, empty_tx))
            })
            .collect();
        for (b, band) in bands.iter().enumerate() {
            // Thread 0 is the caller; a helper that did not spawn is `None`.
            let helper = (b % threads)
                .checked_sub(1)
                .and_then(|h| helpers[h].as_ref());
            match helper {
                Some((full, empty)) => {
                    let buf = full
                        .recv()
                        .expect("a dump helper stopped before its last band");
                    out.write_all(&buf)?;
                    // The helper may have no band left to render.
                    let _ = empty.send(buf);
                }
                None => write_rows(band, nx, b * band_rows, &mut chunk, out)?,
            }
        }
        Ok(())
    })
}

/// Render `rows` (whole rows, the first numbered `iy0`) on this thread,
/// [`CHUNK`] bytes at a time, into `out`.
fn write_rows(
    rows: &[f64],
    nx: usize,
    iy0: usize,
    chunk: &mut Vec<u8>,
    out: &mut impl Write,
) -> io::Result<()> {
    chunk.clear();
    render_rows(rows, nx, iy0, chunk, CHUNK, |bytes| out.write_all(bytes))?;
    out.write_all(chunk)
}

/// `" iy "` for row `iy`, and its length: copied whole into every line of
/// the row.
fn row_tag(iy: usize) -> ([u8; 32], usize) {
    let mut tag = [0u8; 32];
    tag[0] = b' ';
    let end = put_uint(&mut tag, 1, iy as u64);
    tag[end] = b' ';
    (tag, end + 1)
}

/// The one renderer: append the dump lines of `rows` — whole rows of `nx`
/// cells but maybe the last, the first numbered `iy0` — to `buf`, handing
/// `buf` to `spill` and clearing it whenever one more line could take it
/// past `limit` bytes.
///
/// Cells are tested eight at a time: `bits << 1` is zero for `+0.0` and
/// `-0.0` alone, so a block whose shifted bits OR to zero holds no line,
/// and only the other blocks are walked cell by cell. A block may
/// straddle rows. Each line is assembled in one stack buffer and appended
/// once.
fn render_rows<E>(
    rows: &[f64],
    nx: usize,
    iy0: usize,
    buf: &mut Vec<u8>,
    limit: usize,
    mut spill: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let (mut row_start, mut iy) = (0, iy0);
    let mut tag = row_tag(iy);
    let mut end = buf.len();
    let (blocks, tail) = rows.as_chunks::<8>();
    let live = blocks
        .iter()
        .enumerate()
        .filter(|(_, block)| block.iter().fold(0, |any, v| any | v.to_bits() << 1) != 0)
        .map(|(b, block)| (8 * b, &block[..]))
        .chain([(rows.len() - tail.len(), tail)]);
    for (first, cells) in live {
        for (j, &v) in cells.iter().enumerate() {
            if v.to_bits() << 1 == 0 {
                continue;
            }
            let mut ix = first + j - row_start;
            if ix >= nx {
                let rows_on = ix / nx;
                row_start += rows_on * nx;
                iy += rows_on;
                ix -= rows_on * nx;
                tag = row_tag(iy);
            }
            if end + LINE_BUF > limit {
                buf.truncate(end);
                spill(buf)?;
                buf.clear();
                end = 0;
            }
            if buf.len() < end + LINE_BUF {
                // Zero a few KB ahead, within the capacity where there is room.
                let ahead = (buf.len() + ZEROED_AHEAD).min(buf.capacity());
                buf.resize(ahead.max(end + LINE_BUF), 0);
            }
            let line: &mut [u8; LINE_BUF] = (&mut buf[end..end + LINE_BUF]).try_into().unwrap();
            let at = put_uint(line, 0, ix as u64);
            line[at..at + 32].copy_from_slice(&tag.0);
            let at = put_value(line, at + tag.1, v);
            line[at] = b'\n';
            end += at + 1;
        }
    }
    buf.truncate(end);
    Ok(())
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

    /// Append `v` as a dump line renders it.
    fn push_f64_e(buf: &mut Vec<u8>, v: f64) {
        let mut line = [0; LINE_BUF];
        let end = put_value(&mut line, 0, v);
        buf.extend_from_slice(&line[..end]);
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

    /// A writer that takes `left` more bytes and then fails.
    struct FailAfter {
        taken: Vec<u8>,
        left: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("disk full"));
            }
            let n = buf.len().min(self.left);
            self.taken.extend_from_slice(&buf[..n]);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Several chunks' worth of values of every magnitude, a NaN and an
    /// infinity in the first row and again deep in the tally (inside a
    /// helper's band at every band height), a signed zero, and 3 000
    /// zero cells in a row — whole zero bands at 1 and 3 rows for every
    /// width but the one-row tally.
    fn sample_tally() -> Vec<f64> {
        let g = &mut Gen::new(7);
        let mut tally: Vec<f64> = (0..8 * CHUNK / 20 + 3)
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
        tally[3000..6000].fill(0.0);
        tally[9000] = f64::NAN;
        tally[9001] = f64::INFINITY;
        tally
    }

    /// Widths with a ragged last row, and band heights of one row, three
    /// rows (a ragged last band) and the whole tally.
    fn band_cases(len: usize) -> impl Iterator<Item = (usize, usize)> {
        [1, 7, 1000, len + 5].into_iter().flat_map(move |nx| {
            [1, 3, len.div_ceil(nx)]
                .into_iter()
                .map(move |band_rows| (nx, band_rows))
        })
    }

    /// Every band height and thread count writes the reference bytes, to a
    /// `Vec` and one byte per call.
    #[test]
    fn dump_is_the_reference_dump_whatever_the_writer_accepts() {
        let tally = sample_tally();
        for nx in [1, 7, 1000, tally.len() + 5] {
            let expected = reference_dump(&tally, nx);
            assert!(expected.len() > 2 * CHUNK);
            assert!(dump(&tally, nx) == expected, "nx = {nx}");
            assert!(expected.len() <= tally_dump_capacity(&tally, nx));
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
        for (nx, band_rows) in band_cases(tally.len()) {
            let expected = reference_dump(&tally, nx);
            for threads in [1, 2, 5] {
                let label = format!("nx = {nx}, {band_rows}-row bands, {threads} threads");
                let mut out = Vec::new();
                write_bands(&tally, nx, band_rows, threads, &mut out).unwrap();
                assert!(out == expected, "{label}");
                let mut trickle = Trickle(Vec::new());
                write_bands(&tally, nx, band_rows, threads, &mut trickle).unwrap();
                assert!(trickle.0 == expected, "{label}, one byte per write");
            }
        }
        assert_eq!(dump(&[], 4), b"");
    }

    /// A writer that fails before the first byte, inside a band and in the
    /// last band: the error comes back once the helpers have stopped (the
    /// scope joins them) — no hang, no panic — and the bytes taken are the
    /// reference dump's prefix.
    #[test]
    fn a_failing_writer_returns_its_error_with_every_helper_stopped() {
        let tally = sample_tally();
        for (nx, band_rows) in band_cases(tally.len()) {
            let expected = reference_dump(&tally, nx);
            for threads in [1, 2, 5] {
                for k in [0, expected.len() / 2 + 3, expected.len() - 1] {
                    let label =
                        format!("nx = {nx}, {band_rows}-row bands, {threads} threads, {k} bytes");
                    let (done_tx, done_rx) = mpsc::channel();
                    let tally = tally.clone();
                    thread::spawn(move || {
                        let mut out = FailAfter {
                            taken: Vec::new(),
                            left: k,
                        };
                        let result = write_bands(&tally, nx, band_rows, threads, &mut out);
                        done_tx.send((result, out.taken)).unwrap();
                    });
                    let (result, taken) = done_rx
                        .recv_timeout(std::time::Duration::from_secs(60))
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let err = result.expect_err(&label);
                    assert_eq!(err.to_string(), "disk full", "{label}");
                    assert!(taken == expected[..k], "{label}: not the reference prefix");
                }
            }
        }
    }

    /// A dense 512² tally is work for more than two threads; one of 3 000
    /// scattered lines is work for one.
    #[test]
    fn the_work_estimate_splits_dense_tallies_only() {
        let nx = 512;
        let band_rows = BAND_CELLS.div_ceil(nx);
        let dense = vec![1.0; nx * nx];
        assert!(estimated_lines(&dense, nx, band_rows) / LINES_PER_THREAD > 2);
        let g = &mut Gen::new(11);
        let mut sparse = vec![0.0; nx * nx];
        for _ in 0..3000 {
            sparse[g.usize_in(0, nx * nx)] = 1.0;
        }
        assert_eq!(
            estimated_lines(&sparse, nx, band_rows) / LINES_PER_THREAD,
            0
        );
    }

    /// Every decimal length from 1 to 17 digits at every exponent a
    /// double reaches, and shortest forms that end in zeros — integers
    /// `m·10^j` and powers of ten, whose digits the renderer scales up to
    /// 17 and trims back.
    #[test]
    fn every_digit_count_at_every_exponent_matches_std() {
        let buf = &mut Vec::new();
        let mantissa = "98765432109876543";
        for len in 1..=17 {
            for e in E_MIN..=E_MAX {
                let v: f64 = format!("{}e{e}", &mantissa[..len]).parse().unwrap();
                check(buf, v);
                check(buf, f64::from_bits(v.to_bits() + 1));
            }
        }
        for m in 1..1000u32 {
            for j in 0..23 {
                check(buf, f64::from(m) * 10f64.powi(j));
            }
        }
        for e in E_MIN..=E_MAX {
            check(buf, format!("1e{e}").parse().unwrap());
            check(buf, format!("5e{e}").parse().unwrap());
        }
    }

    /// Indices render as `Display` does, at every change of width and
    /// past the 8-digit word.
    #[test]
    fn indices_render_as_display_does() {
        let mut ns: Vec<u64> = (0..=20)
            .flat_map(|p| {
                let ten = 10u64.checked_pow(p).unwrap_or(u64::MAX);
                [ten.saturating_sub(1), ten, ten.saturating_add(1)]
            })
            .collect();
        ns.extend([0, 7, 512, 65_535, u64::from(u32::MAX), u64::MAX]);
        for n in ns {
            let mut line = [0u8; LINE_BUF];
            let end = put_uint(&mut line, 3, n);
            assert_eq!(&line[3..end], n.to_string().as_bytes());
        }
    }

    /// The eight-cell zero test skips `+0.0` and `-0.0` and nothing else:
    /// `NaN`, both infinities and subnormals are lines. Every row width
    /// from 1 to 17, so blocks of eight straddle row ends, with a value
    /// as the last cell of every band and of the tally, at band heights
    /// of one, two and five rows on one and two threads.
    #[test]
    fn the_zero_skip_keeps_every_line_at_every_row_width() {
        let g = &mut Gen::new(45);
        let specials = [
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            1.0,
        ];
        for nx in 1..=17 {
            let mut tally: Vec<f64> = (0..nx * 23)
                .map(|_| match g.usize_in(0, 4) {
                    0 => specials[g.usize_in(0, specials.len())],
                    1 => f64::from_bits(g.u64_any()),
                    _ => 0.0,
                })
                .collect();
            // A zero run of 20 cells across row ends.
            let zeros = (nx * 5 + 3).min(tally.len() - 20);
            tally[zeros..zeros + 20].fill(-0.0);
            *tally.last_mut().unwrap() = 2.5;
            for band_rows in [1, 2, 5] {
                let mut tally = tally.clone();
                for end in (nx * band_rows..=tally.len()).step_by(nx * band_rows) {
                    tally[end - 1] = -7.0;
                }
                let expected = reference_dump(&tally, nx);
                assert_eq!(
                    nonzero_cells(&tally),
                    expected.split(|&b| b == b'\n').count() - 1
                );
                for threads in [1, 2] {
                    let mut out = Vec::new();
                    write_bands(&tally, nx, band_rows, threads, &mut out).unwrap();
                    assert!(
                        out == expected,
                        "nx = {nx}, {band_rows}-row bands, {threads} threads"
                    );
                }
            }
        }
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
