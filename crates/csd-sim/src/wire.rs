//! On-storage wire formats: the byte-level encodings bulk data is stored
//! in before any kernel sees an `f64`.
//!
//! Real storage does not serve pristine in-memory arrays — it serves
//! bytes: DEFLATE-compressed (gzip/zlib framing), byte-shuffled for
//! compressibility, possibly non-native-endian, and holey (a fill value
//! marking missing readings). This module is the self-contained codec
//! layer for that feature matrix — the same one reductionist-rs serves in
//! production — implemented in-repo because the build environment has no
//! registry access.
//!
//! Everything here is deterministic byte-in/byte-out transformation, so
//! decode can run on either side of the host/device link and Eq. 1 can
//! price the two placements against each other: decoding on the CSD ships
//! decoded (large) bytes nowhere but pays device cycles; decoding on the
//! host ships the compressed (small) stream across `BW_D2H` first.
//!
//! The DEFLATE implementation covers the full inflate side (stored,
//! fixed-Huffman, and dynamic-Huffman blocks per RFC 1951) and a
//! fixed-Huffman encoder with greedy hash-chain LZ77 matching — enough to
//! get real compression ratios on patterned data (especially after the
//! byte shuffle) while staying a few hundred lines.

use isp_obs::{Fingerprint, Fnv1a};
use serde::{Deserialize, Serialize};

/// Compression codec of an encoded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Codec {
    /// RFC 1952 gzip framing around a DEFLATE body (CRC32 + length).
    Gzip,
    /// RFC 1950 zlib framing around a DEFLATE body (Adler32).
    Zlib,
    /// No compression: the (possibly shuffled/swapped) bytes verbatim.
    None,
}

/// Byte order of the serialized f64 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ByteOrder {
    /// Little-endian (x86/aarch64 native).
    Little,
    /// Big-endian (network order, common in scientific archives).
    Big,
}

/// The on-storage encoding of one bulk dataset.
///
/// The serialization pipeline is: f64 → bytes in `byte_order` → optional
/// byte [`shuffle`](shuffle) → `codec` compression. Decode inverts it and
/// then masks elements equal to `fill_value` (missing readings) to the
/// additive identity `0.0`, so downstream sums and dot products skip
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Encoding {
    /// Compression applied last (encode) / removed first (decode).
    pub codec: Codec,
    /// Whether bytes are shuffled (transposed by byte position) before
    /// compression — the classic HDF5 trick that groups exponent bytes
    /// together and makes patterned f64 data compress well.
    pub shuffle: bool,
    /// Serialized byte order of each f64.
    pub byte_order: ByteOrder,
    /// Sentinel marking missing elements; decoded occurrences are masked
    /// to `0.0`. Compared by bit pattern, so NaN sentinels work.
    pub fill_value: Option<f64>,
}

/// The descriptor's fingerprint is folded into plan-cache keys, so plans
/// for differently-encoded inputs never collide. The fill sentinel is
/// hashed by raw bit pattern, exactly as decode compares it: NaN
/// sentinels with different payloads mask different elements, so they
/// fingerprint apart (the one place this hash is finer than canonical
/// `f64` equality).
impl Fingerprint for Encoding {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        let Encoding {
            codec,
            shuffle,
            byte_order,
            fill_value,
        } = self;
        h.write_u8(match codec {
            Codec::Gzip => 1,
            Codec::Zlib => 2,
            Codec::None => 3,
        });
        shuffle.fingerprint_into(h);
        h.write_u8(match byte_order {
            ByteOrder::Little => 0,
            ByteOrder::Big => 1,
        });
        fill_value.map(f64::to_bits).fingerprint_into(h);
    }
}

impl Encoding {
    /// The trivial encoding: native little-endian, no shuffle, no
    /// compression, no fill.
    #[must_use]
    pub fn raw() -> Self {
        Encoding {
            codec: Codec::None,
            shuffle: false,
            byte_order: ByteOrder::Little,
            fill_value: None,
        }
    }

    /// Gzip with byte shuffle — the highest-ratio encoding for patterned
    /// data, and the default for compressed workloads.
    #[must_use]
    pub fn gzip_shuffled() -> Self {
        Encoding {
            codec: Codec::Gzip,
            shuffle: true,
            byte_order: ByteOrder::Little,
            fill_value: None,
        }
    }

    /// Encodes a slice of f64s into the wire representation.
    #[must_use]
    pub fn encode(&self, data: &[f64]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for &x in data {
            match self.byte_order {
                ByteOrder::Little => bytes.extend_from_slice(&x.to_le_bytes()),
                ByteOrder::Big => bytes.extend_from_slice(&x.to_be_bytes()),
            }
        }
        if self.shuffle {
            bytes = shuffle(&bytes, 8);
        }
        match self.codec {
            Codec::Gzip => gzip_compress(&bytes),
            Codec::Zlib => zlib_compress(&bytes),
            Codec::None => bytes,
        }
    }

    /// Decodes a wire stream back into f64s, masking fill-value elements
    /// to `0.0`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first framing/stream corruption, or
    /// of a payload whose length is not a multiple of 8.
    pub fn decode(&self, stream: &[u8]) -> Result<Vec<f64>, String> {
        let bytes = match self.codec {
            Codec::Gzip => gzip_decompress(stream)?,
            Codec::Zlib => zlib_decompress(stream)?,
            Codec::None => stream.to_vec(),
        };
        if bytes.len() % 8 != 0 {
            return Err(format!(
                "decoded payload of {} bytes is not f64-aligned",
                bytes.len()
            ));
        }
        let bytes = if self.shuffle {
            unshuffle(&bytes, 8)
        } else {
            bytes
        };
        let fill_bits = self.fill_value.map(f64::to_bits);
        let mut out = Vec::with_capacity(bytes.len() / 8);
        for lane in bytes.chunks_exact(8) {
            let raw: [u8; 8] = lane.try_into().expect("chunks_exact(8)");
            let x = match self.byte_order {
                ByteOrder::Little => f64::from_le_bytes(raw),
                ByteOrder::Big => f64::from_be_bytes(raw),
            };
            out.push(if fill_bits == Some(x.to_bits()) {
                0.0
            } else {
                x
            });
        }
        Ok(out)
    }
}

/// Byte shuffle: transposes an `[n][stride]` byte matrix to
/// `[stride][n]`, grouping same-position bytes of consecutive elements.
/// The tail (len % stride) passes through unshuffled.
#[must_use]
pub fn shuffle(bytes: &[u8], stride: usize) -> Vec<u8> {
    let n = bytes.len() / stride;
    let mut out = Vec::with_capacity(bytes.len());
    for pos in 0..stride {
        for elem in 0..n {
            out.push(bytes[elem * stride + pos]);
        }
    }
    out.extend_from_slice(&bytes[n * stride..]);
    out
}

/// Inverse of [`shuffle`]. Written as a flat gather so the inner loop
/// autovectorizes (a strided load per output byte).
#[must_use]
pub fn unshuffle(bytes: &[u8], stride: usize) -> Vec<u8> {
    let n = bytes.len() / stride;
    let mut out = vec![0u8; bytes.len()];
    for pos in 0..stride {
        let lane = &bytes[pos * n..(pos + 1) * n];
        for (elem, &b) in lane.iter().enumerate() {
            out[elem * stride + pos] = b;
        }
    }
    out[n * stride..].copy_from_slice(&bytes[n * stride..]);
    out
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    !c
}

/// Adler-32 checksum (RFC 1950) of `bytes`.
#[must_use]
pub fn adler32(bytes: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let (mut a, mut b) = (1u32, 0u32);
    for chunk in bytes.chunks(5550) {
        for &x in chunk {
            a += u32::from(x);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

// ---------------------------------------------------------------------------
// DEFLATE bit I/O
// ---------------------------------------------------------------------------

/// LSB-first bit writer over a growing byte buffer (RFC 1951 bit order).
#[derive(Debug, Default)]
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Writes the low `n` bits of `v`, LSB first.
    fn put(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        self.acc |= u64::from(v) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Writes a Huffman code of length `n`: deflate packs codes starting
    /// from their most significant bit, so the canonical code is
    /// bit-reversed before the LSB-first write.
    fn put_code(&mut self, code: u32, n: u32) {
        self.put(code.reverse_bits() >> (32 - n), n);
    }

    /// Pads to a byte boundary and returns the buffer.
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }
}

/// LSB-first bit reader (RFC 1951 bit order).
#[derive(Debug)]
struct BitReader<'a> {
    data: &'a [u8],
    byte: usize,
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            byte: 0,
            bit: 0,
        }
    }

    fn bit(&mut self) -> Result<u32, String> {
        let Some(&b) = self.data.get(self.byte) else {
            return Err("deflate stream truncated".to_owned());
        };
        let v = u32::from(b >> self.bit) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.byte += 1;
        }
        Ok(v)
    }

    fn bits(&mut self, n: u32) -> Result<u32, String> {
        let mut v = 0u32;
        for i in 0..n {
            v |= self.bit()? << i;
        }
        Ok(v)
    }

    fn align_byte(&mut self) {
        if self.bit != 0 {
            self.bit = 0;
            self.byte += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical Huffman tables
// ---------------------------------------------------------------------------

/// Canonical Huffman decoder built from per-symbol code lengths
/// (RFC 1951 §3.2.2): symbols sorted by (length, symbol index).
#[derive(Debug)]
struct Huffman {
    /// `count[l]` = number of codes of length `l`.
    count: [u16; 16],
    /// Symbols ordered canonically.
    symbols: Vec<u16>,
}

impl Huffman {
    fn from_lengths(lengths: &[u8]) -> Result<Huffman, String> {
        let mut count = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(format!("huffman code length {l} > 15"));
            }
            count[usize::from(l)] += 1;
        }
        count[0] = 0;
        // Over-subscribed length sets cannot decode unambiguously.
        let mut left = 1i32;
        for &c in &count[1..16] {
            left = (left << 1) - i32::from(c);
            if left < 0 {
                return Err("over-subscribed huffman code".to_owned());
            }
        }
        let mut offsets = [0u16; 16];
        for l in 1..15 {
            offsets[l + 1] = offsets[l] + count[l];
        }
        let mut symbols = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                let o = &mut offsets[usize::from(l)];
                symbols[usize::from(*o)] = sym as u16;
                *o += 1;
            }
        }
        Ok(Huffman { count, symbols })
    }

    /// Decodes one symbol, reading bits MSB-of-code-first.
    fn decode(&self, r: &mut BitReader) -> Result<u16, String> {
        let (mut code, mut first, mut index) = (0i32, 0i32, 0i32);
        for l in 1..16 {
            code |= r.bit()? as i32;
            let cnt = i32::from(self.count[l]);
            if code - first < cnt {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err("invalid huffman code".to_owned())
    }
}

/// Canonical code assignment (code value per symbol) from lengths — the
/// encoder-side twin of [`Huffman::from_lengths`].
fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut count = [0u32; 16];
    for &l in lengths {
        count[usize::from(l)] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; 16];
    let mut code = 0u32;
    for l in 1..16 {
        code = (code + count[l - 1]) << 1;
        next[l] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next[usize::from(l)];
                next[usize::from(l)] += 1;
                c
            }
        })
        .collect()
}

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
fn fixed_lit_lengths() -> Vec<u8> {
    let mut l = vec![8u8; 288];
    l[144..256].iter_mut().for_each(|x| *x = 9);
    l[256..280].iter_mut().for_each(|x| *x = 7);
    l
}

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

// ---------------------------------------------------------------------------
// Inflate
// ---------------------------------------------------------------------------

/// Decompresses a raw DEFLATE stream (RFC 1951): stored, fixed-Huffman,
/// and dynamic-Huffman blocks.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let last = r.bits(1)?;
        match r.bits(2)? {
            0 => {
                r.align_byte();
                let len = r.bits(16)? as usize;
                let nlen = r.bits(16)? as usize;
                if len != (!nlen & 0xFFFF) {
                    return Err("stored block LEN/NLEN mismatch".to_owned());
                }
                for _ in 0..len {
                    out.push(r.bits(8)? as u8);
                }
            }
            1 => {
                let lit = Huffman::from_lengths(&fixed_lit_lengths())?;
                let dist = Huffman::from_lengths(&[5u8; 30])?;
                inflate_block(&mut r, &lit, &dist, &mut out)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &lit, &dist, &mut out)?;
            }
            _ => return Err("reserved deflate block type 3".to_owned()),
        }
        if last == 1 {
            return Ok(out);
        }
    }
}

/// Order the code-length code lengths are transmitted in (§3.2.7).
const CLCL_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

fn read_dynamic_tables(r: &mut BitReader) -> Result<(Huffman, Huffman), String> {
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    let mut cl_lengths = [0u8; 19];
    for &pos in CLCL_ORDER.iter().take(hclen) {
        cl_lengths[pos] = r.bits(3)? as u8;
    }
    let cl = Huffman::from_lengths(&cl_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        match cl.decode(r)? {
            sym @ 0..=15 => lengths.push(sym as u8),
            16 => {
                let &prev = lengths.last().ok_or("repeat with no previous length")?;
                let n = r.bits(2)? + 3;
                lengths.extend(std::iter::repeat_n(prev, n as usize));
            }
            17 => {
                let n = r.bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            18 => {
                let n = r.bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0u8, n as usize));
            }
            other => return Err(format!("invalid code-length symbol {other}")),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err("code-length run overflows the table".to_owned());
    }
    let lit = Huffman::from_lengths(&lengths[..hlit])?;
    let dist = Huffman::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader,
    lit: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    loop {
        match lit.decode(r)? {
            sym @ 0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            sym @ 257..=285 => {
                let i = usize::from(sym - 257);
                let len = usize::from(LEN_BASE[i]) + r.bits(u32::from(LEN_EXTRA[i]))? as usize;
                let d = usize::from(dist.decode(r)?);
                if d >= 30 {
                    return Err(format!("invalid distance symbol {d}"));
                }
                let distance =
                    usize::from(DIST_BASE[d]) + r.bits(u32::from(DIST_EXTRA[d]))? as usize;
                if distance > out.len() {
                    return Err("back-reference before stream start".to_owned());
                }
                let start = out.len() - distance;
                // Overlapping copies are the point (run-length encoding).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            other => return Err(format!("invalid literal/length symbol {other}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Deflate (fixed-Huffman encoder with greedy hash-chain LZ77)
// ---------------------------------------------------------------------------

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
/// Longest hash chain walked per position; bounds worst-case encode time.
const MAX_CHAIN: usize = 48;

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (u32::from(data[i]) << 16) ^ (u32::from(data[i + 1]) << 8) ^ u32::from(data[i + 2]);
    (h.wrapping_mul(2654435761) >> 17) as usize & 0x7FFF
}

/// Compresses `data` into a raw DEFLATE stream (one fixed-Huffman block).
#[must_use]
pub fn deflate(data: &[u8]) -> Vec<u8> {
    let lit_lengths = fixed_lit_lengths();
    let lit_codes = canonical_codes(&lit_lengths);
    let mut w = BitWriter::default();
    w.put(1, 1); // final block
    w.put(1, 2); // fixed Huffman
    let put_lit = |w: &mut BitWriter, sym: usize| {
        w.put_code(lit_codes[sym], u32::from(lit_lengths[sym]));
    };

    let mut head = vec![usize::MAX; 0x8000];
    let mut prev = vec![usize::MAX; data.len()];
    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let mut cand = head[hash3(data, i)];
            let mut chain = 0usize;
            while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            // Length symbol + extra bits.
            let li = LEN_BASE
                .iter()
                .rposition(|&b| usize::from(b) <= best_len)
                .expect("len >= 3");
            put_lit(&mut w, 257 + li);
            w.put(
                (best_len - usize::from(LEN_BASE[li])) as u32,
                u32::from(LEN_EXTRA[li]),
            );
            // Distance symbol (5-bit fixed code) + extra bits.
            let di = DIST_BASE
                .iter()
                .rposition(|&b| usize::from(b) <= best_dist)
                .expect("dist >= 1");
            w.put_code(di as u32, 5);
            w.put(
                (best_dist - usize::from(DIST_BASE[di])) as u32,
                u32::from(DIST_EXTRA[di]),
            );
            // Insert every covered position into the hash chains.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for (off, slot) in prev[i..end].iter_mut().enumerate() {
                let h = hash3(data, i + off);
                *slot = head[h];
                head[h] = i + off;
            }
            i += best_len;
        } else {
            put_lit(&mut w, usize::from(data[i]));
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    put_lit(&mut w, 256); // end of block
    w.finish()
}

// ---------------------------------------------------------------------------
// gzip / zlib framing
// ---------------------------------------------------------------------------

/// Wraps [`deflate`] output in a gzip member (RFC 1952).
#[must_use]
pub fn gzip_compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF];
    out.extend_from_slice(&deflate(data));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Unwraps a gzip member and inflates it, verifying CRC32 and length.
///
/// # Errors
///
/// Returns a description of the first framing or checksum failure.
pub fn gzip_decompress(stream: &[u8]) -> Result<Vec<u8>, String> {
    if stream.len() < 18 {
        return Err("gzip stream shorter than header + trailer".to_owned());
    }
    if stream[0] != 0x1F || stream[1] != 0x8B {
        return Err("bad gzip magic".to_owned());
    }
    if stream[2] != 8 {
        return Err(format!("unsupported gzip method {}", stream[2]));
    }
    let flags = stream[3];
    let mut pos = 10usize;
    if flags & 0x04 != 0 {
        // FEXTRA
        if pos + 2 > stream.len() {
            return Err("gzip FEXTRA truncated".to_owned());
        }
        let xlen = usize::from(stream[pos]) | (usize::from(stream[pos + 1]) << 8);
        pos += 2 + xlen;
    }
    for flag in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flags & flag != 0 {
            while *stream.get(pos).ok_or("gzip name/comment truncated")? != 0 {
                pos += 1;
            }
            pos += 1;
        }
    }
    if flags & 0x02 != 0 {
        pos += 2; // FHCRC
    }
    if pos + 8 > stream.len() {
        return Err("gzip stream truncated".to_owned());
    }
    let body = &stream[pos..stream.len() - 8];
    let out = inflate(body)?;
    let trailer = &stream[stream.len() - 8..];
    let want_crc = u32::from_le_bytes(trailer[0..4].try_into().expect("4 bytes"));
    let want_len = u32::from_le_bytes(trailer[4..8].try_into().expect("4 bytes"));
    if crc32(&out) != want_crc {
        return Err("gzip CRC32 mismatch".to_owned());
    }
    if out.len() as u32 != want_len {
        return Err("gzip ISIZE mismatch".to_owned());
    }
    Ok(out)
}

/// Wraps [`deflate`] output in a zlib stream (RFC 1950).
#[must_use]
pub fn zlib_compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x78, 0x9C];
    out.extend_from_slice(&deflate(data));
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Unwraps a zlib stream and inflates it, verifying the Adler32.
///
/// # Errors
///
/// Returns a description of the first framing or checksum failure.
pub fn zlib_decompress(stream: &[u8]) -> Result<Vec<u8>, String> {
    if stream.len() < 6 {
        return Err("zlib stream shorter than header + trailer".to_owned());
    }
    let cmf = stream[0];
    let flg = stream[1];
    if cmf & 0x0F != 8 {
        return Err(format!("unsupported zlib method {}", cmf & 0x0F));
    }
    if (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
        return Err("zlib header check failed".to_owned());
    }
    if flg & 0x20 != 0 {
        return Err("zlib preset dictionaries unsupported".to_owned());
    }
    let out = inflate(&stream[2..stream.len() - 4])?;
    let want = u32::from_be_bytes(stream[stream.len() - 4..].try_into().expect("4 bytes"));
    if adler32(&out) != want {
        return Err("zlib Adler32 mismatch".to_owned());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i / 7) % 251) as u8).collect()
    }

    fn patterned_f64(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i % 97) as f64).mul_add(0.25, -11.0))
            .collect()
    }

    #[test]
    fn crc32_and_adler32_match_known_vectors() {
        // Standard check values for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(adler32(b"123456789"), 0x091E_01DE);
        assert_eq!(crc32(b""), 0);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn shuffle_roundtrips_and_groups_lanes() {
        let bytes: Vec<u8> = (0..64).collect();
        let s = shuffle(&bytes, 8);
        // First lane of the shuffle holds byte 0 of each element.
        assert_eq!(&s[0..8], &[0, 8, 16, 24, 32, 40, 48, 56]);
        assert_eq!(unshuffle(&s, 8), bytes);
        // Non-multiple tails pass through.
        let odd: Vec<u8> = (0..21).collect();
        assert_eq!(unshuffle(&shuffle(&odd, 8), 8), odd);
    }

    #[test]
    fn deflate_roundtrips_all_shapes() {
        for data in [
            Vec::new(),
            vec![42u8],
            b"abcabcabcabcabcabc".to_vec(),
            patterned(10_000),
            (0..=255u8).cycle().take(4096).collect(),
        ] {
            let packed = deflate(&data);
            assert_eq!(
                inflate(&packed).expect("inflates"),
                data,
                "len {}",
                data.len()
            );
        }
    }

    #[test]
    fn deflate_actually_compresses_patterned_data() {
        let data = patterned(32 * 1024);
        let packed = deflate(&data);
        assert!(
            packed.len() * 4 < data.len(),
            "expected >=4x on run-heavy data, got {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn inflate_handles_stored_blocks() {
        // Hand-assembled stored block: BFINAL=1, BTYPE=00, then LEN/NLEN.
        let payload = b"stored bytes";
        let mut raw = vec![0x01u8];
        raw.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        raw.extend_from_slice(&(!(payload.len() as u16)).to_le_bytes());
        raw.extend_from_slice(payload);
        assert_eq!(inflate(&raw).expect("inflates"), payload);
    }

    #[test]
    fn inflate_handles_dynamic_huffman_blocks() {
        // Assemble a dynamic-Huffman block with the encoder's own bit
        // writer: literals 0..=255 at length 9, end-of-block at length 1,
        // one (unused) distance code.
        let mut lengths = vec![9u8; 257];
        lengths[256] = 1;
        let codes = canonical_codes(&lengths);
        let mut w = BitWriter::default();
        w.put(1, 1); // final
        w.put(2, 2); // dynamic
        w.put(0, 5); // HLIT = 257
        w.put(0, 5); // HDIST = 1
        w.put(15, 4); // HCLEN = 19
                      // Code-length code: length 9 -> 2 bits, 1 -> 2 bits, 16 -> 2 bits.
        let mut cl_lengths = [0u8; 19];
        cl_lengths[9] = 2;
        cl_lengths[1] = 2;
        cl_lengths[16] = 2;
        for &pos in CLCL_ORDER.iter() {
            w.put(u32::from(cl_lengths[pos]), 3);
        }
        let cl_codes = canonical_codes(&cl_lengths);
        // 256 nines: one literal 9, then repeat(16) in runs of 6.
        w.put_code(cl_codes[9], 2);
        let mut emitted = 1usize;
        while emitted < 256 {
            let run = (256 - emitted).clamp(3, 6);
            w.put_code(cl_codes[16], 2);
            w.put((run - 3) as u32, 2);
            emitted += run;
        }
        w.put_code(cl_codes[1], 2); // EOB length 1
        w.put_code(cl_codes[1], 2); // the single distance code, length 1
                                    // Body: the message as 9-bit literals, then EOB.
        let message = b"dynamic block";
        for &b in message {
            w.put_code(codes[usize::from(b)], 9);
        }
        w.put_code(codes[256], 1);
        assert_eq!(inflate(&w.finish()).expect("inflates"), message);
    }

    #[test]
    fn inflate_rejects_corruption() {
        let good = deflate(b"hello hello hello hello");
        let mut bad = good.clone();
        bad[0] ^= 0x02; // block type
        assert!(inflate(&bad).is_err() || inflate(&bad).expect("ok") != b"hello hello hello hello");
        assert!(inflate(&[]).is_err());
    }

    #[test]
    fn gzip_roundtrips_and_verifies() {
        let data = patterned(5000);
        let z = gzip_compress(&data);
        assert_eq!(&z[0..2], &[0x1F, 0x8B]);
        assert_eq!(gzip_decompress(&z).expect("decompresses"), data);
        let mut corrupt = z.clone();
        let n = corrupt.len();
        corrupt[n - 2] ^= 0xFF; // ISIZE
        assert!(gzip_decompress(&corrupt).is_err());
        let mut crc_bad = z;
        let n = crc_bad.len();
        crc_bad[n - 6] ^= 0xFF; // CRC32
        assert!(gzip_decompress(&crc_bad).is_err());
    }

    #[test]
    fn zlib_roundtrips_and_verifies() {
        let data = patterned(5000);
        let z = zlib_compress(&data);
        assert_eq!((u16::from(z[0]) * 256 + u16::from(z[1])) % 31, 0);
        assert_eq!(zlib_decompress(&z).expect("decompresses"), data);
        let mut corrupt = z;
        let n = corrupt.len();
        corrupt[n - 1] ^= 0xFF; // Adler32
        assert!(zlib_decompress(&corrupt).is_err());
    }

    #[test]
    fn encoding_roundtrips_every_axis() {
        let data = patterned_f64(4096);
        for codec in [Codec::Gzip, Codec::Zlib, Codec::None] {
            for shuffle in [false, true] {
                for byte_order in [ByteOrder::Little, ByteOrder::Big] {
                    let enc = Encoding {
                        codec,
                        shuffle,
                        byte_order,
                        fill_value: None,
                    };
                    let packed = enc.encode(&data);
                    let back = enc.decode(&packed).expect("decodes");
                    assert_eq!(back, data, "{enc:?}");
                }
            }
        }
    }

    #[test]
    fn fill_values_mask_to_zero() {
        let enc = Encoding {
            fill_value: Some(-9999.0),
            ..Encoding::gzip_shuffled()
        };
        let data = vec![1.0, -9999.0, 2.5, -9999.0, -3.0];
        let back = enc.decode(&enc.encode(&data)).expect("decodes");
        assert_eq!(back, vec![1.0, 0.0, 2.5, 0.0, -3.0]);
        // NaN sentinels compare by bit pattern.
        let nan_enc = Encoding {
            fill_value: Some(f64::NAN),
            ..Encoding::raw()
        };
        let back = nan_enc
            .decode(&nan_enc.encode(&[1.0, f64::NAN, 2.0]))
            .expect("decodes");
        assert_eq!(back, vec![1.0, 0.0, 2.0]);
    }

    #[test]
    fn shuffled_gzip_beats_plain_gzip_on_patterned_f64() {
        let data = patterned_f64(4096);
        let plain = Encoding {
            shuffle: false,
            ..Encoding::gzip_shuffled()
        };
        let shuffled = Encoding::gzip_shuffled();
        let plain_len = plain.encode(&data).len();
        let shuffled_len = shuffled.encode(&data).len();
        assert!(
            shuffled_len < plain_len,
            "shuffle must improve the ratio: {shuffled_len} vs {plain_len}"
        );
        // And both genuinely compress the 32 KiB payload.
        assert!(shuffled_len * 3 < data.len() * 8);
    }

    #[test]
    fn fingerprints_split_on_every_field() {
        let base = Encoding::gzip_shuffled();
        let variants = [
            Encoding {
                codec: Codec::Zlib,
                ..base
            },
            Encoding {
                codec: Codec::None,
                ..base
            },
            Encoding {
                shuffle: false,
                ..base
            },
            Encoding {
                byte_order: ByteOrder::Big,
                ..base
            },
            Encoding {
                fill_value: Some(0.0),
                ..base
            },
            Encoding {
                fill_value: Some(-9999.0),
                ..base
            },
            // Fill sentinels compare by bit pattern, NaN payloads included.
            Encoding {
                fill_value: Some(f64::NAN),
                ..base
            },
            Encoding {
                fill_value: Some(f64::from_bits(0x7ff0_0000_0000_0bad)),
                ..base
            },
        ];
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.fingerprint());
        for v in variants {
            assert!(seen.insert(v.fingerprint()), "collision for {v:?}");
        }
        // Deterministic across calls.
        assert_eq!(base.fingerprint(), Encoding::gzip_shuffled().fingerprint());
    }

    #[test]
    fn encode_is_deterministic() {
        let data = patterned_f64(2048);
        let enc = Encoding::gzip_shuffled();
        assert_eq!(enc.encode(&data), enc.encode(&data));
    }
}
