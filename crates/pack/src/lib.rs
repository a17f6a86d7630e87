//! `trrip-pack` — the byte codec for every artifact the workspace puts
//! at rest.
//!
//! Traces and checkpoints multiply per the paper's methodology (every
//! workload × 10 policies × many windows), so bytes-at-rest are the
//! fleet's scaling bottleneck. This crate is the one shared answer: a
//! dependency-free (std-only) codec toolbox sitting at the bottom of
//! the workspace, below `trrip-trace` and `trrip-sim`, next to
//! `trrip-snap` (whose varint and checksum machinery it reuses).
//!
//! Three real codecs plus a passthrough, selected **per block** by
//! [`compress_auto`] — whichever encoding is smallest wins, and a block
//! that no codec can shrink ships raw, so compression never grows an
//! artifact:
//!
//! | codec | byte shape | wins on |
//! |---|---|---|
//! | [`Codec::Raw`] | the input, verbatim | incompressible blocks |
//! | [`Codec::Rle`] | `(varint run_len, byte)*` | valid/dirty/instruction bitmaps |
//! | [`Codec::Delta`] | zigzag varint deltas of LE `u64` words | sorted tag arrays, address tables |
//! | [`Codec::Lz`] | LZ tokens: `varint lit_len, lits [, varint match_len-4, varint dist]` | everything repetitive |
//!
//! The LZ matcher is a greedy hash-chain searcher (4-byte hashes, 64 KiB
//! window, bounded chain walk) over caller buffers — no internal
//! allocation survives a call. An optional **dictionary** prepends the
//! match window: both sides pass the same bytes and matches may reach
//! back into them (`dist` beyond the produced output), which warms the
//! window for short blocks whose redundancy lies in a shared context
//! (hot-PC placement data, section layouts).
//!
//! [`pack_stream`] / [`unpack_stream`] wrap the codecs in a checksummed
//! block stream for container payloads: each block carries its codec
//! tag, raw length, compressed length, and the checksum of the
//! **uncompressed** bytes, so corruption is localized and named before
//! any downstream decoder sees a byte.
//!
//! Every compression call feeds the `pack.*` registry counters
//! (`pack.raw_bytes`, `pack.compressed_bytes`, `pack.fallback_raw`,
//! `pack.dict_hits`) so `--metrics` runs can report footprint ratios
//! without re-reading artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use trrip_snap::{push_signed, push_varint, read_signed, read_varint, Checksum};

/// Minimum LZ match length; shorter repeats stay literal.
const MIN_MATCH: usize = 4;
/// Hash-table width for the LZ matcher (2^15 heads).
const HASH_BITS: u32 = 15;
/// How far back an LZ match may reach (dictionary included).
const LZ_WINDOW: usize = 64 * 1024;
/// Hash-chain walk bound: quality/speed knob of the greedy matcher.
const MAX_CHAIN: usize = 32;
/// Block granularity of [`pack_stream`].
pub const BLOCK_LEN: usize = 64 * 1024;
/// Upper bound a stream header may claim, so a corrupt length cannot
/// balloon an allocation (far above any real container payload).
const MAX_STREAM_LEN: u64 = 1 << 31;

/// Everything that can go wrong decoding packed bytes.
#[derive(Debug)]
pub enum PackError {
    /// Structurally invalid bytes; the message says what.
    Corrupt(String),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Corrupt(what) => write!(f, "corrupt packed bytes: {what}"),
        }
    }
}

impl std::error::Error for PackError {}

fn corrupt(what: impl Into<String>) -> PackError {
    PackError::Corrupt(what.into())
}

fn rd(input: &[u8], pos: &mut usize) -> Result<u64, PackError> {
    read_varint(input, pos).map_err(|e| corrupt(e.to_string()))
}

fn rd_signed(input: &[u8], pos: &mut usize) -> Result<i64, PackError> {
    read_signed(input, pos).map_err(|e| corrupt(e.to_string()))
}

/// How a block's bytes are encoded. The numeric values are the on-disk
/// tags — append-only; never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Codec {
    /// Verbatim passthrough for incompressible blocks.
    Raw = 0,
    /// Run-length: `(varint run_len, byte)*`.
    Rle = 1,
    /// Zigzag varint deltas over little-endian `u64` words (input length
    /// must be a multiple of 8).
    Delta = 2,
    /// Greedy hash-chain LZ with varint-coded literal runs and matches.
    Lz = 3,
}

impl Codec {
    /// Decodes an on-disk codec tag.
    ///
    /// # Errors
    ///
    /// [`PackError::Corrupt`] on an unknown tag.
    pub fn from_u8(tag: u8) -> Result<Codec, PackError> {
        match tag {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::Rle),
            2 => Ok(Codec::Delta),
            3 => Ok(Codec::Lz),
            other => Err(corrupt(format!("unknown codec tag {other}"))),
        }
    }

    /// The codec's name as reported in benchmarks and telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Rle => "rle",
            Codec::Delta => "delta",
            Codec::Lz => "lz",
        }
    }
}

// --- RLE ---------------------------------------------------------------

/// Run-length encodes `input` into `out` (cleared first). Returns false
/// (with `out` in an unspecified state) once the encoding reaches
/// `budget` bytes — RLE on non-run data doubles the input, so the early
/// exit matters.
fn try_rle(input: &[u8], budget: usize, out: &mut Vec<u8>) -> bool {
    out.clear();
    let mut i = 0;
    while i < input.len() {
        let byte = input[i];
        let mut j = i + 1;
        while j < input.len() && input[j] == byte {
            j += 1;
        }
        push_varint(out, (j - i) as u64);
        out.push(byte);
        if out.len() >= budget {
            return false;
        }
        i = j;
    }
    true
}

fn rle_decompress(input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), PackError> {
    out.clear();
    out.reserve(raw_len.min(BLOCK_LEN));
    let mut pos = 0;
    while out.len() < raw_len {
        let run = rd(input, &mut pos)? as usize;
        if run == 0 || run > raw_len - out.len() {
            return Err(corrupt(format!("RLE run of {run} overflows the block")));
        }
        let &byte = input.get(pos).ok_or_else(|| corrupt("RLE run missing its byte"))?;
        pos += 1;
        out.resize(out.len() + run, byte);
    }
    if pos != input.len() {
        return Err(corrupt("trailing bytes after RLE stream"));
    }
    Ok(())
}

// --- Delta -------------------------------------------------------------

/// Delta-encodes `input` as LE `u64` words (zigzag varint per delta).
/// Returns false when the input is not word-shaped or the encoding
/// reaches `budget`.
fn try_delta(input: &[u8], budget: usize, out: &mut Vec<u8>) -> bool {
    if input.is_empty() || !input.len().is_multiple_of(8) {
        return false;
    }
    out.clear();
    let mut prev = 0u64;
    for chunk in input.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        push_signed(out, word.wrapping_sub(prev) as i64);
        if out.len() >= budget {
            return false;
        }
        prev = word;
    }
    true
}

fn delta_decompress(input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), PackError> {
    if !raw_len.is_multiple_of(8) {
        return Err(corrupt("delta block length is not a multiple of 8"));
    }
    out.clear();
    out.reserve(raw_len.min(BLOCK_LEN));
    let mut pos = 0;
    let mut prev = 0u64;
    while out.len() < raw_len {
        let delta = rd_signed(input, &mut pos)?;
        prev = prev.wrapping_add(delta as u64);
        out.extend_from_slice(&prev.to_le_bytes());
    }
    if pos != input.len() {
        return Err(corrupt("trailing bytes after delta stream"));
    }
    Ok(())
}

// --- LZ ----------------------------------------------------------------

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// LZ-compresses `input` (match window warmed by `dict`) into `out`.
/// Returns the number of matches that reached back into the dictionary,
/// or `None` once the encoding reaches `budget`.
fn try_lz(input: &[u8], dict: &[u8], budget: usize, out: &mut Vec<u8>) -> Option<u64> {
    out.clear();
    if input.len() < MIN_MATCH {
        return None;
    }
    // The matcher walks one conceptual buffer of dict ++ input so
    // distances reach uniformly into either.
    let storage;
    let (buf, base) = if dict.is_empty() {
        (input, 0)
    } else {
        storage = [dict, input].concat();
        (storage.as_slice(), dict.len())
    };
    let end = buf.len();
    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut prev = vec![u32::MAX; end];
    for i in 0..base.saturating_sub(MIN_MATCH - 1) {
        let h = hash4(&buf[i..]);
        prev[i] = head[h];
        head[h] = i as u32;
    }

    let mut dict_hits = 0u64;
    let mut i = base;
    let mut lit_start = base;
    while i + MIN_MATCH <= end {
        let h = hash4(&buf[i..]);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_pos = 0usize;
        let mut depth = 0;
        while candidate != u32::MAX && depth < MAX_CHAIN {
            let c = candidate as usize;
            if i - c > LZ_WINDOW {
                break; // chains are newest-first; the rest is older still
            }
            let limit = end - i;
            let mut len = 0;
            while len < limit && buf[c + len] == buf[i + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_pos = c;
                if len >= 512 {
                    break; // long enough; stop searching
                }
            }
            candidate = prev[c];
            depth += 1;
        }
        if best_len >= MIN_MATCH {
            push_varint(out, (i - lit_start) as u64);
            out.extend_from_slice(&buf[lit_start..i]);
            push_varint(out, (best_len - MIN_MATCH) as u64);
            push_varint(out, (i - best_pos) as u64);
            if best_pos < base {
                dict_hits += 1;
            }
            // Index the matched region so later matches can land inside it.
            let stop = (i + best_len).min(end - MIN_MATCH + 1);
            for j in i..stop {
                let h = hash4(&buf[j..]);
                prev[j] = head[h];
                head[h] = j as u32;
            }
            i += best_len;
            lit_start = i;
        } else {
            prev[i] = head[h];
            head[h] = i as u32;
            i += 1;
        }
        if out.len() >= budget {
            return None;
        }
    }
    if lit_start < end {
        push_varint(out, (end - lit_start) as u64);
        out.extend_from_slice(&buf[lit_start..end]);
    }
    if out.len() >= budget {
        return None;
    }
    Some(dict_hits)
}

fn lz_decompress(
    input: &[u8],
    dict: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), PackError> {
    out.clear();
    out.reserve(raw_len.min(BLOCK_LEN));
    let mut pos = 0;
    while out.len() < raw_len {
        let lit_len = rd(input, &mut pos)? as usize;
        if lit_len > raw_len - out.len() {
            return Err(corrupt("LZ literal run overflows the block"));
        }
        let lits = input
            .get(pos..pos + lit_len)
            .ok_or_else(|| corrupt("LZ literal run past end of input"))?;
        out.extend_from_slice(lits);
        pos += lit_len;
        if out.len() == raw_len {
            break;
        }
        let match_len = rd(input, &mut pos)? as usize + MIN_MATCH;
        let dist = rd(input, &mut pos)? as usize;
        if dist == 0 || dist > out.len() + dict.len() {
            return Err(corrupt(format!("LZ distance {dist} reaches before the window")));
        }
        if match_len > raw_len - out.len() {
            return Err(corrupt("LZ match overflows the block"));
        }
        // Conceptual source stream is dict ++ out; overlapping copies
        // (dist < match_len) are the RLE-ish case and must trickle.
        let start = out.len() + dict.len() - dist;
        for src in start..start + match_len {
            let byte = if src < dict.len() { dict[src] } else { out[src - dict.len()] };
            out.push(byte);
        }
    }
    if pos != input.len() {
        return Err(corrupt("trailing bytes after LZ stream"));
    }
    Ok(())
}

// --- Selection and framing --------------------------------------------

/// Compresses `input` into `out` (cleared first) with whichever codec
/// yields the fewest bytes, falling back to a verbatim copy when none
/// beats raw — the caller records the returned [`Codec`] next to the
/// bytes. `dict` warms the LZ window; pass `&[]` for none. Feeds the
/// `pack.*` counters.
pub fn compress_auto(input: &[u8], dict: &[u8], out: &mut Vec<u8>) -> Codec {
    trrip_obs::counter!("pack.raw_bytes").add(input.len() as u64);
    out.clear();
    out.extend_from_slice(input);
    let mut chosen = Codec::Raw;
    let mut scratch = Vec::new();
    if try_rle(input, out.len(), &mut scratch) && scratch.len() < out.len() {
        std::mem::swap(out, &mut scratch);
        chosen = Codec::Rle;
    }
    if try_delta(input, out.len(), &mut scratch) && scratch.len() < out.len() {
        std::mem::swap(out, &mut scratch);
        chosen = Codec::Delta;
    }
    if let Some(dict_hits) = try_lz(input, dict, out.len(), &mut scratch) {
        if scratch.len() < out.len() {
            std::mem::swap(out, &mut scratch);
            chosen = Codec::Lz;
            trrip_obs::counter!("pack.dict_hits").add(dict_hits);
        }
    }
    if chosen == Codec::Raw && !input.is_empty() {
        trrip_obs::counter!("pack.fallback_raw").incr();
    }
    trrip_obs::counter!("pack.compressed_bytes").add(out.len() as u64);
    chosen
}

/// Decompresses a block written by [`compress_auto`] into `out`
/// (cleared first). `raw_len` is the expected uncompressed length the
/// caller recorded; any mismatch is corruption, not a resize.
///
/// # Errors
///
/// [`PackError::Corrupt`] on malformed bytes, lengths that disagree
/// with `raw_len`, or trailing garbage. Never panics on bad input.
pub fn decompress(
    codec: Codec,
    input: &[u8],
    dict: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), PackError> {
    match codec {
        Codec::Raw => {
            if input.len() != raw_len {
                return Err(corrupt(format!(
                    "raw block is {} bytes, expected {raw_len}",
                    input.len()
                )));
            }
            out.clear();
            out.extend_from_slice(input);
            Ok(())
        }
        Codec::Rle => rle_decompress(input, raw_len, out),
        Codec::Delta => delta_decompress(input, raw_len, out),
        Codec::Lz => lz_decompress(input, dict, raw_len, out),
    }
}

/// Packs `input` as a self-describing checksummed block stream:
/// a varint total length, then per [`BLOCK_LEN`] block a codec tag,
/// varint raw and compressed lengths, the 8-byte checksum of the
/// **uncompressed** block, and the compressed bytes. The stream is what
/// container formats embed as their payload field.
#[must_use]
pub fn pack_stream(input: &[u8], dict: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    push_varint(&mut out, input.len() as u64);
    let mut comp = Vec::new();
    for block in input.chunks(BLOCK_LEN) {
        let codec = compress_auto(block, dict, &mut comp);
        out.push(codec as u8);
        push_varint(&mut out, block.len() as u64);
        push_varint(&mut out, comp.len() as u64);
        let mut check = Checksum::new();
        check.update(block);
        out.extend_from_slice(&check.value().to_le_bytes());
        out.extend_from_slice(&comp);
    }
    out
}

/// Unpacks a stream written by [`pack_stream`], verifying each block's
/// uncompressed checksum.
///
/// # Errors
///
/// [`PackError::Corrupt`] on any structural damage, length mismatch, or
/// checksum failure — named per block. Never panics on bad input.
pub fn unpack_stream(input: &[u8], dict: &[u8]) -> Result<Vec<u8>, PackError> {
    let mut pos = 0;
    let total = rd(input, &mut pos)?;
    if total > MAX_STREAM_LEN {
        return Err(corrupt(format!("stream claims {total} bytes")));
    }
    let total = total as usize;
    let mut out = Vec::with_capacity(total.min(16 << 20));
    let mut block = Vec::new();
    let mut index = 0usize;
    while out.len() < total {
        let &tag = input.get(pos).ok_or_else(|| corrupt("stream ends mid-header"))?;
        pos += 1;
        let codec = Codec::from_u8(tag)?;
        let raw_len = rd(input, &mut pos)? as usize;
        let comp_len = rd(input, &mut pos)? as usize;
        if raw_len == 0 || raw_len > BLOCK_LEN || raw_len > total - out.len() {
            return Err(corrupt(format!("block {index} claims {raw_len} raw bytes")));
        }
        let expected = input
            .get(pos..pos + 8)
            .ok_or_else(|| corrupt("stream ends inside a block checksum"))?;
        let expected = u64::from_le_bytes(expected.try_into().expect("8 bytes"));
        pos += 8;
        let comp = input
            .get(pos..pos + comp_len)
            .ok_or_else(|| corrupt(format!("block {index} truncated")))?;
        pos += comp_len;
        decompress(codec, comp, dict, raw_len, &mut block)?;
        let mut check = Checksum::new();
        check.update(&block);
        if check.value() != expected {
            return Err(corrupt(format!("block {index} checksum mismatch")));
        }
        out.extend_from_slice(&block);
        index += 1;
    }
    if pos != input.len() {
        return Err(corrupt("trailing bytes after the block stream"));
    }
    Ok(out)
}

/// Builds a compression dictionary from placement words (section bases,
/// hot-block addresses, PLT/external entry points — the same values the
/// workload fingerprint mixes). Each word is laid down in the byte
/// shapes trace records and snapshots actually contain — absolute
/// varints, line addresses, and zigzag deltas between neighbors — so LZ
/// matches on fresh blocks can reach into it from the first byte.
/// Deterministic for a given input set; capped at `cap` bytes.
#[must_use]
pub fn placement_dictionary(words: &[u64], cap: usize) -> Vec<u8> {
    let mut sorted = words.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out = Vec::with_capacity(cap.min(4096));
    let mut prev = 0u64;
    for &word in &sorted {
        push_varint(&mut out, word);
        push_varint(&mut out, word >> 6); // cache-line form
        push_signed(&mut out, word.wrapping_sub(prev) as i64);
        prev = word;
        if out.len() >= cap {
            break;
        }
    }
    out.truncate(cap);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(input: &[u8], dict: &[u8]) -> Codec {
        let mut comp = Vec::new();
        let codec = compress_auto(input, dict, &mut comp);
        let mut back = Vec::new();
        decompress(codec, &comp, dict, input.len(), &mut back).expect("decompress");
        assert_eq!(back, input, "{codec:?} round trip");
        codec
    }

    #[test]
    fn bitmap_blocks_pick_rle_and_shrink_hard() {
        let mut bitmap = vec![0xFFu8; 4096];
        bitmap[17] = 0x7F;
        bitmap.extend(std::iter::repeat_n(0u8, 4096));
        let mut comp = Vec::new();
        let codec = compress_auto(&bitmap, &[], &mut comp);
        assert_eq!(codec, Codec::Rle);
        assert!(comp.len() < bitmap.len() / 50, "RLE on runs: {} bytes", comp.len());
        round_trip(&bitmap, &[]);
    }

    #[test]
    fn sorted_words_pick_delta() {
        let words: Vec<u8> =
            (0..2048u64).map(|i| 0x4000 + i * 64).flat_map(|w| w.to_le_bytes()).collect();
        let mut comp = Vec::new();
        let codec = compress_auto(&words, &[], &mut comp);
        assert_eq!(codec, Codec::Delta);
        assert!(comp.len() < words.len() / 3, "delta on sorted words: {} bytes", comp.len());
        round_trip(&words, &[]);
    }

    #[test]
    fn repetitive_bytes_pick_lz() {
        let phrase = b"the quick brown fox jumps over the lazy dog; ";
        let mut input = Vec::new();
        for i in 0..200 {
            input.extend_from_slice(phrase);
            input.push(i as u8);
        }
        let mut comp = Vec::new();
        let codec = compress_auto(&input, &[], &mut comp);
        assert_eq!(codec, Codec::Lz);
        assert!(comp.len() < input.len() / 2, "LZ on repeats: {} bytes", comp.len());
        round_trip(&input, &[]);
    }

    #[test]
    fn incompressible_bytes_ship_raw_and_never_grow() {
        // Xorshift noise defeats every codec; the block must ship raw at
        // exactly its own size.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let mut comp = Vec::new();
        let codec = compress_auto(&noise, &[], &mut comp);
        assert_eq!(codec, Codec::Raw);
        assert_eq!(comp, noise);
        round_trip(&noise, &[]);
    }

    /// Section-sized payloads shaped like what the checkpoint and trace
    /// writers hand the codec — bitmap runs, sorted tag arrays with
    /// region jumps, code-like repeats with drifting operands, and
    /// noise — each stay under the footprint bar of the codec picked
    /// for it.
    #[test]
    fn section_shaped_payloads_meet_their_footprint_bars() {
        const LEN: usize = 256 * 1024;
        let bitmap: Vec<u8> = (0..LEN).map(|i| if (i / 517) % 3 == 0 { 0xFF } else { 0 }).collect();
        let mut addr = 0x8000_0000u64;
        let tags: Vec<u8> = (0..LEN / 8)
            .flat_map(|i| {
                addr += if i % 97 == 0 { 0x1_0000 } else { 64 };
                addr.to_le_bytes()
            })
            .collect();
        let mut code = Vec::with_capacity(LEN);
        for i in 0u64.. {
            if code.len() >= LEN {
                break;
            }
            code.extend_from_slice(&[0x48, 0x8B, 0x05, (i % 7) as u8, 0x00, 0x00, 0x00, 0xC3]);
            code.extend_from_slice(&(0x40_0000 + (i / 3) * 16).to_le_bytes());
        }
        code.truncate(LEN);
        let mut x = 0x0123_4567_89ab_cdefu64;
        let noise: Vec<u8> = (0..LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();

        for (what, payload, bar) in
            [("bitmap", &bitmap, 0.10), ("tags", &tags, 0.40), ("code", &code, 0.60)]
        {
            let mut comp = Vec::new();
            let codec = compress_auto(payload, &[], &mut comp);
            let ratio = comp.len() as f64 / payload.len() as f64;
            assert!(ratio < bar, "{what}: {ratio:.3}x via {} is not under {bar}x", codec.name());
        }
        let mut comp = Vec::new();
        compress_auto(&noise, &[], &mut comp);
        let ratio = comp.len() as f64 / noise.len() as f64;
        assert!(ratio <= 1.01, "noise grew to {ratio:.3}x: the raw fallback must never grow");
    }

    #[test]
    fn empty_input_round_trips_everywhere() {
        assert_eq!(round_trip(&[], &[]), Codec::Raw);
        let stream = pack_stream(&[], &[]);
        assert_eq!(unpack_stream(&stream, &[]).expect("empty stream"), Vec::<u8>::new());
    }

    #[test]
    fn dictionary_matches_reach_back_and_count() {
        // A short block that is pure dictionary content: without the
        // dict it is barely compressible, with it LZ should collapse it.
        let dict: Vec<u8> = (0..96u64).flat_map(|i| (0x7F00 + i * 997).to_le_bytes()).collect();
        let block = dict[100..420].to_vec();
        let mut with_dict = Vec::new();
        let codec = compress_auto(&block, &dict, &mut with_dict);
        assert_eq!(codec, Codec::Lz, "dictionary must make the block compressible");
        let mut back = Vec::new();
        decompress(codec, &with_dict, &dict, block.len(), &mut back).expect("decompress");
        assert_eq!(back, block);
        let mut without = Vec::new();
        compress_auto(&block, &[], &mut without);
        assert!(with_dict.len() < without.len(), "{} !< {}", with_dict.len(), without.len());
    }

    #[test]
    fn wrong_dictionary_fails_the_stream_checksum_not_the_process() {
        let dict: Vec<u8> = (0..512u64).flat_map(|i| (i * 31).to_le_bytes()).collect();
        let payload = dict.repeat(3);
        let stream = pack_stream(&payload, &dict);
        assert_eq!(unpack_stream(&stream, &dict).expect("right dict"), payload);
        let other = vec![0xABu8; dict.len()];
        assert!(unpack_stream(&stream, &other).is_err(), "wrong dict must be detected");
    }

    #[test]
    fn stream_round_trips_across_block_boundaries() {
        // > 2 blocks, mixed content so different blocks pick different
        // codecs.
        let mut payload = vec![0u8; BLOCK_LEN + 17];
        payload.extend((0..BLOCK_LEN as u64 / 8).flat_map(|i| (i * 64).to_le_bytes()));
        payload.extend(b"tail".repeat(1000));
        let stream = pack_stream(&payload, &[]);
        assert!(stream.len() < payload.len() / 2, "mixed stream must shrink");
        assert_eq!(unpack_stream(&stream, &[]).expect("unpack"), payload);
    }

    #[test]
    fn damaged_streams_are_rejected_never_panic() {
        let payload: Vec<u8> = (0..40_000u64).flat_map(|i| (i % 251).to_le_bytes()).collect();
        let stream = pack_stream(&payload, &[]);
        // Truncation at every prefix length must error, not panic.
        for cut in 0..stream.len().min(64) {
            assert!(unpack_stream(&stream[..cut], &[]).is_err(), "{cut}-byte prefix accepted");
        }
        assert!(unpack_stream(&stream[..stream.len() - 1], &[]).is_err());
        // A flipped byte anywhere fails a named check (header decode or
        // block checksum), never silently succeeds with wrong bytes.
        for offset in [1, 5, stream.len() / 3, stream.len() / 2, stream.len() - 2] {
            let mut bent = stream.clone();
            bent[offset] ^= 0x10;
            match unpack_stream(&bent, &[]) {
                Err(_) => {}
                Ok(back) => assert_eq!(back, payload, "flip at {offset} gave wrong bytes"),
            }
        }
    }

    #[test]
    fn placement_dictionary_is_deterministic_and_capped() {
        let words = [0x40_000, 0x41_000, 0x42_180, 0x9_0000, 0x40_000];
        let a = placement_dictionary(&words, 4096);
        let b = placement_dictionary(&words, 4096);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(placement_dictionary(&words, 8).len() <= 8);
        assert!(placement_dictionary(&[], 4096).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes round-trip through auto selection, with and
        /// without a dictionary.
        #[test]
        fn arbitrary_bytes_round_trip(
            input in prop::collection::vec(any::<u8>(), 0..4096),
            with_dict in any::<bool>(),
        ) {
            let dict: Vec<u8> = if with_dict {
                input.iter().rev().copied().take(512).collect()
            } else {
                Vec::new()
            };
            let mut comp = Vec::new();
            let codec = compress_auto(&input, &dict, &mut comp);
            prop_assert!(comp.len() <= input.len(), "auto selection may never grow a block");
            let mut back = Vec::new();
            decompress(codec, &comp, &dict, input.len(), &mut back).expect("decompress");
            prop_assert_eq!(back, input);
        }

        /// Arbitrary bytes survive the framed stream, and random damage
        /// to the stream never panics the decoder.
        #[test]
        fn arbitrary_streams_round_trip_and_reject_damage(
            input in prop::collection::vec(any::<u8>(), 0..2048),
            flip_at in any::<u16>(),
            mask in 1u8..=255,
        ) {
            let stream = pack_stream(&input, &[]);
            prop_assert_eq!(unpack_stream(&stream, &[]).expect("unpack"), input.clone());
            let mut bent = stream.clone();
            let offset = flip_at as usize % bent.len().max(1);
            if !bent.is_empty() {
                bent[offset] ^= mask;
                match unpack_stream(&bent, &[]) {
                    Err(_) => {}
                    Ok(back) => prop_assert_eq!(back, input, "damage decoded to wrong bytes"),
                }
            }
        }
    }
}
