//! Exhaustive single-byte mutation sweep over a small indexed trace v2
//! file: every byte XORed with every value 1..=255, read back through
//! the sequential raw path (`read_chunk_raw` + `decode_chunk`) and
//! through the chunk-index footer (`read_index`).
//!
//! Each mutation must end in a typed error or in exactly the original
//! records (a damaged index may also read as "no index", its documented
//! demotion) — never a panic, and never a different stream or index.

use std::io::{Cursor, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use trrip_cpu::TraceInstr;
use trrip_trace::{decode_chunk, read_index, ChunkIndex, TraceLayout, TraceReader, TraceWriter};

/// Records per chunk; the trace spans four chunks, the last one partial.
const CHUNK: u32 = 8;
const RECORDS: u64 = 3 * CHUNK as u64 + 5;

fn records() -> Vec<TraceInstr> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..RECORDS)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x40_1000 + (i % 11) * 4;
            match i % 5 {
                0 => TraceInstr::cond(pc, x & 1 == 0, 0x40_1000),
                1 => TraceInstr::load(pc, 0x7f_0000 + (x % 64) * 64),
                2 => TraceInstr::store(pc, 0x7f_8000 + (x % 16) * 8),
                3 => TraceInstr::jump(pc, 0x40_2000 + (x % 8) * 16),
                _ => TraceInstr::simple(pc),
            }
        })
        .collect()
}

fn trace_bytes(instrs: &[TraceInstr]) -> Vec<u8> {
    let dict = b"TRRIP-mutation-dict".to_vec();
    let mut writer =
        TraceWriter::with_dict(Cursor::new(Vec::new()), "mutation", TraceLayout::Pgo, CHUNK, dict)
            .expect("header");
    writer.write_all(instrs.iter().copied()).expect("records");
    writer.finish_into_inner().expect("finish").into_inner()
}

/// The sequential raw path: header, then every chunk read raw and
/// decoded, through to the EOF checksum.
fn read_sequential(bytes: &[u8]) -> Result<Vec<TraceInstr>, String> {
    let mut reader = TraceReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())?;
    let (mut payload, mut out) = (Vec::new(), Vec::new());
    // A well-formed header promises at most `RECORDS` records; any more
    // chunks than that means the reader failed to stop.
    for _ in 0..=RECORDS {
        match reader.read_chunk_raw(&mut payload).map_err(|e| e.to_string())? {
            0 => return Ok(out),
            count => decode_chunk(&payload, count, &mut out).map_err(|e| e.to_string())?,
        }
    }
    panic!("reader did not reach the end of a {}-byte file", bytes.len())
}

/// The index path as callers take it: the header read from the file,
/// then its footer.
fn read_footer(path: &Path) -> Result<Option<ChunkIndex>, String> {
    let meta = trrip_trace::probe(path).map_err(|e| e.to_string())?;
    read_index(path, &meta).map_err(|e| e.to_string())
}

#[test]
fn every_single_byte_mutation_is_rejected_or_harmless() {
    let instrs = records();
    let bytes = trace_bytes(&instrs);
    let dir = std::env::temp_dir().join("trrip-trace-mutation-test");
    std::fs::create_dir_all(&dir).expect("test dir");
    let path = dir.join(format!("mutation-{}.trrip", std::process::id()));
    std::fs::write(&path, &bytes).expect("write trace");

    assert_eq!(read_sequential(&bytes), Ok(instrs.clone()), "the pristine file reads back");
    let index = read_footer(&path).expect("index").expect("fresh captures carry an index");
    assert_eq!(index.chunks(), RECORDS.div_ceil(u64::from(CHUNK)) as usize);

    let mut file = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
    let (mut rejected, mut harmless) = (0u64, 0u64);
    let mut mutated = bytes.clone();
    for at in 0..bytes.len() {
        for mask in 1..=255u8 {
            mutated[at] = bytes[at] ^ mask;
            file.seek(SeekFrom::Start(at as u64)).expect("seek");
            file.write_all(&mutated[at..=at]).expect("mutate");

            let outcome =
                catch_unwind(AssertUnwindSafe(|| (read_sequential(&mutated), read_footer(&path))));
            let Ok((stream, footer)) = outcome else {
                panic!("byte {at} ^ {mask:#04x} panicked a reader");
            };
            match stream {
                Ok(stream) => {
                    assert!(stream == instrs, "byte {at} ^ {mask:#04x} decoded a different stream");
                    harmless += 1;
                }
                Err(_) => rejected += 1,
            }
            if let Ok(Some(found)) = footer {
                assert!(found == index, "byte {at} ^ {mask:#04x} read a different index");
            }
        }
        mutated[at] = bytes[at];
        file.seek(SeekFrom::Start(at as u64)).expect("seek");
        file.write_all(&bytes[at..=at]).expect("restore");
    }
    drop(file);
    std::fs::remove_file(&path).ok();
    assert_eq!(rejected + harmless, bytes.len() as u64 * 255);
    assert!(rejected > harmless, "most damage must be detected: {rejected} vs {harmless}");
}
