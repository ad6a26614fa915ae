//! Trace file I/O: the compact `BPT2` format of delta- and
//! varint-encoded records.
//!
//! A flat layout would spend 9 bytes per record (an 8-byte pc and a flags
//! byte); real traces have enormous pc locality, so `BPT2` encodes each
//! record as
//!
//! ```text
//! header  "BPT2" + varint record count
//! record  flags byte: bit0 taken, bit1 kernel, bits2-3 kind,
//!                     bit4 pc-delta sign
//!         varint |pc - prev_pc| (bytes, zig-zag free since sign is in flags)
//! ```
//!
//! On the synthetic workloads this is ~2.2 bytes per record — a 4x
//! saving — while remaining a forward-only stream (see
//! [`CompactReader`]). Trace files exist so a workload can be written out
//! once and replayed byte-identically, e.g. to cross-check another
//! simulator.

use crate::record::{BranchKind, BranchRecord, Privilege};
use crate::soa::TraceColumns;
use std::borrow::Borrow;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"BPT2";

fn write_varint<W: Write>(writer: &mut W, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return writer.write_all(&[byte]);
        }
        writer.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(invalid("varint overflows u64"));
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Write a trace in the compact `BPT2` format; returns the record count.
///
/// Buffers the records to know the count up front; use this for bounded
/// traces only, and [`write_compact_chunks`] to stream a trace whose
/// count is known.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_compact<W: Write>(
    mut writer: W,
    records: impl Iterator<Item = BranchRecord>,
) -> io::Result<u64> {
    let records: Vec<BranchRecord> = records.collect();
    writer.write_all(MAGIC)?;
    write_varint(&mut writer, records.len() as u64)?;
    let mut prev_pc = 0;
    for &r in &records {
        write_record(&mut writer, r, &mut prev_pc)?;
    }
    Ok(records.len() as u64)
}

/// Write the `count` records of a trace handed over as column chunks, in
/// order, in the compact `BPT2` format: the bytes [`write_compact`]
/// writes for the same records, in memory independent of the trace's
/// length. Returns the record count.
///
/// # Errors
///
/// Propagates I/O errors from `writer`, and returns
/// [`io::ErrorKind::InvalidInput`] when the chunks hold other than
/// `count` records (the header is written by then).
pub fn write_compact_chunks<W: Write, C: Borrow<TraceColumns>>(
    mut writer: W,
    count: u64,
    chunks: impl IntoIterator<Item = C>,
) -> io::Result<u64> {
    writer.write_all(MAGIC)?;
    write_varint(&mut writer, count)?;
    let (mut written, mut prev_pc) = (0u64, 0u64);
    for chunk in chunks {
        for r in chunk.borrow().records() {
            write_record(&mut writer, r, &mut prev_pc)?;
            written += 1;
        }
    }
    if written != count {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{written} records written under a header of {count}"),
        ));
    }
    Ok(count)
}

/// Encode one record after a record at `prev_pc`, and advance `prev_pc`.
fn write_record<W: Write>(writer: &mut W, r: BranchRecord, prev_pc: &mut u64) -> io::Result<()> {
    let (delta, negative) = if r.pc >= *prev_pc {
        (r.pc - *prev_pc, false)
    } else {
        (*prev_pc - r.pc, true)
    };
    let flags = u8::from(r.taken)
        | (u8::from(r.privilege == Privilege::Kernel) << 1)
        | (r.kind.code() << 2)
        | (u8::from(negative) << 4);
    writer.write_all(&[flags])?;
    write_varint(writer, delta)?;
    *prev_pc = r.pc;
    Ok(())
}

/// Read a compact `BPT2` trace fully into memory.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad magic or malformed
/// stream.
pub fn read_compact<R: Read>(reader: R) -> io::Result<Vec<BranchRecord>> {
    CompactReader::new(reader)?.collect()
}

/// Streaming reader over a `BPT2` trace.
#[derive(Debug)]
pub struct CompactReader<R> {
    reader: R,
    remaining: u64,
    prev_pc: u64,
    failed: bool,
}

impl<R: Read> CompactReader<R> {
    /// Validate the header and prepare to stream.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a bad magic.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("bad magic, not a BPT2 trace"));
        }
        let remaining = read_varint(&mut reader)?;
        Ok(CompactReader {
            reader,
            remaining,
            prev_pc: 0,
            failed: false,
        })
    }

    /// Records left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<R: Read> Iterator for CompactReader<R> {
    type Item = io::Result<BranchRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        let result = (|| {
            let mut flags = [0u8; 1];
            self.reader.read_exact(&mut flags)?;
            let flags = flags[0];
            let delta = read_varint(&mut self.reader)?;
            let kind = BranchKind::from_code((flags >> 2) & 0b11)
                .ok_or_else(|| invalid("bad branch kind code"))?;
            let pc = if flags & 0b1_0000 != 0 {
                self.prev_pc.wrapping_sub(delta)
            } else {
                self.prev_pc.wrapping_add(delta)
            };
            self.prev_pc = pc;
            Ok(BranchRecord {
                pc,
                kind,
                taken: flags & 1 == 1,
                privilege: Privilege::of(flags & 0b10 != 0),
            })
        })();
        match result {
            Ok(record) => {
                self.remaining -= 1;
                Some(Ok(record))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceSourceExt;
    use crate::workload::IbsBenchmark;

    fn sample() -> Vec<BranchRecord> {
        vec![
            BranchRecord::conditional(0x0040_1000, true),
            BranchRecord::conditional(0x0040_1010, false),
            BranchRecord::unconditional(0x0040_0f00), // backward delta
            BranchRecord {
                pc: 0x8000_0100,
                kind: BranchKind::Call,
                taken: true,
                privilege: Privilege::Kernel,
            },
            BranchRecord {
                pc: 0x8000_0200,
                kind: BranchKind::Return,
                taken: true,
                privilege: Privilege::Kernel,
            },
        ]
    }

    #[test]
    fn varint_roundtrip() {
        for value in [0u64, 1, 127, 128, 300, 0xFFFF, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), value);
        }
    }

    #[test]
    fn compact_roundtrip() {
        let mut buf = Vec::new();
        let n = write_compact(&mut buf, sample().into_iter()).unwrap();
        assert_eq!(n, 5);
        assert_eq!(read_compact(buf.as_slice()).unwrap(), sample());
    }

    #[test]
    fn chunked_writes_stream_the_same_bytes() {
        let mut buffered = Vec::new();
        write_compact(&mut buffered, sample().into_iter()).unwrap();
        let records = sample();
        let chunks: Vec<TraceColumns> = records.chunks(2).map(TraceColumns::from_records).collect();
        let mut streamed = Vec::new();
        assert_eq!(write_compact_chunks(&mut streamed, 5, &chunks).unwrap(), 5);
        assert_eq!(streamed, buffered);
        for wrong in [4, 6] {
            let err = write_compact_chunks(Vec::new(), wrong, &chunks).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_compact(&mut buf, std::iter::empty()).unwrap();
        assert!(read_compact(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(read_compact(&b"BPT1\0\0\0\0"[..]).is_err());
    }

    #[test]
    fn truncation_surfaces_an_error() {
        let mut buf = Vec::new();
        write_compact(&mut buf, sample().into_iter()).unwrap();
        buf.truncate(buf.len() - 1);
        let results: Vec<_> = CompactReader::new(buf.as_slice()).unwrap().collect();
        assert!(results.last().unwrap().is_err());
    }

    #[test]
    fn workload_roundtrips_and_compresses() {
        let records: Vec<_> = IbsBenchmark::Gs
            .spec()
            .build()
            .take_conditionals(20_000)
            .collect();
        let mut compact = Vec::new();
        write_compact(&mut compact, records.iter().copied()).unwrap();
        assert_eq!(read_compact(compact.as_slice()).unwrap(), records);

        // The flat BPT1 layout this format replaced: a 12-byte header
        // (magic + u64 count) and 9 bytes per record.
        let flat = 12 + 9 * records.len();
        assert!(
            compact.len() * 2 < flat,
            "BPT2 {} bytes should be well under half of BPT1 {flat} bytes",
            compact.len()
        );
    }

    #[test]
    fn pc_deltas_roundtrip_at_u64_boundaries() {
        // Deltas are stored as |pc - prev_pc| with a sign flag and
        // decoded with wrapping arithmetic, so the extremes must all
        // survive: zero deltas, ±1 steps, and full-range jumps between
        // 0 and u64::MAX (a u64::MAX-sized delta in both directions).
        let pcs = [
            0u64,
            0, // delta 0 from pc 0
            1,
            0,
            u64::MAX,
            u64::MAX, // delta 0 at the top
            u64::MAX - 1,
            u64::MAX,
            0, // full-range backward jump
            u64::MAX,
            1u64 << 63,
            (1u64 << 63) - 1,
        ];
        let records: Vec<BranchRecord> = pcs
            .iter()
            .map(|&pc| BranchRecord::conditional(pc, pc % 2 == 0))
            .collect();
        let mut buf = Vec::new();
        write_compact(&mut buf, records.iter().copied()).unwrap();
        assert_eq!(read_compact(buf.as_slice()).unwrap(), records);
    }

    #[test]
    fn every_flag_combination_roundtrips() {
        // All 4 kinds x taken x privilege = 16 flag patterns, each with
        // a distinct pc so the delta path is exercised too.
        let kinds = [
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
        ];
        let mut records = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            for taken in [false, true] {
                for privilege in [Privilege::User, Privilege::Kernel] {
                    records.push(BranchRecord {
                        pc: 0x1000 * (i as u64 + 1) + u64::from(taken) * 8,
                        kind,
                        taken,
                        privilege,
                    });
                }
            }
        }
        assert_eq!(records.len(), 16);
        let mut buf = Vec::new();
        write_compact(&mut buf, records.iter().copied()).unwrap();
        let back: Vec<BranchRecord> = CompactReader::new(buf.as_slice())
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn every_truncation_point_surfaces_an_error() {
        // Cutting the stream after ANY byte must either fail header
        // validation or surface exactly one record-level error — never
        // panic, hang, or silently yield a short but "successful" trace.
        let mut buf = Vec::new();
        write_compact(&mut buf, sample().into_iter()).unwrap();
        for cut in 0..buf.len() {
            let truncated = &buf[..cut];
            match CompactReader::new(truncated) {
                Err(_) => assert!(cut < 5, "header errors only before count at cut {cut}"),
                Ok(reader) => {
                    let results: Vec<_> = reader.collect();
                    let errors = results.iter().filter(|r| r.is_err()).count();
                    assert_eq!(errors, 1, "exactly one error then stop, cut {cut}");
                    assert!(results.last().unwrap().is_err(), "error is terminal");
                    assert!(results.len() <= sample().len());
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_records_roundtrip(raw in proptest::collection::vec(
            (
                proptest::any::<u64>(),
                proptest::any::<u8>(),
                proptest::any::<bool>(),
                proptest::any::<bool>(),
            ),
            0..64
        )) {
            let records: Vec<BranchRecord> = raw
                .iter()
                .map(|&(pc, kind, taken, kernel)| BranchRecord {
                    pc,
                    kind: BranchKind::from_code(kind % 4).unwrap(),
                    taken,
                    privilege: if kernel { Privilege::Kernel } else { Privilege::User },
                })
                .collect();
            let mut buf = Vec::new();
            write_compact(&mut buf, records.iter().copied()).unwrap();
            let back = read_compact(buf.as_slice()).unwrap();
            proptest::prop_assert_eq!(back, records);
        }
    }

    #[test]
    fn streaming_matches_bulk() {
        let mut buf = Vec::new();
        write_compact(&mut buf, sample().into_iter()).unwrap();
        let mut reader = CompactReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.remaining(), 5);
        let streamed: Vec<BranchRecord> = reader.by_ref().collect::<io::Result<_>>().unwrap();
        assert_eq!(streamed, sample());
        assert_eq!(reader.remaining(), 0);
    }
}
