//! Trace file I/O: a compact binary format (`.bpt`) and a debug-friendly
//! text format.
//!
//! The binary layout is:
//!
//! ```text
//! magic   4 bytes  "BPT1"
//! count   8 bytes  little-endian record count
//! records count * 9 bytes:
//!   pc      8 bytes little-endian
//!   flags   1 byte: bit0 taken, bit1 kernel, bits2-3 kind code
//! ```
//!
//! The format is deliberately simple — it exists so workloads can be
//! written out once and replayed byte-identically (e.g. for cross-checking
//! against an external simulator), not to compete with compressed trace
//! formats.

use crate::record::{BranchKind, BranchRecord, Privilege};
use std::io::{self, BufRead, Read, Write};

const MAGIC: &[u8; 4] = b"BPT1";

/// Write a trace in the binary `.bpt` format.
///
/// The record count is written up front, so the records are buffered into
/// memory first; use this for bounded traces only.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_binary<W: Write>(
    mut writer: W,
    records: impl Iterator<Item = BranchRecord>,
) -> io::Result<u64> {
    let records: Vec<BranchRecord> = records.collect();
    writer.write_all(MAGIC)?;
    writer.write_all(&(records.len() as u64).to_le_bytes())?;
    for r in &records {
        writer.write_all(&r.pc.to_le_bytes())?;
        let flags = u8::from(r.taken)
            | (u8::from(r.privilege == Privilege::Kernel) << 1)
            | (r.kind.code() << 2);
        writer.write_all(&[flags])?;
    }
    Ok(records.len() as u64)
}

/// Read a binary `.bpt` trace fully into memory.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad magic, a bad kind code,
/// or a truncated stream.
pub fn read_binary<R: Read>(mut reader: R) -> io::Result<Vec<BranchRecord>> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("bad magic, not a BPT1 trace"));
    }
    let mut count_bytes = [0u8; 8];
    reader.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes);
    let mut records = Vec::with_capacity(usize::try_from(count).map_err(|_| invalid("count"))?);
    let mut buf = [0u8; 9];
    for _ in 0..count {
        reader.read_exact(&mut buf)?;
        let pc = u64::from_le_bytes(buf[..8].try_into().expect("slice of 8"));
        let flags = buf[8];
        let kind = BranchKind::from_code((flags >> 2) & 0b11)
            .ok_or_else(|| invalid("bad branch kind code"))?;
        records.push(BranchRecord {
            pc,
            kind,
            taken: flags & 1 == 1,
            privilege: if flags & 0b10 != 0 {
                Privilege::Kernel
            } else {
                Privilege::User
            },
        });
    }
    Ok(records)
}

/// Write a binary trace without buffering: a placeholder record count is
/// written first and patched once the stream ends, so arbitrarily long
/// traces stream straight to disk.
///
/// Requires [`io::Seek`] (a `File` or `Cursor`); for non-seekable sinks
/// use [`write_binary`].
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_binary_streaming<W: Write + io::Seek>(
    mut writer: W,
    records: impl Iterator<Item = BranchRecord>,
) -> io::Result<u64> {
    writer.write_all(MAGIC)?;
    let count_pos = writer.stream_position()?;
    writer.write_all(&0u64.to_le_bytes())?;
    let mut count = 0u64;
    for r in records {
        writer.write_all(&r.pc.to_le_bytes())?;
        let flags = u8::from(r.taken)
            | (u8::from(r.privilege == Privilege::Kernel) << 1)
            | (r.kind.code() << 2);
        writer.write_all(&[flags])?;
        count += 1;
    }
    let end = writer.stream_position()?;
    writer.seek(io::SeekFrom::Start(count_pos))?;
    writer.write_all(&count.to_le_bytes())?;
    writer.seek(io::SeekFrom::Start(end))?;
    Ok(count)
}

/// Write a trace as one human-readable line per record:
/// `pc kind T|N user|kernel`.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_text<W: Write>(
    mut writer: W,
    records: impl Iterator<Item = BranchRecord>,
) -> io::Result<u64> {
    let mut n = 0;
    for r in records {
        writeln!(
            writer,
            "{:#x} {} {} {}",
            r.pc,
            r.kind,
            if r.taken { "T" } else { "N" },
            r.privilege
        )?;
        n += 1;
    }
    Ok(n)
}

/// Read a text trace written by [`write_text`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on malformed lines.
pub fn read_text<R: BufRead>(reader: R) -> io::Result<Vec<BranchRecord>> {
    let mut records = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| invalid(&format!("line {}: {what}", lineno + 1));
        let pc_str = parts.next().ok_or_else(|| err("missing pc"))?;
        let pc =
            u64::from_str_radix(pc_str.trim_start_matches("0x"), 16).map_err(|_| err("bad pc"))?;
        let kind = match parts.next().ok_or_else(|| err("missing kind"))? {
            "conditional" => BranchKind::Conditional,
            "unconditional" => BranchKind::Unconditional,
            "call" => BranchKind::Call,
            "return" => BranchKind::Return,
            _ => return Err(err("bad kind")),
        };
        let taken = match parts.next().ok_or_else(|| err("missing direction"))? {
            "T" => true,
            "N" => false,
            _ => return Err(err("bad direction")),
        };
        let privilege = match parts.next().ok_or_else(|| err("missing privilege"))? {
            "user" => Privilege::User,
            "kernel" => Privilege::Kernel,
            _ => return Err(err("bad privilege")),
        };
        records.push(BranchRecord {
            pc,
            kind,
            taken,
            privilege,
        });
    }
    Ok(records)
}

/// A streaming reader over a binary `.bpt` trace: yields records one at a
/// time without materializing the file.
///
/// Each item is an `io::Result<BranchRecord>`; iteration ends after the
/// header-declared record count, or at the first error.
///
/// ```no_run
/// use bpred_trace::io::BinaryReader;
/// use std::fs::File;
/// use std::io::BufReader;
///
/// # fn main() -> std::io::Result<()> {
/// let file = BufReader::new(File::open("trace.bpt")?);
/// for record in BinaryReader::new(file)? {
///     let record = record?;
///     println!("{record}");
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BinaryReader<R> {
    reader: R,
    remaining: u64,
    failed: bool,
}

impl<R: Read> BinaryReader<R> {
    /// Validate the header and prepare to stream the records.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a bad magic, or any I/O
    /// error from reading the header.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("bad magic, not a BPT1 trace"));
        }
        let mut count_bytes = [0u8; 8];
        reader.read_exact(&mut count_bytes)?;
        Ok(BinaryReader {
            reader,
            remaining: u64::from_le_bytes(count_bytes),
            failed: false,
        })
    }

    /// Records left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<R: Read> Iterator for BinaryReader<R> {
    type Item = io::Result<BranchRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        let mut buf = [0u8; 9];
        if let Err(e) = self.reader.read_exact(&mut buf) {
            self.failed = true;
            return Some(Err(e));
        }
        self.remaining -= 1;
        let pc = u64::from_le_bytes(buf[..8].try_into().expect("slice of 8"));
        let flags = buf[8];
        let Some(kind) = BranchKind::from_code((flags >> 2) & 0b11) else {
            self.failed = true;
            return Some(Err(invalid("bad branch kind code")));
        };
        Some(Ok(BranchRecord {
            pc,
            kind,
            taken: flags & 1 == 1,
            privilege: if flags & 0b10 != 0 {
                Privilege::Kernel
            } else {
                Privilege::User
            },
        }))
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::IbsBenchmark;

    fn sample() -> Vec<BranchRecord> {
        vec![
            BranchRecord::conditional(0x0040_1000, true),
            BranchRecord::conditional(0x0040_1010, false),
            BranchRecord::unconditional(0x0040_1020),
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
    fn binary_roundtrip() {
        let mut buf = Vec::new();
        let n = write_binary(&mut buf, sample().into_iter()).unwrap();
        assert_eq!(n, 5);
        assert_eq!(read_binary(buf.as_slice()).unwrap(), sample());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&mut buf, sample().into_iter()).unwrap();
        buf[0] = b'X';
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&mut buf, sample().into_iter()).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn text_roundtrip() {
        let mut buf = Vec::new();
        write_text(&mut buf, sample().into_iter()).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("0x401000 conditional T user"), "{text}");
        assert_eq!(read_text(buf.as_slice()).unwrap(), sample());
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let input = "# a comment\n\n0x100 conditional T user\n";
        let records = read_text(input.as_bytes()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].pc, 0x100);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text("zzz".as_bytes()).is_err());
        assert!(read_text("0x100 conditional X user".as_bytes()).is_err());
        assert!(read_text("0x100 sideways T user".as_bytes()).is_err());
        assert!(read_text("0x100 conditional T root".as_bytes()).is_err());
    }

    #[test]
    fn streaming_writer_matches_buffered_writer() {
        let mut buffered = Vec::new();
        write_binary(&mut buffered, sample().into_iter()).unwrap();
        let mut cursor = io::Cursor::new(Vec::new());
        let n = write_binary_streaming(&mut cursor, sample().into_iter()).unwrap();
        assert_eq!(n, 5);
        assert_eq!(cursor.into_inner(), buffered, "byte-identical output");
    }

    #[test]
    fn streaming_writer_patches_count() {
        let mut cursor = io::Cursor::new(Vec::new());
        write_binary_streaming(&mut cursor, sample().into_iter()).unwrap();
        let bytes = cursor.into_inner();
        let count = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        assert_eq!(count, 5);
        assert_eq!(read_binary(bytes.as_slice()).unwrap(), sample());
    }

    #[test]
    fn streaming_reader_matches_bulk_reader() {
        let mut buf = Vec::new();
        write_binary(&mut buf, sample().into_iter()).unwrap();
        let streamed: Vec<BranchRecord> = BinaryReader::new(buf.as_slice())
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(streamed, sample());
    }

    #[test]
    fn streaming_reader_reports_remaining() {
        let mut buf = Vec::new();
        write_binary(&mut buf, sample().into_iter()).unwrap();
        let mut reader = BinaryReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.remaining(), 5);
        reader.next().unwrap().unwrap();
        assert_eq!(reader.remaining(), 4);
    }

    #[test]
    fn streaming_reader_stops_after_error() {
        let mut buf = Vec::new();
        write_binary(&mut buf, sample().into_iter()).unwrap();
        buf.truncate(buf.len() - 3); // corrupt the final record
        let results: Vec<_> = BinaryReader::new(buf.as_slice()).unwrap().collect();
        assert_eq!(results.len(), 5, "4 records then one error");
        assert!(results[..4].iter().all(Result::is_ok));
        assert!(results[4].is_err());
    }

    #[test]
    fn streaming_reader_rejects_bad_magic() {
        assert!(BinaryReader::new(&b"NOPE\0\0\0\0\0\0\0\0"[..]).is_err());
    }

    #[test]
    fn workload_roundtrips_through_binary() {
        let records: Vec<_> = IbsBenchmark::Verilog.spec().build().take(10_000).collect();
        let mut buf = Vec::new();
        write_binary(&mut buf, records.iter().copied()).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), records);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_binary(&mut buf, std::iter::empty()).unwrap();
        assert!(read_binary(buf.as_slice()).unwrap().is_empty());
    }
}
