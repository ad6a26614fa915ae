//! Trace tooling tour: generate a workload, write it as a BPT2 trace,
//! stream it back and check that nothing changed — the round trip a user
//! would take to exchange traces with another simulator.
//!
//! ```text
//! cargo run --release --example trace_tools [branches]
//! ```

use gskew::trace::io::{write_compact, CompactReader};
use gskew::trace::prelude::*;
use std::io;

fn main() -> io::Result<()> {
    let len: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);

    let records: Vec<BranchRecord> = IbsBenchmark::MpegPlay
        .spec()
        .build()
        .take_conditionals(len)
        .collect();
    let stats = TraceStats::collect(records.iter().copied());
    println!(
        "generated {} records ({} conditional, {} static sites, {:.1}% kernel)",
        stats.total_records,
        stats.dynamic_conditional,
        stats.static_conditional,
        100.0 * stats.kernel_ratio()
    );

    let mut file = Vec::new();
    write_compact(&mut file, records.iter().copied())?;
    println!(
        "BPT2: {} bytes ({:.2} B/record, vs 9 B/record for a flat pc + flags layout)",
        file.len(),
        file.len() as f64 / records.len() as f64
    );

    // The reader streams: each record is decoded on demand, so the same
    // loop works on a file far larger than memory.
    let mut reader = CompactReader::new(file.as_slice())?;
    assert_eq!(reader.remaining(), records.len() as u64);
    for (i, expected) in records.iter().enumerate() {
        let record = reader.next().expect("header count covers every record")?;
        assert_eq!(&record, expected, "record {i} differs after the round trip");
    }
    assert!(reader.next().is_none(), "no records past the header count");
    println!("streamed back {} identical records", records.len());
    Ok(())
}
