//! Trace tooling tour: generate a workload, write it as a BPT2 trace,
//! stream it back and check that nothing changed — the round trip a user
//! would take to exchange traces with another simulator.
//!
//! ```text
//! cargo run --release --example trace_tools [branches]
//! ```

use gskew::trace::io::{write_compact_chunks, CompactReader};
use gskew::trace::prelude::*;
use std::io;

fn main() -> io::Result<()> {
    let len: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);

    let trace = IbsBenchmark::MpegPlay.spec().build().fill(len);
    let stats = TraceStats::collect([&trace]);
    println!(
        "generated {} records ({} conditional, {} static sites, {:.1}% kernel)",
        stats.total_records,
        stats.dynamic_conditional,
        stats.static_conditional,
        100.0 * stats.kernel_ratio()
    );

    let mut file = Vec::new();
    write_compact_chunks(&mut file, stats.total_records, [&trace])?;
    println!(
        "BPT2: {} bytes ({:.2} B/record, vs 9 B/record for a flat pc + flags layout)",
        file.len(),
        file.len() as f64 / stats.total_records as f64
    );

    // The reader streams: each record is decoded on demand, so the same
    // loop works on a file far larger than memory.
    let reader = CompactReader::new(file.as_slice())?;
    assert_eq!(reader.remaining(), stats.total_records);
    let back: TraceColumns = reader.collect::<io::Result<_>>()?;
    assert!(back == trace, "the trace differs after the round trip");
    println!("streamed back {} identical records", back.len());
    Ok(())
}
