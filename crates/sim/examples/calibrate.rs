//! Calibration probe: prints the Table 2 / Figure 1 shape quantities for
//! each synthetic workload so the behaviour mixes can be tuned.
use bpred_aliasing::cursor::PairCursor;
use bpred_aliasing::fully_assoc::TaggedFullyAssociative;
use bpred_aliasing::substream::SubstreamStats;
use bpred_aliasing::tagged::TaggedDirectMapped;
use bpred_core::index::IndexFunction;
use bpred_core::predictor::Outcome;
use bpred_core::spec::parse_spec;
use bpred_trace::record::BranchKind;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::IbsBenchmark;

fn main() {
    let len: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);
    println!("len={len} conditionals");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6} | {:>7} {:>7} {:>7}",
        "bench",
        "ss4",
        "ideal4",
        "ss12",
        "ideal12",
        "fa1k",
        "fa4k",
        "fa16k",
        "fa64k",
        "dm4k",
        "dm16k",
        "static"
    );
    for b in IbsBenchmark::all() {
        let mut ss4 = SubstreamStats::new(4);
        let mut ss12 = SubstreamStats::new(12);
        let mut id4 = parse_spec("ideal:h=4").unwrap();
        let mut id12 = parse_spec("ideal:h=12").unwrap();
        let mut cur = PairCursor::new(4);
        let mut fa: Vec<TaggedFullyAssociative> = [1 << 10, 1 << 12, 1 << 14, 1 << 16]
            .iter()
            .map(|&c| TaggedFullyAssociative::new(c))
            .collect();
        let mut dm4k = TaggedDirectMapped::new(12, IndexFunction::Gshare);
        let mut dm16k = TaggedDirectMapped::new(14, IndexFunction::Gshare);
        let (mut n, mut m4, mut m12) = (0u64, 0u64, 0u64);
        let mut statics = std::collections::HashSet::new();
        for r in b.spec().build().take_conditionals(len) {
            if r.kind == BranchKind::Conditional {
                n += 1;
                statics.insert(r.pc);
                let o = Outcome::from(r.taken);
                let p = id4.predict(r.pc);
                if !p.novel && p.outcome != o {
                    m4 += 1;
                }
                id4.update(r.pc, o);
                let p = id12.predict(r.pc);
                if !p.novel && p.outcome != o {
                    m12 += 1;
                }
                id12.update(r.pc, o);
                let v = cur.vector(r.pc);
                for f in fa.iter_mut() {
                    f.access(v.pair());
                }
                dm4k.access(&v);
                dm16k.access(&v);
            } else {
                id4.record_unconditional(r.pc);
                id12.record_unconditional(r.pc);
            }
            ss4.observe(&r);
            ss12.observe(&r);
            cur.advance(&r);
        }
        let nf = n as f64;
        println!("{:<10} {:>6.2} {:>6.2} {:>6.2} {:>6.2} | {:>6.2} {:>6.2} {:>6.2} {:>6.2} | {:>7.2} {:>7.2} {:>7}",
            b.name(), ss4.substream_ratio(), 100.0*m4 as f64/nf, ss12.substream_ratio(), 100.0*m12 as f64/nf,
            100.0*fa[0].miss_ratio(), 100.0*fa[1].miss_ratio(), 100.0*fa[2].miss_ratio(), 100.0*fa[3].miss_ratio(),
            100.0*dm4k.miss_ratio(), 100.0*dm16k.miss_ratio(), statics.len());
    }
}
