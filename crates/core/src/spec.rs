//! Textual predictor specifications.
//!
//! The CLI and the experiment harness describe predictors as compact spec
//! strings of the form `name:key=value,key=value`. Example specs:
//!
//! ```text
//! gshare:n=14,h=12              16K-entry gshare, 12 bits of history
//! gskew:n=12,h=8                3x4K gskew, partial update (defaults)
//! gskew:n=12,h=8,update=total   ... with total update
//! egskew:n=12,h=11              enhanced gskew
//! gskew:n=12,h=8,banks=5        5-bank ablation
//! bimodal:n=14                  bimodal
//! ideal:h=12,ctr=1              unaliased predictor, 1-bit automatons
//! falru:cap=4096,h=4            fully-associative LRU tagged table
//! setassoc:n=10,ways=4,h=4      4-way set-associative tagged table
//! mcfarling:n=12,h=10           gshare+bimodal combining predictor
//! 2bcgskew:n=12,h=12            EV8-style hybrid
//! always-taken                  static baseline
//! ```
//!
//! Recognized keys (unknown keys are an error): `n` (log2 entries per
//! table/bank), `h` (history bits), `ctr` (counter bits), `banks`,
//! `update` (`partial`/`total`), `skew` (`on`/`off`, the
//! identical-indexing ablation), `cap` (entry count for `falru`), `ways`,
//! `miss` (`taken`/`nottaken`), `bias` (agree bias-table log2), `choice`
//! (bimode choice-table log2), `bht`/`l` (per-address first-level log2 /
//! local history bits).

//! Additional families beyond the paper's: `agree:n=12,h=8`,
//! `bimode:n=12,h=8`, `pas:bht=10,l=8,n=12`, `spas:bht=10,l=8,n=10`.

use crate::assoc::{MissPolicy, SetAssociative, ADDR_TAG_BITS};
use crate::counter::CounterKind;
use crate::error::ConfigError;
use crate::gskew::UpdatePolicy;
use crate::lru::LruPredictor;
use crate::predictor::BranchPredictor;
use crate::table::TablePredictor;
use std::collections::HashMap;

/// Parsed key=value parameters of a spec string.
#[derive(Debug, Clone, Default)]
struct Params {
    map: HashMap<String, String>,
}

impl Params {
    fn parse(body: &str) -> Result<Self, ConfigError> {
        let mut map = HashMap::new();
        for item in body.split(',').filter(|s| !s.is_empty()) {
            let (k, v) = item
                .split_once('=')
                .ok_or_else(|| ConfigError::Parse(format!("expected key=value, got `{item}`")))?;
            if map
                .insert(k.trim().to_string(), v.trim().to_string())
                .is_some()
            {
                return Err(ConfigError::Parse(format!("duplicate key `{k}`")));
            }
        }
        Ok(Params { map })
    }

    fn u32(&mut self, key: &str, default: u32) -> Result<u32, ConfigError> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ConfigError::Parse(format!("`{key}` must be an integer, got `{v}`"))),
        }
    }

    fn usize(&mut self, key: &str, default: usize) -> Result<usize, ConfigError> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ConfigError::Parse(format!("`{key}` must be an integer, got `{v}`"))),
        }
    }

    fn counter(&mut self, default: CounterKind) -> Result<CounterKind, ConfigError> {
        match self.map.remove("ctr") {
            None => Ok(default),
            Some(v) => {
                let bits: u8 = v.parse().map_err(|_| {
                    ConfigError::Parse(format!("`ctr` must be an integer, got `{v}`"))
                })?;
                CounterKind::from_bits(bits)
                    .ok_or_else(|| ConfigError::invalid("ctr", bits, "must be in 1..=7"))
            }
        }
    }

    fn update_policy(&mut self) -> Result<UpdatePolicy, ConfigError> {
        match self.map.remove("update") {
            None => Ok(UpdatePolicy::Partial),
            Some(v) => UpdatePolicy::from_name(&v).ok_or_else(|| {
                ConfigError::Parse(format!("`update` must be partial|total, got `{v}`"))
            }),
        }
    }

    fn miss_policy(&mut self) -> Result<MissPolicy, ConfigError> {
        match self.map.remove("miss").as_deref() {
            None | Some("taken") => Ok(MissPolicy::AlwaysTaken),
            Some("nottaken") => Ok(MissPolicy::AlwaysNotTaken),
            Some(v) => Err(ConfigError::Parse(format!(
                "`miss` must be taken|nottaken, got `{v}`"
            ))),
        }
    }

    fn finish(self) -> Result<(), ConfigError> {
        if let Some(key) = self.map.keys().next() {
            return Err(ConfigError::Parse(format!("unknown key `{key}`")));
        }
        Ok(())
    }
}

/// A structured predictor description: the parsed form of a spec string,
/// before any table is allocated.
///
/// Splitting [`parse_spec`] into [`PredictorSpec::parse`] (cheap, pure)
/// and [`PredictorSpec::build`] (allocates the predictor) lets callers
/// inspect *what* a spec asks for without paying for it — the simulation
/// kernels in `bpred-sim` run the table families through
/// [`TablePredictor`]'s monomorphized tables and the tagged families
/// through walks of their own, building no boxed predictor.
///
/// Parameter *range* validation happens at construction
/// ([`TablePredictor::new`] and the tagged predictors' constructors), so
/// `parse` accepts e.g. `gshare:n=0` and the error surfaces at `build`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings are the spec-string keys documented above
pub enum PredictorSpec {
    /// `bimodal`: address-indexed counter table.
    Bimodal { n: u32, ctr: CounterKind },
    /// `gshare`: address XOR history.
    Gshare { n: u32, h: u32, ctr: CounterKind },
    /// `gselect`: address/history concatenation.
    Gselect { n: u32, h: u32, ctr: CounterKind },
    /// `gskew` / `egskew`: the skewed predictor family. `enhanced` is the
    /// e-gskew bank-0 address indexing; `skewing: false` is the
    /// identical-indexing ablation (`skew=off`).
    Gskew {
        n: u32,
        h: u32,
        banks: usize,
        ctr: CounterKind,
        update: UpdatePolicy,
        enhanced: bool,
        skewing: bool,
    },
    /// `agree`: biasing-bit agree predictor.
    Agree {
        n: u32,
        h: u32,
        bias: u32,
        ctr: CounterKind,
    },
    /// `bimode`: choice-steered taken/not-taken tables.
    BiMode {
        n: u32,
        h: u32,
        choice: u32,
        ctr: CounterKind,
    },
    /// `pas`: per-address two-level predictor.
    Pas {
        bht: u32,
        l: u32,
        n: u32,
        ctr: CounterKind,
    },
    /// `spas`: skewed per-address predictor.
    Spas {
        bht: u32,
        l: u32,
        n: u32,
        ctr: CounterKind,
        update: UpdatePolicy,
    },
    /// `ideal`: the unaliased (infinite-table) predictor.
    Ideal { h: u32, ctr: CounterKind },
    /// `falru`: fully-associative tagged LRU table.
    Falru {
        cap: usize,
        h: u32,
        ctr: CounterKind,
        miss: MissPolicy,
    },
    /// `setassoc`: set-associative tagged table.
    SetAssoc {
        n: u32,
        ways: usize,
        h: u32,
        ctr: CounterKind,
        miss: MissPolicy,
    },
    /// `mcfarling`: bimodal+gshare combining predictor.
    McFarling { n: u32, h: u32, ctr: CounterKind },
    /// `shgskew`: shared-hysteresis gskew.
    Shgskew {
        n: u32,
        h: u32,
        update: UpdatePolicy,
    },
    /// `2bcgskew`: EV8-style hybrid.
    TwoBcGskew { n: u32, h: u32 },
    /// `always-taken`.
    AlwaysTaken,
    /// `always-nottaken`.
    AlwaysNotTaken,
}

impl PredictorSpec {
    /// Parse a spec string into its structured form without building the
    /// predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unknown predictor names and malformed,
    /// unknown or non-numeric keys. Out-of-range *values* (`gshare:n=0`)
    /// parse fine and fail at [`build`](Self::build).
    pub fn parse(spec: &str) -> Result<PredictorSpec, ConfigError> {
        let (name, body) = match spec.split_once(':') {
            Some((n, b)) => (n.trim(), b),
            None => (spec.trim(), ""),
        };
        let mut p = Params::parse(body)?;
        let parsed = match name {
            "bimodal" => {
                let n = p.u32("n", 12)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Bimodal { n, ctr }
            }
            "gshare" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Gshare { n, h, ctr }
            }
            "gselect" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Gselect { n, h, ctr }
            }
            "gskew" | "egskew" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let banks = p.usize("banks", 3)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let update = p.update_policy()?;
                let skewing = match p.map.remove("skew").as_deref() {
                    None | Some("on") => true,
                    Some("off") => false,
                    Some(v) => {
                        return Err(ConfigError::Parse(format!(
                            "`skew` must be on|off, got `{v}`"
                        )))
                    }
                };
                p.finish()?;
                PredictorSpec::Gskew {
                    n,
                    h,
                    banks,
                    ctr,
                    update,
                    enhanced: name == "egskew",
                    skewing,
                }
            }
            "agree" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let bias = p.u32("bias", 0)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                let bias = if bias == 0 { n } else { bias };
                PredictorSpec::Agree { n, h, bias, ctr }
            }
            "bimode" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let choice = p.u32("choice", 0)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                let choice = if choice == 0 { n } else { choice };
                PredictorSpec::BiMode { n, h, choice, ctr }
            }
            "pas" => {
                let bht = p.u32("bht", 10)?;
                let l = p.u32("l", 8)?;
                let n = p.u32("n", 12)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Pas { bht, l, n, ctr }
            }
            "spas" => {
                let bht = p.u32("bht", 10)?;
                let l = p.u32("l", 8)?;
                let n = p.u32("n", 10)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let update = p.update_policy()?;
                p.finish()?;
                PredictorSpec::Spas {
                    bht,
                    l,
                    n,
                    ctr,
                    update,
                }
            }
            "ideal" => {
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Ideal { h, ctr }
            }
            "falru" => {
                let cap = p.usize("cap", 4096)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let miss = p.miss_policy()?;
                p.finish()?;
                PredictorSpec::Falru { cap, h, ctr, miss }
            }
            "setassoc" => {
                let n = p.u32("n", 10)?;
                let ways = p.usize("ways", 4)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let miss = p.miss_policy()?;
                p.finish()?;
                PredictorSpec::SetAssoc {
                    n,
                    ways,
                    h,
                    ctr,
                    miss,
                }
            }
            "mcfarling" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::McFarling { n, h, ctr }
            }
            "shgskew" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let update = p.update_policy()?;
                p.finish()?;
                PredictorSpec::Shgskew { n, h, update }
            }
            "2bcgskew" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 12)?;
                p.finish()?;
                PredictorSpec::TwoBcGskew { n, h }
            }
            "always-taken" => {
                p.finish()?;
                PredictorSpec::AlwaysTaken
            }
            "always-nottaken" => {
                p.finish()?;
                PredictorSpec::AlwaysNotTaken
            }
            other => return Err(ConfigError::UnknownPredictor(other.to_string())),
        };
        Ok(parsed)
    }

    /// Allocate the predictor this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a parameter is out of its legal range
    /// (constructor validation).
    pub fn build(&self) -> Result<Box<dyn BranchPredictor>, ConfigError> {
        if let Some(table) = TablePredictor::new(self)? {
            return Ok(Box::new(table));
        }
        if let Some(lru) = LruPredictor::new(self)? {
            return Ok(Box::new(lru));
        }
        let PredictorSpec::SetAssoc {
            n,
            ways,
            h,
            ctr,
            miss,
        } = *self
        else {
            unreachable!("every other family is a table or LRU predictor");
        };
        Ok(Box::new(
            SetAssociative::new(n, ways, h, ctr)?.with_miss_policy(miss),
        ))
    }

    /// The name of the predictor this spec describes, e.g. `gskew 3x4096
    /// h=8 2-bit partial`: what [`BranchPredictor::name`] reports for
    /// it, without allocating any table.
    ///
    /// # Panics
    ///
    /// May panic on an out-of-range spec that [`build`](Self::build)
    /// rejects.
    pub fn name(&self) -> String {
        use PredictorSpec as S;
        match *self {
            S::Bimodal { n, ctr } => format!("bimodal {} {ctr}", 1u64 << n),
            S::Gshare { n, h, ctr } => format!("gshare {} h={h} {ctr}", 1u64 << n),
            S::Gselect { n, h, ctr } => format!("gselect {} h={h} {ctr}", 1u64 << n),
            S::Gskew {
                n,
                h,
                banks,
                ctr,
                update,
                enhanced,
                skewing,
            } => format!(
                "{} {banks}x{} h={h} {ctr} {update}{}",
                if enhanced { "egskew" } else { "gskew" },
                1u64 << n,
                if skewing { "" } else { " same-index" }
            ),
            S::McFarling { n, h, ctr } => format!(
                "mcfarling[bimodal {} {ctr} | gshare {} h={h} {ctr}]",
                1u64 << n,
                1u64 << n
            ),
            S::TwoBcGskew { n, h } => format!("2bcgskew 4x{} h={h}", 1u64 << n),
            S::Agree { n, h, bias, ctr } => {
                format!("agree {} h={h} bias={} {ctr}", 1u64 << n, 1u64 << bias)
            }
            S::BiMode { n, h, choice, ctr } => {
                format!(
                    "bimode 2x{} h={h} choice={} {ctr}",
                    1u64 << n,
                    1u64 << choice
                )
            }
            S::Pas { bht, l, n, ctr } => {
                format!("pas bht={}x{l} table={} {ctr}", 1u64 << bht, 1u64 << n)
            }
            S::Spas {
                bht,
                l,
                n,
                ctr,
                update,
            } => format!(
                "spas bht={}x{l} 3x{} {ctr} {update}",
                1u64 << bht,
                1u64 << n
            ),
            S::Shgskew { n, h, update } => format!(
                "shgskew 3x{}+{}hyst h={h} {update}",
                1u64 << n,
                1u64 << (n - 1)
            ),
            S::AlwaysTaken => "always-taken".into(),
            S::AlwaysNotTaken => "always-not-taken".into(),
            S::Ideal { h, ctr } => format!("ideal h={h} {ctr}"),
            S::Falru { cap, h, ctr, .. } => format!("fa-lru {cap} h={h} {ctr}"),
            S::SetAssoc {
                n, ways, h, ctr, ..
            } => {
                format!("setassoc {}x{ways}w h={h} {ctr}", 1u64 << n)
            }
        }
    }

    /// The storage bits of the predictor this spec describes, before it
    /// sees a branch: what [`BranchPredictor::storage_bits`] reports for
    /// it fresh, without allocating any table. Tagged tables also charge
    /// an address tag, the history and the recency bits of each entry;
    /// an unbounded `ideal` table holds no counter yet.
    ///
    /// # Panics
    ///
    /// May panic on an out-of-range spec that [`build`](Self::build)
    /// rejects.
    pub fn storage_bits(&self) -> u64 {
        use PredictorSpec as S;
        let counters = |log2: u32, ctr: CounterKind| (1u64 << log2) * u64::from(ctr.bits());
        // Tag, history, counter and log2(recency group) bits per entry.
        let tagged = |entries: usize, group: usize, h: u32, ctr: CounterKind| {
            let lru_bits = usize::BITS - (group - 1).leading_zeros();
            entries as u64
                * (ADDR_TAG_BITS + u64::from(h) + u64::from(ctr.bits()) + u64::from(lru_bits))
        };
        match *self {
            S::Bimodal { n, ctr } | S::Gshare { n, ctr, .. } | S::Gselect { n, ctr, .. } => {
                counters(n, ctr)
            }
            S::Gskew { n, banks, ctr, .. } => banks as u64 * counters(n, ctr),
            S::McFarling { n, ctr, .. } => 2 * counters(n, ctr) + counters(n, CounterKind::TwoBit),
            S::TwoBcGskew { n, .. } => 4 * counters(n, CounterKind::TwoBit),
            // A bias bit and a valid bit per bias entry.
            S::Agree { n, bias, ctr, .. } => counters(n, ctr) + 2 * (1u64 << bias),
            S::BiMode { n, choice, ctr, .. } => 2 * counters(n, ctr) + counters(choice, ctr),
            S::Pas { bht, l, n, ctr } => (1u64 << bht) * u64::from(l) + counters(n, ctr),
            S::Spas { bht, l, n, ctr, .. } => (1u64 << bht) * u64::from(l) + 3 * counters(n, ctr),
            // Per bank: 2^n direction bits and 2^(n-1) hysteresis bits.
            S::Shgskew { n, .. } => 3 * ((1u64 << n) + (1u64 << (n - 1))),
            S::AlwaysTaken | S::AlwaysNotTaken | S::Ideal { .. } => 0,
            S::Falru { cap, h, ctr, .. } => tagged(cap, cap, h, ctr),
            S::SetAssoc {
                n, ways, h, ctr, ..
            } => tagged(ways << n, ways, h, ctr),
        }
    }
}

/// Build a predictor from a spec string:
/// [`PredictorSpec::parse`] followed by [`PredictorSpec::build`].
///
/// # Errors
///
/// Returns [`ConfigError`] for unknown predictor names, malformed or
/// unknown keys, and out-of-range parameter values.
///
/// ```
/// use bpred_core::spec::parse_spec;
///
/// let p = parse_spec("gskew:n=12,h=8")?;
/// assert_eq!(p.name(), "gskew 3x4096 h=8 2-bit partial");
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
pub fn parse_spec(spec: &str) -> Result<Box<dyn BranchPredictor>, ConfigError> {
    PredictorSpec::parse(spec)?.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_predictor_name() {
        for spec in [
            "bimodal:n=10",
            "gshare:n=12,h=8",
            "gselect:n=12,h=6",
            "gskew:n=10,h=8",
            "gskew:n=10,h=8,banks=5,update=total",
            "egskew:n=10,h=11",
            "ideal:h=4,ctr=1",
            "falru:cap=512,h=4",
            "setassoc:n=8,ways=4,h=4,miss=nottaken",
            "mcfarling:n=10,h=8",
            "2bcgskew:n=10,h=10",
            "always-taken",
            "always-nottaken",
            "agree:n=10,h=6",
            "agree:n=10,h=6,bias=8",
            "bimode:n=10,h=6,choice=9",
            "pas:bht=8,l=6,n=10",
            "spas:bht=8,l=6,n=8,update=total",
            "shgskew:n=10,h=6",
            "shgskew:n=10,h=6,update=total",
            "gskew:n=10,h=4,skew=off",
        ] {
            let p = parse_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn defaults_are_sane() {
        let p = parse_spec("gskew").unwrap();
        assert_eq!(p.name(), "gskew 3x4096 h=8 2-bit partial");
    }

    #[test]
    fn rejects_unknown_name() {
        assert!(matches!(
            parse_spec("tage:n=12"),
            Err(ConfigError::UnknownPredictor(_))
        ));
    }

    #[test]
    fn rejects_unknown_key() {
        let e = match parse_spec("gshare:n=12,bogus=1") {
            Err(e) => e,
            Ok(_) => panic!("unknown key accepted"),
        };
        assert!(e.to_string().contains("bogus"), "{e}");
    }

    #[test]
    fn rejects_malformed_pairs() {
        assert!(parse_spec("gshare:n").is_err());
        assert!(parse_spec("gshare:n=abc").is_err());
        assert!(parse_spec("gshare:n=12,n=13").is_err());
    }

    #[test]
    fn rejects_out_of_range_values() {
        assert!(parse_spec("gshare:ctr=9").is_err());
        assert!(parse_spec("gskew:update=sometimes").is_err());
        assert!(parse_spec("falru:cap=0").is_err());
        assert!(parse_spec("falru:miss=maybe").is_err());
        // The first out-of-range parameter of each table family, named.
        let range_1 = "must be in 1..=30";
        let range_2 = "must be in 2..=30";
        let history = ("history_bits", "must be at most 64");
        for (spec, value, (name, reason)) in [
            ("bimodal:n=0", 0, ("entries_log2", range_1)),
            ("bimodal:n=31", 31, ("entries_log2", range_1)),
            ("gshare:n=0", 0, ("entries_log2", range_1)),
            ("gshare:n=10,h=65", 65, history),
            ("gselect:n=0,h=4", 0, ("entries_log2", range_1)),
            ("gselect:n=10,h=200", 200, history),
            (
                "gskew:banks=2",
                2,
                ("banks", "must be an odd number between 3 and 5"),
            ),
            (
                "gskew:banks=4",
                4,
                ("banks", "must be an odd number between 3 and 5"),
            ),
            (
                "gskew:banks=7,n=1",
                7,
                ("banks", "must be an odd number between 3 and 5"),
            ),
            ("gskew:n=1", 1, ("bank_entries_log2", range_2)),
            ("egskew:n=31", 31, ("bank_entries_log2", range_2)),
            ("gskew:h=65", 65, history),
            ("agree:n=0,h=4,bias=8", 0, ("entries_log2", range_1)),
            ("agree:n=8,h=65,bias=31", 31, ("bias_entries_log2", range_1)),
            ("agree:n=8,h=65,bias=8", 65, history),
            ("bimode:n=0,h=4,choice=8", 0, ("entries_log2", range_1)),
            (
                "bimode:n=8,h=4,choice=31",
                31,
                ("choice_entries_log2", range_1),
            ),
            ("bimode:n=8,h=99,choice=8", 99, history),
            ("pas:bht=0,l=8,n=12", 0, ("bht_entries_log2", range_1)),
            ("pas:bht=8,l=0,n=12", 0, ("local_bits", "must be in 1..=32")),
            (
                "pas:bht=8,l=33,n=12",
                33,
                ("local_bits", "must be in 1..=32"),
            ),
            ("pas:bht=0,l=8,n=0", 0, ("entries_log2", range_1)),
            ("spas:bht=8,l=8,n=1", 1, ("bank_entries_log2", range_2)),
            ("spas:bht=31,l=8,n=8", 31, ("bht_entries_log2", range_1)),
            ("mcfarling:n=0,h=4", 0, ("entries_log2", range_1)),
            ("mcfarling:n=8,h=65", 65, history),
            ("2bcgskew:n=1,h=8", 1, ("n", range_2)),
            ("2bcgskew:n=10,h=65", 65, history),
            ("shgskew:n=1,h=4", 1, ("entries_log2", range_2)),
            ("shgskew:n=8,h=65", 65, history),
        ] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            let expected = ConfigError::invalid(name, value, reason);
            assert_eq!(parsed.build().err(), Some(expected), "{spec}");
        }
    }

    #[test]
    fn spec_controls_update_policy() {
        let p = parse_spec("gskew:n=10,h=4,update=total").unwrap();
        assert!(p.name().contains("total"));
        let q = parse_spec("gskew:n=10,h=4").unwrap();
        assert!(q.name().contains("partial"));
    }

    #[test]
    fn skew_off_is_the_identical_indexing_ablation() {
        let p = parse_spec("gskew:n=10,h=4,skew=off").unwrap();
        assert!(p.name().ends_with("same-index"));
        assert!(parse_spec("gskew:skew=sideways").is_err());
    }

    #[test]
    fn agree_bias_defaults_to_counter_size() {
        let p = parse_spec("agree:n=11,h=6").unwrap();
        assert!(p.name().contains("bias=2048"), "{}", p.name());
    }

    #[test]
    fn egskew_is_enhanced() {
        let p = parse_spec("egskew:n=10,h=11").unwrap();
        assert!(p.name().starts_with("egskew"));
    }

    #[test]
    fn structured_parse_carries_every_knob() {
        assert_eq!(
            PredictorSpec::parse("gskew:n=10,h=6,banks=5,update=total,skew=off").unwrap(),
            PredictorSpec::Gskew {
                n: 10,
                h: 6,
                banks: 5,
                ctr: CounterKind::TwoBit,
                update: UpdatePolicy::Total,
                enhanced: false,
                skewing: false,
            }
        );
        assert_eq!(
            PredictorSpec::parse("egskew:n=12,h=11").unwrap(),
            PredictorSpec::Gskew {
                n: 12,
                h: 11,
                banks: 3,
                ctr: CounterKind::TwoBit,
                update: UpdatePolicy::Partial,
                enhanced: true,
                skewing: true,
            }
        );
        assert_eq!(
            PredictorSpec::parse("gshare:n=14,h=4,ctr=1").unwrap(),
            PredictorSpec::Gshare {
                n: 14,
                h: 4,
                ctr: CounterKind::OneBit,
            }
        );
    }

    #[test]
    fn out_of_range_values_parse_but_fail_to_build() {
        // Range validation happens at construction: `parse` is happy,
        // `build` reports the error.
        let spec = PredictorSpec::parse("gshare:n=0").unwrap();
        assert!(spec.build().is_err());
        let spec = PredictorSpec::parse("gskew:banks=2").unwrap();
        assert!(spec.build().is_err());
    }

    #[test]
    fn structured_build_matches_fused_parse() {
        for spec in ["gshare:n=12,h=8", "gskew:n=10,h=4", "mcfarling:n=10,h=8"] {
            let fused = parse_spec(spec).unwrap();
            let staged = PredictorSpec::parse(spec).unwrap().build().unwrap();
            assert_eq!(fused.name(), staged.name());
            assert_eq!(fused.storage_bits(), staged.storage_bits());
        }
    }
}
