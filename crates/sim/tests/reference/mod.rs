//! Naive per-record reference models of every predictor family — the
//! table families, the set-associative tagged table, and the
//! fully-associative LRU (`falru`) and unbounded (`ideal`) tagged tables
//! — the oracle of the kernels, the set walk and the LRU walks.
//!
//! Each model is written from the paper's definitions and implements
//! [`BranchPredictor`] one record at a time: `predict` reads the
//! counters under the current history, `update` recomputes every index,
//! trains, then shifts the outcome into the history. The models use only
//! [`IndexFunction::index`], [`skew_index`], [`InfoVector`] and
//! [`SatCounter`] — none of the table code they check — and favour
//! clarity over speed: one `SatCounter` per entry, indices recomputed and
//! tagged entries searched linearly on every call.

#![allow(dead_code)]

use bpred_core::assoc::MissPolicy;
use bpred_core::counter::{CounterKind, SatCounter};
use bpred_core::gskew::UpdatePolicy;
use bpred_core::index::IndexFunction;
use bpred_core::predictor::{BranchPredictor, Outcome, Prediction};
use bpred_core::skew::skew_index;
use bpred_core::spec::PredictorSpec;
use bpred_core::vector::InfoVector;

/// The reference model of `spec`.
///
/// # Panics
///
/// Panics on a spec that does not parse.
pub fn oracle(spec: &str) -> Box<dyn BranchPredictor> {
    build(&PredictorSpec::parse(spec).unwrap())
}

/// The reference model of `spec`. Parameters are taken as given: an
/// out-of-range spec builds a model that panics or misbehaves.
fn build(spec: &PredictorSpec) -> Box<dyn BranchPredictor> {
    use PredictorSpec as S;
    match *spec {
        S::Bimodal { n, ctr } => Box::new(Single::new(IndexFunction::Bimodal, n, 0, ctr)),
        S::Gshare { n, h, ctr } => Box::new(Single::new(IndexFunction::Gshare, n, h, ctr)),
        S::Gselect { n, h, ctr } => Box::new(Single::new(IndexFunction::Gselect, n, h, ctr)),
        S::Gskew { .. } => Box::new(Gskew::new(spec)),
        S::McFarling { n, h, ctr } => Box::new(McFarling {
            bimodal: Single::new(IndexFunction::Bimodal, n, 0, ctr),
            gshare: Single::new(IndexFunction::Gshare, n, h, ctr),
            meta: counters(n, CounterKind::TwoBit),
            n,
        }),
        S::TwoBcGskew { n, h } => Box::new(TwoBcGskew {
            n,
            hist: Register::new(h),
            banks: std::array::from_fn(|_| counters(n, CounterKind::TwoBit)),
        }),
        S::Agree { n, h, bias, ctr } => Box::new(Agree {
            n,
            hist: Register::new(h),
            counters: counters(n, ctr),
            bias: vec![None; 1 << bias],
            bias_n: bias,
        }),
        S::BiMode { n, h, choice, ctr } => Box::new(BiMode {
            n,
            hist: Register::new(h),
            choice: counters(choice, ctr),
            choice_n: choice,
            banks: [counters(n, ctr), counters(n, ctr)],
        }),
        S::Pas { bht, l, n, ctr } => Box::new(Pas {
            locals: vec![Register::new(l); 1 << bht],
            bht,
            n,
            table: counters(n, ctr),
        }),
        S::Spas {
            bht,
            l,
            n,
            ctr,
            update,
        } => Box::new(Spas {
            locals: vec![Register::new(l); 1 << bht],
            bht,
            n,
            banks: std::array::from_fn(|_| counters(n, ctr)),
            partial: update == UpdatePolicy::Partial,
        }),
        S::Shgskew { n, h, update } => Box::new(Shgskew {
            n,
            hist: Register::new(h),
            // Boot weakly taken: direction 1, hysteresis 0.
            direction: std::array::from_fn(|_| vec![true; 1 << n]),
            hysteresis: std::array::from_fn(|_| vec![false; 1 << (n - 1)]),
            partial: update == UpdatePolicy::Partial,
        }),
        S::AlwaysTaken => Box::new(Static(Outcome::Taken)),
        S::AlwaysNotTaken => Box::new(Static(Outcome::NotTaken)),
        S::SetAssoc {
            n,
            ways,
            h,
            ctr,
            miss,
        } => Box::new(SetAssoc {
            n,
            ways,
            hist: Register::new(h),
            sets: vec![Vec::new(); 1 << n],
            kind: ctr,
            miss: Outcome::from(miss == MissPolicy::AlwaysTaken),
            tick: 0,
        }),
        S::Falru { cap, h, ctr, miss } => Box::new(Lru {
            capacity: cap,
            hist: Register::new(h),
            entries: Vec::new(),
            kind: ctr,
            miss: Outcome::from(miss == MissPolicy::AlwaysTaken),
        }),
        // The unaliased table of section 3.1: no capacity bound, and a
        // first encounter predicts not-taken.
        S::Ideal { h, ctr } => Box::new(Lru {
            capacity: usize::MAX,
            hist: Register::new(h),
            entries: Vec::new(),
            kind: ctr,
            miss: Outcome::NotTaken,
        }),
    }
}

/// The reference gskew model of a gskew-family spec, with its vote
/// inspection.
///
/// # Panics
///
/// Panics if `spec` is not a gskew spec.
pub fn gskew(spec: &str) -> Gskew {
    Gskew::new(&PredictorSpec::parse(spec).unwrap())
}

/// A shift register of the youngest `bits` outcomes, youngest in bit 0.
#[derive(Debug, Clone, Copy)]
struct Register {
    bits: u32,
    value: u64,
}

impl Register {
    fn new(bits: u32) -> Register {
        Register { bits, value: 0 }
    }

    fn push(&mut self, outcome: Outcome) {
        let kept = match self.bits {
            0 => 0,
            64.. => u64::MAX,
            bits => (1 << bits) - 1,
        };
        self.value = ((self.value << 1) | u64::from(outcome.is_taken())) & kept;
    }

    fn vector(&self, pc: u64) -> InfoVector {
        InfoVector::new(pc, self.value, self.bits)
    }
}

/// `2^n` counters, booting weakly taken.
fn counters(n: u32, kind: CounterKind) -> Vec<SatCounter> {
    vec![SatCounter::seeded(kind, Outcome::Taken); 1 << n]
}

/// The low `n` bits of the branch's word address.
fn address_index(pc: u64, n: u32) -> usize {
    ((pc >> 2) & ((1 << n) - 1)) as usize
}

/// The majority of an odd number of votes.
fn majority(votes: &[Outcome]) -> Outcome {
    Outcome::from(2 * votes.iter().filter(|v| v.is_taken()).count() > votes.len())
}

/// The models pin behaviour, not names or sizes.
macro_rules! unnamed {
    () => {
        fn name(&self) -> String {
            "reference".into()
        }

        fn storage_bits(&self) -> u64 {
            0
        }

        fn reset(&mut self) {
            unimplemented!("reference models are built fresh")
        }
    };
}

/// Bimodal, gshare or gselect (section 2): one table of counters at
/// `func(address, history)`.
struct Single {
    func: IndexFunction,
    n: u32,
    hist: Register,
    table: Vec<SatCounter>,
}

impl Single {
    fn new(func: IndexFunction, n: u32, h: u32, kind: CounterKind) -> Single {
        Single {
            func,
            n,
            hist: Register::new(h),
            table: counters(n, kind),
        }
    }

    fn index(&self, pc: u64) -> usize {
        self.func.index(&self.hist.vector(pc), self.n) as usize
    }
}

impl BranchPredictor for Single {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(self.table[self.index(pc)].predict())
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let i = self.index(pc);
        self.table[i].train(outcome);
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}

/// The skewed predictor (section 4) and its enhanced variant (section 6):
/// bank `b` is indexed by `f_b` of the information vector (`f_0` for
/// every bank under `skew=off`), bank 0 of the enhanced variant by the
/// address alone; the prediction is the majority vote. Total update
/// trains every bank; partial update (section 4.1) leaves a bank that
/// voted against a correct majority alone.
pub struct Gskew {
    n: u32,
    hist: Register,
    banks: Vec<Vec<SatCounter>>,
    enhanced: bool,
    skewing: bool,
    partial: bool,
}

impl Gskew {
    fn new(spec: &PredictorSpec) -> Gskew {
        let PredictorSpec::Gskew {
            n,
            h,
            banks,
            ctr,
            update,
            enhanced,
            skewing,
        } = *spec
        else {
            panic!("{spec:?} is not a gskew spec");
        };
        Gskew {
            n,
            hist: Register::new(h),
            banks: (0..banks).map(|_| counters(n, ctr)).collect(),
            enhanced,
            skewing,
            partial: update == UpdatePolicy::Partial,
        }
    }

    fn indices(&self, pc: u64) -> Vec<usize> {
        let v = self.hist.vector(pc);
        (0..self.banks.len())
            .map(|b| {
                if b == 0 && self.enhanced {
                    address_index(pc, self.n)
                } else {
                    let f = if self.skewing { b } else { 0 };
                    skew_index(f, v.packed(), self.n) as usize
                }
            })
            .collect()
    }

    /// Each bank's vote for `pc` under the current history.
    pub fn votes(&self, pc: u64) -> Vec<Outcome> {
        let at = self.indices(pc);
        self.banks
            .iter()
            .zip(at)
            .map(|(bank, i)| bank[i].predict())
            .collect()
    }

    /// Whether every bank votes alike for `pc`.
    pub fn is_unanimous(&self, pc: u64) -> bool {
        let votes = self.votes(pc);
        votes.iter().all(|&v| v == votes[0])
    }
}

impl BranchPredictor for Gskew {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(majority(&self.votes(pc)))
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let (at, votes) = (self.indices(pc), self.votes(pc));
        let correct = majority(&votes) == outcome;
        for b in 0..self.banks.len() {
            if !(self.partial && correct && votes[b] != outcome) {
                self.banks[b][at[b]].train(outcome);
            }
        }
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}

/// McFarling's combining predictor: bimodal and gshare components and an
/// address-indexed table of 2-bit meta counters; a meta counter that
/// predicts taken selects gshare. The meta counter trains only when the
/// components disagree, toward gshare when gshare was right.
struct McFarling {
    bimodal: Single,
    gshare: Single,
    meta: Vec<SatCounter>,
    n: u32,
}

impl BranchPredictor for McFarling {
    fn predict(&mut self, pc: u64) -> Prediction {
        if self.meta[address_index(pc, self.n)].predict().is_taken() {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let p0 = self.bimodal.predict(pc).outcome;
        let p1 = self.gshare.predict(pc).outcome;
        if p0 != p1 {
            self.meta[address_index(pc, self.n)].train(Outcome::from(p1 == outcome));
        }
        self.bimodal.update(pc, outcome);
        self.gshare.update(pc, outcome);
    }

    fn record_unconditional(&mut self, pc: u64) {
        self.bimodal.record_unconditional(pc);
        self.gshare.record_unconditional(pc);
    }

    unnamed!();
}

/// 2bc-gskew: BIM indexed by address, G0 by `f1` over half the history,
/// G1 by `f2` over all of it, and an address-indexed meta bank choosing
/// between BIM and the three-bank majority. Meta trains when BIM and the
/// majority disagree, toward the majority when it was right; the
/// predicting banks train with partial update against the final
/// prediction. Every bank holds 2-bit counters.
struct TwoBcGskew {
    n: u32,
    hist: Register,
    /// BIM, G0, G1 and meta.
    banks: [Vec<SatCounter>; 4],
}

impl TwoBcGskew {
    fn indices(&self, pc: u64) -> [usize; 3] {
        let short = InfoVector::new(pc, self.hist.value, self.hist.bits / 2);
        [
            address_index(pc, self.n),
            skew_index(1, short.packed(), self.n) as usize,
            skew_index(2, self.hist.vector(pc).packed(), self.n) as usize,
        ]
    }

    /// The three predicting banks' votes, the majority and the final
    /// prediction.
    fn components(&self, pc: u64) -> ([Outcome; 3], Outcome, Outcome) {
        let at = self.indices(pc);
        let votes: [Outcome; 3] = std::array::from_fn(|b| self.banks[b][at[b]].predict());
        let majority = majority(&votes);
        let use_majority = self.banks[3][at[0]].predict().is_taken();
        (
            votes,
            majority,
            if use_majority { majority } else { votes[0] },
        )
    }
}

impl BranchPredictor for TwoBcGskew {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(self.components(pc).2)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let at = self.indices(pc);
        let (votes, majority, overall) = self.components(pc);
        if majority != votes[0] {
            self.banks[3][at[0]].train(Outcome::from(majority == outcome));
        }
        for b in 0..3 {
            if overall != outcome || votes[b] == outcome {
                self.banks[b][at[b]].train(outcome);
            }
        }
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}

/// The agree predictor: gshare-indexed counters that predict whether the
/// branch agrees with its bias bit. The address-indexed bias bit is set
/// by the first outcome that reaches it and reads taken until then.
struct Agree {
    n: u32,
    hist: Register,
    counters: Vec<SatCounter>,
    bias: Vec<Option<Outcome>>,
    bias_n: u32,
}

impl Agree {
    fn counter(&self, pc: u64) -> usize {
        IndexFunction::Gshare.index(&self.hist.vector(pc), self.n) as usize
    }
}

impl BranchPredictor for Agree {
    fn predict(&mut self, pc: u64) -> Prediction {
        let bias = self.bias[address_index(pc, self.bias_n)].unwrap_or(Outcome::Taken);
        let agrees = self.counters[self.counter(pc)].predict().is_taken();
        Prediction::of(if agrees { bias } else { bias.flipped() })
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let bias = *self.bias[address_index(pc, self.bias_n)].get_or_insert(outcome);
        let i = self.counter(pc);
        self.counters[i].train(Outcome::from(outcome == bias));
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}

/// The bi-mode predictor: an address-indexed choice table picks the
/// not-taken or the taken gshare-indexed bank. Only the chosen bank
/// trains; the choice counter trains with the outcome unless the chosen
/// bank was right against the choice.
struct BiMode {
    n: u32,
    hist: Register,
    choice: Vec<SatCounter>,
    choice_n: u32,
    /// The not-taken bank, then the taken bank.
    banks: [Vec<SatCounter>; 2],
}

impl BiMode {
    /// The choice slot, the chosen bank, its slot and its prediction.
    fn lookup(&self, pc: u64) -> (usize, Outcome, usize, Outcome) {
        let c = address_index(pc, self.choice_n);
        let choice = self.choice[c].predict();
        let i = IndexFunction::Gshare.index(&self.hist.vector(pc), self.n) as usize;
        let bank = usize::from(choice.is_taken());
        (c, choice, i, self.banks[bank][i].predict())
    }
}

impl BranchPredictor for BiMode {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(self.lookup(pc).3)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let (c, choice, i, direction) = self.lookup(pc);
        self.banks[usize::from(choice.is_taken())][i].train(outcome);
        if !(direction == outcome && choice != outcome) {
            self.choice[c].train(outcome);
        }
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}

/// PAs: an address-indexed table of local histories, and a pattern table
/// indexed by gselect over the address and the branch's own history.
/// Unconditional branches touch no history.
struct Pas {
    locals: Vec<Register>,
    bht: u32,
    n: u32,
    table: Vec<SatCounter>,
}

impl Pas {
    fn index(&self, pc: u64) -> usize {
        let local = self.locals[address_index(pc, self.bht)];
        IndexFunction::Gselect.index(&local.vector(pc), self.n) as usize
    }
}

impl BranchPredictor for Pas {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(self.table[self.index(pc)].predict())
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let i = self.index(pc);
        self.table[i].train(outcome);
        self.locals[address_index(pc, self.bht)].push(outcome);
    }

    unnamed!();
}

/// Skewed PAs: PAs's local histories in front of three banks indexed by
/// `f0..f2` of the (address, local history) vector, majority vote,
/// partial or total update as in gskew.
struct Spas {
    locals: Vec<Register>,
    bht: u32,
    n: u32,
    banks: [Vec<SatCounter>; 3],
    partial: bool,
}

impl Spas {
    fn indices(&self, pc: u64) -> [usize; 3] {
        let local = self.locals[address_index(pc, self.bht)];
        let packed = local.vector(pc).packed();
        std::array::from_fn(|b| skew_index(b, packed, self.n) as usize)
    }

    fn votes(&self, pc: u64) -> [Outcome; 3] {
        let at = self.indices(pc);
        std::array::from_fn(|b| self.banks[b][at[b]].predict())
    }
}

impl BranchPredictor for Spas {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(majority(&self.votes(pc)))
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let (at, votes) = (self.indices(pc), self.votes(pc));
        let correct = majority(&votes) == outcome;
        for b in 0..3 {
            if !(self.partial && correct && votes[b] != outcome) {
                self.banks[b][at[b]].train(outcome);
            }
        }
        self.locals[address_index(pc, self.bht)].push(outcome);
    }

    unnamed!();
}

/// The shared-hysteresis skewed predictor: three banks of direction bits
/// indexed by `f0..f2`; entries `x` and `x ^ 1` of a bank share the
/// hysteresis bit `x >> 1`. The pair (direction, hysteresis) steps as
/// one 2-bit counter `2 * direction + hysteresis`; majority vote, partial
/// or total update as in gskew.
struct Shgskew {
    n: u32,
    hist: Register,
    direction: [Vec<bool>; 3],
    hysteresis: [Vec<bool>; 3],
    partial: bool,
}

impl Shgskew {
    fn indices(&self, pc: u64) -> [usize; 3] {
        let packed = self.hist.vector(pc).packed();
        std::array::from_fn(|b| skew_index(b, packed, self.n) as usize)
    }

    fn votes(&self, pc: u64) -> [Outcome; 3] {
        let at = self.indices(pc);
        std::array::from_fn(|b| Outcome::from(self.direction[b][at[b]]))
    }
}

impl BranchPredictor for Shgskew {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(majority(&self.votes(pc)))
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let (at, votes) = (self.indices(pc), self.votes(pc));
        let correct = majority(&votes) == outcome;
        for b in 0..3 {
            if self.partial && correct && votes[b] != outcome {
                continue;
            }
            let (d, h) = (at[b], at[b] >> 1);
            let value = 2 * u8::from(self.direction[b][d]) + u8::from(self.hysteresis[b][h]);
            let next = if outcome.is_taken() {
                (value + 1).min(3)
            } else {
                value.saturating_sub(1)
            };
            self.direction[b][d] = next >= 2;
            self.hysteresis[b][h] = next % 2 == 1;
        }
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}

/// A static predictor: the same outcome for every branch, learning
/// nothing.
struct Static(Outcome);

impl BranchPredictor for Static {
    fn predict(&mut self, _pc: u64) -> Prediction {
        Prediction::of(self.0)
    }

    fn update(&mut self, _pc: u64, _outcome: Outcome) {}

    unnamed!();
}

/// A `setassoc` entry: its pair, counter and last-access tick.
type Entry = ((u64, u64), SatCounter, u64);

/// A set-associative table of `(address, history)` pairs (section 3.3):
/// `2^n` sets of up to `ways` entries, the set chosen by gshare over `n`
/// bits. Each entry holds its pair, a counter and the tick of its last
/// access. A hit predicts from the counter; a miss predicts the `miss`
/// outcome, flagged novel. On update a hit trains the counter; a miss
/// fills a free way or else replaces the entry with the oldest tick,
/// with a counter seeded toward the outcome. Every update stamps the
/// entry it touched.
struct SetAssoc {
    n: u32,
    ways: usize,
    hist: Register,
    sets: Vec<Vec<Entry>>,
    kind: CounterKind,
    miss: Outcome,
    tick: u64,
}

impl SetAssoc {
    /// The set of `pc` under the current history, and the entry holding
    /// its pair.
    fn find(&self, pc: u64) -> (usize, Option<usize>) {
        let v = self.hist.vector(pc);
        let set = IndexFunction::Gshare.index(&v, self.n) as usize;
        let way = self.sets[set].iter().position(|e| e.0 == v.pair());
        (set, way)
    }
}

impl BranchPredictor for SetAssoc {
    fn predict(&mut self, pc: u64) -> Prediction {
        match self.find(pc) {
            (set, Some(way)) => Prediction::of(self.sets[set][way].1.predict()),
            (_, None) => Prediction::novel(self.miss),
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.tick += 1;
        let pair = self.hist.vector(pc).pair();
        let fresh = (pair, SatCounter::seeded(self.kind, outcome), self.tick);
        match self.find(pc) {
            (set, Some(way)) => {
                let entry = &mut self.sets[set][way];
                entry.1.train(outcome);
                entry.2 = self.tick;
            }
            (set, None) if self.sets[set].len() < self.ways => self.sets[set].push(fresh),
            (set, None) => {
                let oldest = (0..self.ways)
                    .min_by_key(|&way| self.sets[set][way].2)
                    .unwrap();
                self.sets[set][oldest] = fresh;
            }
        }
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}

/// A fully-associative table of `(address, history)` pairs with LRU
/// replacement (section 3.2), or with no bound at all (`ideal`): a list
/// ordered from most to least recently used, searched linearly, holding
/// at most `capacity` entries. A hit predicts from the entry's counter; a
/// miss predicts the `miss` outcome, flagged novel. On update a hit
/// trains the counter, a miss makes an entry seeded toward the outcome,
/// and either way the entry moves to the front; past the capacity the
/// last entry is dropped.
struct Lru {
    capacity: usize,
    hist: Register,
    entries: Vec<((u64, u64), SatCounter)>,
    kind: CounterKind,
    miss: Outcome,
}

impl Lru {
    /// The position of `pc`'s pair under the current history.
    fn find(&self, pc: u64) -> Option<usize> {
        let pair = self.hist.vector(pc).pair();
        self.entries.iter().position(|e| e.0 == pair)
    }
}

impl BranchPredictor for Lru {
    fn predict(&mut self, pc: u64) -> Prediction {
        match self.find(pc) {
            Some(i) => Prediction::of(self.entries[i].1.predict()),
            None => Prediction::novel(self.miss),
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let entry = match self.find(pc) {
            Some(i) => {
                let mut entry = self.entries.remove(i);
                entry.1.train(outcome);
                entry
            }
            None => (
                self.hist.vector(pc).pair(),
                SatCounter::seeded(self.kind, outcome),
            ),
        };
        self.entries.insert(0, entry);
        self.entries.truncate(self.capacity);
        self.hist.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(Outcome::Taken);
    }

    unnamed!();
}
