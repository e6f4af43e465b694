//! The corpus and the op stream, both a function of `--seed` alone.
//!
//! The generator is also the correctness oracle. It keeps, for every key
//! of the corpus, whether the key is live in the index and what its TID
//! is, so it can write the exact expected result next to every op it
//! emits — no second index is run to check the first. Scans need "how
//! many live keys are at or after this one": a Fenwick tree over the
//! corpus in key order answers that, and finds the first live key after a
//! dead start key.

use hot_ycsb::{Dataset, DatasetKind, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// "No TID" in expectation and result arrays (`None`, an empty scan).
pub const NONE: u64 = u64::MAX;
/// Result slot of an op that errored or was refused: matches no expectation.
pub const ERR: u64 = u64::MAX - 1;

/// Ops per chunk: the unit of issue, and one server window.
pub const CHUNK: usize = 128;
/// One scan in this many carries its complete expected TID sequence.
const FULL_SCAN_EVERY: u32 = 64;
/// Upper end of the uniform scan limit.
const MAX_SCAN_LIMIT: u32 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    /// `insert` / PUT of `key → tid`, whether the key is live or not.
    Put,
    Del,
    Scan,
}

/// The key universe of a workload: `loaded` keys are in the index after
/// set-up, the rest start out dead and feed inserts.
pub struct Corpus {
    /// Keys in shuffled (load) order. Kept as a `Dataset` because that is
    /// what `hot_server::NetData` wants a copy of.
    pub dataset: Dataset,
    /// The TID the index must return for each key.
    pub tids: Vec<u64>,
    pub loaded: usize,
}

impl Corpus {
    /// `universe` distinct keys of `kind`. With `embedded` the TID *is*
    /// the (integer) key, as `EmbeddedKeySource` wants; otherwise it is
    /// the key's byte offset in an `ArenaKeySource` filled in corpus order.
    pub fn generate(
        kind: DatasetKind,
        universe: usize,
        loaded: usize,
        embedded: bool,
        seed: u64,
    ) -> Corpus {
        assert!(loaded <= universe && universe < u32::MAX as usize);
        let dataset = Dataset::generate(kind, universe, seed);
        let corpus = Corpus {
            dataset,
            tids: Vec::new(),
            loaded,
        };
        if embedded {
            let tids = corpus
                .dataset
                .keys
                .iter()
                .map(|k| hot_keys::decode_u64(k))
                .collect();
            Corpus { tids, ..corpus }
        } else {
            corpus.with_arena_tids()
        }
    }

    /// The same keys with the TIDs an `ArenaKeySource` filled in corpus
    /// order hands out: each key's byte offset, one length byte per record.
    pub fn with_arena_tids(self) -> Corpus {
        let mut offset = 0u64;
        let tids = self
            .dataset
            .keys
            .iter()
            .map(|k| {
                let tid = offset;
                offset += k.len() as u64 + 1;
                tid
            })
            .collect();
        Corpus { tids, ..self }
    }

    #[inline]
    pub fn key(&self, i: u32) -> &[u8] {
        &self.dataset.keys[i as usize]
    }

    /// Indices `0..n` in ascending key order.
    pub fn sorted(&self, n: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| self.key(a).cmp(self.key(b)));
        order
    }
}

/// Shares of each op in percent (they sum to 100) and how keys are drawn.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get: u32,
    /// PUT of a key that is live: returns its TID.
    pub put_live: u32,
    /// Insert of a key that is not in the index: returns `None`.
    pub insert_dead: u32,
    /// Remove of a uniformly drawn live key: returns its TID.
    pub remove: u32,
    pub scan: u32,
    /// One get/scan-start in this many goes to a dead key (0: never).
    pub dead_one_in: u32,
    /// Zipfian θ 0.99 over the live keys, else uniform.
    pub zipf: bool,
}

impl Mix {
    pub const READ_ONLY: Mix = Mix {
        get: 100,
        put_live: 0,
        insert_dead: 0,
        remove: 0,
        scan: 0,
        dead_one_in: 0,
        zipf: false,
    };
}

/// The ops of one slice with their expected results, struct-of-arrays.
#[derive(Default)]
pub struct Slice {
    pub op: Vec<Op>,
    /// Corpus index of the op's key.
    pub key: Vec<u32>,
    /// Scan limit (0 for other ops).
    pub limit: Vec<u32>,
    /// Get/Put/Del: the TID returned, or [`NONE`]. Scan: the first TID.
    pub expect: Vec<u64>,
    /// Scan: number of TIDs returned.
    pub expect_n: Vec<u32>,
    /// `(op index, complete expected TIDs)` for the fully checked scans,
    /// ascending by op index.
    pub full: Vec<(u32, Vec<u64>)>,
}

impl Slice {
    pub fn len(&self) -> usize {
        self.op.len()
    }

    fn clear(&mut self) {
        self.op.clear();
        self.key.clear();
        self.limit.clear();
        self.expect.clear();
        self.expect_n.clear();
        self.full.clear();
    }
}

/// What the program under test answered, in op order.
#[derive(Default)]
pub struct Results {
    /// Get/Put/Del: TID or [`NONE`]/[`ERR`]. Scan: first TID.
    pub tid: Vec<u64>,
    /// Scan: TIDs returned.
    pub n: Vec<u32>,
    /// Complete TID lists of the fully checked scans, in op order.
    pub full: Vec<Vec<u64>>,
}

impl Results {
    /// Size for `slice` and forget the previous slice's answers.
    pub fn reset(&mut self, ops: usize) {
        self.tid.clear();
        self.tid.resize(ops, ERR);
        self.n.clear();
        self.n.resize(ops, 0);
        self.full.clear();
    }

    /// Store a scan's answer at op `i`; `keep` says the scan is one of the
    /// fully checked ones.
    #[inline]
    pub fn scan(&mut self, i: usize, tids: &[u64], keep: bool) {
        self.tid[i] = tids.first().copied().unwrap_or(NONE);
        self.n[i] = tids.len() as u32;
        if keep {
            self.full.push(tids.to_vec());
        }
    }
}

/// Number of ops of `slice` whose result is not the expected one.
pub fn count_failed(slice: &Slice, got: &Results) -> u64 {
    let mut bad: Vec<bool> = (0..slice.len())
        .map(|i| {
            got.tid[i] != slice.expect[i]
                || (slice.op[i] == Op::Scan && got.n[i] != slice.expect_n[i])
        })
        .collect();
    for (k, (i, want)) in slice.full.iter().enumerate() {
        if got.full.get(k) != Some(want) {
            bad[*i as usize] = true;
        }
    }
    bad.iter().filter(|&&b| b).count() as u64
}

/// Fenwick tree of 0/1 liveness flags over the corpus in key order.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, rank: usize, delta: i32) {
        let mut i = rank + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Live keys with rank `< rank`.
    fn before(&self, rank: usize) -> u32 {
        let (mut i, mut sum) = (rank, 0);
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Rank of the `k`-th live key (`k` from 0); `k` must be in range.
    fn select(&self, k: u32) -> usize {
        let n = self.tree.len() - 1;
        let (mut pos, mut rest) = (0usize, k + 1);
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] < rest {
                pos = next;
                rest -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

/// Key order of the corpus plus the liveness tree; built only for mixes
/// that scan.
struct Order {
    /// Rank of each corpus index in key order.
    rank: Vec<u32>,
    /// Corpus index at each rank.
    by_rank: Vec<u32>,
    live: Fenwick,
}

/// What the mix's dice chose, before fallbacks.
enum Draw {
    Get,
    PutLive,
    InsertDead,
    Remove,
    Scan,
}

/// The op generator and live-set bookkeeper.
pub struct OpGen {
    rng: StdRng,
    mix: Mix,
    zipf: Option<Zipfian>,
    /// Corpus indices `0..pinned` are live forever: never removed, so a
    /// concurrent reader may rely on them.
    pinned: usize,
    /// The other live keys, in no particular order.
    live: Vec<u32>,
    dead: Vec<u32>,
    is_live: Vec<bool>,
    order: Option<Order>,
    scans: u32,
}

impl OpGen {
    pub fn new(corpus: &Corpus, mix: Mix, pinned: usize, seed: u64) -> OpGen {
        assert_eq!(
            mix.get + mix.put_live + mix.insert_dead + mix.remove + mix.scan,
            100
        );
        assert!(pinned <= corpus.loaded);
        let universe = corpus.dataset.len();
        let mut is_live = vec![false; universe];
        is_live[..corpus.loaded].fill(true);
        let order = (mix.scan > 0).then(|| {
            let by_rank = corpus.sorted(universe);
            let mut rank = vec![0u32; universe];
            let mut live = Fenwick::new(universe);
            for (r, &i) in by_rank.iter().enumerate() {
                rank[i as usize] = r as u32;
                if is_live[i as usize] {
                    live.add(r, 1);
                }
            }
            Order {
                rank,
                by_rank,
                live,
            }
        });
        OpGen {
            rng: StdRng::seed_from_u64(seed ^ 0x0B5E_55ED),
            mix,
            zipf: mix
                .zipf
                .then(|| Zipfian::with_default_theta(corpus.loaded as u64)),
            pinned,
            live: (pinned as u32..corpus.loaded as u32).collect(),
            dead: (corpus.loaded as u32..universe as u32).collect(),
            is_live,
            order,
            scans: 0,
        }
    }

    /// Keys the index must hold right now.
    pub fn live_count(&self) -> usize {
        self.pinned + self.live.len()
    }

    fn set_live(&mut self, i: u32, live: bool) {
        self.is_live[i as usize] = live;
        if let Some(o) = &mut self.order {
            o.live
                .add(o.rank[i as usize] as usize, if live { 1 } else { -1 });
        }
    }

    /// A live key by the mix's distribution: rank 0 is the hottest.
    fn draw_live(&mut self) -> u32 {
        let n = self.live_count();
        let r = match &self.zipf {
            Some(z) => z.next_rank(&mut self.rng) as usize % n,
            None => self.rng.gen_range(0..n),
        };
        if r < self.pinned {
            r as u32
        } else {
            self.live[r - self.pinned]
        }
    }

    /// The key of a get or the start of a scan: live, or now and then dead.
    fn draw_probe(&mut self) -> u32 {
        let dead = self.mix.dead_one_in > 0
            && !self.dead.is_empty()
            && self.rng.gen_range(0..self.mix.dead_one_in) == 0;
        if dead {
            self.dead[self.rng.gen_range(0..self.dead.len())]
        } else {
            self.draw_live()
        }
    }

    /// Replace `slice` with the next `ops` ops and their expected results.
    pub fn fill(&mut self, corpus: &Corpus, slice: &mut Slice, ops: usize) {
        slice.clear();
        let m = self.mix;
        for at in 0..ops {
            let roll = self.rng.gen_range(0..100u32);
            let draw = if roll < m.scan {
                Draw::Scan
            } else if roll < m.scan + m.insert_dead {
                Draw::InsertDead
            } else if roll < m.scan + m.insert_dead + m.remove {
                Draw::Remove
            } else if roll < m.scan + m.insert_dead + m.remove + m.put_live {
                Draw::PutLive
            } else {
                Draw::Get
            };
            let (op, key, limit, expect, expect_n) = match draw {
                Draw::Scan => {
                    let start = self.draw_probe();
                    let want = self.rng.gen_range(1..=MAX_SCAN_LIMIT);
                    let o = self
                        .order
                        .as_ref()
                        .expect("scanning mixes build the key order");
                    let before = o.live.before(o.rank[start as usize] as usize);
                    let n = want.min(self.live_count() as u32 - before);
                    let first = (n > 0).then(|| o.live.select(before));
                    self.scans += 1;
                    if self.scans.is_multiple_of(FULL_SCAN_EVERY) {
                        let tids = first.map_or(Vec::new(), |r| {
                            o.by_rank[r..]
                                .iter()
                                .filter(|&&i| self.is_live[i as usize])
                                .take(n as usize)
                                .map(|&i| corpus.tids[i as usize])
                                .collect()
                        });
                        slice.full.push((at as u32, tids));
                    }
                    let first_tid = first.map_or(NONE, |r| corpus.tids[o.by_rank[r] as usize]);
                    (Op::Scan, start, want, first_tid, n)
                }
                Draw::InsertDead if !self.dead.is_empty() => {
                    let i = self
                        .dead
                        .swap_remove(self.rng.gen_range(0..self.dead.len()));
                    self.live.push(i);
                    self.set_live(i, true);
                    (Op::Put, i, 0, NONE, 0)
                }
                Draw::Remove if self.live.len() > 1 => {
                    let i = self
                        .live
                        .swap_remove(self.rng.gen_range(0..self.live.len()));
                    self.dead.push(i);
                    self.set_live(i, false);
                    (Op::Del, i, 0, corpus.tids[i as usize], 0)
                }
                Draw::PutLive => {
                    let i = self.draw_live();
                    (Op::Put, i, 0, corpus.tids[i as usize], 0)
                }
                // Gets, and an insert or remove with nothing to draw from.
                Draw::Get | Draw::InsertDead | Draw::Remove => {
                    let i = self.draw_probe();
                    let tid = if self.is_live[i as usize] {
                        corpus.tids[i as usize]
                    } else {
                        NONE
                    };
                    (Op::Get, i, 0, tid, 0)
                }
            };
            slice.op.push(op);
            slice.key.push(key);
            slice.limit.push(limit);
            slice.expect.push(expect);
            slice.expect_n.push(expect_n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const CHURN: Mix = Mix {
        get: 40,
        put_live: 10,
        insert_dead: 15,
        remove: 15,
        scan: 20,
        dead_one_in: 8,
        zipf: true,
    };

    fn model_of(corpus: &Corpus) -> BTreeMap<Vec<u8>, u64> {
        (0..corpus.loaded)
            .map(|i| (corpus.key(i as u32).to_vec(), corpus.tids[i]))
            .collect()
    }

    /// Replay the stream against a `BTreeMap`: every expectation the
    /// generator wrote must be what the model answers at that point.
    fn replay(corpus: &Corpus, mix: Mix, pinned: usize, ops: usize) {
        let mut gen = OpGen::new(corpus, mix, pinned, 7);
        let mut model = model_of(corpus);
        let mut slice = Slice::default();
        let mut seen = [0usize; 4];
        let mut fully_checked = 0;
        for _ in 0..ops / 1000 {
            gen.fill(corpus, &mut slice, 1000);
            let mut full = slice.full.iter().peekable();
            for i in 0..slice.len() {
                let key = corpus.key(slice.key[i]).to_vec();
                let tid = corpus.tids[slice.key[i] as usize];
                seen[slice.op[i] as usize] += 1;
                match slice.op[i] {
                    Op::Get => {
                        assert_eq!(slice.expect[i], model.get(&key).copied().unwrap_or(NONE))
                    }
                    Op::Put => {
                        assert_eq!(slice.expect[i], model.insert(key, tid).unwrap_or(NONE))
                    }
                    Op::Del => {
                        assert!(
                            (slice.key[i] as usize) >= pinned,
                            "pinned keys are never removed"
                        );
                        assert_eq!(slice.expect[i], model.remove(&key).unwrap_or(NONE))
                    }
                    Op::Scan => {
                        let want: Vec<u64> = model
                            .range(key..)
                            .take(slice.limit[i] as usize)
                            .map(|(_, &t)| t)
                            .collect();
                        assert_eq!(slice.expect_n[i] as usize, want.len());
                        assert_eq!(slice.expect[i], want.first().copied().unwrap_or(NONE));
                        if full.peek().is_some_and(|(at, _)| *at as usize == i) {
                            assert_eq!(full.next().unwrap().1, want);
                            fully_checked += 1;
                        }
                    }
                }
            }
            assert!(full.next().is_none());
            assert_eq!(gen.live_count(), model.len());
        }
        if mix.scan > 0 {
            assert!(
                seen.iter().all(|&n| n > ops / 20),
                "every op kind occurs: {seen:?}"
            );
            assert!(fully_checked >= ops / 10 / FULL_SCAN_EVERY as usize);
        }
    }

    #[test]
    fn expectations_match_a_btreemap_integer_embedded() {
        let corpus = Corpus::generate(DatasetKind::Integer, 4000, 2000, true, 11);
        assert_eq!(corpus.tids[5], hot_keys::decode_u64(corpus.key(5)));
        replay(&corpus, CHURN, 200, 10_000);
    }

    #[test]
    fn expectations_match_a_btreemap_url_arena() {
        let corpus = Corpus::generate(DatasetKind::Url, 1500, 1200, false, 12);
        // Arena TIDs are the offsets `ArenaKeySource::push` hands out.
        let mut arena = hot_keys::ArenaKeySource::new();
        for (k, &tid) in corpus.dataset.keys.iter().zip(&corpus.tids) {
            assert_eq!(arena.push(k), tid);
        }
        replay(&corpus, CHURN, 0, 10_000);
        replay(&corpus, Mix::READ_ONLY, 0, 2000);
    }

    #[test]
    fn a_tiny_live_set_drains_to_one_key_and_no_further() {
        let corpus = Corpus::generate(DatasetKind::Integer, 8, 8, true, 3);
        let mix = Mix {
            get: 0,
            put_live: 0,
            insert_dead: 0,
            remove: 100,
            scan: 0,
            dead_one_in: 0,
            zipf: false,
        };
        let mut gen = OpGen::new(&corpus, mix, 0, 1);
        let mut slice = Slice::default();
        gen.fill(&corpus, &mut slice, 50);
        assert_eq!(gen.live_count(), 1);
        assert_eq!(slice.op.iter().filter(|&&o| o == Op::Del).count(), 7);
    }

    #[test]
    fn same_seed_same_stream() {
        let corpus = Corpus::generate(DatasetKind::Integer, 3000, 2000, true, 5);
        let (mut a, mut b) = (Slice::default(), Slice::default());
        OpGen::new(&corpus, CHURN, 100, 9).fill(&corpus, &mut a, 3000);
        OpGen::new(&corpus, CHURN, 100, 9).fill(&corpus, &mut b, 3000);
        assert!(a.key == b.key && a.expect == b.expect && a.full == b.full);
        OpGen::new(&corpus, CHURN, 100, 10).fill(&corpus, &mut b, 3000);
        assert!(a.key != b.key);
    }

    #[test]
    fn a_wrong_answer_is_counted_once() {
        let corpus = Corpus::generate(DatasetKind::Integer, 3000, 2000, true, 5);
        let mut slice = Slice::default();
        OpGen::new(&corpus, CHURN, 100, 9).fill(&corpus, &mut slice, 3000);
        let mut got = Results::default();
        got.reset(slice.len());
        got.tid.copy_from_slice(&slice.expect);
        got.n.copy_from_slice(&slice.expect_n);
        got.full = slice.full.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(count_failed(&slice, &got), 0);
        let (at, _) = slice.full[0].clone();
        got.full[0].push(1);
        got.n[at as usize] += 1;
        got.tid[0] = ERR;
        assert_eq!(count_failed(&slice, &got), 2);
    }
}
