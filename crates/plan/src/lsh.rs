//! The resident LSH band index: an LSH group's similarity buckets (the
//! Block of a MinHash rule, §3.1), built once by the shuffle of its
//! first full pass and kept between detect passes.
//!
//! The index holds one [`LshRecord`] per scoped unit — its handle, its
//! place in table order and its band hashes, computed once per record
//! version — and, per shard, one sorted array of compact
//! [`BandEntry`]s, one per record and band. A band bucket is a *run* of
//! entries with equal `(band, bucket hash)`, members in table order, so
//! a bucket costs no key of values, no map slot and no vector of its
//! own. A run's key routes it to its shard by
//! [`bigdansing_dataflow::grouping::bucket_of`], as the shuffle that
//! seeded the index routed it: the first full pass's reducers sort
//! their shares into the shards, and a later change routes its entries
//! the same way.
//!
//! A change drops the entries of the records it replaces — found
//! through their tuples' slots, so no old signature is recomputed — and
//! merges in those of its new records: each shard it touches is merged
//! anew, in one ordered pass. The index is never serialized; a
//! recovered session rebuilds it by the same reindex, as all inserts.

use crate::enumerate::Member;
use bigdansing_common::{Result, Tuple, TupleId};
use bigdansing_dataflow::grouping::bucket_of;
use bigdansing_dataflow::{Engine, PassKind};
use bigdansing_rules::Rule;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// One scoped unit of an LSH group: its handle, its place in table
/// order — its tuple's sequence number and its position among the
/// tuple's Scope outputs — and its band hashes.
#[derive(Clone, Debug)]
pub(crate) struct LshRecord {
    tuple: Tuple,
    at: (u64, u32),
    hashes: Box<[u64]>,
}

impl LshRecord {
    /// The record's entries, one per band, for the record at `slot`.
    fn entries(&self, slot: u32) -> impl Iterator<Item = BandEntry> + '_ {
        let (seq, rep) = self.at;
        let entry = move |(band, &hash): (usize, &u64)| BandEntry {
            band: band as u32,
            hash,
            seq,
            rep,
            slot,
        };
        self.hashes.iter().enumerate().map(entry)
    }
}

/// A record's membership of one band bucket, in 32 bytes. Entries order
/// by bucket — `(band, bucket hash)` — then by the member's place in
/// table order (the slot only breaks no tie: places are unique).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BandEntry {
    band: u32,
    hash: u64,
    seq: u64,
    rep: u32,
    slot: u32,
}

impl BandEntry {
    /// The bucket the entry sits in.
    pub(crate) fn run(&self) -> (u32, u64) {
        (self.band, self.hash)
    }
}

/// The records of an LSH group, by slot (`None`: a freed slot).
pub(crate) type Records = Vec<Option<LshRecord>>;

/// A member of a band bucket as Detect reads it: its record, and the
/// band of the run it is read in. The first-shared-band test reads the
/// record's hashes.
pub(crate) struct RunMember<'a> {
    band: u32,
    record: &'a LshRecord,
}

impl Member for RunMember<'_> {
    fn tuple(&self) -> &Tuple {
        &self.record.tuple
    }

    fn band(&self) -> Option<(u32, &[u64])> {
        Some((self.band, &self.record.hashes))
    }
}

/// The members of `run`, in table order.
pub(crate) fn members<'a>(
    records: &'a Records,
    run: &'a [BandEntry],
) -> impl Iterator<Item = RunMember<'a>> + 'a {
    run.iter().map(|e| RunMember {
        band: e.band,
        record: records[e.slot as usize]
            .as_ref()
            .expect("a run names live slots"),
    })
}

/// The ids of the members of `runs`, each record's once, though it sits
/// in a run per band.
pub(crate) fn member_ids<'a>(
    records: &Records,
    runs: impl IntoIterator<Item = &'a [BandEntry]>,
) -> Vec<TupleId> {
    let mut seen = vec![false; records.len()];
    let fresh = |e: &&BandEntry| !std::mem::replace(&mut seen[e.slot as usize], true);
    let record = |e: &BandEntry| records[e.slot as usize].as_ref().expect("a live slot");
    let entries = runs.into_iter().flatten().filter(fresh);
    entries.map(|e| record(e).tuple.id()).collect()
}

/// The entries of the record at `slot`, one per band.
pub(crate) fn entries(records: &Records, slot: u32) -> Vec<BandEntry> {
    let record = records[slot as usize].as_ref();
    record.map_or_else(Vec::new, |r| r.entries(slot).collect())
}

/// The runs of a sorted shard, singletons included.
pub(crate) fn shard_runs(shard: &[BandEntry]) -> impl Iterator<Item = &[BandEntry]> {
    shard.chunk_by(|a, b| a.run() == b.run())
}

/// The records of a signature pass's output — scoped units in table
/// order, each with its band hashes — one slot each, in that order.
/// `seq_of` numbers a tuple; without it tuples are numbered in order.
pub(crate) fn records(
    signed: Vec<(Tuple, Vec<u64>)>,
    seq_of: Option<&dyn Fn(TupleId) -> u64>,
) -> Records {
    let (mut prev, mut at) = (None, (0u64, 0u32));
    let mut counted = 0u64;
    let record = |(tuple, hashes): (Tuple, Vec<u64>)| {
        if prev == Some(tuple.id()) {
            at.1 += 1;
        } else {
            at = (seq_of.map_or(counted, |f| f(tuple.id())), 0);
            (prev, counted) = (Some(tuple.id()), counted + 1);
        }
        let hashes = hashes.into();
        Some(LshRecord { tuple, at, hashes })
    };
    signed.into_iter().map(record).collect()
}

/// An LSH group's resident band index. See the module docs.
#[derive(Clone, Debug)]
pub struct LshIndex {
    /// Records by slot. Shared with a running pass, copied on write.
    records: Arc<Records>,
    /// Each live tuple's records: the first of its consecutive slots,
    /// and how many.
    ids: HashMap<TupleId, (u32, u32)>,
    /// Slots freed since the last compaction.
    dead: usize,
    /// Per shard, its entries, sorted.
    shards: Vec<Vec<BandEntry>>,
}

impl LshIndex {
    /// The index over `records`, from the sorted shares a shuffle's
    /// `reducers` reducers built: each share is the shard its keys
    /// route to.
    pub(crate) fn seeded(
        records: Arc<Records>,
        shares: Vec<Vec<BandEntry>>,
        reducers: usize,
    ) -> LshIndex {
        let mut shards = vec![Vec::new(); reducers];
        for share in shares {
            if let Some(run) = share.first().map(BandEntry::run) {
                shards[bucket_of(&run, reducers)] = share;
            }
        }
        let mut ids: HashMap<TupleId, (u32, u32)> = HashMap::new();
        for (slot, r) in records.iter().enumerate() {
            let r = r.as_ref().expect("a seeded record");
            ids.entry(r.tuple.id()).or_insert((slot as u32, 0)).1 += 1;
        }
        LshIndex {
            records,
            ids,
            dead: 0,
            shards,
        }
    }

    /// The records, by slot.
    pub(crate) fn records(&self) -> &Records {
        &self.records
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len() - self.dead
    }

    /// True when the index holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every band bucket — its band and bucket hash, and its members in
    /// table order — shard by shard, each shard's in order.
    pub fn buckets(&self) -> impl Iterator<Item = ((u32, u64), Vec<&Tuple>)> + '_ {
        let runs = self.shards.iter().flat_map(|shard| shard_runs(shard));
        let tuples = |run| members(&self.records, run).map(|m| &m.record.tuple);
        runs.map(move |run| (run[0].run(), tuples(run).collect()))
    }

    /// Replace the records of the changed tuples: `gone` the tuples
    /// whose records leave, `news` the new records — each at its place
    /// in table order, in that order. The records leaving are found
    /// through their tuples' slots, and a tuple that keeps its number of
    /// records keeps its slots. One pass on the engine's workers,
    /// labelled `label`, computes the band hashes of the new records,
    /// once per record, and routes their entries to their shards; then
    /// each shard the change touches is merged anew — its entries minus
    /// the leaving ones, plus the new ones — one task per shard. Returns,
    /// per shard, every run that lost or gained a member, in order, and
    /// whether it gained one, with the entry ranges of the runs that
    /// gained one and hold a pair.
    ///
    /// An empty index first takes one shard per reducer partition of
    /// the engine.
    ///
    /// # Panics
    ///
    /// When a tuple in `gone` has no records here, or a new record's
    /// tuple still has some: the change did not name what the index
    /// held.
    pub(crate) fn reindex(
        &mut self,
        engine: &Engine,
        rule: &dyn Rule,
        label: &str,
        gone: &[TupleId],
        news: &[((u64, u32), Tuple)],
    ) -> Result<Vec<Touched>> {
        if self.records.is_empty() {
            self.shards = vec![Vec::new(); engine.default_partitions()];
        }
        let (n, records) = (self.shards.len(), Arc::make_mut(&mut self.records));
        let base = records.len();
        let held = |&id| (id, self.ids.remove(&id).expect("the index holds the tuple"));
        let mut left: Vec<(TupleId, (u32, u32))> = gone.iter().map(held).collect();
        left.sort_unstable();
        // a tuple that keeps its number of records keeps its slots; a
        // tuple's records share its sequence number
        let (mut kept, mut slots) = (vec![false; left.len()], Vec::with_capacity(news.len()));
        for unit in news.chunk_by(|(a, _), (b, _)| a.0 == b.0) {
            let (id, count) = (unit[0].1.id(), unit.len() as u32);
            let at = left.binary_search_by_key(&id, |(id, _)| *id).ok();
            let first = match at.map(|at| (at, left[at].1)) {
                Some((at, (first, held))) if held == count => {
                    kept[at] = true;
                    first
                }
                _ => {
                    records.resize(records.len() + count as usize, None);
                    records.len() as u32 - count
                }
            };
            slots.extend(first..first + count);
            let held = self.ids.insert(id, (first, count));
            assert!(held.is_none(), "tuple {id} enters an index holding it");
        }
        let size = news.len().div_ceil(engine.default_partitions()).max(256);
        let chunks: Vec<_> = news.chunks(size).zip(slots.chunks(size)).collect();
        let made = engine.run_stage(&chunks, |_, (chunk, slots)| {
            let mut routed = vec![Vec::new(); n];
            let record = |((at, tuple), &slot): (&((u64, u32), Tuple), &u32)| {
                let hashes = rule.lsh_band_hashes(tuple).into();
                let record = LshRecord {
                    tuple: tuple.clone(),
                    at: *at,
                    hashes,
                };
                record
                    .entries(slot)
                    .for_each(|e| routed[bucket_of(&e.run(), n)].push(e));
                record
            };
            let made: Vec<_> = chunk.iter().zip(slots.iter()).map(record).collect();
            Ok((made, routed))
        })?;
        if !chunks.is_empty() {
            engine.record_pass(PassKind::Narrow, vec![label.to_string()], chunks.len());
        }
        // which slots and shards the leaving records' entries sit in
        let (mut leaving, mut lose, mut lost) = (vec![false; base], vec![false; n], 0);
        for (&(_, (first, count)), kept) in left.iter().zip(kept) {
            for slot in first..first + count {
                let held = records[slot as usize].take().expect("a live slot");
                held.entries(slot)
                    .for_each(|e| lose[bucket_of(&e.run(), n)] = true);
                (leaving[slot as usize], lost) = (true, lost + held.hashes.len());
            }
            self.dead += if kept { 0 } else { count as usize };
        }
        let (made, ins): (Vec<_>, Vec<_>) = made.into_iter().unzip();
        for (record, slot) in made.into_iter().flatten().zip(slots) {
            records[slot as usize] = Some(record);
        }
        let touches =
            |s: &usize| lose[*s] || ins.iter().any(|part: &Vec<Vec<_>>| !part[*s].is_empty());
        let shards: Vec<usize> = (0..n).filter(touches).collect();
        let (mut touched, mut dropped) = (vec![Touched::default(); n], 0);
        // a wave of shards per worker at a time: each new shard replaces
        // its old one before the next wave is built
        for wave in shards.chunks(engine.workers()) {
            let merged = engine.run_stage(wave, |_, &s| {
                let mut adds: Vec<BandEntry> = ins.iter().flat_map(|p| &p[s]).copied().collect();
                adds.sort_unstable();
                Ok(merge(&self.shards[s], &leaving, adds))
            })?;
            for (&s, (shard, runs, gone)) in wave.iter().zip(merged) {
                (self.shards[s], touched[s], dropped) = (shard, runs, dropped + gone);
            }
        }
        assert_eq!(dropped, lost, "a change drops entries the index lacks");
        if self.dead * 2 > self.records.len() {
            self.compact();
        }
        Ok(touched)
    }

    /// Renumber the live records into consecutive slots, in slot order:
    /// entries keep their order, as places order them.
    fn compact(&mut self) {
        let records = Arc::make_mut(&mut self.records);
        let mut renumbered = vec![u32::MAX; records.len()];
        let mut live = Vec::with_capacity(records.len() - self.dead);
        for (slot, r) in records.drain(..).enumerate() {
            if r.is_some() {
                renumbered[slot] = live.len() as u32;
                live.push(r);
            }
        }
        *records = live;
        self.ids
            .values_mut()
            .for_each(|(first, _)| *first = renumbered[*first as usize]);
        let entries = self.shards.iter_mut().flatten();
        entries.for_each(|e| e.slot = renumbered[e.slot as usize]);
        self.dead = 0;
    }

    /// The entries of shard `shard` in `range`: one run.
    pub(crate) fn run(&self, shard: usize, range: Range<usize>) -> &[BandEntry] {
        &self.shards[shard][range]
    }
}

/// What a change did to one shard: every run that lost or gained a
/// member, in order, and whether it gained one; and the entry ranges of
/// the runs that gained one and hold a pair, in order.
#[derive(Clone, Debug, Default)]
pub(crate) struct Touched {
    pub(crate) runs: Vec<((u32, u64), bool)>,
    pub(crate) pairs: Vec<Range<usize>>,
}

/// `shard` anew without the entries of the records whose slots
/// `leaving` marks and with `adds` merged in, both sorted; what that did
/// to its runs; and how many entries left.
fn merge(
    shard: &[BandEntry],
    leaving: &[bool],
    adds: Vec<BandEntry>,
) -> (Vec<BandEntry>, Touched, usize) {
    let mut merged = Vec::with_capacity(shard.len() + adds.len());
    let mut lost: Vec<(u32, u64)> = Vec::new();
    let mut a = adds.iter().copied().peekable();
    for &e in shard {
        if leaving[e.slot as usize] {
            if lost.last() != Some(&e.run()) {
                lost.push(e.run());
            }
            continue;
        }
        while let Some(add) = a.next_if(|add| *add < e) {
            merged.push(add);
        }
        merged.push(e);
    }
    merged.extend(a);
    let dropped = shard.len() + adds.len() - merged.len();
    let mut gained: Vec<(u32, u64)> = adds.iter().map(BandEntry::run).collect();
    gained.dedup();
    // the touched runs, each once, in order: a merge of the two lists
    let (mut l, mut g, mut runs) = (
        lost.into_iter().peekable(),
        gained.iter().peekable(),
        vec![],
    );
    while let Some(run) = match (l.peek(), g.peek()) {
        (Some(&x), Some(&&y)) => Some(x.min(y)),
        (x, y) => x.copied().or(y.map(|&&y| y)),
    } {
        l.next_if_eq(&run);
        runs.push((run, g.next_if_eq(&&run).is_some()));
    }
    // where each run that gained a member and holds a pair now sits
    let (mut want, mut at, mut pairs) = (gained.iter().peekable(), 0, Vec::new());
    for run in shard_runs(&merged) {
        if want.next_if(|&&r| r == run[0].run()).is_some() && run.len() > 1 {
            pairs.push(at..at + run.len());
        }
        at += run.len();
    }
    (merged, Touched { runs, pairs }, dropped)
}
