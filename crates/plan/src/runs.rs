//! The resident run index: a rule group's candidate buckets, built once
//! by the shuffle of its first full pass and kept between detect
//! passes. The paper has one Block operator, units grouped by a key
//! (§3.1); MinHash/LSH blocking is that operator with one key per band.
//! So every bucketed group keeps the one layout:
//!
//! * a Block bucket — a lone rule's Scope outputs or a shared group's
//!   source tuples with one key — is a run of band 0 whose hash is the
//!   [`crate::store::key_hash`] of its key cells, and the one global
//!   bucket of a cross product is the run of the empty key;
//! * an LSH unit sits in one run per band, keyed by `(band, bucket
//!   hash)`.
//!
//! The index holds one record per unit by slot, the records' hashes in
//! one flat array beside them (`bands` per slot, so no record owns an
//! allocation), and one compact [`Entry`] per record and band. A bucket
//! is a *run* of entries with equal `(band, hash)`, members in table
//! order, so a bucket costs no key of values, no map slot and no vector
//! of its own. A run routes to its shard by
//! [`bigdansing_dataflow::grouping::bucket_of`]; the shard count follows
//! the entry count — tens of entries per shard ([`shard_count`]),
//! re-derived when the index doubles or compacts — so a change rewrites
//! only the few small shards it touches. Shards are regions of a few
//! large segments, one per class of shards (shard `s` in class
//! `s % classes`, one class per reducer of the seeding pass): each
//! reducer sorts its share, which is its class's shards one after
//! another, and hands it over whole as the class's segment.
//!
//! A change drops the entries of the records it replaces — found
//! through their tuples' slots, so no old hash is recomputed — and
//! merges in those of its new records: each shard it touches is merged
//! anew, in one ordered pass, and written back into its region. A shard
//! that would outgrow its region, or a large change, has every class
//! laid out anew, each shard with a quarter more room. Two Block keys
//! whose hashes collide share a run; the store splits such a run by key
//! before Detect. The index is never serialized; a recovered session
//! rebuilds it by the same reindex, as all inserts.

use crate::enumerate::Member;
use bigdansing_common::{Result, Tuple, TupleId};
use bigdansing_dataflow::grouping::bucket_of;
use bigdansing_dataflow::{Engine, PassKind};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// A run's key: its band and bucket hash.
pub type Run = (u32, u64);

/// Entries a shard holds on average.
const PER_SHARD: usize = 32;

/// The shards an index of `entries` entries keeps: a multiple of `base`
/// (the reducers of the pass that seeds it), by powers of two, with
/// about [`PER_SHARD`] entries each.
pub(crate) fn shard_count(entries: usize, base: usize) -> usize {
    let per = base * PER_SHARD;
    base * entries.div_ceil(per).max(1).next_power_of_two()
}

/// A record's membership of one run, in 32 bytes: the shard its run
/// routes to, the run — `(band, hash)` — and the member's place in table
/// order, its tuple's sequence number and its position among the tuple's
/// Scope outputs. Entries order by those, so a shard's entries are its
/// runs one after another, members in table order (the slot only breaks
/// no tie: places are unique).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Entry {
    shard: u32,
    band: u32,
    hash: u64,
    seq: u64,
    rep: u32,
    pub(crate) slot: u32,
}

impl Entry {
    /// The entry of the record at `slot`, at its place `(seq, rep)`, in
    /// `run` and the shard of `shards` the run routes to.
    pub(crate) fn at(run: Run, (seq, rep): (u64, u32), slot: u32, shards: usize) -> Entry {
        let shard = bucket_of(&run, shards) as u32;
        let (band, hash) = run;
        Entry {
            shard,
            band,
            hash,
            seq,
            rep,
            slot,
        }
    }

    /// The run the entry sits in.
    pub(crate) fn run(&self) -> Run {
        (self.band, self.hash)
    }
}

/// The records of a run index by slot (`None`: a freed slot), and their
/// hashes, `bands` per slot.
#[derive(Clone, Debug, Default)]
pub(crate) struct Records {
    slots: Vec<Option<Tuple>>,
    hashes: Vec<u64>,
    bands: usize,
}

impl Records {
    /// The records of a hash pass's output — per partition, its units in
    /// table order and their hashes, `bands` each — one slot each, in
    /// that order, with each one's place in table order: `seq_of`
    /// numbers a tuple; without it tuples are numbered in order.
    pub(crate) fn hashed(
        parts: Vec<(Vec<Tuple>, Vec<u64>)>,
        bands: usize,
        seq_of: Option<&dyn Fn(TupleId) -> u64>,
    ) -> (Records, Vec<(u64, u32)>) {
        let n = parts.iter().map(|(units, _)| units.len()).sum();
        let mut records = Records {
            slots: Vec::with_capacity(n),
            hashes: Vec::with_capacity(n * bands),
            bands,
        };
        let (mut places, mut prev, mut at, mut counted) =
            (Vec::with_capacity(n), None, (0u64, 0u32), 0u64);
        for (units, hashes) in parts {
            records.hashes.extend(hashes);
            for unit in units {
                if prev == Some(unit.id()) {
                    at.1 += 1;
                } else {
                    at = (seq_of.map_or(counted, |f| f(unit.id())), 0);
                    (prev, counted) = (Some(unit.id()), counted + 1);
                }
                places.push(at);
                records.slots.push(Some(unit));
            }
        }
        (records, places)
    }

    /// The unit at live slot `slot`.
    pub(crate) fn unit(&self, slot: u32) -> &Tuple {
        let unit = self.slots[slot as usize].as_ref();
        unit.expect("a run names live slots")
    }

    fn hashes(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.bands;
        &self.hashes[at..at + self.bands]
    }

    /// The runs the record at `slot` sits in, one per band.
    pub(crate) fn runs(&self, slot: u32) -> impl Iterator<Item = Run> + '_ {
        (0..).zip(self.hashes(slot).iter().copied())
    }
}

/// A member of a run as Detect reads it: the band of the run, its unit,
/// and the unit's hashes, which the first-shared-band test reads.
pub(crate) type RunMember<'a> = (u32, &'a Tuple, &'a [u64]);

impl Member for RunMember<'_> {
    fn tuple(&self) -> &Tuple {
        self.1
    }

    fn band(&self) -> Option<(u32, &[u64])> {
        Some((self.0, self.2))
    }
}

/// The members of `run`, in table order.
pub(crate) fn members<'a>(
    records: &'a Records,
    run: &'a [Entry],
) -> impl Iterator<Item = RunMember<'a>> + 'a {
    run.iter()
        .map(|e| (e.band, records.unit(e.slot), records.hashes(e.slot)))
}

/// The ids of the members of `runs`, each record's once, though an LSH
/// record sits in a run per band.
pub(crate) fn member_ids<'a>(
    records: &Records,
    runs: impl IntoIterator<Item = &'a [Entry]>,
) -> Vec<TupleId> {
    let mut seen = vec![false; records.slots.len()];
    let fresh = |e: &&Entry| !std::mem::replace(&mut seen[e.slot as usize], true);
    let entries = runs.into_iter().flatten().filter(fresh);
    entries.map(|e| records.unit(e.slot).id()).collect()
}

/// The runs of a sorted shard, singletons included.
pub(crate) fn shard_runs(shard: &[Entry]) -> impl Iterator<Item = &[Entry]> {
    shard.chunk_by(|a, b| a.run() == b.run())
}

/// A rule group's resident run index. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct RunIndex {
    /// Records by slot. Shared with a running pass, copied on write.
    pub(crate) records: Arc<Records>,
    /// Each live tuple's records: the first of its consecutive slots,
    /// and how many.
    ids: HashMap<TupleId, (u32, u32)>,
    /// Slots freed since the last compaction.
    dead: usize,
    /// The entries: one large segment per class of shards — shard `s` is
    /// in class `s % classes` — each shard sorted in a region of it. A
    /// few large allocations, where thousands of small ones spread over
    /// the allocator's per-thread arenas keep freed memory from going
    /// back.
    segments: Vec<Vec<Entry>>,
    /// Per shard, its region: its segment, where it starts, how many
    /// entries it holds, and how many fit.
    shards: Vec<(usize, usize, usize, usize)>,
}

/// What a change did to an index: every run that lost or gained a
/// member — its shard, its key, whether it gained one, and the entry
/// range it now holds (empty: the run is gone).
pub(crate) type Touched = Vec<(u32, Run, bool, Range<u32>)>;

/// The room a region of `len` entries takes when a class is laid out
/// anew: a quarter more, to grow in place.
fn room_for(len: usize) -> usize {
    len + len / 4 + 2
}

impl RunIndex {
    /// The index over `records`, from the sorted shares of a pass's
    /// `classes` reducers, whose entries route to `shards` shards (a
    /// multiple of `classes`, so a reducer's share is one class).
    pub(crate) fn seeded(
        records: Arc<Records>,
        shares: Vec<Vec<Entry>>,
        (shards, classes): (usize, usize),
    ) -> RunIndex {
        let mut ids: HashMap<TupleId, (u32, u32)> = HashMap::with_capacity(records.slots.len());
        for (slot, unit) in records.slots.iter().enumerate() {
            let id = unit.as_ref().expect("a seeded record").id();
            ids.entry(id).or_insert((slot as u32, 0)).1 += 1;
        }
        let (mut segments, mut placed) = (vec![Vec::new(); classes], vec![(0, 0, 0, 0); shards]);
        for share in shares {
            let Some(class) = share.first().map(|e| e.shard as usize % classes) else {
                continue;
            };
            let mut at = 0;
            for shard in share.chunk_by(|a, b| a.shard == b.shard) {
                placed[shard[0].shard as usize] = (class, at, shard.len(), shard.len());
                at += shard.len();
            }
            segments[class] = share;
        }
        let (dead, shards) = (0, placed);
        RunIndex {
            records,
            ids,
            dead,
            segments,
            shards,
        }
    }

    /// The entries of shard `s`, sorted.
    fn shard(&self, s: usize) -> &[Entry] {
        let (segment, at, len, _) = self.shards[s];
        &self.segments[segment][at..at + len]
    }

    /// Number of live records.
    pub(crate) fn len(&self) -> usize {
        self.records.slots.len() - self.dead
    }

    /// Every run, as its shard and entry range.
    pub(crate) fn all(&self) -> Vec<(u32, Range<u32>)> {
        let mut all = Vec::new();
        for s in 0..self.shards.len() {
            let mut at = 0;
            for run in shard_runs(self.shard(s)) {
                all.push((s as u32, at..at + run.len() as u32));
                at += run.len() as u32;
            }
        }
        all
    }

    /// The entries of shard `shard` in `range`: one run.
    pub(crate) fn run(&self, shard: u32, range: Range<u32>) -> &[Entry] {
        &self.shard(shard as usize)[range.start as usize..range.end as usize]
    }

    /// Replace the records of the changed tuples: `gone` the tuples
    /// whose records leave (a tuple with none here is passed over), `news`
    /// the new records — each at its place in table order, in that order
    /// — with `hash` pushing a record's `bands` hashes. The records
    /// leaving are found through their tuples' slots, and a tuple that
    /// keeps its number of records keeps its slots. One pass on the
    /// engine's workers, labelled `label`, hashes the new records, once
    /// each, and routes their entries. A small change then merges each
    /// shard it touches anew, in one task (on the calling thread), and
    /// writes it back into its region; a change of 512 entries or more,
    /// or one a shard would outgrow its region by, lays each class out
    /// anew instead — a task a class, a wave of one class per worker at a
    /// time, each new segment replacing the old before the next wave.
    /// Returns what the change did to the runs.
    ///
    /// The index first compacts its freed slots, and re-derives its shard
    /// count when its entries double or compact past it.
    ///
    /// # Panics
    ///
    /// When a new record's tuple still has records here: the change did
    /// not name what the index held.
    pub(crate) fn reindex(
        &mut self,
        engine: &Engine,
        hash: impl Fn(&Tuple, &mut Vec<u64>) + Sync,
        (bands, label): (usize, &str),
        gone: &[TupleId],
        news: &[((u64, u32), Tuple)],
    ) -> Result<Touched> {
        let compacts = self.compact();
        let live = self.len();
        let records = Arc::make_mut(&mut self.records);
        records.bands = bands;
        let base = records.slots.len();
        let held = |id: &TupleId| Some((*id, self.ids.remove(id)?));
        let mut left: Vec<(TupleId, (u32, u32))> = gone.iter().filter_map(held).collect();
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
                    let end = records.slots.len() + count as usize;
                    records.slots.resize(end, None);
                    end as u32 - count
                }
            };
            slots.extend(first..first + count);
            let held = self.ids.insert(id, (first, count));
            assert!(held.is_none(), "tuple {id} enters an index holding it");
        }
        // the shard count for the entries after the change
        let lost: usize = left.iter().map(|(_, (_, count))| *count as usize).sum();
        let entries = (live - lost + news.len()) * bands;
        if self.segments.is_empty() {
            self.segments = vec![Vec::new(); engine.default_partitions()];
        }
        let (n, classes) = (self.shards.len(), self.segments.len());
        if n == 0 || entries > 2 * n * PER_SHARD || (compacts && 4 * entries < n * PER_SHARD) {
            self.reshard(shard_count(entries, classes));
        }
        let (n, records) = (self.shards.len(), Arc::make_mut(&mut self.records));
        let size = news.len().div_ceil(engine.default_partitions()).max(256);
        let chunks: Vec<_> = news.chunks(size).zip(slots.chunks(size)).collect();
        let made = engine.run_stage(&chunks, |_, (chunk, slots)| {
            let mut hashes = Vec::with_capacity(chunk.len() * bands);
            let mut routed: Vec<Vec<Entry>> = vec![Vec::new(); classes];
            for ((place, unit), &slot) in chunk.iter().zip(slots.iter()) {
                hash(unit, &mut hashes);
                for run in (0..).zip(hashes[hashes.len() - bands..].iter().copied()) {
                    let e = Entry::at(run, *place, slot, n);
                    routed[e.shard as usize % classes].push(e);
                }
            }
            Ok((hashes, routed))
        })?;
        if !chunks.is_empty() {
            engine.record_pass(PassKind::Narrow, vec![label.to_string()], chunks.len());
        }
        // which slots leave; per shard, whether the change touches it and
        // by how many entries it grows
        let (mut leaving, mut touches) = (vec![false; base], vec![(false, 0isize); n]);
        for (&(_, (first, count)), kept) in left.iter().zip(kept) {
            for slot in first..first + count {
                records.slots[slot as usize].take().expect("a live slot");
                for run in records.runs(slot) {
                    let touch = &mut touches[bucket_of(&run, n)];
                    *touch = (true, touch.1 - 1);
                }
                leaving[slot as usize] = true;
            }
            self.dead += if kept { 0 } else { count as usize };
        }
        records.hashes.resize(records.slots.len() * bands, 0);
        let (hashes, ins): (Vec<_>, Vec<_>) = made.into_iter().unzip();
        let mut hashes = hashes.into_iter().flatten();
        for ((_, unit), &slot) in news.iter().zip(&slots) {
            let at = slot as usize * bands;
            records.hashes[at..at + bands].fill_with(|| hashes.next().expect("hashed"));
            records.slots[slot as usize] = Some(unit.clone());
        }
        for e in ins.iter().flatten().flatten() {
            let touch = &mut touches[e.shard as usize];
            *touch = (true, touch.1 + 1);
        }
        // a large change, or one a shard would outgrow its region by, lays
        // each class out anew, a task a class, a wave of one class per
        // worker at a time; a small one rewrites the shards it touches in
        // place, in one task
        let outgrows = |s: usize| {
            touches[s].0 && (self.shards[s].2 as isize + touches[s].1) as usize > self.shards[s].3
        };
        let anew = (0..n).any(outgrows) || (lost + news.len()) * bands >= 512;
        let all: Vec<Vec<usize>> = match anew {
            true => (0..classes).map(|c| vec![c]).collect(),
            // a change that touches no shard runs no task
            false if !touches.iter().any(|t| t.0) => Vec::new(),
            false => vec![(0..classes).collect()],
        };
        let (mut touched, mut dropped) = (Vec::with_capacity(classes), 0);
        for wave in all.chunks(engine.workers()) {
            // per class, its shards anew — its touched ones, or all of them
            // laid out anew, the untouched ones copied — one after another,
            // each with its region
            let done = engine.run_stage(wave, |_, ours| {
                let class = |c: usize| {
                    let mut adds: Vec<Entry> = ins.iter().flat_map(|p| &p[c]).copied().collect();
                    adds.sort_unstable();
                    let ours = (c..n).step_by(classes).filter(|&s| anew || touches[s].0);
                    // allocated once, to the size they take: grown by
                    // doubling, a large index's blocks would scatter over
                    // the allocator
                    let held: usize = ours.clone().map(|s| room_for(self.shard(s).len())).sum();
                    let mut out = Vec::with_capacity(held + room_for(adds.len()));
                    let mut adds = adds.chunk_by(|a, b| a.shard == b.shard).peekable();
                    let (mut regions, mut runs) = (Vec::with_capacity(n / classes), Touched::new());
                    let (mut scratch, mut gone) = (Vec::new(), 0);
                    for s in ours {
                        let from = out.len();
                        if touches[s].0 {
                            let mine = adds.next_if(|group| group[0].shard as usize == s);
                            let (mine, into) = (mine.unwrap_or_default(), (&mut out, &mut scratch));
                            gone += merge((s, self.shard(s)), &leaving, mine, into, &mut runs);
                        } else {
                            out.extend_from_slice(self.shard(s));
                        }
                        let len = out.len() - from;
                        if anew {
                            out.resize(from + room_for(len), Entry::default());
                        }
                        regions.push((s, from, len));
                    }
                    (c, out, regions, runs, gone)
                };
                Ok(ours.iter().map(|&c| class(c)).collect::<Vec<_>>())
            })?;
            for (c, out, regions, runs, gone) in done.into_iter().flatten() {
                touched.push(runs);
                dropped += gone;
                for (s, at, len) in regions {
                    let (seg, from, _, room) = self.shards[s];
                    self.shards[s] = match anew {
                        true => (c, at, len, room_for(len)),
                        false => (seg, from, len, room),
                    };
                    if !anew {
                        self.segments[seg][from..from + len].copy_from_slice(&out[at..at + len]);
                    }
                }
                if anew {
                    self.segments[c] = out;
                }
            }
        }
        assert_eq!(dropped, lost * bands, "a change drops entries not held");
        Ok(touched.concat())
    }

    /// Route every entry anew into `n` shards, each class laid out anew.
    fn reshard(&mut self, n: usize) {
        let classes = self.segments.len();
        let routed = |e: &Entry| Entry::at(e.run(), (e.seq, e.rep), e.slot, n);
        let mut all: Vec<Entry> = (0..self.shards.len())
            .flat_map(|s| self.shard(s))
            .map(routed)
            .collect();
        all.sort_unstable();
        let (mut segments, mut shards) = (vec![Vec::new(); classes], vec![(0, 0, 0, 0); n]);
        for shard in all.chunk_by(|a, b| a.shard == b.shard) {
            let (s, len) = (shard[0].shard as usize, shard.len());
            let segment = &mut segments[s % classes];
            shards[s] = (s % classes, segment.len(), len, room_for(len));
            segment.extend_from_slice(shard);
            segment.resize(shards[s].1 + room_for(len), Entry::default());
        }
        (self.segments, self.shards) = (segments, shards);
    }

    /// Renumber the live records into consecutive slots, in slot order —
    /// entries keep their order, as places order them — when freed slots
    /// outnumber live ones. Returns whether it did.
    fn compact(&mut self) -> bool {
        if self.dead * 2 <= self.records.slots.len() {
            return false;
        }
        let records = Arc::make_mut(&mut self.records);
        let bands = records.bands;
        let mut renumbered = vec![u32::MAX; records.slots.len()];
        let (mut live, mut hashes) = (Vec::with_capacity(self.ids.len()), Vec::new());
        for (slot, unit) in records.slots.drain(..).enumerate() {
            if unit.is_some() {
                renumbered[slot] = live.len() as u32;
                live.push(unit);
                hashes.extend_from_slice(&records.hashes[slot * bands..(slot + 1) * bands]);
            }
        }
        (records.slots, records.hashes) = (live, hashes);
        self.ids
            .values_mut()
            .for_each(|(first, _)| *first = renumbered[*first as usize]);
        for &(segment, at, len, _) in &self.shards {
            let entries = self.segments[segment][at..at + len].iter_mut();
            entries.for_each(|e| e.slot = renumbered[e.slot as usize]);
        }
        self.dead = 0;
        true
    }
}

/// Shard `s` anew, onto the end of `merged`: without the entries of the
/// records whose slots `leaving` marks and with `adds` — routed to it,
/// sorted — merged in, in one ordered pass; what that did to its runs,
/// gathered in `scratch`, is pushed onto `touched`. Returns how many
/// entries left.
fn merge(
    (s, shard): (usize, &[Entry]),
    leaving: &[bool],
    adds: &[Entry],
    (merged, scratch): (&mut Vec<Entry>, &mut Vec<(Entry, bool)>),
    touched: &mut Touched,
) -> usize {
    let (base, mut new) = (merged.len(), adds.iter().copied().peekable());
    scratch.clear();
    for &e in shard {
        while let Some(add) = new.next_if(|add| *add < e) {
            merged.push(add);
        }
        match leaving.get(e.slot as usize) {
            Some(true) => scratch.push((e, false)),
            _ => merged.push(e),
        }
    }
    merged.extend(new);
    // each run that lost or gained a member once — a gaining one as
    // gaining — and where it now sits (an empty range: nowhere)
    scratch.extend(adds.iter().map(|e| (*e, true)));
    scratch.sort_unstable_by_key(|(e, gained)| (e.run(), !gained));
    scratch.dedup_by_key(|(e, _)| e.run());
    let now = &merged[base..];
    for &(e, gained) in scratch.iter() {
        let from = now.partition_point(|x| x.run() < e.run());
        let to = now.partition_point(|x| x.run() <= e.run());
        touched.push((s as u32, e.run(), gained, from as u32..to as u32));
    }
    shard.len() + adds.len() + base - merged.len()
}
