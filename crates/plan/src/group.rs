//! A rule group as [`block_groups`] forms it: the unit every detect of
//! an incremental session — and so of a batch cleanse, which is one —
//! drives. It
//! holds its members' pipelines and health, and the group's resident
//! [`BucketStore`] from construction until no member is healthy.
//!
//! Three operations run every detect pass — `open` once, over the whole
//! table, and `redetect` after every change:
//! * [`RuleGroup::run`] runs one pass of the healthy members, each under
//!   a fresh [`RuleGuard`], and owns partial-mode quarantine: a pass that
//!   fails on a rule's fault is re-run member by member, so only a faulty
//!   member is quarantined;
//! * [`RuleGroup::redetect`] reindexes changed tuples into the store and
//!   re-detects the union of what the healthy members pick, with the
//!   changed tuples' new versions as the freshness mask, as one
//!   [`Executor::detect_picked`] pass through `run`: over the runs the
//!   change fed — Block, cross-product and LSH buckets alike — over a
//!   single-unit rule's new records, or a join of the change against an
//!   inequality rule's join index, which folds the change in before the
//!   next;
//! * [`RuleGroup::open`] runs one full pass over a whole table and
//!   fills the store with it: a Block or LSH group keeps the sorted runs
//!   of its shuffled pass, an inequality rule the sorted range parts of
//!   its OCJoin; any other group, or a pass partial mode re-ran member
//!   by member, indexes the table into the store afterwards.
//!
//! What a detection means stays the caller's: a session keeps them with
//! provenance.

use crate::enumerate::Delta;
use crate::executor::{DetectOutput, Executor};
use crate::physical::{block_groups, RulePipeline};
use crate::store::{BucketStore, Picked, Reindexed};
use bigdansing_common::error::{Error, Result};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Table, Tuple, TupleId};
use bigdansing_dataflow::fault::RuleGuard;
use bigdansing_dataflow::{IsolationOptions, PDataset};
use bigdansing_rules::BlockKey;
use std::sync::Arc;

/// One rule of a group, with its health over the passes it ran in.
pub struct GroupMember {
    /// The rule's registration index.
    pub rule: usize,
    /// The rule's pipeline.
    pub pipeline: RulePipeline,
    /// The failure that quarantined the rule (partial mode): no later
    /// pass runs it. `None` while healthy.
    pub quarantined: Option<String>,
    /// Candidate units its passes processed…
    pub units_processed: u64,
    /// …and its straggler guards skipped.
    pub units_skipped: u64,
}

/// What one [`RuleGroup::run`] produced: every member that ran to
/// completion, by its index in [`RuleGroup::members`], with its
/// detections.
pub type Ran = Vec<(usize, DetectOutput)>;

/// What one [`RuleGroup::redetect`] did.
pub struct Redetected {
    /// What the reindex changed.
    pub change: Reindexed,
    /// The key of every Block bucket handed over when a member is a
    /// list rule; else empty.
    pub keys: Vec<BlockKey>,
    /// The id of every record or bucket member handed over (an LSH
    /// record's once, though it sits in a run per band).
    pub ids: Vec<TupleId>,
    /// What the pass over them found.
    pub outs: Ran,
}

/// One detect pass of some members of a group, each under its guard:
/// their detections, member for member, and the store the pass kept
/// when it seeds the group's.
pub type PassOutput = Result<(Vec<DetectOutput>, Option<BucketStore>)>;

/// A rule group: its members in registration order, over the group's
/// resident store.
pub struct RuleGroup {
    /// The group's rules.
    pub members: Vec<GroupMember>,
    /// The resident runs or join index, empty until
    /// [`RuleGroup::open`] fills them. Dropped once no member is healthy.
    pub store: Option<BucketStore>,
    /// The job's isolation options, which every guard is armed with.
    iso: IsolationOptions,
}

impl RuleGroup {
    /// One group per [`block_groups`] group of `pipelines`, every member
    /// healthy, each over an empty store.
    pub fn of(pipelines: &[RulePipeline], iso: IsolationOptions) -> Vec<Self> {
        let group = |rules: Vec<usize>| {
            let member = |rule: usize| GroupMember {
                rule,
                pipeline: pipelines[rule].clone(),
                quarantined: None,
                units_processed: 0,
                units_skipped: 0,
            };
            let members: Vec<GroupMember> = rules.into_iter().map(member).collect();
            let all: Vec<&RulePipeline> = members.iter().map(|m| &m.pipeline).collect();
            RuleGroup {
                store: Some(BucketStore::new(&all)),
                members,
                iso,
            }
        };
        block_groups(pipelines).into_iter().map(group).collect()
    }

    /// The indices of the healthy members.
    pub fn healthy(&self) -> Vec<usize> {
        let members = self.members.iter().enumerate();
        let healthy = members.filter(|(_, m)| m.quarantined.is_none());
        healthy.map(|(at, _)| at).collect()
    }

    /// Whether partial mode quarantines a rule for `e`. Cancellation and
    /// admission errors are about the job, never a rule's fault.
    fn quarantines(&self, e: &Error) -> bool {
        self.iso.is_partial() && !matches!(e, Error::Cancelled { .. } | Error::Rejected { .. })
    }

    /// Run one pass of the healthy members, each under a fresh guard,
    /// and fold it into their health: the guards' counters, then the
    /// detections — or, when partial mode quarantines on the failure,
    /// the quarantine of the members it ran, which are not healthy any
    /// more. A shared pass that fails so is re-run member by member
    /// instead, so only a faulty member is quarantined. A pass of all
    /// healthy members may seed the store. Strict mode, cancellation and
    /// admission errors propagate.
    pub fn run(
        &mut self,
        metrics: &Metrics,
        pass: impl Fn(&[&RulePipeline], &[Arc<RuleGuard>]) -> PassOutput,
    ) -> Result<Ran> {
        let mut ran = Ran::default();
        let seeded = self.pass(&self.healthy(), metrics, &pass, &mut ran)?;
        self.store = seeded
            .or(self.store.take())
            .filter(|_| !self.healthy().is_empty());
        Ok(ran)
    }

    /// [`RuleGroup::run`] over `members`, into `ran`; returns the buckets
    /// the pass seeded. The guards of a shared pass re-run member by
    /// member count nothing, and the re-runs seed no store.
    fn pass(
        &mut self,
        members: &[usize],
        metrics: &Metrics,
        pass: &impl Fn(&[&RulePipeline], &[Arc<RuleGuard>]) -> PassOutput,
        ran: &mut Ran,
    ) -> Result<Option<BucketStore>> {
        let group: Vec<&RulePipeline> =
            members.iter().map(|&m| &self.members[m].pipeline).collect();
        let arm = |p: &&RulePipeline| RuleGuard::arm(p.rule.name(), &self.iso);
        let guards: Vec<_> = group.iter().map(arm).collect();
        let run = pass(&group, &guards);
        if members.len() > 1 && run.as_ref().is_err_and(|e| self.quarantines(e)) {
            for &m in members {
                self.pass(&[m], metrics, pass, ran)?;
            }
            return Ok(None);
        }
        for (&m, guard) in members.iter().zip(&guards) {
            let member = &mut self.members[m];
            member.units_processed += guard.units_processed();
            member.units_skipped += guard.units_skipped();
            Metrics::add(&metrics.units_skipped, guard.units_skipped());
        }
        match run {
            Ok((outs, seeded)) => {
                ran.extend(members.iter().copied().zip(outs));
                Ok(seeded)
            }
            Err(e) if self.quarantines(&e) => {
                for &m in members {
                    self.members[m].quarantined = Some(e.to_string());
                    Metrics::add(&metrics.rules_quarantined, 1);
                }
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Reindex the changed tuples into the store — each change an id,
    /// the version the store holds and its new version, as
    /// [`BucketStore::reindex`] takes them — then re-detect the union of
    /// what the healthy members pick ([`BucketStore::held`]) in one pass
    /// through [`RuleGroup::run`], with the ids that have a new version
    /// as the freshness mask, by [`Executor::detect_picked`]. A join
    /// index first folds in the change the re-detect before it joined
    /// ([`BucketStore::settle`]), then joins the change it staged. When
    /// nothing is picked no pass runs, and every healthy member finds
    /// nothing new.
    pub fn redetect<'a>(
        &mut self,
        executor: &Executor,
        changes: impl Iterator<Item = (TupleId, Option<&'a Tuple>, Option<&'a Tuple>)>,
        seq_of: impl Fn(TupleId) -> u64,
    ) -> Result<Redetected> {
        // out of the group while its pass runs: the pass reads it
        let mut store = self.store.take().expect("a group re-detects its store");
        let engine = executor.engine();
        store.settle(engine)?;
        let mut mask = Delta::default();
        let fresh = |(id, _, new): &(TupleId, _, Option<_>)| {
            if new.is_some() {
                mask.ids.insert(*id);
            }
        };
        let change = store.reindex(engine, changes.inspect(fresh), seq_of)?;
        let members = self.members.iter().filter(|m| m.quarantined.is_none());
        let healthy: Vec<&RulePipeline> = members.map(|m| &m.pipeline).collect();
        let (pick, keys, ids) = match store.held(&healthy, &change) {
            Some(Picked { pick, keys, ids }) => (Some(pick), keys, ids),
            None => Default::default(),
        };
        let outs = self.run(engine.metrics(), |group, guards| {
            let outs = match &pick {
                Some(pick) => executor.detect_picked(group, &store, pick, Some(&mask), guards)?,
                None => vec![DetectOutput::default(); group.len()],
            };
            Ok((outs, None))
        })?;
        if !self.healthy().is_empty() {
            self.store = Some(store);
        }
        Ok(Redetected {
            change,
            keys,
            ids,
            outs,
        })
    }

    /// Detect over `table` — its tuples in table order, `seq_of` their
    /// sequence numbers — in one full [`Executor::run_resident`] pass
    /// through [`RuleGroup::run`], and leave the store holding the
    /// table. A Block or LSH pass's runs, or an inequality pass's join
    /// index, become the store. A pass that seeds none — single
    /// units, cross products, or members partial mode re-ran one by one
    /// — leaves the store empty, and the table is indexed into it with
    /// no second detect. An empty table runs no pass.
    pub fn open(
        &mut self,
        executor: &Executor,
        table: &Table,
        seq_of: impl Fn(TupleId) -> u64,
    ) -> Result<Ran> {
        let inserts = || table.tuples().iter().map(|t| (t.id(), None, Some(t)));
        if table.is_empty() {
            return Ok(self.redetect(executor, inserts(), seq_of)?.outs);
        }
        let data = || PDataset::from_vec(executor.engine().clone(), table.tuples().to_vec());
        let ran = self.run(executor.engine().metrics(), |group, guards| {
            executor.run_resident(data(), table.schema(), group, Some(guards), &seq_of)
        })?;
        // a store no pass seeded is still the empty one the group began with
        if let Some(store) = self.store.as_mut().filter(|s| s.is_empty()) {
            store.reindex(executor.engine(), inserts(), seq_of)?;
        }
        Ok(ran)
    }
}
