//! Property-based integration tests: random tables and rules through the
//! full stack.

use bigdansing::{
    BigDansing, CleanseOptions, DeltaBatch, DurabilityOptions, IsolationOptions, RuleHealth,
    Session,
};
use bigdansing_common::rng::{check, SplitMix64};
use bigdansing_common::{Schema, Table, Value};
use bigdansing_dataflow::Engine;
use bigdansing_plan::{Executor, Member};
use bigdansing_rules::{DedupRule, FdRule, Rule, UdfRule, UnitKind};
use std::ops::Range;
use std::sync::Arc;

mod support;

use support::apply_batch_to_table;

/// `(a, b, c)` rows over `0..6 × 0..4 × 0..4`, a row count drawn from
/// `rows`.
fn arb_rows(g: &mut SplitMix64, rows: Range<usize>) -> Vec<(i64, i64, i64)> {
    (0..g.range(rows))
        .map(|_| (g.range(0..6), g.range(0..4), g.range(0..4)))
        .collect()
}

fn arb_table(g: &mut SplitMix64, rows: Range<usize>) -> Table {
    spec_table(arb_rows(g, rows), false)
}

#[test]
fn cleansing_terminates_and_detection_confirms() {
    check(24, |g| {
        let table = arb_table(g, 0..40);
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("a -> b", table.schema()).unwrap();
        let res = sys.cleanse(&table, CleanseOptions::default()).unwrap();
        // terminated within the budget, and convergence is truthful
        assert!(res.iterations <= 10);
        let clean = sys.detect(&res.table).unwrap().is_clean();
        assert_eq!(res.converged, clean);
        // an FD with equality fixes is always repairable
        assert!(clean, "FD cleansing must converge");
    });
}

#[test]
fn engine_parity_on_random_data() {
    check(24, |g| {
        let table = arb_table(g, 0..50);
        let workers = g.range(1usize..5);
        let rule: Arc<dyn Rule> = Arc::new(FdRule::parse("a -> b", table.schema()).unwrap());
        let count = |e: Engine| {
            Executor::new(e)
                .detect(&table, &[Arc::clone(&rule)])
                .unwrap()
                .violation_count()
        };
        let seq = count(Engine::sequential());
        assert_eq!(seq, count(Engine::parallel(workers)));
        assert_eq!(seq, count(Engine::disk_backed(workers)));
    });
}

#[test]
fn repaired_tables_only_change_fd_rhs_cells() {
    check(24, |g| {
        let table = arb_table(g, 0..40);
        let mut sys = BigDansing::sequential();
        sys.add_fd("a -> c", table.schema()).unwrap();
        let res = sys.cleanse(&table, CleanseOptions::default()).unwrap();
        for (before, after) in table.tuples().iter().zip(res.table.tuples()) {
            assert_eq!(before.value(0), after.value(0), "LHS untouched");
            assert_eq!(before.value(1), after.value(1), "unrelated attr untouched");
        }
    });
}

/// Clean `table` with `a -> b`, `a -> c` and an always-panicking
/// single-unit UDF under partial isolation; assert the healthy rules'
/// outcome equals a run without the UDF, and return the rules the run
/// quarantined.
fn quarantined_alongside_healthy_rules(table: &Table) -> Vec<String> {
    let healthy: Vec<Arc<dyn Rule>> = vec![
        Arc::new(FdRule::parse("a -> b", table.schema()).unwrap()),
        Arc::new(FdRule::parse("a -> c", table.schema()).unwrap()),
    ];
    let oracle_exec = Executor::new(Engine::sequential());
    let oracle =
        bigdansing::cleanse::cleanse_loop(&oracle_exec, &healthy, table, CleanseOptions::default())
            .unwrap();

    let mut rules = healthy.clone();
    rules.push(Arc::new(
        UdfRule::builder("udf:faulty", |_| panic!("faulty udf"))
            .unit_kind(UnitKind::Single)
            .build(),
    ));
    let exec = Executor::new(Engine::sequential());
    let res = bigdansing::cleanse::cleanse_loop(
        &exec,
        &rules,
        table,
        CleanseOptions {
            isolation: IsolationOptions::partial(),
            ..Default::default()
        },
    )
    .unwrap();

    assert_eq!(res.converged, oracle.converged);
    assert_eq!(
        res.table.diff_cells(&oracle.table),
        0,
        "quarantining the faulty rule changed the healthy rules' repairs"
    );
    for (name, health) in &res.outcome.rules {
        if name != "udf:faulty" {
            assert_eq!(health, &RuleHealth::Completed, "{} degraded", name);
        }
    }
    res.outcome
        .quarantined()
        .map(|(n, _)| n.to_string())
        .collect()
}

/// Fault-isolation parity: adding an always-panicking rule to a job
/// run with partial isolation quarantines exactly that rule and
/// leaves the other rules' repaired output byte-identical to a run
/// that never registered the faulty rule at all. The table has at
/// least one row: the UDF only runs (and so only fails) on a unit.
#[test]
fn quarantined_rule_never_perturbs_healthy_rules() {
    check(24, |g| {
        let table = arb_table(g, 1..40);
        assert_eq!(quarantined_alongside_healthy_rules(&table), ["udf:faulty"]);
    });
}

/// The empty-table case the property above leaves out: no unit, so the
/// faulty UDF never runs and nothing is quarantined.
#[test]
fn empty_table_quarantines_nothing() {
    assert!(quarantined_alongside_healthy_rules(&spec_table(vec![], false)).is_empty());
}

#[test]
fn cleansing_is_idempotent() {
    check(24, |g| {
        let table = arb_table(g, 0..30);
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("a -> b", table.schema()).unwrap();
        let once = sys.cleanse(&table, CleanseOptions::default()).unwrap();
        let twice = sys.cleanse(&once.table, CleanseOptions::default()).unwrap();
        assert_eq!(twice.cells_changed, 0, "second cleanse is a no-op");
        assert_eq!(once.table.diff_cells(&twice.table), 0);
    });
}

// ---- incremental session parity ------------------------------------
//
// Random interleavings of insert/update/delete batches through a
// `Session` must leave exactly the state a from-scratch `cleanse` of
// the materialized table would: same repaired rows, same violation
// store. Ops are generated abstractly (fresh values plus selectors into
// the live id set) so every batch is valid by construction.

#[derive(Debug, Clone)]
enum OpSpec {
    Insert(i64, i64, i64),
    Update(usize, i64, i64, i64),
    Delete(usize),
    /// Delete a live id and reinsert it within the same batch — the id
    /// keeps its identity but moves to the end of the table, exercising
    /// the session's index maintenance under in-batch seq reassignment.
    Reinsert(usize, i64, i64, i64),
}

/// 1–3 batches of 0–5 ops; the four op kinds equally likely, selectors
/// any `usize`, values over `0..6 × 0..4 × 0..4`.
fn arb_interleavings(g: &mut SplitMix64) -> Vec<Vec<OpSpec>> {
    let op = |g: &mut SplitMix64| {
        let (sel, a, b, c) = (
            g.next_u64() as usize,
            g.range(0..6),
            g.range(0..4),
            g.range(0..4),
        );
        match g.range(0..4) {
            0 => OpSpec::Insert(a, b, c),
            1 => OpSpec::Update(sel, a, b, c),
            2 => OpSpec::Delete(sel),
            _ => OpSpec::Reinsert(sel, a, b, c),
        }
    };
    (0..g.range(1..4))
        .map(|_| (0..g.range(0..6)).map(|_| op(g)).collect())
        .collect()
}

/// Column `a` becomes a short string under `strings` so similarity
/// rules have something to compare ("na3" vs "na5" ≈ 0.67 similar).
fn spec_values(a: i64, b: i64, c: i64, strings: bool) -> Vec<Value> {
    let first = if strings {
        Value::str(format!("na{a}"))
    } else {
        Value::Int(a)
    };
    vec![first, Value::Int(b), Value::Int(c)]
}

fn spec_table(rows: Vec<(i64, i64, i64)>, strings: bool) -> Table {
    Table::from_rows(
        "t",
        Schema::parse("a,b,c"),
        rows.into_iter()
            .map(|(a, b, c)| spec_values(a, b, c, strings))
            .collect(),
    )
}

fn resolve_batch(
    specs: &[OpSpec],
    live: &mut Vec<u64>,
    next: &mut u64,
    strings: bool,
) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for spec in specs {
        match spec {
            OpSpec::Insert(a, b, c) => {
                let id = *next;
                *next += 1;
                live.push(id);
                batch = batch.insert(id, spec_values(*a, *b, *c, strings));
            }
            OpSpec::Update(sel, a, b, c) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[sel % live.len()];
                batch = batch.update(id, spec_values(*a, *b, *c, strings));
            }
            OpSpec::Delete(sel) => {
                if live.is_empty() {
                    continue;
                }
                let idx = sel % live.len();
                batch = batch.delete(live.remove(idx));
            }
            OpSpec::Reinsert(sel, a, b, c) => {
                if live.is_empty() {
                    continue;
                }
                let id = live[sel % live.len()];
                batch = batch
                    .delete(id)
                    .insert(id, spec_values(*a, *b, *c, strings));
            }
        }
    }
    batch
}

fn canon_detected(detected: &[(bigdansing::Violation, Vec<bigdansing::Fix>)]) -> Vec<String> {
    let mut out: Vec<String> = detected
        .iter()
        .map(|(v, fixes)| format!("{v:?} | {fixes:?}"))
        .collect();
    out.sort();
    out
}

fn assert_session_parity(
    sys: &BigDansing,
    base: Table,
    interleavings: Vec<Vec<OpSpec>>,
    strings: bool,
) {
    let mut session = sys.open_session(&base, CleanseOptions::default()).unwrap();
    let mut live: Vec<u64> = base.tuples().iter().map(|t| t.id()).collect();
    let mut next = live.iter().copied().max().map_or(0, |m| m + 1);
    let mut current = base;
    for specs in interleavings {
        let batch = resolve_batch(&specs, &mut live, &mut next, strings);
        current = apply_batch_to_table(&current, &batch).unwrap();
        sys.apply_delta(&mut session, batch).unwrap();
        let oracle = sys.cleanse(&current, CleanseOptions::default()).unwrap();
        let rows =
            |t: &Table| -> Vec<String> { t.tuples().iter().map(|t| format!("{t:?}")).collect() };
        assert_eq!(
            rows(session.table()),
            rows(&oracle.table),
            "repaired tables diverged"
        );
        let residue = sys.detect(&oracle.table).unwrap();
        assert_eq!(
            canon_detected(&session.detected()),
            canon_detected(&residue.detected),
            "violation stores diverged"
        );
        current = oracle.table;
    }
}

/// A pinned instance of the session parity properties below.
#[test]
fn session_parity_smoke_interleaving() {
    let base = spec_table(vec![(1, 1, 1), (1, 2, 3), (2, 0, 0)], false);
    let mut sys = BigDansing::parallel(2);
    sys.add_fd("a -> b", base.schema()).unwrap();
    let ops = vec![
        vec![OpSpec::Insert(1, 3, 2), OpSpec::Delete(0)],
        vec![
            OpSpec::Update(1, 2, 1, 1),
            OpSpec::Delete(2),
            OpSpec::Insert(1, 0, 0),
        ],
        // same-batch delete+reinsert of a live id, then another delta
        // into the same `a` block
        vec![OpSpec::Reinsert(0, 1, 3, 3)],
        vec![OpSpec::Insert(1, 1, 1)],
    ];
    assert_session_parity(&sys, base, ops, false);
}

/// One of the rules a session re-detects through keyed buckets, each
/// on `a` determining `b`: the FD (BlockPairs), the whole-block list UDF
/// (BlockList) or the order-sensitive pair UDF (CrossProduct, whose one
/// global bucket holds every row).
fn arb_keyed_system(g: &mut SplitMix64, schema: &Schema) -> BigDansing {
    let mut sys = BigDansing::parallel(2);
    let rule: Arc<dyn Rule> = match g.range(0..3usize) {
        0 => Arc::new(FdRule::parse("a -> b", schema).unwrap()),
        1 => Arc::new(support::list_udf()),
        _ => Arc::new(support::ordered_pair_udf()),
    };
    sys.add_rule(rule);
    sys
}

#[test]
fn fd_session_parity_on_random_interleavings() {
    check(24, |g| {
        let base = spec_table(arb_rows(g, 0..20), false);
        let ops = arb_interleavings(g);
        let sys = arb_keyed_system(g, base.schema());
        assert_session_parity(&sys, base, ops, false);
    });
}

/// One of the inequality-DC shapes a session joins through OCJoin: two
/// strict conditions, a single condition (a sorted scan, no sweep), `>=`/`<=`
/// conditions, and the two strict conditions in the other order.
fn arb_dc_system(g: &mut SplitMix64, schema: &Schema) -> BigDansing {
    let dc = [
        "t1.b > t2.b & t1.c < t2.c",
        "t1.b > t2.b",
        "t1.b >= t2.b & t1.c <= t2.c",
        "t1.c < t2.c & t1.b > t2.b",
    ][g.range(0..4usize)];
    let mut sys = BigDansing::parallel(2);
    sys.add_dc(dc, schema).unwrap();
    sys
}

#[test]
fn dc_session_parity_on_random_interleavings() {
    check(16, |g| {
        let base = spec_table(arb_rows(g, 0..16), false);
        let ops = arb_interleavings(g);
        let sys = arb_dc_system(g, base.schema());
        assert_session_parity(&sys, base, ops, false);
    });
}

/// A durable inequality-DC session recovers to its in-memory twin: once
/// after the interleavings (state frames plus replayed batch records),
/// and once from a state frame alone, after which one more batch must
/// still pair its delta with every recovered record.
#[test]
fn dc_durable_session_recovers_to_parity() {
    let mut case = 0;
    check(8, |g| {
        case += 1;
        let dir =
            std::env::temp_dir().join(format!("bd-props-dc-durable-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = || DurabilityOptions::new(&dir).snapshot_every(2);
        let assert_same = |a: &Session, b: &Session| {
            let rows = |s: &Session| format!("{:?}", s.table().tuples());
            assert_eq!(rows(a), rows(b), "recovered table diverged");
            assert_eq!(a.detected(), b.detected(), "recovered store diverged");
        };

        let base = spec_table(arb_rows(g, 0..16), false);
        let ops = arb_interleavings(g);
        let mut tail = arb_interleavings(g).concat();
        tail.push(OpSpec::Insert(g.range(0..6), g.range(0..4), g.range(0..4)));
        let sys = arb_dc_system(g, base.schema());
        let recover = || {
            let opts = CleanseOptions::default();
            sys.recover_session(opts, durability()).unwrap().0
        };
        let mut live = sys.open_session(&base, CleanseOptions::default()).unwrap();
        let durable = sys.open_durable_session(&base, CleanseOptions::default(), durability());
        let mut durable = durable.unwrap();
        let mut ids: Vec<u64> = base.tuples().iter().map(|t| t.id()).collect();
        let mut next = ids.iter().copied().max().map_or(0, |m| m + 1);
        for specs in &ops {
            let batch = resolve_batch(specs, &mut ids, &mut next, false);
            sys.apply_delta(&mut live, batch.clone()).unwrap();
            sys.apply_delta(&mut durable, batch).unwrap();
        }
        drop(durable);

        let mut recovered = recover();
        assert_same(&recovered, &live);
        recovered.snapshot().unwrap();
        drop(recovered);

        let mut recovered = recover();
        let batch = resolve_batch(&tail, &mut ids, &mut next, false);
        sys.apply_delta(&mut live, batch.clone()).unwrap();
        sys.apply_delta(&mut recovered, batch).unwrap();
        assert_same(&recovered, &live);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn dedup_session_parity_on_random_interleavings() {
    check(8, |g| {
        let base = spec_table(arb_rows(g, 0..16), true);
        let ops = arb_interleavings(g);
        let mut sys = BigDansing::parallel(2);
        sys.add_rule(Arc::new(DedupRule::new("udf:dedup", 0, 0.6)));
        assert_session_parity(&sys, base, ops, true);
    });
}

// ---------------------------------------------------------------------
// Durability frame codec: corruption never panics, never decodes.
// ---------------------------------------------------------------------

/// A frame kind in `0..8` and a payload of 0–255 arbitrary bytes.
fn arb_frame(g: &mut SplitMix64) -> (u8, Vec<u8>) {
    let kind = g.range(0..8);
    (
        kind,
        (0..g.range(0..256)).map(|_| g.next_u64() as u8).collect(),
    )
}

/// Flip one byte anywhere in an encoded frame: decoding must return
/// a typed error (the CRC, magic, version, or length check fires) —
/// never panic, and never silently hand back the mutated payload as
/// if it were intact. A flip inside the payload is the one place the
/// bytes themselves don't self-describe; there the CRC must catch it.
#[test]
fn flipped_frame_byte_is_rejected() {
    check(64, |g| {
        let (kind, payload) = arb_frame(g);
        let (pos_seed, bit) = (g.next_u64() as usize, g.range(0u8..8));
        let mut bad = bigdansing_common::codec::encode_frame(kind, &payload);
        let pos = pos_seed % bad.len();
        bad[pos] ^= 1 << bit; // a single-bit flip always changes the frame
        let mut cursor = &bad[..];
        match bigdansing_common::codec::decode_frame(&mut cursor) {
            Ok(_) => panic!("corrupt frame decoded (flip at byte {pos})"),
            Err(bigdansing::Error::Parse(_)) | Err(bigdansing::Error::Corrupt(_)) => {}
            Err(other) => panic!("unexpected error class: {other}"),
        }
    });
}

/// Truncate an encoded frame at any interior offset: decoding must
/// report a typed truncation error, never panic on a short slice.
/// This is exactly the torn-tail shape the WAL sees after a crash
/// mid-append.
#[test]
fn truncated_frame_is_rejected() {
    check(64, |g| {
        let (kind, payload) = arb_frame(g);
        let cut_seed = g.next_u64() as usize;
        let frame = bigdansing_common::codec::encode_frame(kind, &payload);
        let cut = cut_seed % frame.len(); // 0..len: always strictly short
        let mut cursor = &frame[..cut];
        match bigdansing_common::codec::decode_frame(&mut cursor) {
            Ok(_) => panic!("truncated frame decoded (cut at byte {cut})"),
            Err(bigdansing::Error::Parse(_)) | Err(bigdansing::Error::Corrupt(_)) => {}
            Err(other) => panic!("unexpected error class: {other}"),
        }
    });
}

/// Intact frames always round-trip — the complement that pins the
/// two rejection properties against a vacuously-failing decoder.
#[test]
fn intact_frame_roundtrips() {
    check(64, |g| {
        let (kind, payload) = arb_frame(g);
        let frame = bigdansing_common::codec::encode_frame(kind, &payload);
        let mut cursor = &frame[..];
        let (k, p) = bigdansing_common::codec::decode_frame(&mut cursor).unwrap();
        assert_eq!(k, kind);
        assert_eq!(p, payload);
        assert!(cursor.is_empty());
    });
}

// ---------------------------------------------------------------------
// The shared pair rule: delta enumeration is a filter of the batch one.
// ---------------------------------------------------------------------

/// A member of an LSH band bucket: the bucket's band, the unit's hash
/// per band, the unit.
struct BandMember(u32, Vec<u64>, bigdansing::Tuple);

impl Member for BandMember {
    fn tuple(&self) -> &bigdansing::Tuple {
        &self.2
    }

    fn band(&self) -> Option<(u32, &[u64])> {
        Some((self.0, &self.1))
    }
}

/// For every pair rule, enumerating a bucket under a freshness mask
/// yields exactly the all-fresh (batch) enumeration filtered to the
/// pairs with at least one fresh member — and no rule ever emits a
/// candidate unit twice.
#[test]
fn masked_pairs_are_the_fresh_subset_of_all_pairs() {
    check(64, |g| {
        // (source tuple id, freshness, hash in each of the 2 free bands)
        let members: Vec<(u64, bool, u64, u64)> = (0..g.range(0..12))
            .map(|_| (g.range(0..5), g.chance(0.5), g.range(0..3), g.range(0..3)))
            .collect();
        let band = g.range(0u32..3);
        use bigdansing_plan::IterateStrategy as S;
        // Bucket of LSH band `band`: every member agrees on that band's
        // hash (7); the other bands collide at random. Column 0 tags a
        // member with its bucket position, ids repeat (Scope replicas).
        let bucket: Vec<BandMember> = members
            .iter()
            .enumerate()
            .map(|(pos, (id, _, h1, h2))| {
                let mut hashes = vec![*h1, *h2];
                hashes.insert(band as usize, 7);
                let tuple = bigdansing::Tuple::new(*id, vec![Value::Int(pos as i64)]);
                BandMember(band, hashes, tuple)
            })
            .collect();
        let pos = |t: &bigdansing::Tuple| t.value(0).as_i64().unwrap() as usize;
        let fresh = |m: &BandMember| members[pos(m.tuple())].1;
        for strategy in [
            S::BlockPairs { ordered: false },
            S::BlockPairs { ordered: true },
            S::UCrossProduct,
            S::CrossProduct,
            S::LshBlocks,
        ] {
            let rule = strategy.pair_rule().unwrap();
            let (mut all, mut masked) = (Vec::new(), Vec::new());
            let mut all_counts = bigdansing_plan::PairCounts::default();
            rule.pairs(
                &bucket,
                |_| true,
                &mut all_counts,
                |a, b| {
                    all.push((pos(a), pos(b)));
                    Ok::<(), bigdansing::Error>(())
                },
            )
            .unwrap();
            rule.pairs(&bucket, fresh, &mut Default::default(), |a, b| {
                masked.push((pos(a), pos(b)));
                Ok::<(), bigdansing::Error>(())
            })
            .unwrap();
            assert_eq!(all_counts.emitted as usize, all.len());
            all.sort_unstable();
            masked.sort_unstable();
            let unique: std::collections::BTreeSet<_> = all.iter().copied().collect();
            assert_eq!(
                unique.len(),
                all.len(),
                "{:?} emitted a pair twice",
                strategy
            );
            all.retain(|(a, b)| members[*a].1 || members[*b].1);
            assert_eq!(&masked, &all, "{:?} under mask", strategy);
        }
    });
}
