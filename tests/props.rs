//! Property-based integration tests: random tables and rules through the
//! full stack.

use bigdansing::{
    apply_batch_to_table, BigDansing, CleanseOptions, DeltaBatch, IsolationOptions, RuleHealth,
};
use bigdansing_common::{Schema, Table, Value};
use bigdansing_dataflow::Engine;
use bigdansing_plan::Executor;
use bigdansing_rules::{DedupRule, FdRule, Rule, UdfRule, UnitKind};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..6, 0i64..4, 0i64..4), 0..max_rows).prop_map(|rows| {
        Table::from_rows(
            "t",
            Schema::parse("a,b,c"),
            rows.into_iter()
                .map(|(a, b, c)| vec![Value::Int(a), Value::Int(b), Value::Int(c)])
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cleansing_terminates_and_detection_confirms(table in arb_table(40)) {
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("a -> b", table.schema()).unwrap();
        let res = sys.cleanse(&table, CleanseOptions::default()).unwrap();
        // terminated within the budget, and convergence is truthful
        prop_assert!(res.iterations <= 10);
        let clean = sys.detect(&res.table).unwrap().is_clean();
        prop_assert_eq!(res.converged, clean);
        // an FD with equality fixes is always repairable
        prop_assert!(clean, "FD cleansing must converge");
    }

    #[test]
    fn engine_parity_on_random_data(table in arb_table(50), workers in 1usize..5) {
        let rule: Arc<dyn Rule> = Arc::new(FdRule::parse("a -> b", table.schema()).unwrap());
        let count = |e: Engine| Executor::new(e).detect(&table, &[Arc::clone(&rule)]).unwrap().violation_count();
        let seq = count(Engine::sequential());
        prop_assert_eq!(seq, count(Engine::parallel(workers)));
        prop_assert_eq!(seq, count(Engine::disk_backed(workers)));
    }

    #[test]
    fn repaired_tables_only_change_fd_rhs_cells(table in arb_table(40)) {
        let mut sys = BigDansing::sequential();
        sys.add_fd("a -> c", table.schema()).unwrap();
        let res = sys.cleanse(&table, CleanseOptions::default()).unwrap();
        for (before, after) in table.tuples().iter().zip(res.table.tuples()) {
            prop_assert_eq!(before.value(0), after.value(0), "LHS untouched");
            prop_assert_eq!(before.value(1), after.value(1), "unrelated attr untouched");
        }
    }

    /// Fault-isolation parity: adding an always-panicking rule to a job
    /// run with partial isolation quarantines exactly that rule and
    /// leaves the other rules' repaired output byte-identical to a run
    /// that never registered the faulty rule at all.
    #[test]
    fn quarantined_rule_never_perturbs_healthy_rules(table in arb_table(40)) {
        let healthy: Vec<Arc<dyn Rule>> = vec![
            Arc::new(FdRule::parse("a -> b", table.schema()).unwrap()),
            Arc::new(FdRule::parse("a -> c", table.schema()).unwrap()),
        ];
        let oracle_exec = Executor::new(Engine::sequential());
        let oracle = bigdansing::cleanse::cleanse_loop(
            &oracle_exec, &healthy, &table, CleanseOptions::default(),
        ).unwrap();

        let mut rules = healthy.clone();
        rules.push(Arc::new(
            UdfRule::builder("udf:faulty", |_| panic!("faulty udf"))
                .unit_kind(UnitKind::Single)
                .build(),
        ));
        let exec = Executor::new(Engine::sequential());
        let res = bigdansing::cleanse::cleanse_loop(
            &exec, &rules, &table,
            CleanseOptions { isolation: IsolationOptions::partial(), ..Default::default() },
        ).unwrap();

        prop_assert_eq!(res.converged, oracle.converged);
        prop_assert_eq!(
            res.table.diff_cells(&oracle.table), 0,
            "quarantining the faulty rule changed the healthy rules' repairs"
        );
        let quarantined: Vec<&str> = res.outcome.quarantined().map(|(n, _)| n).collect();
        prop_assert_eq!(quarantined, vec!["udf:faulty"]);
        for (name, health) in &res.outcome.rules {
            if name != "udf:faulty" {
                prop_assert_eq!(health, &RuleHealth::Completed, "{} degraded", name);
            }
        }
    }

    #[test]
    fn cleansing_is_idempotent(table in arb_table(30)) {
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("a -> b", table.schema()).unwrap();
        let once = sys.cleanse(&table, CleanseOptions::default()).unwrap();
        let twice = sys.cleanse(&once.table, CleanseOptions::default()).unwrap();
        prop_assert_eq!(twice.cells_changed, 0, "second cleanse is a no-op");
        prop_assert_eq!(once.table.diff_cells(&twice.table), 0);
    }
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

fn arb_interleavings() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    let op = prop_oneof![
        (0i64..6, 0i64..4, 0i64..4).prop_map(|(a, b, c)| OpSpec::Insert(a, b, c)),
        (any::<usize>(), 0i64..6, 0i64..4, 0i64..4)
            .prop_map(|(s, a, b, c)| OpSpec::Update(s, a, b, c)),
        any::<usize>().prop_map(OpSpec::Delete),
        (any::<usize>(), 0i64..6, 0i64..4, 0i64..4)
            .prop_map(|(s, a, b, c)| OpSpec::Reinsert(s, a, b, c)),
    ];
    prop::collection::vec(prop::collection::vec(op, 0..6), 1..4)
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

/// Deterministic instance of the property, so the parity harness runs
/// even where the proptest bodies don't (e.g. type-check-only stubs).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fd_session_parity_on_random_interleavings(
        rows in prop::collection::vec((0i64..6, 0i64..4, 0i64..4), 0..20),
        ops in arb_interleavings(),
    ) {
        let base = spec_table(rows, false);
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("a -> b", base.schema()).unwrap();
        assert_session_parity(&sys, base, ops, false);
    }

    #[test]
    fn dc_session_parity_on_random_interleavings(
        rows in prop::collection::vec((0i64..6, 0i64..4, 0i64..4), 0..16),
        ops in arb_interleavings(),
    ) {
        let base = spec_table(rows, false);
        let mut sys = BigDansing::parallel(2);
        sys.add_dc("t1.b > t2.b & t1.c < t2.c", base.schema()).unwrap();
        assert_session_parity(&sys, base, ops, false);
    }

    #[test]
    fn dedup_session_parity_on_random_interleavings(
        rows in prop::collection::vec((0i64..6, 0i64..4, 0i64..4), 0..16),
        ops in arb_interleavings(),
    ) {
        let base = spec_table(rows, true);
        let mut sys = BigDansing::parallel(2);
        sys.add_rule(Arc::new(DedupRule::new("udf:dedup", 0, 0.6)));
        assert_session_parity(&sys, base, ops, true);
    }
}

// ---------------------------------------------------------------------
// Durability frame codec: corruption never panics, never decodes.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip one byte anywhere in an encoded frame: decoding must return
    /// a typed error (the CRC, magic, version, or length check fires) —
    /// never panic, and never silently hand back the mutated payload as
    /// if it were intact. A flip inside the payload is the one place the
    /// bytes themselves don't self-describe; there the CRC must catch it.
    #[test]
    fn flipped_frame_byte_is_rejected(
        kind in 0u8..8,
        payload in prop::collection::vec(any::<u8>(), 0..256),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bad = bigdansing_common::codec::encode_frame(kind, &payload);
        let pos = pos_seed % bad.len();
        bad[pos] ^= 1 << bit; // a single-bit flip always changes the frame
        let mut cursor = &bad[..];
        match bigdansing_common::codec::decode_frame(&mut cursor) {
            Ok(_) => prop_assert!(false, "corrupt frame decoded (flip at byte {pos})"),
            Err(bigdansing::Error::Parse(_)) | Err(bigdansing::Error::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Truncate an encoded frame at any interior offset: decoding must
    /// report a typed truncation error, never panic on a short slice.
    /// This is exactly the torn-tail shape the WAL sees after a crash
    /// mid-append.
    #[test]
    fn truncated_frame_is_rejected(
        kind in 0u8..8,
        payload in prop::collection::vec(any::<u8>(), 0..256),
        cut_seed in any::<usize>(),
    ) {
        let frame = bigdansing_common::codec::encode_frame(kind, &payload);
        let cut = cut_seed % frame.len(); // 0..len: always strictly short
        let mut cursor = &frame[..cut];
        match bigdansing_common::codec::decode_frame(&mut cursor) {
            Ok(_) => prop_assert!(false, "truncated frame decoded (cut at byte {cut})"),
            Err(bigdansing::Error::Parse(_)) | Err(bigdansing::Error::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Intact frames always round-trip — the complement that pins the
    /// two rejection properties against a vacuously-failing decoder.
    #[test]
    fn intact_frame_roundtrips(
        kind in 0u8..8,
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let frame = bigdansing_common::codec::encode_frame(kind, &payload);
        let mut cursor = &frame[..];
        let (k, p) = bigdansing_common::codec::decode_frame(&mut cursor).unwrap();
        prop_assert_eq!(k, kind);
        prop_assert_eq!(p, payload);
        prop_assert!(cursor.is_empty());
    }
}

// ---------------------------------------------------------------------
// The shared pair rule: delta enumeration is a filter of the batch one.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every pair rule, enumerating a bucket under a freshness mask
    /// yields exactly the all-fresh (batch) enumeration filtered to the
    /// pairs with at least one fresh member — and no rule ever emits a
    /// candidate unit twice.
    #[test]
    fn masked_pairs_are_the_fresh_subset_of_all_pairs(
        // (source tuple id, freshness, hash in each of the 2 free bands)
        members in prop::collection::vec((0u64..5, any::<bool>(), 0u64..3, 0u64..3), 0..12),
        band in 0u32..3,
    ) {
        use bigdansing_plan::IterateStrategy as S;
        // Bucket of LSH band `band`: every member agrees on that band's
        // hash (7); the other bands collide at random. Column 0 tags a
        // member with its bucket position, ids repeat (Scope replicas).
        let bucket: Vec<(u32, Arc<[u64]>, bigdansing::Tuple)> = members
            .iter()
            .enumerate()
            .map(|(pos, (id, _, h1, h2))| {
                let mut hashes = vec![*h1, *h2];
                hashes.insert(band as usize, 7);
                let tuple = bigdansing::Tuple::new(*id, vec![Value::Int(pos as i64)]);
                (band, hashes.into(), tuple)
            })
            .collect();
        let pos = |t: &bigdansing::Tuple| t.value(0).as_i64().unwrap() as usize;
        let fresh = |m: &(u32, Arc<[u64]>, bigdansing::Tuple)| members[pos(&m.2)].1;
        for strategy in [
            S::BlockPairs { ordered: false },
            S::BlockPairs { ordered: true },
            S::UCrossProduct,
            S::CrossProduct,
            S::LshBlocks { bands: 3, rows_per_band: 1 },
        ] {
            let rule = strategy.pair_rule().unwrap();
            let (mut all, mut masked) = (Vec::new(), Vec::new());
            let mut all_counts = bigdansing_plan::PairCounts::default();
            rule.pairs(&bucket, |_| true, &mut all_counts, |a, b| {
                all.push((pos(a), pos(b)));
                Ok::<(), bigdansing::Error>(())
            })
            .unwrap();
            rule.pairs(&bucket, fresh, &mut Default::default(), |a, b| {
                masked.push((pos(a), pos(b)));
                Ok::<(), bigdansing::Error>(())
            })
            .unwrap();
            prop_assert_eq!(all_counts.emitted as usize, all.len());
            all.sort_unstable();
            masked.sort_unstable();
            let unique: std::collections::BTreeSet<_> = all.iter().copied().collect();
            prop_assert_eq!(unique.len(), all.len(), "{:?} emitted a pair twice", strategy);
            all.retain(|(a, b)| members[*a].1 || members[*b].1);
            prop_assert_eq!(&masked, &all, "{:?} under mask", strategy);
        }
    }
}
