//! Oracle-equivalence tests for the incremental cleansing subsystem:
//! after every applied batch, a [`Session`]'s table and violation store
//! must be indistinguishable from a full recompute (materialize the
//! delta with [`apply_batch_to_table`], then run the batch cleanse loop
//! and a fresh detect over its output).
//!
//! The suite covers every Iterate strategy the planner can choose: FD
//! (BlockPairs), CFD (BlockPairs with conditioned detect), DC with
//! inequalities (OCJoin), a dedup UDF both blocked (BlockPairs) and
//! unblocked (UCrossProduct), a whole-block list UDF (BlockList) and an
//! order-sensitive unblocked pair UDF (CrossProduct).

use bigdansing::{
    BigDansing, BlockKey, CleanseOptions, DedupRule, DeltaBatch, DetectUnit, Fix, Rule, Session,
    Tuple, UdfRule, UnitKind, Violation,
};
use bigdansing_common::{Schema, Table, Value};
use bigdansing_rules::FdRule;
use std::sync::Arc;

mod support;

use support::apply_batch_to_table;

fn tax_table() -> Table {
    // zipcode,city,salary,rate — seeded with an FD violation (rows 0/1)
    // and a DC-style inequality violation (rows 2/3: higher salary,
    // lower rate).
    Table::from_rows(
        "tax",
        Schema::parse("zipcode,city,salary,rate"),
        vec![
            vec![
                Value::Int(90210),
                Value::str("LA"),
                Value::Int(3000),
                Value::Int(10),
            ],
            vec![
                Value::Int(90210),
                Value::str("SF"),
                Value::Int(4000),
                Value::Int(15),
            ],
            vec![
                Value::Int(10001),
                Value::str("NY"),
                Value::Int(5000),
                Value::Int(20),
            ],
            vec![
                Value::Int(10001),
                Value::str("NY"),
                Value::Int(6000),
                Value::Int(18),
            ],
            vec![
                Value::Int(60601),
                Value::str("CH"),
                Value::Int(2000),
                Value::Int(8),
            ],
        ],
    )
}

fn row(zip: i64, city: &str, salary: i64, rate: i64) -> Vec<Value> {
    vec![
        Value::Int(zip),
        Value::str(city),
        Value::Int(salary),
        Value::Int(rate),
    ]
}

/// Canonical multiset rendering of `(violation, fixes)` pairs, so store
/// snapshots (insertion order) compare against detect output (plan
/// order).
fn canon(detected: &[(bigdansing::Violation, Vec<bigdansing::Fix>)]) -> Vec<String> {
    let mut out: Vec<String> = detected
        .iter()
        .map(|(v, fixes)| format!("{v:?} | {fixes:?}"))
        .collect();
    out.sort();
    out
}

fn rows_of(table: &Table) -> Vec<String> {
    table.tuples().iter().map(|t| format!("{t:?}")).collect()
}

/// Drive `batches` through a session and, in lockstep, through the
/// from-scratch oracle; assert byte-identical tables and violation
/// stores after every batch.
fn assert_oracle_parity(sys: &BigDansing, base: &Table, batches: Vec<DeltaBatch>) {
    let options = CleanseOptions::default();
    let mut session: Session = sys.open_session(base, options.clone()).unwrap();

    // The store right after open must equal a full detect on the base.
    let full = sys.detect(base).unwrap();
    assert_eq!(
        canon(&session.detected()),
        canon(&full.detected),
        "initial store differs from full detect"
    );

    let mut current = base.clone();
    for (i, batch) in batches.into_iter().enumerate() {
        current = apply_batch_to_table(&current, &batch).unwrap();
        let report = sys.apply_delta(&mut session, batch).unwrap();
        let oracle = sys.cleanse(&current, options.clone()).unwrap();

        assert_eq!(
            rows_of(session.table()),
            rows_of(&oracle.table),
            "batch {i}: repaired table differs from full recompute"
        );
        let residue = sys.detect(&oracle.table).unwrap();
        assert_eq!(
            canon(&session.detected()),
            canon(&residue.detected),
            "batch {i}: violation store differs from full recompute"
        );
        assert_eq!(
            report.converged, oracle.converged,
            "batch {i}: convergence verdict differs"
        );
        assert_eq!(
            report.violations_remaining,
            residue.violation_count(),
            "batch {i}: remaining-violation count differs"
        );
        current = oracle.table;
    }
}

fn mixed_batches() -> Vec<DeltaBatch> {
    vec![
        // inserts: one joins an existing block and conflicts, one is new
        DeltaBatch::new()
            .insert(10, row(90210, "LB", 3500, 12))
            .insert(11, row(77001, "HO", 1000, 5)),
        // update re-blocks a tuple; delete retracts its violations
        DeltaBatch::new()
            .update(2, row(60601, "CH", 5000, 20))
            .delete(3),
        // delete + reinsert same id (moves to end), plus a clean no-op-ish update
        DeltaBatch::new()
            .delete(0)
            .insert(0, row(10001, "NY", 900, 4))
            .update(4, row(60601, "CH", 2000, 8)),
        // empty batch: nothing dirty, repair skippable
        DeltaBatch::new(),
        // delete + reinsert same id staying in the SAME block with a new
        // city (regression: the dead version must leave the block index
        // even though the id's seq changed mid-batch) ...
        DeltaBatch::new()
            .delete(4)
            .insert(4, row(60601, "XY", 2100, 9)),
        // ... a later delta into that block pairs only with live rows ...
        DeltaBatch::new().insert(12, row(60601, "XY", 50, 2)),
        // ... and deleting the reborn row then inserting again must not
        // resurrect its dead version as a phantom partner
        DeltaBatch::new().delete(4),
        DeltaBatch::new().insert(13, row(60601, "QQ", 75, 3)),
    ]
}

#[test]
fn fd_session_matches_full_recompute() {
    let base = tax_table();
    let mut sys = BigDansing::parallel(2);
    sys.add_fd("zipcode -> city", base.schema()).unwrap();
    assert_oracle_parity(&sys, &base, mixed_batches());
}

#[test]
fn cfd_session_matches_full_recompute() {
    let base = tax_table();
    let mut sys = BigDansing::parallel(2);
    sys.add_cfd("zipcode -> city | zipcode=10001, city=NY", base.schema())
        .unwrap();
    assert_oracle_parity(&sys, &base, mixed_batches());
}

#[test]
fn dc_inequality_session_matches_full_recompute() {
    let base = tax_table();
    let mut sys = BigDansing::parallel(2);
    // φ2 from the paper: no one earns more yet pays a lower rate.
    sys.add_dc("t1.salary > t2.salary & t1.rate < t2.rate", base.schema())
        .unwrap();
    assert_oracle_parity(&sys, &base, mixed_batches());
}

#[test]
fn dedup_udf_session_matches_full_recompute() {
    let base = Table::from_rows(
        "addr",
        Schema::parse("name,city"),
        vec![
            vec![Value::str("Jones"), Value::str("LA")],
            vec![Value::str("Jonse"), Value::str("LA")],
            vec![Value::str("Smith"), Value::str("NY")],
            vec![Value::str("Brown"), Value::str("CH")],
        ],
    );
    let batches = vec![
        DeltaBatch::new().insert(7, vec![Value::str("Smyth"), Value::str("NY")]),
        DeltaBatch::new()
            .update(3, vec![Value::str("Jomes"), Value::str("LA")])
            .delete(1),
        DeltaBatch::new().delete(7),
    ];

    // Blocked (prefix key → BlockPairs strategy).
    let mut blocked = BigDansing::parallel(2);
    blocked.add_rule(Arc::new(DedupRule::new("udf:dedup", 0, 0.8)));
    assert_oracle_parity(&blocked, &base, batches.clone());

    // Unblocked (no key → UCrossProduct strategy).
    let mut unblocked = BigDansing::parallel(2);
    unblocked.add_rule(Arc::new(
        DedupRule::new("udf:dedup", 0, 0.8).with_block_prefix(0),
    ));
    assert_oracle_parity(&unblocked, &base, batches);
}

/// `zipcode -> city` as a whole-block list UDF (BlockList): every row
/// is compared against its block's *first* row, so the detections
/// depend on the session keeping buckets in table order.
#[test]
fn list_udf_session_matches_full_recompute() {
    let mut sys = BigDansing::parallel(2);
    sys.add_rule(Arc::new(support::list_udf()));
    assert_oracle_parity(&sys, &tax_table(), mixed_batches());
}

/// An order-sensitive unblocked pair UDF (CrossProduct): each city
/// conflict is caught in exactly one of the two orientations — and only
/// if both are enumerated.
#[test]
fn asymmetric_pair_udf_session_matches_full_recompute() {
    let mut sys = BigDansing::parallel(2);
    sys.add_rule(Arc::new(support::ordered_pair_udf()));
    assert_oracle_parity(&sys, &tax_table(), mixed_batches());
}

#[test]
fn multi_rule_session_matches_full_recompute() {
    let base = tax_table();
    let mut sys = BigDansing::parallel(2);
    sys.add_fd("zipcode -> city", base.schema()).unwrap();
    sys.add_dc("t1.salary > t2.salary & t1.rate < t2.rate", base.schema())
        .unwrap();
    assert_oracle_parity(&sys, &base, mixed_batches());
}

/// A session counts what an apply reprocessed once: with a single-unit
/// UDF, two FDs sharing one Block index and an inequality DC, the
/// engine's `tuples_reprocessed` and `blocks_dirty` grow by exactly what
/// the apply reports say.
#[test]
fn engine_counters_sum_the_delta_reports() {
    let base = tax_table();
    let low_rate = UdfRule::builder("udf:low-rate", |unit| {
        let DetectUnit::Single(t) = unit else {
            panic!("single-unit rule fed {unit:?}");
        };
        if t.value(3) < &Value::Int(5) {
            vec![Violation::new("udf:low-rate").with_cell(t.cell(3), t.value(3).clone())]
        } else {
            Vec::new()
        }
    })
    .unit_kind(UnitKind::Single)
    .build();
    let mut sys = BigDansing::parallel(2);
    sys.add_rule(Arc::new(low_rate));
    sys.add_fd("zipcode -> city", base.schema()).unwrap();
    sys.add_fd("zipcode -> rate", base.schema()).unwrap();
    sys.add_dc("t1.salary > t2.salary & t1.rate < t2.rate", base.schema())
        .unwrap();
    let mut session = sys.open_session(&base, CleanseOptions::default()).unwrap();
    let counters = || {
        let m = sys.engine().metrics().snapshot();
        (m.tuples_reprocessed, m.blocks_dirty)
    };
    let before = counters();
    let mut reported = (0, 0);
    for batch in mixed_batches() {
        let report = sys.apply_delta(&mut session, batch).unwrap();
        reported.0 += report.tuples_reprocessed;
        reported.1 += report.blocks_dirty;
    }
    let after = counters();
    assert!(reported.0 > 0 && reported.1 > 0, "{reported:?}");
    assert_eq!((after.0 - before.0, after.1 - before.1), reported);
}

/// An FD that proposes no fixes: its violations stand until one of
/// their rows changes.
struct Unfixable(FdRule);

impl Rule for Unfixable {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        self.0.scope(unit)
    }
    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        self.0.block(unit)
    }
    fn blocks(&self) -> bool {
        true
    }
    fn block_columns(&self) -> Option<&[usize]> {
        self.0.block_columns()
    }
    fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
        self.0.detect(input)
    }
    fn gen_fix(&self, _: &Violation) -> Vec<Fix> {
        Vec::new()
    }
}

/// Rules blocking on `zipcode` share one session index: FDs, one of
/// them unfixable, a variable CFD whose Scope drops every row outside
/// its pattern, and an order-sensitive equality DC, each scoping the
/// shared buckets itself. The first batch joins zipcode 10001, whose
/// two rows break the unfixable FD — a standing violation that a delta
/// must not enumerate again.
#[test]
fn shared_block_key_session_matches_full_recompute() {
    let base = tax_table();
    let schema = base.schema();
    let mut sys = BigDansing::parallel(2);
    sys.add_fd("zipcode -> city", schema).unwrap();
    let salary = FdRule::parse("zipcode -> salary", schema).unwrap();
    sys.add_rule(Arc::new(Unfixable(salary)));
    sys.add_dc("t1.salary > t2.salary & t1.rate < t2.rate", schema)
        .unwrap();
    sys.add_cfd("zipcode -> city | zipcode=60601, city=_", schema)
        .unwrap();
    sys.add_fd("zipcode -> rate", schema).unwrap();
    sys.add_dc(
        "t1.zipcode = t2.zipcode & t1.salary > t2.salary & t1.rate < t2.rate",
        schema,
    )
    .unwrap();
    let mut batches = vec![DeltaBatch::new().insert(20, row(10001, "NY", 1000, 30))];
    batches.extend(mixed_batches());
    assert_oracle_parity(&sys, &base, batches);
}

#[test]
fn bench_style_win_on_small_delta() {
    // What `delta_durable`'s `incremental.reprocessed_per_op` reads, at
    // sanity scale: a tiny delta over a wide table must reprocess a
    // small fraction of tuples.
    let n = 2_000i64;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| row(i % 500, &format!("c{}", i % 500), 1000 + i, 10))
        .collect();
    let base = Table::from_rows("tax", Schema::parse("zipcode,city,salary,rate"), rows);
    let mut sys = BigDansing::parallel(2);
    sys.add_fd("zipcode -> city", base.schema()).unwrap();
    let mut session = sys.open_session(&base, CleanseOptions::default()).unwrap();
    let batch = DeltaBatch::new()
        .update(17, row(17, "dirty", 1017, 10))
        .insert(5_000, row(400, "c400", 1, 1));
    let report = sys.apply_delta(&mut session, batch).unwrap();
    assert!(
        report.tuples_reprocessed < (n as u64) / 10,
        "expected <10% of tuples reprocessed, got {} of {n}",
        report.tuples_reprocessed
    );
    assert!(report.converged);
}

// ---------------------------------------------------------------------
// In-place apply: random — often invalid — batches over a small id space
// ---------------------------------------------------------------------

mod in_place_apply {
    use super::{apply_batch_to_table, canon, rows_of};
    use bigdansing::{BigDansing, CleanseOptions, DeltaBatch, Session, Table, Tuple, WindowSpec};
    use bigdansing_common::rng::{self, SplitMix64};
    use bigdansing_common::{Schema, Value};
    use std::collections::HashMap;

    const IDS: u64 = 8;

    /// `(kind, id, a, b)` with kind 0 insert, 1 update, 2 delete. Kinds
    /// 0–2 take the id raw from `0..IDS`, so a batch may insert a live
    /// id, update or delete a dead one, delete and reinsert an id, insert
    /// and then delete one, update a row it inserted, or hold deletes
    /// only — and is often invalid. Kinds 3–5 are the same three ops with
    /// the id steered to keep the batch valid ([`steer`]), so long valid
    /// batches of those shapes are common too.
    type Op = (u8, u64, i64, i64);

    /// Map kinds 3–5 onto 0–2, choosing the id against `live` as the ops
    /// so far leave it: insert the first dead id, update or delete the
    /// `id`-th live one.
    fn steer(ops: &[Op], mut live: Vec<u64>) -> Vec<Op> {
        let mut out = Vec::with_capacity(ops.len());
        for &(kind, id, a, b) in ops {
            let pick = |live: &[u64]| live.get(id as usize % live.len().max(1)).copied();
            let (kind, id) = match kind {
                3 => (0, (0..IDS).find(|i| !live.contains(i)).unwrap_or(id)),
                4 | 5 => (kind - 3, pick(&live).unwrap_or(id)),
                raw => (raw, id),
            };
            match kind {
                0 if !live.contains(&id) => live.push(id),
                2 => live.retain(|l| *l != id),
                _ => {}
            }
            out.push((kind, id, a, b));
        }
        out
    }

    fn batch_of(ops: &[Op]) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for &(kind, id, a, b) in ops {
            let values = vec![Value::Int(a), Value::Int(b)];
            batch = match kind {
                0 => batch.insert(id, values),
                1 => batch.update(id, values),
                _ => batch.delete(id),
            };
        }
        batch
    }

    fn system(schema: &Schema) -> BigDansing {
        let mut sys = BigDansing::sequential();
        sys.add_fd("a -> b", schema).unwrap();
        sys
    }

    /// The test's own model of a windowed session's event times.
    struct Clock {
        spec: WindowSpec,
        next: u64,
        times: HashMap<u64, u64>,
    }

    impl Clock {
        fn arrive(&mut self, ops: &[Op]) {
            for &(kind, id, ..) in ops {
                if kind < 2 {
                    self.times.insert(id, self.next);
                    self.next += 1;
                } else {
                    self.times.remove(&id);
                }
            }
        }

        /// Drop the rows whose last window closed, from the model and
        /// from `table`.
        fn expire(&mut self, table: &Table) -> Table {
            if let Some(watermark) = self.next.checked_sub(1) {
                let spec = self.spec;
                self.times.retain(|_, ts| !spec.expired(*ts, watermark));
            }
            let live = table
                .tuples()
                .iter()
                .filter(|t| self.times.contains_key(&t.id()));
            Table::new(
                table.name(),
                table.schema().clone(),
                live.cloned().collect(),
            )
        }
    }

    /// What a from-scratch session makes of `table`: its repaired rows
    /// and residual violations.
    fn from_scratch(sys: &BigDansing, table: &Table) -> (Vec<String>, Vec<String>) {
        let mut fresh: Session = sys.open_session(table, CleanseOptions::default()).unwrap();
        sys.apply_delta(&mut fresh, DeltaBatch::new()).unwrap();
        (rows_of(fresh.table()), canon(&fresh.detected()))
    }

    fn check(rows: Vec<(i64, i64)>, batches: Vec<Vec<Op>>, window: Option<WindowSpec>) {
        let schema = Schema::parse("a,b");
        let tuples = rows.iter().enumerate();
        let base = Table::new(
            "t",
            schema.clone(),
            tuples
                .map(|(i, (a, b))| Tuple::new(i as u64, vec![Value::Int(*a), Value::Int(*b)]))
                .collect(),
        );
        let sys = system(&schema);
        let options = CleanseOptions {
            window,
            ..CleanseOptions::default()
        };
        let mut session = sys.open_session(&base, options).unwrap();
        let mut clock = window.map(|spec| Clock {
            spec,
            next: base.len() as u64,
            times: (0..base.len() as u64).map(|i| (i, i)).collect(),
        });
        if let Some(clock) = &mut clock {
            assert_eq!(rows_of(session.table()), rows_of(&clock.expire(&base)));
        }
        for ops in batches {
            let ops = steer(
                &ops,
                session.table().tuples().iter().map(Tuple::id).collect(),
            );
            let batch = batch_of(&ops);
            let before = (rows_of(session.table()), canon(&session.detected()));
            match apply_batch_to_table(session.table(), &batch) {
                Err(e) => {
                    let got = sys.apply_delta(&mut session, batch).unwrap_err();
                    assert_eq!(got.to_string(), e.to_string(), "{ops:?}");
                    assert!(!session.is_poisoned());
                    let after = (rows_of(session.table()), canon(&session.detected()));
                    assert_eq!(
                        after, before,
                        "a rejected batch mutated the session: {ops:?}"
                    );
                }
                Ok(mut materialized) => {
                    if let Some(clock) = &mut clock {
                        clock.arrive(&ops);
                        materialized = clock.expire(&materialized);
                    }
                    sys.apply_delta(&mut session, batch).unwrap();
                    let after = (rows_of(session.table()), canon(&session.detected()));
                    assert_eq!(after, from_scratch(&sys, &materialized), "{ops:?}");
                    if let Some(clock) = &clock {
                        assert_eq!(session.window_live(), Some(clock.times.len()));
                        for (id, ts) in &clock.times {
                            assert_eq!(session.event_time(*id), Some(*ts));
                        }
                    }
                }
            }
        }
    }

    /// 0–5 base rows over `0..3 × 0..3`.
    fn arb_rows(g: &mut SplitMix64) -> Vec<(i64, i64)> {
        (0..g.range(0..6))
            .map(|_| (g.range(0..3), g.range(0..3)))
            .collect()
    }

    /// 1–9 batches of 0–5 ops, each `(0..6, 0..IDS, 0..3, 0..3)`.
    fn arb_batches(g: &mut SplitMix64) -> Vec<Vec<Op>> {
        let op =
            |g: &mut SplitMix64| (g.range(0..6), g.range(0..IDS), g.range(0..3), g.range(0..3));
        (0..g.range(1..10))
            .map(|_| (0..g.range(0..6)).map(|_| op(g)).collect())
            .collect()
    }

    #[test]
    fn session_equals_oracle_on_random_batches() {
        rng::check(48, |g| check(arb_rows(g), arb_batches(g), None));
    }

    #[test]
    fn windowed_session_equals_oracle_on_random_batches() {
        rng::check(48, |g| {
            let (rows, batches) = (arb_rows(g), arb_batches(g));
            let (size, slide) = (g.range(2u64..7), g.range(1u64..7));
            let spec = WindowSpec::sliding(size, slide.min(size)).unwrap();
            check(rows, batches, Some(spec));
        });
    }

    /// The shapes the property is after, pinned so they run under any
    /// generator: delete→reinsert, insert→delete and update-after-insert
    /// inside one batch, a delete-only batch, and each way to be invalid.
    #[test]
    fn pinned_op_order_shapes() {
        let rows = vec![(1, 1), (1, 2), (2, 0)];
        let batches = vec![
            vec![(2, 0, 0, 0), (0, 0, 1, 2)], // delete → reinsert
            vec![(0, 5, 1, 0), (2, 5, 0, 0)], // insert → delete
            vec![(0, 6, 2, 1), (1, 6, 2, 2)], // update after insert
            vec![(2, 1, 0, 0), (2, 2, 0, 0)], // deletes only
            vec![(0, 7, 1, 1), (0, 0, 1, 1)], // insert of a live id
            vec![(1, 4, 1, 1)],               // update of a dead id
            vec![(2, 6, 0, 0), (2, 6, 0, 0)], // delete twice
            vec![(1, 7, 0, 0), (0, 7, 0, 0)], // update before its insert
            vec![(2, 0, 0, 0), (1, 0, 1, 1)], // update after its delete
        ];
        check(rows.clone(), batches.clone(), None);
        check(rows, batches, WindowSpec::sliding(4, 2).ok());
    }
}

// ---------------------------------------------------------------------
// The oracle itself: op order, positions and conflicts
// ---------------------------------------------------------------------

fn two_rows() -> Table {
    Table::from_rows(
        "t",
        Schema::parse("zipcode,city"),
        vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ],
    )
}

#[test]
fn materialize_preserves_order() {
    let t = two_rows();
    let batch = DeltaBatch::new()
        .update(0, vec![Value::Int(1), Value::str("SF")])
        .delete(1)
        .insert(7, vec![Value::Int(3), Value::str("CH")]);
    let out = apply_batch_to_table(&t, &batch).unwrap();
    let ids: Vec<_> = out.tuples().iter().map(Tuple::id).collect();
    assert_eq!(ids, vec![0, 7]);
    assert_eq!(out.tuple(0).unwrap().value(1), &Value::str("SF"));
}

#[test]
fn delete_then_reinsert_moves_to_end() {
    let t = two_rows();
    let batch = DeltaBatch::new()
        .delete(0)
        .insert(0, vec![Value::Int(9), Value::str("XX")]);
    let out = apply_batch_to_table(&t, &batch).unwrap();
    let ids: Vec<_> = out.tuples().iter().map(Tuple::id).collect();
    assert_eq!(ids, vec![1, 0]);
}

#[test]
fn materialize_rejects_conflicts() {
    let t = two_rows();
    assert!(
        apply_batch_to_table(&t, &DeltaBatch::new().insert(0, vec![])).is_err(),
        "insert of existing id"
    );
    assert!(apply_batch_to_table(
        &t,
        &DeltaBatch::new().update(9, vec![Value::Int(1), Value::str("a")])
    )
    .is_err());
    assert!(apply_batch_to_table(&t, &DeltaBatch::new().delete(9)).is_err());
}
