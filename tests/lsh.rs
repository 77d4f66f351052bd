//! MinHash/LSH blocking invariants, end to end:
//!
//! * **Determinism** — signatures and band hashes are pure functions of
//!   the input string and geometry (seeded `StableHasher`, no process
//!   state), so every engine shape — and every chaos seed, when this
//!   suite runs in the chaos matrix — enumerates the identical
//!   candidate set and detects the identical violations.
//! * **Single-shot pairs** — a pair colliding in several bands is
//!   compared exactly once (first shared band), so no violation is ever
//!   reported twice, and LSH detections are always a subset of the
//!   exact all-pairs detections.
//! * **Batch ↔ incremental parity** — a session over an LSH-blocked
//!   dedup rule stays byte-identical to a from-scratch cleanse after
//!   every delta batch, including after a durable snapshot + recover.

use bigdansing::{
    apply_batch_to_table, BigDansing, CleanseOptions, DedupRule, DeltaBatch, DurabilityOptions,
    LshParams, Session,
};
use bigdansing_common::minhash::{band_hashes, compute_minhash_signature};
use bigdansing_common::rng::{check, SplitMix64};
use bigdansing_common::{Schema, Table, Value};
use std::sync::Arc;

fn name_table(names: &[&str]) -> Table {
    Table::from_rows(
        "addr",
        Schema::parse("name,city"),
        names
            .iter()
            .map(|n| vec![Value::str(*n), Value::str("LA")])
            .collect(),
    )
}

fn lsh_rule(threshold: f64) -> Arc<DedupRule> {
    Arc::new(DedupRule::new("udf:dedup", 0, threshold).with_lsh(LshParams::default()))
}

/// Canonical multiset rendering of `(violation, fixes)` pairs (same
/// helper as tests/incremental.rs).
fn canon(detected: &[(bigdansing::Violation, Vec<bigdansing::Fix>)]) -> Vec<String> {
    let mut out: Vec<String> = detected
        .iter()
        .map(|(v, fixes)| format!("{v:?} | {fixes:?}"))
        .collect();
    out.sort();
    out
}

#[test]
fn signatures_and_band_hashes_are_pure_functions() {
    let p = LshParams::default();
    for s in ["Karlsruhe", "karlsruhe", "Sao Paulo", "ab", ""] {
        let sig = compute_minhash_signature(s, p.num_hashes(), p.shingle);
        assert_eq!(
            sig,
            compute_minhash_signature(s, p.num_hashes(), p.shingle),
            "signature of {s:?} not reproducible"
        );
        assert_eq!(
            band_hashes(s, &p),
            band_hashes(s, &p),
            "band hashes of {s:?} not reproducible"
        );
    }
    // case folding happens before shingling
    assert_eq!(
        compute_minhash_signature("Karlsruhe", p.num_hashes(), p.shingle),
        compute_minhash_signature("KARLSRUHE", p.num_hashes(), p.shingle),
    );
}

/// Every engine shape must enumerate the identical candidate set and
/// detect the identical violations: the hashing is seeded and
/// platform-pinned, so parallelism (and, in the chaos matrix, injected
/// faults) must not change the answer.
#[test]
fn detection_is_identical_across_engine_shapes() {
    let table = name_table(&[
        "Jones", "Jonse", "Jomes", "Smith", "Smyth", "Brown", "Braun", "Jones",
    ]);
    let rule = lsh_rule(0.6);
    let mut answers = Vec::new();
    for sys in [
        BigDansing::sequential(),
        BigDansing::parallel(2),
        BigDansing::parallel(4),
    ] {
        let mut sys = sys;
        sys.add_rule(rule.clone());
        let out = sys.detect(&table).unwrap();
        let pairs = sys.engine().metrics().snapshot().lsh_candidate_pairs;
        answers.push((canon(&out.detected), pairs));
    }
    assert!(!answers[0].0.is_empty(), "workload must detect something");
    assert_eq!(answers[0], answers[1], "sequential vs 2-worker diverged");
    assert_eq!(answers[1], answers[2], "2-worker vs 4-worker diverged");
}

/// Signatures are pinned across runs, platforms, and processes: these
/// golden values were produced by the seeded `StableHasher` pipeline
/// and must never drift, or persisted sessions would rebuild different
/// band indexes than the runs that wrote them.
#[test]
fn signature_golden_values_are_stable() {
    let sig = compute_minhash_signature("jones", 4, 2);
    assert_eq!(sig, vec![GOLDEN[0], GOLDEN[1], GOLDEN[2], GOLDEN[3]]);
}

const GOLDEN: [u64; 4] = [
    6906393277733396176,
    5713052120244571766,
    376723305296035101,
    1958295583924779440,
];

/// A pair sharing several bands is compared exactly once: no
/// violation is ever emitted twice, and the LSH-detected set is a
/// subset of the exact all-pairs (UCrossProduct) detections.
#[test]
fn cross_band_dedup_never_double_detects() {
    check(32, |g| {
        // 2–9 names, each a `[ab]{0,5}` string
        let names: Vec<String> = (0..g.range(2..10))
            .map(|_| {
                (0..g.range(0..=5))
                    .map(|_| ['a', 'b'][g.range(0..2usize)])
                    .collect()
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let table = name_table(&refs);

        // maximally collision-prone geometry: 1 row per band makes
        // similar strings share *many* bands
        let mut lsh_sys = BigDansing::parallel(2);
        lsh_sys.add_rule(Arc::new(DedupRule::new("udf:dedup", 0, 0.5).with_lsh(
            LshParams {
                bands: 16,
                rows_per_band: 1,
                shingle: 2,
            },
        )));
        let lsh = canon(&lsh_sys.detect(&table).unwrap().detected);
        for w in lsh.windows(2) {
            assert_ne!(&w[0], &w[1], "pair detected twice");
        }

        // exact oracle: the same rule with all-pairs enumeration
        let mut exact_sys = BigDansing::parallel(2);
        exact_sys.add_rule(Arc::new(
            DedupRule::new("udf:dedup", 0, 0.5).with_block_prefix(0),
        ));
        let exact = canon(&exact_sys.detect(&table).unwrap().detected);
        for v in &lsh {
            assert!(exact.contains(v), "LSH invented a violation: {}", v);
        }
    });
}

/// LSH candidate generation is probabilistic, not lossless: under the
/// default geometry it must still recover at least 95% of what exact
/// all-pairs comparison finds at the 0.85 threshold — and, being a
/// filter in front of the same predicate, never anything else.
///
/// The table is 100 clusters over 800 rows: a 12-letter base string
/// drawn from `a..=w` by a splitmix64 of the cluster id, plus three
/// variants with one letter replaced by the reserved `x`, every value
/// appearing twice. True pairs are the equal values and base↔variant
/// (edit distance 1); variant↔variant (distance 2) and cross-cluster
/// pairs fall below the threshold.
#[test]
fn default_geometry_recovers_95_percent_of_the_exact_pairs() {
    let mut values = Vec::new();
    for c in 0..100u64 {
        let base: Vec<u8> = (0..12)
            .map(|p| b'a' + (SplitMix64::new((c << 8) | p).next_u64() % 23) as u8)
            .collect();
        for pos in [0, 5, 9] {
            let mut v = base.clone();
            v[pos] = b'x';
            values.push(String::from_utf8(v).unwrap());
        }
        values.push(String::from_utf8(base).unwrap());
    }
    let names: Vec<&str> = (0..800)
        .map(|i| values[i % values.len()].as_str())
        .collect();
    let table = name_table(&names);

    let detect = |rule: DedupRule| {
        let mut sys = BigDansing::parallel(2);
        sys.add_rule(Arc::new(rule));
        canon(&sys.detect(&table).unwrap().detected)
    };
    let lsh = detect(DedupRule::new("udf:dedup", 0, 0.85).with_lsh(LshParams::default()));
    let exact = detect(DedupRule::new("udf:dedup", 0, 0.85).with_block_prefix(0));
    // 400 equal-value pairs + 3 base↔variant value pairs × 2 × 2 rows per cluster
    assert_eq!(exact.len(), 400 + 100 * 12);
    for v in &lsh {
        assert!(
            exact.binary_search(v).is_ok(),
            "LSH invented a violation: {v}"
        );
    }
    let recall = lsh.len() as f64 / exact.len() as f64;
    assert!(recall >= 0.95, "recall {recall:.4} below the 0.95 gate");
}

/// Drive batches through an LSH-blocked session and, in lockstep,
/// through the from-scratch oracle (the tests/incremental.rs pattern).
fn assert_oracle_parity(sys: &BigDansing, base: &Table, batches: Vec<DeltaBatch>) {
    let options = CleanseOptions::default();
    let mut session: Session = sys.open_session(base, options.clone()).unwrap();
    let full = sys.detect(base).unwrap();
    assert_eq!(
        canon(&session.detected()),
        canon(&full.detected),
        "initial store differs from full detect"
    );
    let mut current = base.clone();
    for (i, batch) in batches.into_iter().enumerate() {
        current = apply_batch_to_table(&current, &batch).unwrap();
        sys.apply_delta(&mut session, batch).unwrap();
        let oracle = sys.cleanse(&current, options.clone()).unwrap();
        assert_eq!(
            format!("{:?}", session.table().tuples()),
            format!("{:?}", oracle.table.tuples()),
            "batch {i}: repaired table differs from full recompute"
        );
        let residue = sys.detect(&oracle.table).unwrap();
        assert_eq!(
            canon(&session.detected()),
            canon(&residue.detected),
            "batch {i}: violation store differs from full recompute"
        );
        current = oracle.table;
    }
}

fn lsh_batches() -> Vec<DeltaBatch> {
    vec![
        // insert a near-duplicate of an existing name and a stranger
        DeltaBatch::new()
            .insert(10, vec![Value::str("Jonez"), Value::str("LA")])
            .insert(11, vec![Value::str("Zebra"), Value::str("NY")]),
        // update re-banding a tuple; delete retracts its violations
        DeltaBatch::new()
            .update(2, vec![Value::str("Smith"), Value::str("NY")])
            .delete(1),
        // delete + reinsert the same id as a different near-duplicate
        DeltaBatch::new()
            .delete(0)
            .insert(0, vec![Value::str("Smyth"), Value::str("NY")]),
        DeltaBatch::new(),
        DeltaBatch::new().delete(10),
    ]
}

#[test]
fn lsh_session_matches_full_recompute() {
    let base = name_table(&["Jones", "Jonse", "Jomes", "Smith", "Brown"]);
    let mut sys = BigDansing::parallel(2);
    sys.add_rule(lsh_rule(0.8));
    assert_oracle_parity(&sys, &base, lsh_batches());
}

/// The LSH band index is rebuilt deterministically from a durable
/// snapshot: a recovered session must continue byte-identical to an
/// uninterrupted one (and so to the from-scratch oracle).
#[test]
fn durable_lsh_session_survives_snapshot_and_recover() {
    let root = std::env::temp_dir().join(format!("bd-lsh-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let base = name_table(&["Jones", "Jonse", "Jomes", "Smith", "Brown"]);
    let system = || {
        let mut sys = BigDansing::parallel(2);
        sys.add_rule(lsh_rule(0.8));
        sys
    };
    let batches = lsh_batches();
    let (head, tail) = batches.split_at(2);

    // durable session: apply the head, snapshot every batch, drop
    let sys = system();
    let mut s = sys
        .open_durable_session(
            &base,
            CleanseOptions::default(),
            DurabilityOptions::new(&root).snapshot_every(1),
        )
        .unwrap();
    for b in head {
        sys.apply_delta(&mut s, b.clone()).unwrap();
    }
    drop(s);

    // recover and keep going with the tail
    let rec_sys = system();
    let (mut recovered, _) = rec_sys
        .recover_session(CleanseOptions::default(), DurabilityOptions::new(&root))
        .unwrap();
    for b in tail {
        rec_sys.apply_delta(&mut recovered, b.clone()).unwrap();
    }

    // uninterrupted oracle session over the same batches
    let oracle_sys = system();
    let mut oracle = oracle_sys
        .open_session(&base, CleanseOptions::default())
        .unwrap();
    for b in &batches {
        oracle_sys.apply_delta(&mut oracle, b.clone()).unwrap();
    }

    assert_eq!(
        format!("{:?}", recovered.table().tuples()),
        format!("{:?}", oracle.table().tuples()),
        "recovered table diverged from the uninterrupted session"
    );
    assert_eq!(
        canon(&recovered.detected()),
        canon(&oracle.detected()),
        "recovered violation store diverged from the uninterrupted session"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The banding geometry a rule declares is the one its Block runs with,
/// in a batch detect and in a session alike: a 4-band, 2-row rule reads
/// the candidate, pruned and band-bucket counts pinned for it.
#[test]
fn a_rules_own_geometry_sets_its_candidates() {
    use bigdansing_datagen::customer::{attr::NAME, customer1};
    let (table, _) = customer1(200, 7);
    let geometry = LshParams {
        bands: 4,
        rows_per_band: 2,
        ..LshParams::default()
    };
    let system = || {
        let mut sys = BigDansing::parallel(2);
        sys.add_rule(Arc::new(
            DedupRule::new("udf:dedup", NAME, 0.85).with_lsh(geometry),
        ));
        sys
    };
    let counts = |sys: &BigDansing| {
        let m = sys.engine().metrics().snapshot();
        (
            m.lsh_candidate_pairs,
            m.lsh_pairs_pruned,
            m.lsh_bands_probed,
        )
    };

    let batch = system();
    batch.detect(&table).unwrap();
    assert_eq!(counts(&batch), (10146, 4902, 370), "batch detect");

    // a session over all but the last 30 rows, which then arrive as
    // inserts: its open and its apply both band by the rule's geometry
    let (rows, last) = table.tuples().split_at(table.len() - 30);
    let base = Table::new("customer1", table.schema().clone(), rows.to_vec());
    let inserts = last
        .iter()
        .fold(DeltaBatch::new(), |b, t| b.insert(t.id(), t.to_values()));
    let session = system();
    let mut s = session
        .open_session(&base, CleanseOptions::default())
        .unwrap();
    session.apply_delta(&mut s, inserts).unwrap();
    assert_eq!(
        counts(&session),
        (11238, 5493, 500),
        "session open and apply"
    );
}
