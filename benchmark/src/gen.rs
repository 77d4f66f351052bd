//! Seeded input generator. Every input of every workload comes from
//! here, from `--seed` alone (splitmix64, no `rand`), and the generator
//! keeps the clean copy of what it dirties as ground truth for
//! `quality_f1`.
//!
//! `datagen` is deliberately not used: its 2,000-zip pool makes block
//! size grow with the row count, so a bigger table would measure a
//! different workload instead of more of the same one.

use std::collections::HashMap;
use std::fmt::Write as _;

/// splitmix64: one `u64` of state, passes BigCrush, trivially seedable.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`, so adding a draw to
    /// one input never shifts another input's values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

// --- tax rows (clean_fd, clean_dc, delta_durable, serve_stream) ----------

/// Header of the six-column tax table.
pub const TAX_HEADER: &str = "name,zipcode,city,state,salary,rate";
/// Hot zips: a skewed head of big blocks beside the ~5-row regular ones.
pub const HOT_ZIPS: u64 = 20;
/// Share of rows landing in a hot zip, per mille: 300k rows put ~150
/// rows in each of the 20 hot zips.
const HOT_PER_MILLE: u64 = 10;
/// Mean rows per regular zip.
pub const ROWS_PER_ZIP: u64 = 5;
/// Ranks a DC error pulls `rate` down by: each error row violates the
/// DC against the ~40 rows ranked just below it, so violations stay
/// linear in rows.
pub const DC_DISPLACEMENT: i64 = 40;

/// Which cell of a row the generator garbled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Garble {
    None,
    City,
    State,
    Rate,
}

/// One tax row in compact form; both its clean and its dirty CSV line
/// derive from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaxRow {
    pub name: u64,
    pub zip: u64,
    /// Salary rank: `salary = 10_000 + 10·rank`, clean `rate = rank + 0.5`.
    pub rank: u64,
    pub garble: Garble,
}

impl TaxRow {
    /// Append the six fields (no newline); `dirty` picks the garbled
    /// rendering of the one cell `garble` names.
    pub fn write_line(&self, dirty: bool, out: &mut String) {
        let garble = if dirty { self.garble } else { Garble::None };
        let _ = write!(out, "p{},{},", self.name, 10_000 + self.zip);
        match garble {
            Garble::City => {
                let _ = write!(out, "garbled{}", self.name);
            }
            _ => {
                let _ = write!(out, "city{}", self.zip);
            }
        }
        match garble {
            Garble::State => {
                let _ = write!(out, ",zz{}", self.name);
            }
            _ => {
                let _ = write!(out, ",st{}", self.zip % 50);
            }
        }
        let _ = write!(out, ",{},", 10_000 + 10 * self.rank);
        // `.5` / `.25` keep every rate a float that prints as it parses
        match garble {
            Garble::Rate => {
                let _ = write!(out, "{}.25", self.rank as i64 - DC_DISPLACEMENT);
            }
            _ => {
                let _ = write!(out, "{}.5", self.rank);
            }
        }
    }

    /// The three fields of the serve schema `zipcode,city,state`.
    fn write_serve_line(&self, dirty: bool, out: &mut String) {
        let _ = write!(out, "{},", 10_000 + self.zip);
        if dirty && self.garble == Garble::City {
            let _ = write!(out, "garbled{}", self.name);
        } else {
            let _ = write!(out, "city{}", self.zip);
        }
        let _ = write!(out, ",st{}", self.zip % 50);
    }
}

/// Which errors [`tax_rows`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaxErrors {
    /// 2% of rows garble `city` or `state` (FD violations).
    Fd,
    /// 1% of rows displace `rate` by [`DC_DISPLACEMENT`] ranks.
    Dc,
}

fn draw_zip(rng: &mut Rng, regular_zips: u64) -> u64 {
    if rng.chance(HOT_PER_MILLE) {
        regular_zips + rng.below(HOT_ZIPS)
    } else {
        rng.below(regular_zips)
    }
}

/// `n` tax rows: about [`ROWS_PER_ZIP`] rows per regular zip plus the
/// hot head, salary ranks a permutation of `0..n`, errors as asked.
pub fn tax_rows(seed: u64, n: usize, errors: TaxErrors) -> Vec<TaxRow> {
    let mut rng = Rng::new(seed, 1);
    let regular_zips = (n as u64 / ROWS_PER_ZIP).max(1);
    let mut ranks: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        ranks.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..n)
        .map(|i| {
            let zip = draw_zip(&mut rng, regular_zips);
            let garble = match errors {
                TaxErrors::Fd if rng.chance(20) => {
                    if rng.chance(500) {
                        Garble::City
                    } else {
                        Garble::State
                    }
                }
                TaxErrors::Dc if rng.chance(10) => Garble::Rate,
                _ => Garble::None,
            };
            TaxRow {
                name: i as u64,
                zip,
                rank: ranks[i],
                garble,
            }
        })
        .collect()
}

/// Render rows as a CSV file (header + one line per row).
pub fn tax_csv(rows: &[TaxRow], dirty: bool) -> String {
    let mut out = String::with_capacity(rows.len() * 48 + 40);
    out.push_str(TAX_HEADER);
    out.push('\n');
    for r in rows {
        r.write_line(dirty, &mut out);
        out.push('\n');
    }
    out
}

// --- dedup rows (clean_dedup) -------------------------------------------

/// Header of the dedup table.
pub const DEDUP_HEADER: &str = "name,address,phone";

/// The dedup table and its truth.
pub struct DedupData {
    /// CSV text, rows shuffled.
    pub csv: String,
    /// Entity id of each row, in file order: two rows are true
    /// duplicates iff their entity ids are equal.
    pub entity: Vec<u32>,
}

/// `n` rows in clusters of one base name plus one or two one-edit
/// variants, so every value has at least one partner. Names are 16–20
/// random letters: a one-edit pair sits at similarity ≥ 0.94 and two
/// variants of one base at ≥ 0.875, both above the 0.85 threshold,
/// while names of different entities share next to nothing.
pub fn dedup(seed: u64, n: usize) -> DedupData {
    let mut rng = Rng::new(seed, 2);
    let mut rows: Vec<(String, u32)> = Vec::with_capacity(n);
    let mut entity = 0u32;
    while rows.len() < n {
        let len = 16 + rng.below(5) as usize;
        let base: Vec<u8> = (0..len).map(|_| b'a' + rng.below(26) as u8).collect();
        let left = n - rows.len();
        // never leave a single trailing row: it would have no partner
        let size = match left {
            1..=3 => left,
            4 => 2,
            _ => 2 + rng.below(2) as usize,
        };
        for member in 0..size {
            let mut name = base.clone();
            if member > 0 {
                let at = rng.below(len as u64) as usize;
                name[at] = b'a' + ((name[at] - b'a') + 1 + rng.below(25) as u8) % 26;
            }
            rows.push((String::from_utf8(name).expect("ascii letters"), entity));
        }
        entity += 1;
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut csv = String::with_capacity(n * 48);
    csv.push_str(DEDUP_HEADER);
    csv.push('\n');
    for (i, (name, _)) in rows.iter().enumerate() {
        let _ = writeln!(csv, "{name},{} main st,555{:07}", 1 + rng.below(9_999), i);
    }
    DedupData {
        csv,
        entity: rows.into_iter().map(|(_, e)| e).collect(),
    }
}

// --- delta batches (delta_durable) --------------------------------------

/// Row operations per delta batch.
pub const DELTA_BATCH_OPS: usize = 64;

/// One row operation, as the truth model replays it.
#[derive(Clone, Copy, Debug)]
pub enum ModelOp {
    /// Insert or update: the row now reads `TaxRow`.
    Put(u64, TaxRow),
    Delete(u64),
}

/// A stream of delta batches against a base table.
pub struct DeltaStream {
    /// The base table's rows (ids are positions).
    pub base: Vec<TaxRow>,
    /// CSV text of each batch (`op,id,<six fields>`), what the timed
    /// operation parses.
    pub batches: Vec<String>,
    /// The same batches as model operations.
    pub ops: Vec<Vec<ModelOp>>,
}

impl DeltaStream {
    /// Live rows by id after the first `applied` batches.
    pub fn model_after(&self, applied: usize) -> HashMap<u64, TaxRow> {
        let mut live: HashMap<u64, TaxRow> = self
            .base
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, *r))
            .collect();
        for op in self.ops[..applied].iter().flatten() {
            match *op {
                ModelOp::Put(id, row) => {
                    live.insert(id, row);
                }
                ModelOp::Delete(id) => {
                    live.remove(&id);
                }
            }
        }
        live
    }
}

/// A base of `base_rows` FD-dirty rows and `batches` batches of
/// [`DELTA_BATCH_OPS`] operations: 50% inserts, 35% updates of which a
/// third garble `city`, 15% deletes. A batch names each id at most
/// once, new rows draw from the base's zip domain (blocks keep their
/// size), and updates redraw the whole row, so they re-block it.
pub fn delta_stream(seed: u64, base_rows: usize, batches: usize) -> DeltaStream {
    let base = tax_rows(seed, base_rows, TaxErrors::Fd);
    let mut rng = Rng::new(seed, 3);
    let regular_zips = (base_rows as u64 / ROWS_PER_ZIP).max(1);
    let mut live: Vec<u64> = (0..base_rows as u64).collect();
    let mut next_id = base_rows as u64;
    let mut texts = Vec::with_capacity(batches);
    let mut all_ops = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut text = String::with_capacity(DELTA_BATCH_OPS * 64);
        let mut ops = Vec::with_capacity(DELTA_BATCH_OPS);
        // ids touched in this batch are parked here and rejoin `live`
        // afterwards, so no id is named twice in one batch
        let mut parked: Vec<u64> = Vec::new();
        for _ in 0..DELTA_BATCH_OPS {
            let kind = rng.below(100);
            let fresh = |rng: &mut Rng, name: u64, garble: Garble| TaxRow {
                name,
                zip: draw_zip(rng, regular_zips),
                rank: rng.below(4 * base_rows as u64 + 1),
                garble,
            };
            if kind < 50 || live.is_empty() {
                let id = next_id;
                next_id += 1;
                let row = fresh(&mut rng, id, Garble::None);
                let _ = write!(text, "insert,{id},");
                row.write_line(true, &mut text);
                text.push('\n');
                ops.push(ModelOp::Put(id, row));
                parked.push(id);
            } else if kind < 85 {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                let garble = if rng.below(3) == 0 {
                    Garble::City
                } else {
                    Garble::None
                };
                let row = fresh(&mut rng, id, garble);
                let _ = write!(text, "update,{id},");
                row.write_line(true, &mut text);
                text.push('\n');
                ops.push(ModelOp::Put(id, row));
                parked.push(id);
            } else {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                let _ = writeln!(text, "delete,{id}");
                ops.push(ModelOp::Delete(id));
            }
        }
        live.extend(parked);
        texts.push(text);
        all_ops.push(ops);
    }
    DeltaStream {
        base,
        batches: texts,
        ops: all_ops,
    }
}

// --- request bodies (serve_stream) --------------------------------------

/// Header of the serve schema.
pub const SERVE_HEADER: &str = "zipcode,city,state";
/// Inserts per request body.
pub const SERVE_BATCH_OPS: usize = 50;

/// One tenant's stream of request bodies and the rows behind them.
pub struct TenantStream {
    /// CSV delta text of each request (`insert,id,zipcode,city,state`).
    pub bodies: Vec<String>,
    /// The rows, in insert order; request `k` carries rows
    /// `k·SERVE_BATCH_OPS ..`.
    pub rows: Vec<TaxRow>,
}

impl TenantStream {
    /// The dirty (as sent) or clean table after the first `requests`
    /// bodies, as CSV text with header.
    pub fn table_after(&self, requests: usize, dirty: bool) -> String {
        let mut out = String::from(SERVE_HEADER);
        out.push('\n');
        for r in &self.rows[..requests * SERVE_BATCH_OPS] {
            r.write_serve_line(dirty, &mut out);
            out.push('\n');
        }
        out
    }
}

/// `requests` bodies of [`SERVE_BATCH_OPS`] inserts for tenant
/// `tenant`, 2% with `city` garbled. The tenant-local zip domain grows
/// with the stream (row `i` draws from `i / 5 + 1` zips), so the mean
/// block stays at [`ROWS_PER_ZIP`] rows however far a run gets and a
/// faster server does not meet a different workload.
pub fn tenant_stream(seed: u64, tenant: usize, requests: usize) -> TenantStream {
    let mut rng = Rng::new(seed, 1_000 + tenant as u64);
    let total = requests * SERVE_BATCH_OPS;
    let mut rows = Vec::with_capacity(total);
    let mut bodies = Vec::with_capacity(requests);
    for _ in 0..requests {
        let mut body = String::with_capacity(SERVE_BATCH_OPS * 32);
        for _ in 0..SERVE_BATCH_OPS {
            let id = rows.len() as u64;
            let row = TaxRow {
                name: id,
                zip: tenant as u64 * 1_000_000 + rng.below(id / ROWS_PER_ZIP + 1),
                rank: 0,
                garble: if rng.chance(20) {
                    Garble::City
                } else {
                    Garble::None
                },
            };
            let _ = write!(body, "insert,{id},");
            row.write_serve_line(true, &mut body);
            body.push('\n');
            rows.push(row);
        }
        bodies.push(body);
    }
    TenantStream { bodies, rows }
}

/// The same inserts as a JSONL body (for the ingest-format probe).
pub fn jsonl_body(rows: &[TaxRow]) -> String {
    let mut out = String::with_capacity(rows.len() * 72);
    for r in rows {
        let city = match r.garble {
            Garble::City => format!("garbled{}", r.name),
            _ => format!("city{}", r.zip),
        };
        let _ = writeln!(
            out,
            "{{\"op\": \"insert\", \"id\": {}, \"values\": [\"{}\", \"{city}\", \"st{}\"]}}",
            r.name,
            10_000 + r.zip,
            r.zip % 50
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing::{csv, BigDansing};

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Every generated input, concatenated.
    fn all_inputs(seed: u64) -> String {
        let mut s = tax_csv(&tax_rows(seed, 2_000, TaxErrors::Fd), true);
        s += &tax_csv(&tax_rows(seed, 2_000, TaxErrors::Dc), true);
        s += &dedup(seed, 1_000).csv;
        s += &delta_stream(seed, 1_000, 8).batches.concat();
        s += &tenant_stream(seed, 3, 4).bodies.concat();
        s
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = all_inputs(7);
        assert_eq!(a, all_inputs(7));
        assert_ne!(a, all_inputs(8));
        // pinned: a change to the generator changes every baseline
        assert_eq!(
            fnv1a(a.as_bytes()),
            0xB041_69FC_F159_09A3,
            "{:#X}",
            fnv1a(a.as_bytes())
        );
    }

    #[test]
    fn blocks_average_five_rows_with_a_hot_head() {
        let n = 60_000;
        let rows = tax_rows(11, n, TaxErrors::Fd);
        let regular = n as u64 / ROWS_PER_ZIP;
        let mut sizes: HashMap<u64, usize> = HashMap::new();
        for r in &rows {
            *sizes.entry(r.zip).or_default() += 1;
        }
        let (hot, cold): (Vec<_>, Vec<_>) = sizes.iter().partition(|(z, _)| **z >= regular);
        assert_eq!(hot.len() as u64, HOT_ZIPS);
        let hot_rows: usize = hot.iter().map(|(_, c)| **c).sum();
        let mean_cold = (n - hot_rows) as f64 / cold.len() as f64;
        assert!((4.5..5.6).contains(&mean_cold), "mean block {mean_cold}");
        // each hot zip holds ~1% / 20 of the rows: 30 here, 150 at 300k
        let mean_hot = hot_rows as f64 / HOT_ZIPS as f64;
        assert!((20.0..40.0).contains(&mean_hot), "hot block {mean_hot}");
    }

    #[test]
    fn two_percent_of_rows_carry_an_fd_error() {
        let rows = tax_rows(5, 50_000, TaxErrors::Fd);
        let errs = rows.iter().filter(|r| r.garble != Garble::None).count();
        let share = errs as f64 / rows.len() as f64;
        assert!((0.017..0.023).contains(&share), "error share {share}");
        assert!(rows.iter().any(|r| r.garble == Garble::City));
        assert!(rows.iter().any(|r| r.garble == Garble::State));
        // the clean copy satisfies both FDs, the dirty one does not
        let sys = |text: &str| {
            let t = csv::parse_str("tax", text, true, None).unwrap();
            let mut sys = BigDansing::sequential();
            sys.add_fd("zipcode -> city", t.schema()).unwrap();
            sys.add_fd("zipcode -> state", t.schema()).unwrap();
            sys.detect(&t).unwrap().violation_count()
        };
        let small = tax_rows(5, 3_000, TaxErrors::Fd);
        assert_eq!(sys(&tax_csv(&small, false)), 0);
        assert!(sys(&tax_csv(&small, true)) > 0);
    }

    #[test]
    fn dc_violations_grow_linearly_with_rows() {
        let count = |n: usize| {
            let rows = tax_rows(9, n, TaxErrors::Dc);
            let t = csv::parse_str("tax", &tax_csv(&rows, true), true, None).unwrap();
            let mut sys = BigDansing::sequential();
            sys.add_dc("t1.salary > t2.salary & t1.rate < t2.rate", t.schema())
                .unwrap();
            let errs = rows.iter().filter(|r| r.garble == Garble::Rate).count();
            (sys.detect(&t).unwrap().violation_count(), errs)
        };
        let (v1, e1) = count(10_000);
        let (v2, e2) = count(20_000);
        // ~40 violations per displaced row at either size
        for (v, e) in [(v1, e1), (v2, e2)] {
            let per = v as f64 / e as f64;
            assert!((30.0..=41.0).contains(&per), "{v} violations / {e} errors");
        }
        let growth = v2 as f64 / v1 as f64;
        assert!(
            (1.5..2.6).contains(&growth),
            "violations grew {growth}x for 2x rows"
        );
    }

    #[test]
    fn every_dedup_value_has_a_partner() {
        for n in [1_000, 1_001, 1_002] {
            let d = dedup(3, n);
            assert_eq!(d.entity.len(), n);
            assert_eq!(d.csv.lines().count(), n + 1);
            let mut sizes: HashMap<u32, usize> = HashMap::new();
            for e in &d.entity {
                *sizes.entry(*e).or_default() += 1;
            }
            assert!(sizes.values().all(|s| (2..=3).contains(s)));
        }
    }

    #[test]
    fn delta_batches_parse_and_name_each_id_once() {
        let s = delta_stream(4, 500, 20);
        let schema = bigdansing::Schema::parse(TAX_HEADER);
        let mut kinds = [0usize; 3];
        for (text, ops) in s.batches.iter().zip(&s.ops) {
            let batch = bigdansing::DeltaBatch::parse_str(text, &schema).unwrap();
            assert_eq!(batch.len(), DELTA_BATCH_OPS);
            assert_eq!(ops.len(), DELTA_BATCH_OPS);
            let mut ids: Vec<u64> = batch.ops.iter().map(|o| o.id()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), DELTA_BATCH_OPS, "an id twice in one batch");
            for line in text.lines() {
                kinds[match &line[..6] {
                    "insert" => 0,
                    "update" => 1,
                    _ => 2,
                }] += 1;
            }
        }
        let total = (20 * DELTA_BATCH_OPS) as f64;
        assert!((0.44..0.56).contains(&(kinds[0] as f64 / total)));
        assert!((0.29..0.41).contains(&(kinds[1] as f64 / total)));
        assert!((0.10..0.20).contains(&(kinds[2] as f64 / total)));
        let live = s.model_after(20);
        assert_eq!(live.len(), 500 + kinds[0] - kinds[2]);
    }

    #[test]
    fn serve_bodies_match_their_model_in_both_formats() {
        let t = tenant_stream(6, 2, 3);
        assert_eq!(t.bodies.len(), 3);
        assert_eq!(t.rows.len(), 3 * SERVE_BATCH_OPS);
        let schema = bigdansing::Schema::parse(SERVE_HEADER);
        let csv_ops = bigdansing::DeltaBatch::parse_str(&t.bodies.concat(), &schema).unwrap();
        let (jsonl_ops, q) = bigdansing_serve::ingest::parse_lenient(
            &jsonl_body(&t.rows),
            bigdansing_serve::Format::Jsonl,
            &schema,
            "test",
        );
        assert!(q.is_empty());
        assert_eq!(csv_ops, jsonl_ops);
        assert_eq!(t.table_after(3, true).lines().count(), 1 + t.rows.len());
    }
}
