//! Bleach-style violation windows for streaming sessions.
//!
//! *Bleach: A Distributed Stream Data Cleaning System* scopes violation
//! detection to a sliding window over the record stream: a violation
//! only matters while every contributing record is still inside some
//! live window, and closing a window *retracts* the violations it
//! carried. This module defines the window geometry and the session's
//! window state: each arriving record is assigned a logical
//! event time (its arrival ordinal — deterministic, so WAL replay
//! reproduces the exact same expirations) and, after every applied
//! batch, retires the tuples whose last containing window closed. The
//! retired tuples leave through the ordinary delete path, so their
//! violations are retracted via the same provenance indexes that serve
//! explicit deletes.
//!
//! Windows start at multiples of `slide` and span `size` events. A
//! record with event time `ts` belongs to every window `[k·slide,
//! k·slide + size)` containing `ts`; the *last* of those starts at
//! `⌊ts/slide⌋·slide`. Once the watermark (the highest event time seen)
//! reaches the end of that last window, the record can never appear in
//! a live window again and is expired. `slide == size` gives tumbling
//! windows, `slide < size` sliding ones.

use crate::delta::{DeltaBatch, DeltaOp};
use crate::session::{Session, Touched};
use bigdansing_common::{Error, Result, TupleId};
use std::collections::{BTreeMap, HashMap};

/// Geometry of a violation window, counted in logical events
/// (arrival ordinals), not wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in events (≥ 1).
    pub size: u64,
    /// Distance between consecutive window starts, `1 ≤ slide ≤ size`.
    pub slide: u64,
}

impl WindowSpec {
    /// A tumbling window: consecutive, non-overlapping spans of `size`
    /// events.
    pub fn tumbling(size: u64) -> Result<WindowSpec> {
        WindowSpec::sliding(size, size)
    }

    /// A sliding window of `size` events advancing by `slide`.
    pub fn sliding(size: u64, slide: u64) -> Result<WindowSpec> {
        if size == 0 {
            return Err(Error::Parse("window size must be ≥ 1".into()));
        }
        if slide == 0 || slide > size {
            return Err(Error::Parse(format!(
                "window slide must be in 1..={size}, got {slide}"
            )));
        }
        Ok(WindowSpec { size, slide })
    }

    /// True when the window tumbles (`slide == size`).
    pub fn is_tumbling(&self) -> bool {
        self.slide == self.size
    }

    /// True when the record with event time `ts` is outside every
    /// window that is still live at `watermark` (the highest event time
    /// assigned so far): its last containing window — the one starting
    /// at `⌊ts/slide⌋·slide` — has closed.
    pub fn expired(&self, ts: u64, watermark: u64) -> bool {
        let last_start = (ts / self.slide) * self.slide;
        watermark >= last_start.saturating_add(self.size)
    }

    /// Parse `"SIZE"` (tumbling) or `"SIZE:SLIDE"` (sliding), e.g.
    /// `"1000"` or `"1000:250"` — the CLI `--window` syntax.
    pub fn parse(s: &str) -> Result<WindowSpec> {
        let bad = || {
            Error::Parse(format!(
                "invalid window spec `{s}`: want SIZE or SIZE:SLIDE"
            ))
        };
        match s.split_once(':') {
            None => WindowSpec::tumbling(s.trim().parse().map_err(|_| bad())?),
            Some((size, slide)) => WindowSpec::sliding(
                size.trim().parse().map_err(|_| bad())?,
                slide.trim().parse().map_err(|_| bad())?,
            ),
        }
    }
}

impl std::fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_tumbling() {
            write!(f, "tumbling({})", self.size)
        } else {
            write!(f, "sliding({}:{})", self.size, self.slide)
        }
    }
}

/// Violation-window state: the logical clock handing out event times
/// and the event time of every live tuple. Event times are arrival
/// ordinals — assigned in batch op order — so WAL replay reproduces
/// the exact same expirations a live run performed.
pub(crate) struct Win {
    pub(crate) spec: WindowSpec,
    /// Next event time to assign; the watermark is `clock - 1`.
    pub(crate) clock: u64,
    times: HashMap<TupleId, u64>,
    /// The same pairs by event time. Event times are unique and a
    /// tuple's last window start never decreases with its event time,
    /// so the expired tuples are always a prefix of this map.
    by_time: BTreeMap<u64, TupleId>,
}

impl Win {
    /// Window state from `(tuple id, event time)` pairs with the clock
    /// at `clock`. A base table passes its rows with event times in
    /// table order, as if they streamed in one at a time before the
    /// session opened; recovery passes the snapshot's.
    pub(crate) fn new(
        spec: WindowSpec,
        clock: u64,
        times: impl Iterator<Item = (TupleId, u64)>,
    ) -> Win {
        let times: HashMap<TupleId, u64> = times.collect();
        let by_time = times.iter().map(|(&id, &ts)| (ts, id)).collect();
        Win {
            spec,
            clock,
            times,
            by_time,
        }
    }

    /// Account a batch's arrivals: every insert/update is a fresh
    /// arrival (it gets the next event time and advances the
    /// watermark); explicit deletes leave the window.
    pub(crate) fn arrive(&mut self, batch: &DeltaBatch) {
        for op in &batch.ops {
            let left = match op {
                DeltaOp::Insert(t) | DeltaOp::Update(t) => {
                    let ts = self.clock;
                    self.clock += 1;
                    self.by_time.insert(ts, t.id());
                    self.times.insert(t.id(), ts)
                }
                DeltaOp::Delete(id) => self.times.remove(id),
            };
            if let Some(old) = left {
                self.by_time.remove(&old);
            }
        }
    }

    /// The event time of a live tuple.
    pub(crate) fn time_of(&self, id: TupleId) -> Option<u64> {
        self.times.get(&id).copied()
    }

    /// Retire every tuple whose last containing window closed behind
    /// the watermark — the front of the time order — and return their
    /// ids.
    fn pop_expired(&mut self) -> Vec<TupleId> {
        let mut expired = Vec::new();
        let Some(watermark) = self.clock.checked_sub(1) else {
            return expired;
        };
        while let Some(first) = self.by_time.first_entry() {
            if !self.spec.expired(*first.key(), watermark) {
                break;
            }
            let id = first.remove();
            self.times.remove(&id);
            expired.push(id);
        }
        expired
    }
}

impl Session {
    /// The violation-window geometry, when this session is windowed.
    pub fn window(&self) -> Option<WindowSpec> {
        self.win.as_ref().map(|w| w.spec)
    }

    /// The watermark: the highest logical event time assigned so far.
    /// `None` for unwindowed sessions and for a windowed session that
    /// has seen no events yet.
    pub fn watermark(&self) -> Option<u64> {
        self.win
            .as_ref()
            .filter(|w| w.clock > 0)
            .map(|w| w.clock - 1)
    }

    /// The logical event time of a live tuple (windowed sessions only).
    pub fn event_time(&self, id: TupleId) -> Option<u64> {
        self.win.as_ref().and_then(|w| w.time_of(id))
    }

    /// Number of tuples inside the live window — equal to the table
    /// length, since expired tuples are retired eagerly. `None` for
    /// unwindowed sessions.
    pub fn window_live(&self) -> Option<usize> {
        self.win.as_ref().map(|w| w.times.len())
    }

    /// Retire every tuple whose last containing window closed behind
    /// the watermark: remove it from the table (the same compaction an
    /// explicit delete goes through), drop its sequence number and event
    /// time, and add it to `touched` with the version the group stores
    /// hold and no live one, so the caller's redetect retracts its violations through
    /// the provenance indexes and drops it from the buckets. Returns
    /// how many tuples were retired. No-op for unwindowed sessions.
    pub(crate) fn expire_past_watermark(&mut self, touched: &mut Touched) -> usize {
        let expired = match &mut self.win {
            Some(win) => win.pop_expired(),
            None => return 0,
        };
        for &id in &expired {
            touched
                .entry(id)
                .or_insert_with(|| (self.version(id), None))
                .1 = None;
        }
        let dead = expired.iter().map(|id| self.unlink(*id)).collect();
        self.remove_rows(dead);
        expired.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{base_table, fd_rules};
    use crate::CleanseOptions;
    use bigdansing_common::{Schema, Value};
    use bigdansing_dataflow::Engine;
    use bigdansing_plan::Executor;

    #[test]
    fn constructors_validate_geometry() {
        assert!(WindowSpec::tumbling(0).is_err());
        assert!(WindowSpec::sliding(4, 0).is_err());
        assert!(WindowSpec::sliding(4, 5).is_err());
        let w = WindowSpec::sliding(4, 2).unwrap();
        assert!(!w.is_tumbling());
        assert!(WindowSpec::tumbling(4).unwrap().is_tumbling());
    }

    #[test]
    fn tumbling_expires_whole_windows() {
        let w = WindowSpec::tumbling(4).unwrap();
        // Window [0,4) closes when the watermark reaches 4.
        for ts in 0..4 {
            assert!(!w.expired(ts, 3), "ts {ts} live at wm 3");
            assert!(w.expired(ts, 4), "ts {ts} expired at wm 4");
        }
        assert!(!w.expired(4, 4));
        assert!(!w.expired(7, 7));
        assert!(w.expired(7, 8));
    }

    #[test]
    fn sliding_keeps_a_trailing_span() {
        let w = WindowSpec::sliding(4, 2).unwrap();
        // ts=3's last window is [2,6): closes at wm 6.
        assert!(!w.expired(3, 5));
        assert!(w.expired(3, 6));
        // At wm 7 the live set is {4..7}.
        let live: Vec<u64> = (0..=7).filter(|&ts| !w.expired(ts, 7)).collect();
        assert_eq!(live, vec![4, 5, 6, 7]);
        // At wm 8 it contracts to {6,7,8} (window [6,10) alone is open).
        let live: Vec<u64> = (0..=8).filter(|&ts| !w.expired(ts, 8)).collect();
        assert_eq!(live, vec![6, 7, 8]);
    }

    #[test]
    fn parse_round_trips_cli_syntax() {
        assert_eq!(
            WindowSpec::parse("16").unwrap(),
            WindowSpec::tumbling(16).unwrap()
        );
        assert_eq!(
            WindowSpec::parse("16:4").unwrap(),
            WindowSpec::sliding(16, 4).unwrap()
        );
        assert!(WindowSpec::parse("x").is_err());
        assert!(WindowSpec::parse("4:8").is_err());
        assert_eq!(
            WindowSpec::parse("16:4").unwrap().to_string(),
            "sliding(16:4)"
        );
    }

    fn windowed_session(spec: WindowSpec) -> Session {
        let schema = Schema::parse("zipcode,city");
        Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions {
                window: Some(spec),
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Session-level oracle: after every apply, the windowed session's
    /// violation count must match a from-scratch detect over its table.
    fn assert_window_invariant(s: &Session) {
        let schema = Schema::parse("zipcode,city");
        let fresh = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            s.table(),
            CleanseOptions::default(),
        )
        .unwrap();
        assert_eq!(
            s.violation_count(),
            fresh.violation_count(),
            "windowed store must equal full detect over the live table"
        );
    }

    #[test]
    fn unwindowed_session_has_no_watermark() {
        let schema = Schema::parse("zipcode,city");
        let s = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            CleanseOptions::default(),
        )
        .unwrap();
        assert!(s.window().is_none());
        assert!(s.watermark().is_none());
        assert!(s.window_live().is_none());
    }

    #[test]
    fn tumbling_window_expires_closed_window_tuples() {
        let mut s = windowed_session(WindowSpec::tumbling(4).unwrap());
        // base rows carry event times 0 and 1 → watermark 1, window [0,4) open
        assert_eq!(s.watermark(), Some(1));
        assert_eq!(s.window_live(), Some(2));
        assert_eq!(s.event_time(0), Some(0));

        let insert = |s: &mut Session, id: u64, zip: i64, city: &str| {
            s.apply(DeltaBatch::new().insert(id, vec![Value::Int(zip), Value::str(city)]))
                .unwrap()
        };
        // ts 2 and 3 keep the watermark inside [0,4): nothing expires yet
        let r = insert(&mut s, 10, 3, "CH");
        assert_eq!((r.tuples_expired, s.watermark()), (0, Some(2)));
        let r = insert(&mut s, 11, 4, "SE");
        assert_eq!((r.tuples_expired, s.watermark()), (0, Some(3)));
        assert_eq!(s.window_live(), Some(4));

        // ts 4 closes the [0,4) window: all four earlier tuples retire
        let r = insert(&mut s, 12, 5, "DC");
        assert_eq!(r.tuples_expired, 4);
        assert_eq!(s.watermark(), Some(4));
        assert_eq!(s.window_live(), Some(1));
        assert_eq!(s.table().len(), 1);
        assert_window_invariant(&s);
    }

    #[test]
    fn sliding_window_keeps_trailing_span() {
        let mut s = windowed_session(WindowSpec::sliding(4, 2).unwrap());
        let insert = |s: &mut Session, id: u64, zip: i64| {
            s.apply(DeltaBatch::new().insert(id, vec![Value::Int(zip), Value::str("X")]))
                .unwrap()
        };
        // base ts {0,1}; ts 2,3,4 arrive → wm 4 expires ts 0,1 (their last
        // window [0,4) closed); live = {2,3,4}
        insert(&mut s, 10, 3);
        insert(&mut s, 11, 4);
        let r = insert(&mut s, 12, 5);
        assert_eq!(r.tuples_expired, 2);
        assert_eq!(s.window_live(), Some(3));
        // ts 5 → wm 5: no window boundary crossed
        let r = insert(&mut s, 13, 6);
        assert_eq!(r.tuples_expired, 0);
        assert_eq!(s.window_live(), Some(4));
        // ts 6 → wm 6 expires ts 2,3 ([2,6) closed); live = {4,5,6}
        let r = insert(&mut s, 14, 7);
        assert_eq!(r.tuples_expired, 2);
        assert_eq!(s.window_live(), Some(3));
        assert_window_invariant(&s);
    }

    #[test]
    fn expiry_retracts_violations_of_expired_tuples() {
        let mut s = windowed_session(WindowSpec::tumbling(4).unwrap());
        // conflicting duplicate zipcode: a violation among live tuples
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert!(s.is_clean(), "repair resolves the FD conflict");
        // push the watermark past the first window; expired tuples must
        // leave no dangling violations behind
        for (i, id) in [(6, 20u64), (7, 21), (8, 22)] {
            s.apply(DeltaBatch::new().insert(id, vec![Value::Int(i), Value::str("Y")]))
                .unwrap();
        }
        assert!(s.table().len() <= 4);
        assert_window_invariant(&s);
    }
}
