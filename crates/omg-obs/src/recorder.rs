//! Lock-free per-worker flight recorder.
//!
//! One [`FlightRecorder`] holds `n` fixed-capacity rings of structured
//! [`TraceEvent`]s. By convention each serving worker owns one ring
//! (single writer → snapshots are gap-free modulo overwrite) and the
//! last ring collects submitter-side events (submit / reject / discard)
//! from arbitrary threads. Writers never allocate, never lock and never
//! wait: taking an index is one relaxed `fetch_add`, claiming its slot
//! one compare-exchange, and publishing a handful of relaxed stores
//! sealed by one release store.
//!
//! # Coherent snapshots
//!
//! Each slot is an inline seqlock. The stamp word encodes the slot's
//! global write index plus the stage (valid), or a *writer-unique*
//! in-progress sentinel (top bit + index). A writer claims its slot
//! exclusively: it compare-exchanges the stamp to its sentinel, and only
//! from empty or from a sealed *older* index. A writer that finds the
//! slot still held by a lapped writer, or already sealed by a newer
//! index, drops its event. The claimant issues a release fence, fills the
//! payload words, and seals with a release store; no other writer can
//! touch a held slot, so the words under a stamp are always the
//! claimant's own. A reader loads the stamp (acquire), reads the payload
//! words, issues an acquire fence, and re-reads the stamp: the event is
//! kept only if both reads agree on the exact expected index. Every
//! writer flips the stamp to its own sentinel before it touches the
//! payload, so a torn read can never validate — even on the shared
//! multi-producer ring. A dropped event still advanced the ring's head:
//! while its index is inside the snapshot window its slot counts as torn,
//! and once lapped it counts as dropped.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::monotonic_ns;

/// Where in its life a query (or the system) was when the event fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Query accepted into the queue (payload: sample count).
    Submit = 0,
    /// Worker pulled the query off the queue (payload: queue-wait ns).
    Dequeue = 1,
    /// Enclave compute began (payload: 0).
    ComputeStart = 2,
    /// Enclave compute finished (payload: compute ns).
    ComputeEnd = 3,
    /// Reply delivered to the ticket (payload: end-to-end ns, or
    /// `u64::MAX` when the query failed).
    Reply = 4,
    /// Query bounced at admission (payload: 0 = queue full, 1 = shutdown).
    Reject = 5,
    /// Query shed at dequeue for a blown deadline (payload: waited ns).
    Shed = 6,
    /// Query died unserved (payload: 1 = in a panicking worker's hands,
    /// 0 = still queued at teardown).
    Discard = 7,
    /// A serving worker died — panic unwind or device error (seq: worker
    /// index, payload: 1 = panic, 0 = device error).
    WorkerDown = 8,
    /// The supervisor re-provisioned a device and restarted the worker
    /// (seq: worker index, payload: time-to-recover ns).
    WorkerRestart = 9,
    /// The supervisor quarantined a crash-looping or budget-exhausted
    /// worker instead of restarting it (seq: worker index, payload:
    /// consecutive rapid-death strikes at quarantine time).
    WorkerQuarantine = 10,
    /// The liveness watchdog declared a slot hung: its heartbeat lease
    /// expired past TTL + grace (seq: worker index, payload: lease age
    /// in ns at declaration).
    WorkerHang = 11,
}

impl Stage {
    /// All stages, in discriminant order.
    pub const ALL: [Stage; 12] = [
        Stage::Submit,
        Stage::Dequeue,
        Stage::ComputeStart,
        Stage::ComputeEnd,
        Stage::Reply,
        Stage::Reject,
        Stage::Shed,
        Stage::Discard,
        Stage::WorkerDown,
        Stage::WorkerRestart,
        Stage::WorkerQuarantine,
        Stage::WorkerHang,
    ];

    /// Stable lower-case name, used in rendered traces.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::Dequeue => "dequeue",
            Stage::ComputeStart => "compute-start",
            Stage::ComputeEnd => "compute-end",
            Stage::Reply => "reply",
            Stage::Reject => "reject",
            Stage::Shed => "shed",
            Stage::Discard => "discard",
            Stage::WorkerDown => "worker-down",
            Stage::WorkerRestart => "worker-restart",
            Stage::WorkerQuarantine => "worker-quarantine",
            Stage::WorkerHang => "worker-hang",
        }
    }

    fn from_bits(bits: u64) -> Stage {
        // Only writer-authored stamps survive the seqlock validity check,
        // so the nibble is always a real discriminant; fall back to Submit
        // rather than panicking if that ever stops holding.
        Stage::ALL
            .get((bits & 0xF) as usize)
            .copied()
            .unwrap_or(Stage::Submit)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// [`monotonic_ns`] timestamp.
    pub ts_ns: u64,
    /// Ring (= worker) index the event was recorded on.
    pub worker: usize,
    /// Query sequence number (or other correlation id).
    pub seq: u64,
    /// Life-cycle stage.
    pub stage: Stage,
    /// Stage-specific payload (see [`Stage`] docs).
    pub payload: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12}ns w{:02} {:<13} seq={:<8} payload={}",
            self.ts_ns, self.worker, self.stage, self.seq, self.payload
        )
    }
}

/// Stamp-word layout: `valid = idx << 4 | stage`, `writing = TOP | idx << 4`.
/// `EMPTY` (all ones) matches neither form, so unwritten slots never
/// validate.
const WRITING_BIT: u64 = 1 << 63;
const EMPTY: u64 = u64::MAX;

fn valid_stamp(idx: u64, stage: Stage) -> u64 {
    debug_assert_eq!(idx & (0x1F << 59), 0, "ring index overflow");
    (idx << 4) | stage as u64
}

fn writing_stamp(idx: u64) -> u64 {
    WRITING_BIT | (idx << 4)
}

struct Slot {
    stamp: AtomicU64,
    ts: AtomicU64,
    seq: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(EMPTY),
            ts: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }

    /// Fill a slot this writer holds for `idx` (see [`Ring::claim`]) and
    /// seal it. The seal cannot fail: no other writer touches a held slot.
    fn publish(&self, idx: u64, stage: Stage, seq: u64, payload: u64, ts_ns: u64) {
        fence(Ordering::Release);
        self.ts.store(ts_ns, Ordering::Relaxed);
        self.seq.store(seq, Ordering::Relaxed);
        self.payload.store(payload, Ordering::Relaxed);
        self.stamp.store(valid_stamp(idx, stage), Ordering::Release);
    }
}

/// One fixed-capacity event ring (power-of-two slots).
struct Ring {
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(8);
        Ring {
            head: AtomicU64::new(0),
            mask: (cap as u64) - 1,
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Hot path: no allocation, no locks, no waiting.
    fn record(&self, stage: Stage, seq: u64, payload: u64, ts_ns: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        // A refused claim loses the event: the slot counts as torn while
        // `idx` is in the snapshot window, and as dropped once lapped.
        if let Some(slot) = self.claim(idx) {
            slot.publish(idx, stage, seq, payload, ts_ns);
        }
    }

    /// Take exclusive hold of `idx`'s slot by swapping in its writing
    /// sentinel, only from empty or from a sealed older index. `None` when
    /// a lapped writer still holds the slot or a newer index sealed it.
    fn claim(&self, idx: u64) -> Option<&Slot> {
        let slot = &self.slots[(idx & self.mask) as usize];
        let current = slot.stamp.load(Ordering::Relaxed);
        let claimable = current == EMPTY || (current & WRITING_BIT == 0 && current >> 4 < idx);
        if !claimable {
            return None;
        }
        // Acquire on success orders our payload stores after the previous
        // occupant's, whose seal we read. Stamps only move to newer
        // indices, so a stale `current` can never match again (no ABA).
        slot.stamp
            .compare_exchange(
                current,
                writing_stamp(idx),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .ok()?;
        Some(slot)
    }

    /// Push every readable event from the retained window onto `out`,
    /// oldest first. Returns `(overwritten, torn)`.
    fn snapshot_into(&self, worker: usize, out: &mut Vec<TraceEvent>) -> (u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.capacity());
        let mut torn = 0u64;
        for idx in start..head {
            let slot = &self.slots[(idx & self.mask) as usize];
            let stamp = slot.stamp.load(Ordering::Acquire);
            let ts_ns = slot.ts.load(Ordering::Relaxed);
            let seq = slot.seq.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let reread = slot.stamp.load(Ordering::Relaxed);
            if stamp == reread && stamp & WRITING_BIT == 0 && stamp >> 4 == idx {
                out.push(TraceEvent {
                    ts_ns,
                    worker,
                    seq,
                    stage: Stage::from_bits(stamp),
                    payload,
                });
            } else {
                // Mid-write, overwritten by a newer index, or still
                // holding a lapped writer's older event because this
                // index's event was dropped: skip, count as torn.
                torn += 1;
            }
        }
        (start, torn)
    }
}

/// A merged, time-ordered snapshot of every ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Events sorted by timestamp (stable: per-ring write order is
    /// preserved among equal timestamps).
    pub events: Vec<TraceEvent>,
    /// Events evicted by ring wraparound before this snapshot.
    pub dropped: u64,
    /// In-window slots skipped because a write raced the snapshot, or
    /// because their event was dropped (see the module docs).
    pub torn: u64,
}

impl TraceSnapshot {
    /// Render the full trace, one event per line, with a summary header.
    pub fn render(&self) -> String {
        self.render_tail(self.events.len())
    }

    /// Render at most the last `n` events (plus the summary header).
    pub fn render_tail(&self, n: usize) -> String {
        use fmt::Write;
        let skip = self.events.len().saturating_sub(n);
        let mut s = format!(
            "flight recorder: {} events ({} dropped to wraparound, {} torn{})\n",
            self.events.len(),
            self.dropped,
            self.torn,
            if skip > 0 {
                format!(", showing last {n}")
            } else {
                String::new()
            }
        );
        for ev in &self.events[skip..] {
            let _ = writeln!(s, "  {ev}");
        }
        s
    }
}

/// Lock-free flight recorder: one event ring per worker plus (by the
/// serving layer's convention) one shared ring for submitter-side events.
pub struct FlightRecorder {
    rings: Box<[Ring]>,
    capacity: u64,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("rings", &self.rings.len())
            .field("capacity", &self.capacity)
            .field("recorded", &self.total_recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// `rings` event rings of `capacity` slots each (rounded up to a
    /// power of two, minimum 8).
    pub fn new(rings: usize, capacity: usize) -> FlightRecorder {
        assert!(rings > 0, "flight recorder needs at least one ring");
        let rings: Box<[Ring]> = (0..rings).map(|_| Ring::new(capacity)).collect();
        let capacity = rings[0].capacity();
        FlightRecorder { rings, capacity }
    }

    /// Number of rings.
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// Actual per-ring slot capacity after power-of-two rounding.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Record an event stamped with [`monotonic_ns`] now.
    ///
    /// Out-of-range `ring` indices are silently ignored rather than
    /// panicking: recording happens on hot paths and in `Drop` impls.
    pub fn record(&self, ring: usize, stage: Stage, seq: u64, payload: u64) {
        self.record_at(ring, stage, seq, payload, monotonic_ns());
    }

    /// Record an event with an explicit timestamp (captured earlier on
    /// the same clock, e.g. before a queue push whose outcome decides
    /// the stage).
    pub fn record_at(&self, ring: usize, stage: Stage, seq: u64, payload: u64, ts_ns: u64) {
        if let Some(r) = self.rings.get(ring) {
            r.record(stage, seq, payload, ts_ns);
        }
    }

    /// Total events ever recorded (including ones since overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Events evicted by ring wraparound so far (the `dropped_events`
    /// metric: every recorded event is either counted here, or inside the
    /// snapshot window — visible, or a torn slot while mid-write or after
    /// being dropped at a slot a lapped writer still held).
    pub fn dropped_events(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| {
                let head = r.head.load(Ordering::Relaxed);
                head.saturating_sub(r.capacity())
            })
            .sum()
    }

    /// Merge every ring into one coherent, time-ordered trace. Safe to
    /// call at any time, including while writers are recording.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut torn = 0u64;
        for (worker, ring) in self.rings.iter().enumerate() {
            let (overwritten, t) = ring.snapshot_into(worker, &mut events);
            dropped += overwritten;
            torn += t;
        }
        events.sort_by_key(|ev| ev.ts_ns);
        TraceSnapshot {
            events,
            dropped,
            torn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_time_order() {
        let rec = FlightRecorder::new(2, 16);
        rec.record_at(1, Stage::Dequeue, 7, 11, 200);
        rec.record_at(0, Stage::Submit, 7, 3, 100);
        rec.record_at(0, Stage::Reply, 7, 42, 300);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.torn, 0);
        let stages: Vec<Stage> = snap.events.iter().map(|e| e.stage).collect();
        assert_eq!(stages, [Stage::Submit, Stage::Dequeue, Stage::Reply]);
        assert_eq!(snap.events[0].worker, 0);
        assert_eq!(snap.events[1].worker, 1);
        assert_eq!(snap.events[1].payload, 11);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let rec = FlightRecorder::new(1, 16);
        assert_eq!(rec.capacity(), 16);
        for seq in 0..100u64 {
            rec.record_at(0, Stage::Submit, seq, seq * 2, seq);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 16);
        assert_eq!(snap.dropped, 84);
        assert_eq!(rec.dropped_events(), 84);
        assert_eq!(rec.total_recorded(), 100);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (84..100).collect::<Vec<_>>());
        for ev in &snap.events {
            assert_eq!(ev.payload, ev.seq * 2);
            assert_eq!(ev.ts_ns, ev.seq);
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::new(1, 0).capacity(), 8);
        assert_eq!(FlightRecorder::new(1, 9).capacity(), 16);
        assert_eq!(FlightRecorder::new(1, 1024).capacity(), 1024);
    }

    #[test]
    fn out_of_range_ring_is_ignored() {
        let rec = FlightRecorder::new(1, 8);
        rec.record(5, Stage::Discard, 0, 0);
        assert_eq!(rec.total_recorded(), 0);
    }

    #[test]
    fn stage_roundtrip_and_names() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as u8 as usize, i);
            assert_eq!(Stage::from_bits(valid_stamp(123, *stage)), *stage);
            assert!(!stage.name().is_empty());
        }
    }

    #[test]
    fn render_tail_shows_summary_and_events() {
        let rec = FlightRecorder::new(1, 8);
        for seq in 0..4u64 {
            rec.record_at(0, Stage::Reply, seq, 0, seq * 10);
        }
        let full = rec.snapshot().render();
        assert!(full.contains("4 events"));
        assert!(full.contains("reply"));
        assert!(full.contains("seq=3"));
        let tail = rec.snapshot().render_tail(2);
        assert!(tail.contains("showing last 2"));
        assert!(!tail.contains("seq=0"));
        assert!(tail.contains("seq=3"));
    }

    #[test]
    fn concurrent_multi_producer_ring_never_validates_torn_events() {
        // Hammer one shared ring from several threads while a reader
        // snapshots continuously; every surfaced event must be
        // internally consistent (payload derived from seq + ts).
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Barrier};
        let rec = Arc::new(FlightRecorder::new(1, 32));
        // Three writers plus the reader start together.
        let start = Arc::new(Barrier::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let rec = Arc::clone(&rec);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..20_000u64 {
                        let seq = w * 1_000_000 + i;
                        rec.record_at(0, Stage::Submit, seq, seq.wrapping_mul(31), seq);
                    }
                })
            })
            .collect();
        let reader = {
            let rec = Arc::clone(&rec);
            let start = Arc::clone(&start);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                start.wait();
                let mut checked = 0u64;
                loop {
                    // `stop` is read before the snapshot, so the last
                    // snapshot is taken after every writer has joined.
                    let done = stop.load(Ordering::Acquire);
                    for ev in rec.snapshot().events {
                        assert_eq!(ev.payload, ev.seq.wrapping_mul(31), "torn event surfaced");
                        assert_eq!(ev.ts_ns, ev.seq, "torn event surfaced");
                        checked += 1;
                    }
                    if done {
                        return checked;
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0, "reader never saw events");
        assert_eq!(rec.total_recorded(), 60_000);
        assert!(rec.dropped_events() >= 60_000 - 32);
    }

    #[test]
    fn lapped_writer_cannot_tear_a_newer_sealed_event() {
        // Replays, without threads, a writer stalled between claiming its
        // slot and filling it while the ring laps it once: its late stores
        // must not land under the lapping write's stamp.
        let rec = FlightRecorder::new(1, 8);
        for seq in 0..8u64 {
            rec.record_at(0, Stage::Submit, seq, seq * 31, seq);
        }
        let ring = &rec.rings[0];
        let a_idx = ring.head.fetch_add(1, Ordering::Relaxed);
        assert_eq!(a_idx, 8);
        let a_slot = ring.claim(a_idx);
        // Indices 9..=16; idx 16 lands on A's slot 0.
        for seq in 9..17u64 {
            rec.record_at(0, Stage::Submit, seq, seq * 31, seq);
        }
        let stalled = rec.snapshot();
        // A's payload breaks the `seq * 31` rule, so any of its words
        // surfacing under another write's stamp is caught below.
        if let Some(slot) = a_slot {
            slot.publish(a_idx, Stage::Reject, 8, 253, 8);
        }
        let finished = rec.snapshot();
        for ev in stalled.events.iter().chain(&finished.events) {
            assert_eq!(ev.payload, ev.seq * 31, "torn event surfaced: {ev:?}");
        }
        // Idx 16's event was dropped at the slot A still held, before and
        // after A seals it.
        assert_eq!((stalled.torn, finished.torn), (1, 1));
        for snap in [&stalled, &finished] {
            let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (9..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn writer_lapped_before_its_claim_drops_its_event() {
        // A writer stalled between taking its index and claiming the slot
        // finds it sealed by a newer index and must leave it alone.
        let rec = FlightRecorder::new(1, 8);
        let ring = &rec.rings[0];
        let a_idx = ring.head.fetch_add(1, Ordering::Relaxed);
        for seq in 1..9u64 {
            rec.record_at(0, Stage::Submit, seq, seq * 31, seq);
        }
        assert!(ring.claim(a_idx).is_none(), "claimed a newer sealed slot");
        let snap = rec.snapshot();
        assert_eq!(snap.torn, 0);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..9).collect::<Vec<_>>());
    }
}
