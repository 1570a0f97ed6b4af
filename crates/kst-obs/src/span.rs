//! The fixed-capacity ring-buffer span tracer.
//!
//! Events carry a **logical sequence number** always (assigned at record
//! time, monotone per tracer) and wall-clock fields only when the caller
//! fills them via [`Tracer::record_timed`] — the tracer itself never
//! reads a clock, so recording on the deterministic layer stays a pure
//! function of the trace. The ring is pre-sized at construction and
//! overwrites the oldest event when full, so recording is
//! allocation-free and memory is bounded regardless of run length.

/// The typed events the workspace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// One served request (args: the local endpoint keys).
    Serve,
    /// A rebuild plan was applied (args: nodes re-formed, patches).
    RebuildApply,
    /// A lane starts draining its shards' ops for a round (args: ops, lane).
    ShardDispatch,
    /// Routing finished a round with ops queued for a lane (args: lane
    /// index, ops in the lane's round).
    BatchHandoff,
    /// A live-resharding migration moved keys across a shard boundary
    /// (args: boundary index, keys moved).
    Migration,
}

impl EventKind {
    /// Stable lowercase name (used by the trace exporters).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Serve => "serve",
            EventKind::RebuildApply => "rebuild_apply",
            EventKind::ShardDispatch => "shard_dispatch",
            EventKind::BatchHandoff => "batch_handoff",
            EventKind::Migration => "migration",
        }
    }
}

/// One recorded span/event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Logical sequence number within the owning tracer (monotone,
    /// assigned even for events the ring later overwrites).
    pub seq: u64,
    /// Event type.
    pub kind: EventKind,
    /// Track (chrome://tracing `tid`): shard id, or a synthetic track
    /// for the routing thread or a lane.
    pub track: u32,
    /// First argument (kind-specific, see [`EventKind`]).
    pub a: u64,
    /// Second argument (kind-specific).
    pub b: u64,
    /// Wall-clock timestamp in µs from the run origin; 0 on the
    /// deterministic layer.
    pub ts_us: u64,
    /// Wall-clock duration in µs; 0 on the deterministic layer.
    pub dur_us: u64,
}

/// A fixed-capacity ring buffer of [`SpanEvent`]s.
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: Vec<SpanEvent>,
    cap: usize,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Events ever recorded (== next seq).
    seq: u64,
    track: u32,
}

impl Tracer {
    /// A tracer keeping the last `capacity` events for `track`. The ring
    /// is reserved here — recording never allocates. `capacity` 0 is a
    /// null tracer: sequence numbers still advance, nothing is kept.
    pub fn with_capacity(track: u32, capacity: usize) -> Tracer {
        Tracer {
            ring: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            seq: 0,
            track,
        }
    }

    /// Records an event with the next sequence number and no wall-clock
    /// data (the deterministic layer). Returns the sequence number.
    pub fn record(&mut self, kind: EventKind, a: u64, b: u64) -> u64 {
        self.record_timed(kind, a, b, 0, 0)
    }

    /// Records an event with caller-supplied wall-clock fields (the
    /// engine/bench layer — the tracer itself never reads a clock).
    pub fn record_timed(
        &mut self,
        kind: EventKind,
        a: u64,
        b: u64,
        ts_us: u64,
        dur_us: u64,
    ) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        if self.cap == 0 {
            return seq;
        }
        let ev = SpanEvent {
            seq,
            kind,
            track: self.track,
            a,
            b,
            ts_us,
            dur_us,
        };
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        seq
    }

    /// The track id events are stamped with.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events ever recorded, including ones the ring has since dropped.
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Events dropped by ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.seq - self.ring.len() as u64
    }

    /// The held events in sequence order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &SpanEvent> {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Appends another tracer's held events (payloads and wall-clock
    /// fields preserved, sequence numbers reassigned locally so the
    /// merged stream stays monotone). Used when per-shard rings are
    /// folded into one report.
    pub fn merge(&mut self, other: &Tracer) {
        // Collect first: `other` may alias capacity decisions, and the
        // borrow of `other.events()` must end before mutation when
        // callers merge a clone of `self`.
        // ksan-allow: no-alloc merging rings is a cold join-time fold, never on the serve path
        let evs: Vec<SpanEvent> = other.events().copied().collect();
        for ev in evs {
            let seq = self.seq;
            self.seq += 1;
            if self.cap == 0 {
                continue;
            }
            let stamped = SpanEvent { seq, ..ev };
            if self.ring.len() < self.cap {
                self.ring.push(stamped);
            } else {
                self.ring[self.head] = stamped;
                self.head += 1;
                if self.head == self.cap {
                    self.head = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotone_and_survive_wrap() {
        let mut t = Tracer::with_capacity(3, 4);
        for i in 0..10u64 {
            let seq = t.record(EventKind::Serve, i, i + 1);
            assert_eq!(seq, i);
        }
        assert_eq!(t.total_recorded(), 10);
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "oldest-first after wrap");
        assert!(t.events().all(|e| e.track == 3));
    }

    #[test]
    fn null_tracer_counts_but_keeps_nothing() {
        let mut t = Tracer::with_capacity(0, 0);
        t.record(EventKind::RebuildApply, 1, 2);
        t.record(EventKind::Serve, 3, 4);
        assert_eq!(t.total_recorded(), 2);
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn merge_preserves_payloads_and_renumbers() {
        let mut a = Tracer::with_capacity(0, 8);
        a.record_timed(EventKind::Serve, 1, 2, 100, 5);
        let mut b = Tracer::with_capacity(1, 8);
        b.record_timed(EventKind::RebuildApply, 9, 3, 200, 350);
        a.merge(&b);
        let evs: Vec<&SpanEvent> = a.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].kind, EventKind::RebuildApply);
        assert_eq!(evs[1].track, 1, "merged events keep their track");
        assert_eq!(evs[1].ts_us, 200);
        assert_eq!(evs[1].seq, 1, "renumbered into the target stream");
    }

    #[test]
    fn recording_never_allocates_after_construction() {
        // Capacity math only — the runtime proof lives in
        // tests/zero_alloc.rs under the counting allocator.
        let mut t = Tracer::with_capacity(0, 16);
        let cap_before = t.ring.capacity();
        for i in 0..100 {
            t.record(EventKind::Serve, i, 0);
        }
        assert_eq!(t.ring.capacity(), cap_before);
    }
}
