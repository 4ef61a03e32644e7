//! Per-machine span timeline, critical-path attribution, and Chrome
//! trace-event export.
//!
//! The [`Timeline`] is a view of the run's [`Journal`]: its spans are the
//! journal's **timed** events (every kind except alloc/free) in commit
//! order, and it shares the journal's storage. Each timed event carries the
//! cluster-aggregate duration of its charge (the slowest machine under BSP
//! semantics) and the per-machine **base** (fault-free) busy vector the
//! cluster computed to derive `dt` and `barrier_wait`. That answers the
//! paper's *why* questions (§6): which machine gated each barrier, how much
//! of a label's cost is skew, where simulated time went per machine.
//!
//! A span's start is not stored. The cluster clock advances only at the
//! commit point that records a timed event, so the running sum of `dt` in
//! commit order is the clock at each commit, bit-for-bit.
//!
//! Invariants, locked by `tests/trace_invariants.rs`:
//!
//! * spans are contiguous: a span's `start + dt` is the next span's `start`
//!   bit-for-bit (both are the same f64 addition the cluster clock
//!   performed);
//! * replaying span durations in order ([`Timeline::total_time`],
//!   [`CriticalPath::total`]) reproduces the run's simulated runtime
//!   bit-for-bit;
//! * `per_machine[i] <= dt` for every span (the charge *is* its slowest
//!   machine), so each machine's busy sum is bounded by the makespan;
//! * all of it is invariant across host thread counts.
//!
//! Fault surpluses (straggler windows, degradation) are charged as
//! separate labeled stalls by the cluster, so `per_machine` stores the
//! *base* times and `max(per_machine) == dt` holds bitwise even on faulted
//! runs.
//!
//! [`Timeline::chrome_trace`] exports the Chrome trace-event JSON that
//! <https://ui.perfetto.dev> (or `chrome://tracing`) loads directly: a
//! `cluster` track nesting run → phase → superstep → charge, one track per
//! simulated machine with its busy portion of each charge, and — when host
//! tracing is enabled — one track per host thread with real wallclock
//! executor spans, so simulated and host cost can be compared per label.

use crate::cluster::Phase;
use crate::hosttrace::HostSpan;
use crate::journal::{Journal, JournalEvent};
use crate::json::{self, ToJson, Writer};
use crate::MachineId;
use std::fmt::Write as _;

/// One (gating machine, label) bucket of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathRow {
    /// `None` attributes to the cluster as a whole (barriers, start-up,
    /// recovery stalls — charges no single machine gates).
    pub machine: Option<MachineId>,
    pub label: &'static str,
    /// Simulated seconds of the spans this bucket gates, accumulated in
    /// span order.
    pub seconds: f64,
    /// Skew seconds: how long the rest of the cluster waited for the
    /// gating machine inside those spans.
    pub skew: f64,
    /// Number of spans in the bucket.
    pub spans: u64,
}

/// The run's critical path: every span attributed to exactly one
/// (gating machine, label) bucket. The buckets partition the spans, so
/// [`CriticalPath::total`] — the in-order replay of all span durations —
/// decomposes the simulated runtime bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Replay of every span duration in commit order; bit-identical to the
    /// run's simulated runtime.
    pub total: f64,
    /// Buckets sorted by `seconds` descending (ties: first appearance).
    pub rows: Vec<CriticalPathRow>,
}

/// A contiguous block of spans sharing one grouping key (phase or
/// superstep) — the derived middle levels of the span hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Span index range `[first, last)` into [`Timeline::spans`].
    pub first: usize,
    pub last: usize,
}

/// Every timed charge of one run, in commit order: a view of the journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    machines: usize,
    journal: Journal,
}

/// How the export writes one span: the timed event's fields, with its
/// start time after `kind` and its per-machine vector last.
struct SpanJson<'a> {
    start: f64,
    ev: &'a JournalEvent,
}

impl ToJson for SpanJson<'_> {
    fn write_json(&self, w: &mut Writer) {
        let ev = self.ev;
        w.object(|o| {
            o.field("seq", &ev.seq);
            o.field("superstep", &ev.superstep);
            o.field("phase", &ev.phase);
            o.field("label", ev.label);
            o.field("kind", &ev.kind);
            o.field("start", &self.start);
            o.field("dt", &ev.dt);
            if json::nonzero(&ev.barrier_wait) {
                o.field("barrier_wait", &ev.barrier_wait);
            }
            if json::nonempty(&ev.per_machine) {
                o.field("per_machine", &ev.per_machine);
            }
        });
    }
}

impl ToJson for Timeline {
    fn write_json(&self, w: &mut Writer) {
        w.object(|o| {
            o.field("machines", &self.machines);
            o.key("spans").array(self.spans().map(|(start, ev)| SpanJson { start, ev }));
        });
    }
}

impl Timeline {
    /// The timed events of `journal`, exported on `machines` per-machine
    /// tracks. Shares the journal's events instead of copying them.
    pub fn new(machines: usize, journal: Journal) -> Self {
        Timeline { machines, journal }
    }

    /// Simulated machines in the cluster (one export track each). After an
    /// elastic scale-out this is the widest membership the run reached;
    /// spans committed earlier keep their narrower `per_machine` vectors.
    pub fn machines(&self) -> usize {
        self.machines
    }

    fn timed(&self) -> impl Iterator<Item = &JournalEvent> + '_ {
        self.journal.events().iter().filter(|ev| ev.kind.is_timed())
    }

    /// Every span as its simulated start and its journal event, in commit
    /// order. The start is the running sum of the earlier spans' `dt`.
    pub fn spans(&self) -> impl Iterator<Item = (f64, &JournalEvent)> + '_ {
        let mut clock = 0.0;
        self.timed().map(move |ev| {
            let start = clock;
            clock += ev.dt;
            (start, ev)
        })
    }

    pub fn len(&self) -> usize {
        self.timed().count()
    }

    pub fn is_empty(&self) -> bool {
        self.timed().next().is_none()
    }

    /// Replay of span durations in commit order — bit-identical to the
    /// cluster clock (zero-duration memory events never advance it).
    pub fn total_time(&self) -> f64 {
        let mut t = 0.0;
        for ev in self.timed() {
            t += ev.dt;
        }
        t
    }

    /// Machine `m`'s base busy seconds, accumulated in span order. Bounded
    /// by [`Timeline::total_time`]: every addend is `<=` the corresponding
    /// span's `dt` and f64 addition is monotone.
    pub fn machine_busy(&self, m: MachineId) -> f64 {
        let mut t = 0.0;
        for ev in self.timed() {
            if let Some(&b) = ev.per_machine.get(m) {
                t += b;
            }
        }
        t
    }

    /// Critical-path extraction: attribute each span's full duration to
    /// its gating (machine, label) bucket, replaying in span order so the
    /// bucket sums decompose the simulated runtime bit-for-bit.
    pub fn critical_path(&self) -> CriticalPath {
        let mut total = 0.0;
        let mut rows: Vec<CriticalPathRow> = Vec::new();
        for ev in self.timed() {
            total += ev.dt;
            let machine = ev.gating_machine();
            let idx = match rows.iter().position(|r| r.machine == machine && r.label == ev.label) {
                Some(i) => i,
                None => {
                    rows.push(CriticalPathRow {
                        machine,
                        label: ev.label,
                        seconds: 0.0,
                        skew: 0.0,
                        spans: 0,
                    });
                    rows.len() - 1
                }
            };
            let row = &mut rows[idx];
            row.seconds += ev.dt;
            row.skew += ev.barrier_wait;
            row.spans += 1;
        }
        rows.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        CriticalPath { total, rows }
    }

    /// Contiguous phase blocks, in time order.
    pub fn phase_blocks(&self) -> Vec<Block> {
        self.blocks(|ev| Some(ev.phase), |p| p.name().to_string())
    }

    /// Contiguous superstep blocks within the execute phase.
    pub fn superstep_blocks(&self) -> Vec<Block> {
        self.blocks(
            |ev| (ev.phase == Phase::Execute).then_some(ev.superstep),
            |s| format!("superstep {s}"),
        )
    }

    /// Maximal runs of consecutive spans with the same `key`; spans whose
    /// key is `None` belong to no block.
    fn blocks<K: PartialEq>(
        &self,
        key: impl Fn(&JournalEvent) -> Option<K>,
        name: impl Fn(&K) -> String,
    ) -> Vec<Block> {
        let mut blocks: Vec<Block> = Vec::new();
        let mut prev: Option<K> = None;
        for (i, (start, ev)) in self.spans().enumerate() {
            let k = key(ev);
            if let Some(kv) = &k {
                let end = start + ev.dt;
                match blocks.last_mut() {
                    Some(b) if prev.as_ref() == Some(kv) => {
                        b.end = end;
                        b.last = i + 1;
                    }
                    _ => blocks.push(Block { name: name(kv), start, end, first: i, last: i + 1 }),
                }
            }
            prev = k;
        }
        blocks
    }

    /// Chrome trace-event JSON for the simulated run only (no host track).
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_with_host(&[])
    }

    /// Chrome trace-event JSON with an additional host process whose
    /// tracks carry real wallclock executor spans (see
    /// [`crate::hosttrace`]). Loads directly in Perfetto.
    pub fn chrome_trace_with_host(&self, host: &[HostSpan]) -> String {
        // Trace-event timestamps are microseconds.
        let us = |secs: f64| secs * 1e6;
        let spans: Vec<(f64, &JournalEvent)> = self.spans().collect();
        let mut ev = ChromeEvents::new();
        ev.meta(SIM_PID, 0, "process_name", "simulated cluster");
        ev.meta(SIM_PID, 0, "thread_name", "cluster (critical path)");
        for m in 0..self.machines {
            ev.meta(SIM_PID, 1 + m as u64, "thread_name", &format!("machine {m}"));
        }
        if let (Some(&(first, _)), Some(&(start, last))) = (spans.first(), spans.last()) {
            ev.complete((SIM_PID, 0), "run", "run", us(first), us(start + last.dt - first), None);
        }
        for b in self.phase_blocks() {
            ev.complete((SIM_PID, 0), &b.name, "phase", us(b.start), us(b.end - b.start), None);
        }
        for b in self.superstep_blocks() {
            ev.complete((SIM_PID, 0), &b.name, "superstep", us(b.start), us(b.end - b.start), None);
        }
        for &(start, s) in &spans {
            let args = format!(
                "{{\"seq\":{},\"superstep\":{},\"barrier_wait\":{},\"gating_machine\":{}}}",
                s.seq,
                s.superstep,
                json_f64(s.barrier_wait),
                match s.gating_machine() {
                    Some(m) => m.to_string(),
                    None => "null".to_string(),
                },
            );
            ev.complete((SIM_PID, 0), s.label, s.kind.name(), us(start), us(s.dt), Some(&args));
            for (m, &busy) in s.per_machine.iter().enumerate() {
                if busy > 0.0 {
                    ev.complete(
                        (SIM_PID, 1 + m as u64),
                        s.label,
                        s.kind.name(),
                        us(start),
                        us(busy),
                        None,
                    );
                }
            }
        }
        if !host.is_empty() {
            ev.meta(HOST_PID, 0, "process_name", "host threads (wallclock)");
            let mut threads: Vec<usize> = host.iter().map(|h| h.thread).collect();
            threads.sort_unstable();
            threads.dedup();
            for &t in &threads {
                ev.meta(HOST_PID, t as u64, "thread_name", &format!("host thread {t}"));
            }
            for h in host {
                ev.complete(
                    (HOST_PID, h.thread as u64),
                    &h.label,
                    "host",
                    h.start_us as f64,
                    h.dur_us as f64,
                    None,
                );
            }
        }
        ev.finish()
    }
}

/// pid of the simulated-cluster process in the exported trace.
const SIM_PID: u64 = 1;
/// pid of the host-thread process in the exported trace.
const HOST_PID: u64 = 2;

/// Minimal Chrome trace-event writer. The format is JSON (an object with a
/// `traceEvents` array of `"M"` metadata and `"X"` complete events); the
/// writer emits it directly so the export needs no intermediate value tree.
struct ChromeEvents {
    out: String,
    any: bool,
}

impl ChromeEvents {
    fn new() -> Self {
        ChromeEvents { out: String::from("{\"traceEvents\":[\n"), any: false }
    }

    fn sep(&mut self) {
        if self.any {
            self.out.push_str(",\n");
        }
        self.any = true;
    }

    /// An `"M"` metadata event naming a process or thread.
    fn meta(&mut self, pid: u64, tid: u64, what: &str, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{what}\",\
             \"args\":{{\"name\":{}}}}}",
            quoted(name),
        );
    }

    /// An `"X"` complete event: one span with a start and a duration.
    fn complete(
        &mut self,
        (pid, tid): (u64, u64),
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: Option<&str>,
    ) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"cat\":{},\
             \"ts\":{},\"dur\":{}",
            quoted(name),
            quoted(cat),
            json_f64(ts_us),
            json_f64(dur_us),
        );
        if let Some(a) = args {
            let _ = write!(self.out, ",\"args\":{a}");
        }
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

/// JSON number for an f64 (finite by construction; `1e21`-style exponents
/// from `{}` formatting are valid JSON numbers).
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite trace value {v}");
    // `{}` prints integral floats without a dot; that is still a JSON
    // number, so no fixup is needed.
    format!("{v}")
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::escape_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Timeline {
        use crate::journal::EventKind;
        let rows = [
            (0, Phase::Load, "load", EventKind::HdfsRead, 2.0, vec![2.0, 1.0]),
            (0, Phase::Load, "load", EventKind::Alloc, 0.0, vec![]),
            (0, Phase::Execute, "superstep", EventKind::Compute, 3.0, vec![1.0, 3.0]),
            (0, Phase::Execute, "shuffle", EventKind::Network, 1.0, vec![1.0, 0.5]),
            (0, Phase::Execute, "barrier", EventKind::Barrier, 0.5, vec![]),
            (1, Phase::Execute, "superstep", EventKind::Compute, 2.0, vec![2.0, 1.0]),
            (1, Phase::Save, "save", EventKind::HdfsWrite, 1.0, vec![1.0, 1.0]),
        ];
        let mut j = Journal::new();
        for (seq, (superstep, phase, label, kind, dt, per_machine)) in rows.into_iter().enumerate()
        {
            j.push(JournalEvent {
                seq: seq as u64,
                superstep,
                phase,
                label,
                kind,
                dt,
                mem_delta: if kind.is_timed() { vec![] } else { vec![64, 64] },
                per_machine,
                ..JournalEvent::default()
            });
        }
        Timeline::new(2, j)
    }

    #[test]
    fn spans_are_contiguous_and_total_replays_the_clock() {
        let t = demo();
        let spans: Vec<_> = t.spans().collect();
        // The memory event is not a span.
        assert_eq!(spans.len(), 6);
        assert_eq!(t.len(), 6);
        let starts: Vec<f64> = spans.iter().map(|&(start, _)| start).collect();
        assert_eq!(starts, vec![0.0, 2.0, 5.0, 6.0, 6.5, 8.5]);
        for w in spans.windows(2) {
            assert_eq!((w[0].0 + w[0].1.dt).to_bits(), w[1].0.to_bits());
        }
        assert_eq!(t.total_time(), 9.5);
    }

    #[test]
    fn gating_machine_is_the_slowest_and_first_wins_ties() {
        let t = demo();
        let gating: Vec<Option<MachineId>> = t.spans().map(|(_, s)| s.gating_machine()).collect();
        assert_eq!(gating[0], Some(0));
        assert_eq!(gating[1], Some(1));
        assert_eq!(gating[3], None); // barrier
        assert_eq!(gating[5], Some(0)); // tie -> first
    }

    #[test]
    fn machine_busy_is_bounded_by_the_makespan() {
        let t = demo();
        assert_eq!(t.machine_busy(0), 7.0);
        assert_eq!(t.machine_busy(1), 6.5);
        assert!(t.machine_busy(0) <= t.total_time());
        assert!(t.machine_busy(1) <= t.total_time());
    }

    #[test]
    fn critical_path_partitions_spans_and_reproduces_the_total() {
        let t = demo();
        let cp = t.critical_path();
        assert_eq!(cp.total.to_bits(), t.total_time().to_bits());
        assert_eq!(cp.rows.iter().map(|r| r.spans).sum::<u64>(), t.len() as u64);
        // Machine 0 gates load (2s) + superstep 1 (2s) + shuffle (1s) +
        // save (1s); machine 1 gates superstep 0 (3s); nobody gates the
        // barrier (0.5s).
        let top = &cp.rows[0];
        assert_eq!((top.machine, top.label), (Some(1), "superstep"));
        assert_eq!(top.seconds, 3.0);
        let barrier = cp.rows.iter().find(|r| r.label == "barrier").unwrap();
        assert_eq!(barrier.machine, None);
        assert_eq!(barrier.seconds, 0.5);
        // Same-label spans gated by different machines land in distinct
        // rows: "superstep" appears for machine 0 and machine 1.
        let superstep_rows: Vec<_> = cp.rows.iter().filter(|r| r.label == "superstep").collect();
        assert_eq!(superstep_rows.len(), 2);
    }

    #[test]
    fn blocks_derive_the_phase_and_superstep_hierarchy() {
        let t = demo();
        let blocks = t.phase_blocks();
        let phases: Vec<&str> = blocks.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(phases, vec!["load", "execute", "save"]);
        let steps = t.superstep_blocks();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].name, "superstep 0");
        assert_eq!((steps[0].first, steps[0].last), (1, 4));
        assert_eq!(steps[1].name, "superstep 1");
        assert_eq!(steps[0].end, steps[1].start);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_track_per_machine() {
        let t = demo();
        let host = vec![HostSpan { thread: 0, label: "superstep".into(), start_us: 10, dur_us: 5 }];
        let trace = t.chrome_trace_with_host(&host);
        let v: json::Value = json::parse(&trace).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("traceEvents array");
        // Metadata names one track per simulated machine.
        let machine_tracks: Vec<&json::Value> = events
            .iter()
            .filter(|e| {
                e["ph"] == "M"
                    && e["name"] == "thread_name"
                    && e["args"]["name"].as_str().is_some_and(|n| n.starts_with("machine "))
            })
            .collect();
        assert_eq!(machine_tracks.len(), 2);
        // Every complete event is well-formed.
        let xs: Vec<&json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert!(!xs.is_empty());
        for x in &xs {
            assert!(x["ts"].as_f64().is_some(), "{x}");
            assert!(x["dur"].as_f64().is_some_and(|d| d >= 0.0), "{x}");
            assert!(x["name"].as_str().is_some(), "{x}");
        }
        // The host process contributed its track.
        assert!(xs.iter().any(|x| x["pid"].as_u64() == Some(2)));
        // The run envelope covers the whole clock.
        let run = xs.iter().find(|x| x["name"] == "run").unwrap();
        assert_eq!(run["dur"].as_f64().unwrap(), 9.5e6);
    }

    #[test]
    fn empty_timeline_exports_an_empty_but_valid_trace() {
        let t = Timeline::new(3, Journal::new());
        let v: json::Value = json::parse(&t.chrome_trace()).unwrap();
        assert!(v["traceEvents"].as_array().unwrap().iter().all(|e| e["ph"] == "M"));
    }

    #[test]
    fn labels_are_json_escaped() {
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
