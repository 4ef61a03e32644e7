//! Property-based tests for the cluster simulator's accounting invariants,
//! including the journal/registry observability contract: every charge is
//! journaled, per-phase journal sums reproduce the clock bit-for-bit, and
//! the registry's counters and histograms agree with the event log.

use graphbench_gen::check::{cases, int, vec, DEFAULT_CASES};
use graphbench_gen::stream::Rng;
use graphbench_sim::json;
use graphbench_sim::{Cluster, ClusterSpec, CostProfile, Phase};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Compute(Vec<u16>),
    Exchange(Vec<u16>, Vec<u16>),
    Barrier,
    HdfsRead(Vec<u16>),
    Alloc(usize, u16),
    Free(usize, u16),
    Phase(u8),
}

fn arb_op(r: &mut Rng, machines: usize) -> Op {
    let v = |r: &mut Rng| (0..machines).map(|_| r.below_u32(1000) as u16).collect::<Vec<_>>();
    match r.below_u32(7) {
        0 => Op::Compute(v(r)),
        1 => Op::Exchange(v(r), v(r)),
        2 => Op::Barrier,
        3 => Op::HdfsRead(v(r)),
        4 => Op::Alloc(r.below_usize(machines), r.below_u32(1000) as u16),
        5 => Op::Free(r.below_usize(machines), r.below_u32(1000) as u16),
        _ => Op::Phase(r.below_u32(4) as u8),
    }
}

#[test]
fn accounting_invariants_hold_for_any_op_sequence() {
    cases(
        "accounting_invariants_hold_for_any_op_sequence",
        DEFAULT_CASES,
        |r| (int(r, 1..6) as usize, vec(r, 0..60, |r| arb_op(r, 4))),
        |(machines, ops)| accounting_invariants(*machines, ops),
    );
}

fn accounting_invariants(machines: usize, ops: &[Op]) {
    let machines = machines.clamp(1, 4);
    let mut c = Cluster::new(ClusterSpec::r3_xlarge(machines, 1 << 20), CostProfile::cpp_mpi());
    let mut in_use = vec![0u64; machines];
    let mut barriers = 0u64;
    for op in ops.iter().cloned() {
        match op {
            Op::Compute(o) => {
                let o: Vec<f64> = o.into_iter().take(machines).map(f64::from).collect();
                c.advance_compute(&o, 2).unwrap();
            }
            Op::Exchange(a, b) => {
                let a: Vec<u64> = a.into_iter().take(machines).map(u64::from).collect();
                let b: Vec<u64> = b.into_iter().take(machines).map(u64::from).collect();
                let msgs = vec![1; machines];
                c.exchange(&a, &b, &msgs).unwrap();
            }
            Op::Barrier => {
                c.barrier().unwrap();
                barriers += 1;
            }
            Op::HdfsRead(b) => {
                let b: Vec<u64> = b.into_iter().take(machines).map(u64::from).collect();
                c.hdfs_read(&b).unwrap();
            }
            Op::Alloc(m, bytes) => {
                let m = m % machines;
                if c.alloc(m, bytes as u64).is_ok() {
                    in_use[m] += bytes as u64;
                }
            }
            Op::Free(m, bytes) => {
                let m = m % machines;
                c.free(m, bytes as u64);
                in_use[m] = in_use[m].saturating_sub(bytes as u64);
            }
            Op::Phase(p) => c.begin_phase(match p {
                0 => Phase::Load,
                1 => Phase::Execute,
                2 => Phase::Save,
                _ => Phase::Overhead,
            }),
        }
        // Clock is monotone and equals the phase-time sum.
        let pt = c.phase_times();
        assert!((pt.total() - c.elapsed()).abs() < 1e-6);
    }
    assert_eq!(c.supersteps(), barriers);
    for (m, &want) in in_use.iter().enumerate() {
        assert_eq!(c.mem_in_use(m), want);
        assert!(c.mem_peaks()[m] >= c.mem_in_use(m));
        assert!(c.mem_peaks()[m] <= 1 << 20);
    }
    let cpu = c.cpu_breakdown();
    assert!(cpu.user_avg >= 0.0 && cpu.user_avg <= 1.0 + 1e-9);
    assert!(cpu.io_wait_avg >= 0.0 && cpu.io_wait_avg <= 1.0 + 1e-9);

    // --- Journal invariants -------------------------------------------
    let j = c.journal();
    // Event durations sum to the simulated clock, bit-for-bit: both
    // fold the same charge sequence in the same order.
    assert_eq!(j.total_time(), c.elapsed());
    // And per phase, against the cluster's own accounting.
    let jp = j.phase_times();
    let cp = c.phase_times();
    assert_eq!(jp.load, cp.load);
    assert_eq!(jp.execute, cp.execute);
    assert_eq!(jp.save, cp.save);
    assert_eq!(jp.overhead, cp.overhead);
    // Sequence numbers are the event index; superstep is monotone.
    for (i, ev) in j.events().iter().enumerate() {
        assert_eq!(ev.seq, i as u64);
    }
    for w in j.events().windows(2) {
        assert!(w[0].superstep <= w[1].superstep);
    }
    // Memory deltas replay to the memory in use.
    for m in 0..machines {
        let replayed: i64 = j.events().iter().filter_map(|ev| ev.mem_delta.get(m)).sum();
        assert_eq!(replayed, c.mem_in_use(m) as i64);
    }
    // Each JSONL line is the journal's own JSON entry for its event, as
    // a run record serializes it.
    let jsonl = j.to_jsonl();
    let record = json::to_value(j);
    let entries = record["events"].as_array().unwrap();
    assert_eq!(jsonl.lines().count(), entries.len());
    for (line, entry) in jsonl.lines().zip(entries) {
        assert_eq!(&json::parse(line).unwrap(), entry);
    }

    // --- Registry invariants ------------------------------------------
    let reg = c.registry();
    // Per-kind: histogram observation count == event counter == number
    // of journal events of that kind.
    let mut events_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut hist_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in j.events() {
        *events_by_kind.entry(ev.kind.counter()).or_default() += 1;
        *hist_by_kind.entry(ev.kind.seconds_histogram()).or_default() += 1;
    }
    for (name, n) in events_by_kind {
        assert_eq!(reg.counter(name), n, "counter {}", name);
    }
    for (name, n) in hist_by_kind {
        let h = reg.histogram(name).unwrap();
        assert_eq!(h.count(), n, "histogram {}", name);
        // Bucket counts always sum to the total observation count.
        assert_eq!(h.counts().iter().sum::<u64>(), h.count());
    }
    // Byte and message totals match the event log.
    let net: u64 = j.events().iter().map(|ev| ev.net_bytes).sum();
    assert_eq!(reg.counter("net.bytes"), net);
    let msgs: u64 = j.events().iter().map(|ev| ev.messages).sum();
    assert_eq!(reg.counter("net.messages"), msgs);
}
