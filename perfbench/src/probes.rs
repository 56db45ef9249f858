//! Replay probes: each times one layer's public operation in isolation,
//! on inputs shaped like the traced job's (its queue discipline, its ACK
//! stream, its graph, its specimens). Every probe repeats its loop
//! [`ROUNDS`] times and reports the median, in ns (or µs, ms) per op.

use crate::tracecc::AckRecord;
use crate::util::{median, secs_since};
use netsim::graph::NetGraph;
use netsim::packet::{FlowId, Packet, PacketArena};
use netsim::queue::QueueSpec;
use netsim::rng::SimRng;
use netsim::sched::{EventQueue, SchedulerKind};
use netsim::time::Ns;
use remy::memory::{Memory, MemoryTracker};
use remy::prelude::*;
use remy::whisker::FlatTree;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: usize = 5;

fn median_of_rounds(mut round: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..ROUNDS).map(|_| round()).collect();
    median(&xs)
}

/// ns per enqueue + dequeue on `spec.build()`, with a standing backlog
/// of 64 packets from 8 flows and one 1500-byte arrival every 12 µs
/// (1 Gbps).
pub fn queue_op_ns(spec: &QueueSpec) -> f64 {
    const OPS: usize = 200_000;
    median_of_rounds(|| {
        let mut q = spec.build();
        let mut arena = PacketArena::with_capacity(256);
        let mut now = Ns::ZERO;
        let mut seq = 0u64;
        let mut arrive =
            |q: &mut Box<dyn netsim::queue::Queue>, arena: &mut PacketArena, now: Ns| {
                let flow = FlowId::first((seq % 8) as usize);
                let id = arena.alloc(Packet::data(flow, seq, 1500, now));
                seq += 1;
                black_box(q.enqueue(now, id, arena));
            };
        for _ in 0..64 {
            arrive(&mut q, &mut arena, now);
        }
        let t = Instant::now();
        for _ in 0..OPS {
            now += Ns::from_micros(12);
            arrive(&mut q, &mut arena, now);
            if let Some(id) = q.dequeue(now, &mut arena) {
                arena.free(black_box(id));
            }
        }
        secs_since(t) * 1e9 / OPS as f64
    })
}

/// ns per pop + push on the production scheduler holding `pending`
/// events, each re-armed 1 µs–10 ms ahead of the one just popped.
pub fn sched_op_ns(pending: usize) -> f64 {
    const OPS: usize = 400_000;
    median_of_rounds(|| {
        let mut rng = SimRng::new(7);
        let mut q: EventQueue<u64> = EventQueue::new(SchedulerKind::Wheel);
        for i in 0..pending as u64 {
            q.push(Ns(rng.range_u64(1_000, 10_000_000)), i);
        }
        let t = Instant::now();
        for _ in 0..OPS {
            let Some((at, _, ev)) = q.pop() else { break };
            q.push(at + Ns(rng.range_u64(1_000, 10_000_000)), black_box(ev));
        }
        secs_since(t) * 1e9 / OPS as f64
    })
}

/// Replays recorded RemyCC ACK streams: ns per `MemoryTracker::on_ack`,
/// then ns per `FlatTree::lookup_slot` on the memories it produced.
/// Both are 0 when no RemyCC sender ran.
pub fn memory_and_lookup_ns(acks: &[AckRecord], table: Option<&Arc<WhiskerTree>>) -> (f64, f64) {
    let Some(table) = table else {
        return (0.0, 0.0);
    };
    let n = acks
        .iter()
        .filter(|a| matches!(a, AckRecord::Ack { .. }))
        .count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let flat: Arc<FlatTree> = table.flat();
    let mut memories: Vec<Memory> = Vec::with_capacity(n);
    let update = median_of_rounds(|| {
        memories.clear();
        let mut tracker = MemoryTracker::new();
        let t = Instant::now();
        for a in acks {
            match *a {
                AckRecord::Reset => tracker.reset(),
                AckRecord::Ack {
                    now,
                    echo_ts,
                    rtt_sample,
                    min_rtt,
                } => memories.push(tracker.on_ack(now, echo_ts, rtt_sample, min_rtt)),
            }
        }
        secs_since(t) * 1e9 / n as f64
    });
    let lookup = median_of_rounds(|| {
        let t = Instant::now();
        let mut acc = 0usize;
        for m in &memories {
            acc = acc.wrapping_add(flat.lookup_slot(black_box(*m)));
        }
        black_box(acc);
        secs_since(t) * 1e9 / n as f64
    });
    (update, lookup)
}

/// µs per `NetGraph::forwarding` with all links up, and with the links
/// in `down` failed.
pub fn forwarding_us(graph: &NetGraph, down: &[bool]) -> (f64, f64) {
    const CALLS: usize = 200;
    let up = vec![false; graph.links.len()];
    let time = |mask: &[bool]| {
        median_of_rounds(|| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(graph.forwarding(black_box(mask)));
            }
            secs_since(t) * 1e6 / CALLS as f64
        })
    };
    (time(&up), time(down))
}

/// Per-specimen host times (ms) of `evaluate_per_specimen`, replayed on
/// the optimizer's first `sets` specimen draws for `seed` with `table`,
/// and the load imbalance of scheduling each draw's cells dynamically on
/// `workers` workers (slowest worker's busy time over the mean).
pub fn evaluator_cells(
    eval: &Evaluator,
    seed: u64,
    sets: u64,
    table: &Arc<WhiskerTree>,
    workers: usize,
) -> (Vec<f64>, f64) {
    let mut cells = Vec::new();
    let mut imbalance = Vec::new();
    for k in 1..=sets {
        let specimens = eval.specimens(seed.wrapping_add(k));
        let times: Vec<f64> = specimens
            .iter()
            .map(|sc| {
                let t = Instant::now();
                black_box(eval.evaluate_per_specimen(table, std::slice::from_ref(sc)));
                secs_since(t) * 1e3
            })
            .collect();
        imbalance.push(list_schedule_imbalance(&times, workers));
        cells.extend(times);
    }
    (cells, median(&imbalance))
}

/// Busy-time imbalance when `times`, in order, are each taken by the
/// first free worker (how the evaluator's work-stealing cursor assigns
/// cells): max busy time over mean busy time.
pub fn list_schedule_imbalance(times: &[f64], workers: usize) -> f64 {
    let mut busy = vec![0.0f64; workers.max(1)];
    for &t in times {
        let (i, _) = busy
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one worker");
        busy[i] += t;
    }
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_even_and_uneven_loads() {
        assert_eq!(list_schedule_imbalance(&[1.0, 1.0], 2), 1.0);
        assert_eq!(list_schedule_imbalance(&[3.0, 1.0], 2), 1.5);
        assert_eq!(list_schedule_imbalance(&[], 2), 1.0);
    }

    #[test]
    fn probes_report_positive_costs() {
        assert!(queue_op_ns(&QueueSpec::DropTail { capacity: 1000 }) > 0.0);
        assert!(sched_op_ns(48) > 0.0);
    }
}
