//! The machine-speed reference. A shared virtual machine lends its
//! cores' caches and memory to other tenants, whose load can make every
//! job 1.3–2× slower for a minute or more at a time. A fixed kernel that
//! calls nothing in the program is timed between blocks of jobs; it slows
//! down with the host, so host seconds divided by its slowdown
//! ([`nominal_s`]) read much the same whichever speed the host ran at,
//! while a change to the program still moves them in full.

use crate::util::secs_since;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Pending events and per-id state slots: an event queue and a 2.5 MiB
/// table touched at random, the working-set shape of the simulator's
/// event queue and flow table.
const IDS: usize = 40_000;
/// Events popped and re-armed per measurement (about 0.2 s).
const OPS: u32 = 1_500_000;
/// How far ahead an event is re-armed, in ticks.
const HORIZON: u64 = 1_000_000;

/// The reference's time on a 2-vCPU Intel Xeon VM at 2.1 GHz while its
/// other tenants were quiet. It only sets the scale of every time the
/// benchmark reports, the same for every commit.
pub const NOMINAL_S: f64 = 0.16;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Host seconds of one run of the reference kernel. Its work is the same
/// on every call.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut state = vec![[0u64; 8]; IDS];
    let mut heap = BinaryHeap::with_capacity(IDS + 1);
    for id in 0..IDS as u32 {
        heap.push(Reverse((xorshift(&mut rng) % HORIZON, id)));
    }
    let mut acc = 0u64;
    for _ in 0..OPS {
        let Some(Reverse((at, id))) = heap.pop() else {
            break;
        };
        let slot = &mut state[id as usize];
        let k = (at % 8) as usize;
        slot[k] = slot[k].wrapping_add(at);
        acc = acc.wrapping_add(slot[0]);
        let next = (xorshift(&mut rng) % IDS as u64) as u32;
        heap.push(Reverse((at + 1 + xorshift(&mut rng) % HORIZON, next)));
    }
    black_box(acc);
    secs_since(start)
}

/// `host_s` expressed at the nominal host speed, given the reference's
/// time measured around it: a job that ran while the reference took twice
/// [`NOMINAL_S`] counts half its host time.
pub fn nominal_s(host_s: f64, reference_s: f64) -> f64 {
    host_s * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_time_scales_with_the_reference() {
        assert_eq!(nominal_s(2.0, NOMINAL_S), 2.0);
        assert_eq!(nominal_s(2.0, 2.0 * NOMINAL_S), 1.0);
        assert!(reference_s() > 0.0);
    }
}
