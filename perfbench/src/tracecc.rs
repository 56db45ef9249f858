//! A counting, sampling decorator around `CongestionControl`.
//!
//! Every call into the wrapped controller is counted. Only a deterministic
//! one-in-[`SAMPLE_EVERY`] subset of calls per method is timed, and the
//! calibrated cost of reading the clock is subtracted from each timed
//! call, so a traced run stays close to the speed of an untraced one.
//! Counts depend only on the simulation, never on timing, so two traced
//! runs of one seed must produce identical counts.
//!
//! Each decorator keeps its tallies locally and adds them to a shared
//! [`Tally`] when it is dropped (the simulator drops every controller
//! before `run` returns, or when the caller drops the returned boxes).

use netsim::cc::{AckInfo, CongestionControl, LossEvent, Usage};
use netsim::packet::XcpHeader;
use netsim::time::Ns;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One call in this many, per method and controller, is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Per-controller cap on recorded RemyCC ACKs, and the cap on the total
/// kept in a [`Tally`] for the memory/whisker replay probe.
const ACKS_PER_CC: usize = 50_000;
const ACKS_TOTAL: usize = 200_000;

/// The controller families the benchmark reports separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    NewReno = 0,
    Cubic = 1,
    RemyCc = 2,
    Other = 3,
}

pub const FAMILIES: usize = 4;

impl Family {
    fn of(name: &str) -> Family {
        match name {
            "NewReno" => Family::NewReno,
            "Cubic" => Family::Cubic,
            n if n.starts_with("RemyCC") => Family::RemyCc,
            _ => Family::Other,
        }
    }
}

/// The trait methods the decorator tells apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    OnAck = 0,
    OnLoss = 1,
    OnPacketSent = 2,
    Cwnd = 3,
    Pacing = 4,
    OnFlowStart = 5,
    /// `xcp_header`, `ecn_capable` and `name`.
    Other = 6,
}

pub const METHODS: usize = 7;

/// Calls of one method and the timing of its sampled subset.
#[derive(Clone, Copy, Debug, Default)]
pub struct MethodTally {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_ns: f64,
}

impl MethodTally {
    /// Mean ns per call estimated from the sample (0 if none was taken).
    pub fn mean_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns / self.sampled as f64
        }
    }

    fn add(&mut self, o: &MethodTally) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
    }
}

/// One entry of a RemyCC sender's recorded ACK stream.
#[derive(Clone, Copy, Debug)]
pub enum AckRecord {
    /// `on_flow_start`: the sender's memory returns to its initial state.
    Reset,
    /// The fields `MemoryTracker::on_ack` consumes.
    Ack {
        now: Ns,
        echo_ts: Ns,
        rtt_sample: Ns,
        min_rtt: Ns,
    },
}

/// Tallies shared by every decorator of one traced job.
#[derive(Debug, Default)]
pub struct Tally {
    pub by: [[MethodTally; METHODS]; FAMILIES],
    /// RemyCC ACK streams, one sender after another, each led by a
    /// `Reset`; bounded by `ACKS_TOTAL`.
    pub acks: Vec<AckRecord>,
    instances: u64,
}

impl Tally {
    /// Calls summed over families for one method.
    pub fn calls(&self, m: Method) -> u64 {
        self.by.iter().map(|f| f[m as usize].calls).sum()
    }

    /// Every call of every method.
    pub fn total_calls(&self) -> u64 {
        self.by.iter().flatten().map(|t| t.calls).sum()
    }

    /// The call counts alone, which must repeat exactly across runs.
    pub fn counts(&self) -> Vec<u64> {
        self.by.iter().flatten().map(|t| t.calls).collect()
    }

    /// Estimated host ns spent inside controllers: each method's calls
    /// times its sampled mean.
    pub fn estimated_ns(&self) -> f64 {
        self.by
            .iter()
            .flatten()
            .map(|t| t.calls as f64 * t.mean_ns())
            .sum()
    }
}

/// The shared sink decorators report into.
pub type SharedTally = Arc<Mutex<Tally>>;

/// Wraps `inner` so its calls are counted into `sink`. `clock_ns` is the
/// calibrated cost of a back-to-back clock read.
pub fn traced(
    inner: Box<dyn CongestionControl>,
    sink: &SharedTally,
    clock_ns: f64,
) -> Box<dyn CongestionControl> {
    let phase = {
        let mut t = sink.lock().expect("tally lock poisoned by a panicking run");
        t.instances += 1;
        t.instances
    };
    let family = Family::of(inner.name());
    Box::new(Traced {
        inner,
        family,
        phase,
        clock_ns,
        local: Default::default(),
        acks: Vec::new(),
        sink: Arc::clone(sink),
    })
}

struct Traced {
    inner: Box<dyn CongestionControl>,
    family: Family,
    /// Offsets which calls are sampled, so short-lived controllers do not
    /// all sample their first call.
    phase: u64,
    clock_ns: f64,
    local: [Cell<MethodTally>; METHODS],
    acks: Vec<AckRecord>,
    sink: SharedTally,
}

/// Counts a call of `m` and, on the sampled subset, times `f`.
fn count<R>(
    local: &[Cell<MethodTally>; METHODS],
    phase: u64,
    clock_ns: f64,
    m: Method,
    f: impl FnOnce() -> R,
) -> R {
    let cell = &local[m as usize];
    let mut t = cell.get();
    t.calls += 1;
    let r = if (t.calls + phase).is_multiple_of(SAMPLE_EVERY) {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as f64 - clock_ns;
        t.sampled += 1;
        t.sampled_ns += ns.max(0.0);
        r
    } else {
        f()
    };
    cell.set(t);
    r
}

impl CongestionControl for Traced {
    fn on_flow_start(&mut self, now: Ns) {
        if self.family == Family::RemyCc && self.acks.len() < ACKS_PER_CC {
            self.acks.push(AckRecord::Reset);
        }
        let inner = &mut self.inner;
        count(
            &self.local,
            self.phase,
            self.clock_ns,
            Method::OnFlowStart,
            || inner.on_flow_start(now),
        );
    }

    fn on_ack(&mut self, info: &AckInfo) {
        if self.family == Family::RemyCc && self.acks.len() < ACKS_PER_CC {
            self.acks.push(AckRecord::Ack {
                now: info.now,
                echo_ts: info.echo_ts,
                rtt_sample: info.rtt_sample,
                min_rtt: info.min_rtt,
            });
        }
        let inner = &mut self.inner;
        count(
            &self.local,
            self.phase,
            self.clock_ns,
            Method::OnAck,
            || inner.on_ack(info),
        );
    }

    fn on_loss(&mut self, now: Ns, event: LossEvent) {
        let inner = &mut self.inner;
        count(
            &self.local,
            self.phase,
            self.clock_ns,
            Method::OnLoss,
            || inner.on_loss(now, event),
        );
    }

    fn on_packet_sent(&mut self, now: Ns, seq: u64, in_flight: u64) {
        let inner = &mut self.inner;
        count(
            &self.local,
            self.phase,
            self.clock_ns,
            Method::OnPacketSent,
            || inner.on_packet_sent(now, seq, in_flight),
        );
    }

    fn cwnd(&self) -> f64 {
        count(&self.local, self.phase, self.clock_ns, Method::Cwnd, || {
            self.inner.cwnd()
        })
    }

    fn pacing(&self) -> Ns {
        count(
            &self.local,
            self.phase,
            self.clock_ns,
            Method::Pacing,
            || self.inner.pacing(),
        )
    }

    fn xcp_header(&self) -> Option<XcpHeader> {
        count(
            &self.local,
            self.phase,
            self.clock_ns,
            Method::Other,
            || self.inner.xcp_header(),
        )
    }

    fn ecn_capable(&self) -> bool {
        count(
            &self.local,
            self.phase,
            self.clock_ns,
            Method::Other,
            || self.inner.ecn_capable(),
        )
    }

    fn name(&self) -> &str {
        let t = &self.local[Method::Other as usize];
        let mut v = t.get();
        v.calls += 1;
        t.set(v);
        self.inner.name()
    }

    fn take_usage(&mut self) -> Option<Usage> {
        self.inner.take_usage()
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        // A poisoned lock means a run already panicked; that run is
        // counted as failed, so its tallies may be lost.
        if let Ok(mut t) = self.sink.lock() {
            let fam = &mut t.by[self.family as usize];
            for (acc, local) in fam.iter_mut().zip(&self.local) {
                acc.add(&local.get());
            }
            let room = ACKS_TOTAL.saturating_sub(t.acks.len());
            t.acks.extend(self.acks.drain(..).take(room));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::cc::FixedWindow;

    #[test]
    fn counts_every_call_and_samples_some() {
        let sink = SharedTally::default();
        {
            let mut cc = traced(Box::new(FixedWindow::new(4.0)), &sink, 0.0);
            for _ in 0..(SAMPLE_EVERY * 3) {
                assert_eq!(cc.cwnd(), 4.0);
            }
            cc.on_loss(Ns::ZERO, LossEvent::Timeout);
        }
        let t = sink.lock().unwrap();
        let cwnd = t.by[Family::Other as usize][Method::Cwnd as usize];
        assert_eq!(cwnd.calls, SAMPLE_EVERY * 3);
        assert_eq!(cwnd.sampled, 3);
        assert_eq!(t.calls(Method::OnLoss), 1);
        assert_eq!(t.total_calls(), SAMPLE_EVERY * 3 + 1);
    }
}
