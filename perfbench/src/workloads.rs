//! The three workloads. A job is a fixed amount of work drawn from the
//! seed (and, for `train`, the job's index in the run): it sets up, runs,
//! checks conservation and digests its simulated outputs.
//!
//! * `train` — `Remy::design_from` warm-started from the shipped δ=1
//!   table for a fixed step budget on two workers, then a verification
//!   pass that simulates the trained table on fresh specimens.
//! * `churn` — a 1 Gbps DropTail dumbbell with 2 persistent NewReno
//!   senders and Poisson churn of bounded-Pareto NewReno flows.
//! * `fabric` — 8 long-lived flows on a 1 Gbps sfqCoDel fat-tree (k=4),
//!   RemyCC and Cubic alternating, with an agg–core link failing and
//!   recovering on a schedule.

use crate::tracecc::{traced, SharedTally};
use crate::util::{bits, fnv64, secs_since};
use congestion::{Cubic, NewReno};
use netsim::prelude::*;
use remy::assets;
use remy::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The tuning seed: its first job's output digest is pinned below.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed: no pinned digest; its jobs are checked by
/// conservation and by two runs of one job agreeing.
pub const HELDOUT_SEED: u64 = 2;

/// Improve steps per `train` job.
pub const TRAIN_STEPS: usize = 1;
/// The evaluation budget of each improve step.
pub const TRAIN_EVAL: EvalConfig = EvalConfig {
    specimens: 4,
    sim_secs: 2.5,
};
/// Specimens in a `train` job's verification pass, and their length.
const VERIFY_SPECIMENS: usize = 8;
const VERIFY_SECS: f64 = 10.0;
/// Stream mixed into the seed for the verification draws, so they never
/// coincide with a draw the optimizer made.
const VERIFY_STREAM: u64 = 0x7e51_f1ed;

const CHURN_SECS: u64 = 2;
const FABRIC_SECS: u64 = 5;
const FABRIC_MBPS: f64 = 1000.0;
const FABRIC_QUEUE: QueueSpec = QueueSpec::SfqCodel {
    capacity: 1000,
    buckets: 64,
};
/// Edge-to-edge flows: four cross-pod, then four intra-pod.
const FABRIC_FLOWS: [(&str, &str); 8] = [
    ("pod0_edge0", "pod1_edge0"),
    ("pod1_edge1", "pod2_edge1"),
    ("pod2_edge0", "pod3_edge0"),
    ("pod3_edge1", "pod0_edge1"),
    ("pod0_edge1", "pod0_edge0"),
    ("pod1_edge0", "pod1_edge1"),
    ("pod2_edge1", "pod2_edge0"),
    ("pod3_edge0", "pod3_edge1"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Train,
    Churn,
    Fabric,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "train" => Some(Workload::Train),
            "churn" => Some(Workload::Churn),
            "fabric" => Some(Workload::Fabric),
            _ => None,
        }
    }

    /// The digest of job 0's outputs on [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::Train => "b89f7968ae5ceac4",
            Workload::Churn => "711ff95885e306bc",
            Workload::Fabric => "53ceea09a9d01cb1",
        }
    }

    /// The pinned digest job `job` of a run with `seed` must match, if any.
    pub fn expected_digest(self, seed: u64, job: u64) -> Option<&'static str> {
        (seed == DEFAULT_SEED && self.job_key(job) == 0).then(|| self.pinned_digest())
    }

    /// Which input job `job` runs: `train` draws a fresh optimizer seed
    /// and fresh specimens for every job, and `churn` a fresh arrival
    /// sequence, so a run averages over many draws; `fabric` repeats one
    /// scenario.
    pub fn job_key(self, job: u64) -> u64 {
        match self {
            Workload::Train | Workload::Churn => job,
            Workload::Fabric => 0,
        }
    }
}

/// Host seconds of one job's set-up, by part.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Rule-table parsing.
    pub table_s: f64,
    /// `NetworkBuilder` build plus `into_topology` (routing).
    pub graph_s: f64,
    /// `Simulator::new` (and `with_churn_cc`).
    pub sim_new_s: f64,
    /// Scenario, specimen and optimizer construction.
    pub other_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.table_s + self.graph_s + self.sim_new_s + self.other_s
    }
}

/// Kinds of optimizer progress event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Epoch,
    Improved,
    Split,
    Done,
}

/// What one job did and produced.
#[derive(Debug, Default)]
pub struct JobOut {
    pub setup: SetupTimes,
    /// Host seconds inside `Simulator::run` (all simulations of the job).
    pub run_s: f64,
    /// Host seconds inside `Remy::design_from` (`train` only).
    pub design_s: f64,
    /// Simulated seconds inside `run_s`.
    pub sim_s: f64,
    /// `SimResults::packets_forwarded`, summed.
    pub pkts: u64,
    /// Packets delivered to receivers, summed over flows.
    pub delivered: u64,
    pub queue_drops: u64,
    pub link_events: u64,
    pub reroutes: u64,
    pub failover_drops: u64,
    /// Churn population: spawned, completed, live at end.
    pub flows: Option<(u64, u64, u64)>,
    /// Optimizer improve steps (`train`).
    pub steps: usize,
    /// Optimizer progress events, each with the host seconds since the
    /// previous one (`train`, traced jobs only).
    pub events: Vec<(EventKind, f64)>,
    /// `take_usage().total()` summed over the RemyCC senders of the
    /// job's own simulations.
    pub whisker_lookups: u64,
    /// Canonical text of the simulated outputs the digest covers.
    pub digest_text: String,
    /// Graph of the `fabric` job (for the forwarding probe).
    pub graph: Option<NetGraph>,
    /// Rule table the job's RemyCC senders ran (for the lookup probe).
    pub table: Option<Arc<WhiskerTree>>,
    /// Mean forward and ACK path lengths in queued hops.
    pub fwd_hops: f64,
    pub ack_hops: f64,
}

impl JobOut {
    pub fn digest(&self) -> String {
        fnv64(&self.digest_text)
    }

    /// Conservation and sanity checks that hold for every seed.
    pub fn check(&self) -> Result<(), String> {
        if self.pkts < self.delivered {
            return Err(format!(
                "packets_forwarded {} < delivered {}",
                self.pkts, self.delivered
            ));
        }
        if let Some((spawned, completed, live)) = self.flows {
            if spawned != completed + live {
                return Err(format!(
                    "flows not conserved: spawned {spawned} != completed {completed} + live {live}"
                ));
            }
        }
        if self.pkts == 0 {
            return Err("no packet was forwarded".to_string());
        }
        Ok(())
    }
}

/// How a job is instrumented; a job run without one runs exactly as a
/// user's would.
pub struct Trace<'a> {
    pub tally: &'a SharedTally,
    pub clock_ns: f64,
}

fn wrap(trace: Option<&Trace>, cc: Box<dyn CongestionControl>) -> Box<dyn CongestionControl> {
    match trace {
        Some(t) => traced(cc, t.tally, t.clock_ns),
        None => cc,
    }
}

/// Run job `job` of `w` with `seed`.
pub fn run_job(w: Workload, seed: u64, job: u64, trace: Option<&Trace>) -> Result<JobOut, String> {
    let key = w.job_key(job);
    let out = match w {
        Workload::Train => train(seed, key, trace)?,
        Workload::Churn => {
            let (sim, setup) = churn_prepare(churn_seed(seed, key), trace);
            churn_run(sim, setup)?
        }
        Workload::Fabric => {
            let (prep, setup) = fabric_prepare(seed, trace)?;
            fabric_run(prep, setup)?
        }
    };
    out.check()?;
    Ok(out)
}

/// Set up job `job` of `w` with `seed` without running it: everything a
/// job does before its first `run` or `design_from` call, plus, for
/// `train`, building the verification simulators.
pub fn setup_only(w: Workload, seed: u64, job: u64) -> Result<SetupTimes, String> {
    let key = w.job_key(job);
    Ok(match w {
        Workload::Train => {
            let (prep, mut setup) = train_prepare(seed, key);
            let (_sims, sim_new_s) = verify_sims(&prep.verify, &prep.start, None);
            setup.sim_new_s += sim_new_s;
            setup
        }
        Workload::Churn => churn_prepare(churn_seed(seed, key), None).1,
        Workload::Fabric => fabric_prepare(seed, None)?.1,
    })
}

fn absorb(out: &mut JobOut, r: &SimResults) {
    out.sim_s += r.duration.as_secs_f64();
    out.pkts += r.packets_forwarded;
    out.delivered += r.flows.iter().map(|f| f.packets_delivered).sum::<u64>();
    out.queue_drops += r.queue_drops;
    out.link_events += r.link_events;
    out.reroutes += r.reroutes;
    out.failover_drops += r.failover_drops;
    let _ = write!(
        out.digest_text,
        "pkts={};drops={};events={};reroutes={};failover={};bytes=",
        r.packets_forwarded, r.queue_drops, r.link_events, r.reroutes, r.failover_drops
    );
    for f in &r.flows {
        let _ = write!(out.digest_text, "{},", f.bytes);
    }
    out.digest_text.push(';');
}

fn lookups(ccs: &mut [Box<dyn CongestionControl>]) -> u64 {
    ccs.iter_mut()
        .filter_map(|cc| cc.take_usage())
        .map(|u| u.total())
        .sum()
}

/// The scenario seed (`Scenario::seed`) of `churn` job key `key`. Key 0
/// runs the seed's own scenario, the one whose digest is pinned.
fn churn_seed(seed: u64, key: u64) -> u64 {
    match key {
        0 => seed,
        _ => SimRng::split_seed(seed, key),
    }
}

/// The optimizer seed (`TrainConfig::seed`) of `train` job key `key`.
pub fn train_seed(seed: u64, key: u64) -> u64 {
    SimRng::split_seed(seed, key)
}

/// What a `train` job sets up before its `design_from` call.
struct TrainPrep {
    start: Arc<WhiskerTree>,
    remy: Remy,
    verify: Vec<Scenario>,
}

fn train_prepare(seed: u64, key: u64) -> (TrainPrep, SetupTimes) {
    let mut setup = SetupTimes::default();
    let t = Instant::now();
    let start = assets::delta1();
    setup.table_s = secs_since(t);

    let t = Instant::now();
    let remy = Remy::new(
        NetworkModel::general(),
        Objective::proportional(1.0),
        TrainConfig {
            eval: TRAIN_EVAL,
            wall_secs: f64::INFINITY,
            max_steps: TRAIN_STEPS,
            max_rules: 256,
            seed: train_seed(seed, key),
        },
    );
    let verify = Evaluator::new(
        NetworkModel::general(),
        Objective::proportional(1.0),
        EvalConfig {
            specimens: VERIFY_SPECIMENS,
            sim_secs: VERIFY_SECS,
        },
    )
    .specimens(SimRng::split_seed(seed ^ VERIFY_STREAM, key));
    setup.other_s = secs_since(t);
    (
        TrainPrep {
            start,
            remy,
            verify,
        },
        setup,
    )
}

/// One simulator per specimen, every sender running `table`, and the
/// host seconds `Simulator::new` took.
fn verify_sims(
    specimens: &[Scenario],
    table: &Arc<WhiskerTree>,
    trace: Option<&Trace>,
) -> (Vec<Simulator>, f64) {
    let t = Instant::now();
    let sims = specimens
        .iter()
        .map(|sc| {
            let ccs = (0..sc.n())
                .map(|_| wrap(trace, Box::new(RemyCc::new(Arc::clone(table)))))
                .collect();
            Simulator::new(sc, ccs, None)
        })
        .collect();
    (sims, secs_since(t))
}

fn train(seed: u64, key: u64, trace: Option<&Trace>) -> Result<JobOut, String> {
    let (prep, setup) = train_prepare(seed, key);
    let mut out = JobOut {
        setup,
        fwd_hops: 1.0,
        ..JobOut::default()
    };
    set_jobs(2);
    let mut score = f64::NAN;
    let mut steps = 0;
    let events = &mut out.events;
    let t = Instant::now();
    let mut last = Instant::now();
    let tree = prep.remy.design_from((*prep.start).clone(), |ev| {
        let kind = match ev {
            TrainEvent::Epoch { .. } => EventKind::Epoch,
            TrainEvent::Improved { .. } => EventKind::Improved,
            TrainEvent::Split { .. } => EventKind::Split,
            TrainEvent::Done {
                score: s, steps: n, ..
            } => {
                score = s;
                steps = n;
                EventKind::Done
            }
        };
        if trace.is_some() {
            events.push((kind, secs_since(last)));
            last = Instant::now();
        }
    });
    out.design_s = secs_since(t);
    if !score.is_finite() {
        return Err(format!("training score is not finite: {score}"));
    }
    if steps != TRAIN_STEPS {
        return Err(format!("training took {steps} steps, budget {TRAIN_STEPS}"));
    }
    out.steps = steps;
    let _ = write!(
        out.digest_text,
        "table={};score={};",
        fnv64(&tree.to_json()),
        bits(score)
    );

    // Verification pass: the trained table on fresh specimens.
    let tree = Arc::new(tree);
    let (sims, sim_new_s) = verify_sims(&prep.verify, &tree, trace);
    out.setup.sim_new_s += sim_new_s;
    for sim in sims {
        let t = Instant::now();
        let (r, mut ccs) = sim.run_returning_ccs();
        out.run_s += secs_since(t);
        out.whisker_lookups += lookups(&mut ccs);
        absorb(&mut out, &r);
    }
    out.table = Some(tree);
    Ok(out)
}

/// The `churn` scenario for `seed`.
fn churn_scenario(seed: u64) -> Scenario {
    Scenario::dumbbell(
        LinkSpec::constant(1000.0),
        QueueSpec::DropTail { capacity: 1000 },
        2,
        Ns::from_millis(20),
        TrafficSpec::saturating(),
        Ns::from_secs(CHURN_SECS),
        seed,
    )
    .with_churn(ChurnSpec {
        arrivals_per_sec: 10_000.0,
        size: OnSpec::BoundedPareto {
            xm: 4500.0,
            alpha: 1.2,
            cap_bytes: 1.5e6,
        },
        rtt: Ns::from_millis(20),
    })
}

fn churn_prepare(seed: u64, trace: Option<&Trace>) -> (Simulator, SetupTimes) {
    let mut setup = SetupTimes::default();
    let t = Instant::now();
    let sc = churn_scenario(seed);
    setup.other_s = secs_since(t);

    let t = Instant::now();
    let ccs = (0..sc.n())
        .map(|_| wrap(trace, Box::new(NewReno::new())))
        .collect();
    let factory: Box<dyn Fn(u64) -> Box<dyn CongestionControl>> = match trace {
        Some(tr) => {
            let tally = Arc::clone(tr.tally);
            let clock_ns = tr.clock_ns;
            Box::new(move |_| traced(Box::new(NewReno::new()), &tally, clock_ns))
        }
        None => Box::new(|_| Box::new(NewReno::new())),
    };
    let sim = Simulator::new(&sc, ccs, None).with_churn_cc(factory);
    setup.sim_new_s = secs_since(t);
    (sim, setup)
}

fn churn_run(sim: Simulator, setup: SetupTimes) -> Result<JobOut, String> {
    let mut out = JobOut {
        setup,
        fwd_hops: 1.0,
        ..JobOut::default()
    };
    let t = Instant::now();
    let r = sim.run();
    out.run_s = secs_since(t);
    absorb(&mut out, &r);
    let p = r
        .population
        .as_ref()
        .ok_or("churn run reported no population")?;
    out.flows = Some((p.spawned, p.completed, p.live_at_end));
    let _ = write!(
        out.digest_text,
        "spawned={};completed={};live={};fct_p50={};fct_p99={};",
        p.spawned,
        p.completed,
        p.live_at_end,
        bits(p.fct_secs.p50()),
        bits(p.fct_secs.p99())
    );
    Ok(out)
}

/// The `fabric` link schedule for `seed`: `link` goes down and comes
/// back twice, at seed-drawn times.
fn fabric_events(seed: u64, link: u32) -> Vec<LinkEvent> {
    let mut rng = SimRng::new(seed);
    let mut at = |base: f64, jitter: f64| Ns::from_secs_f64(base + jitter * rng.f64());
    let down1 = at(1.0, 0.5);
    let up1 = down1 + Ns::from_millis(800);
    let down2 = at(3.0, 0.5);
    let up2 = down2 + Ns::from_millis(600);
    [(down1, false), (up1, true), (down2, false), (up2, true)]
        .into_iter()
        .map(|(at, up)| LinkEvent { at, link, up })
        .collect()
}

/// A `fabric` job ready to run.
struct FabricPrep {
    sim: Simulator,
    table: Arc<WhiskerTree>,
    graph: Option<NetGraph>,
    fwd_hops: f64,
    ack_hops: f64,
}

fn fabric_prepare(seed: u64, trace: Option<&Trace>) -> Result<(FabricPrep, SetupTimes), String> {
    let mut setup = SetupTimes::default();
    let t = Instant::now();
    let table = assets::datacenter();
    setup.table_s = secs_since(t);

    let t = Instant::now();
    let link = LinkSpec::constant(FABRIC_MBPS);
    let net = NetworkBuilder::fat_tree_k4(&link, &FABRIC_QUEUE, Ns::from_micros(20)).build()?;
    let router = |name: &str| net.router(name).ok_or(format!("no router {name}"));
    let flows = FABRIC_FLOWS
        .iter()
        .map(|(s, d)| Ok((router(s)?, router(d)?)))
        .collect::<Result<Vec<_>, String>>()?;
    // The failing link: the agg→core hop on flow 0's forward path.
    let g = net.graph();
    let up = vec![false; g.links.len()];
    let path = g.route(flows[0].0.index() as u32, flows[0].1.index() as u32, &up)?;
    let failing = path
        .into_iter()
        .find(|&l| {
            let gl = g.links[l];
            g.routers[gl.src as usize].contains("agg")
                && g.routers[gl.dst as usize].contains("core")
        })
        .ok_or("flow 0 crosses no agg-core link")?;
    let topo = net.into_topology(
        &flows,
        fabric_events(seed, failing as u32),
        FailoverPolicy::Reroute,
    )?;
    setup.graph_s = secs_since(t);
    let n_paths = topo.paths.len() as f64;
    let fwd_hops = topo.paths.iter().map(|p| p.fwd.len() as f64).sum::<f64>() / n_paths;
    let ack_hops = topo.paths.iter().map(|p| p.ack.len() as f64).sum::<f64>() / n_paths;
    let graph = topo.graph.clone();

    let t = Instant::now();
    let sc = Scenario::dumbbell(
        link,
        FABRIC_QUEUE,
        FABRIC_FLOWS.len(),
        Ns::from_micros(100),
        TrafficSpec::saturating(),
        Ns::from_secs(FABRIC_SECS),
        seed,
    )
    .with_topology(topo);
    setup.other_s = secs_since(t);

    let t = Instant::now();
    let ccs = (0..sc.n())
        .map(|i| {
            let cc: Box<dyn CongestionControl> = if i % 2 == 0 {
                Box::new(RemyCc::new(Arc::clone(&table)))
            } else {
                Box::new(Cubic::new())
            };
            wrap(trace, cc)
        })
        .collect();
    let sim = Simulator::new(&sc, ccs, None);
    setup.sim_new_s = secs_since(t);
    Ok((
        FabricPrep {
            sim,
            table,
            graph,
            fwd_hops,
            ack_hops,
        },
        setup,
    ))
}

fn fabric_run(prep: FabricPrep, setup: SetupTimes) -> Result<JobOut, String> {
    let mut out = JobOut {
        setup,
        fwd_hops: prep.fwd_hops,
        ack_hops: prep.ack_hops,
        graph: prep.graph,
        table: Some(prep.table),
        ..JobOut::default()
    };
    let t = Instant::now();
    let (r, mut ccs) = prep.sim.run_returning_ccs();
    out.run_s = secs_since(t);
    out.whisker_lookups = lookups(&mut ccs);
    drop(ccs);
    absorb(&mut out, &r);
    if r.link_events != 4 {
        return Err(format!("expected 4 link events, saw {}", r.link_events));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracecc::SharedTally;

    const ALL: [Workload; 3] = [Workload::Train, Workload::Churn, Workload::Fabric];

    fn digest(w: Workload, seed: u64, trace: Option<&Trace>) -> String {
        run_job(w, seed, 0, trace)
            .unwrap_or_else(|e| panic!("{w:?} seed {seed}: {e}"))
            .digest()
    }

    #[test]
    fn the_default_seed_matches_the_pinned_digests() {
        for w in ALL {
            assert_eq!(digest(w, DEFAULT_SEED, None), w.pinned_digest(), "{w:?}");
        }
    }

    #[test]
    fn the_heldout_seed_conserves_and_repeats() {
        // `run_job` applies the conservation checks; the digest must
        // repeat and must differ from the tuning seed's.
        for w in ALL {
            let a = digest(w, HELDOUT_SEED, None);
            assert_eq!(a, digest(w, HELDOUT_SEED, None), "{w:?}");
            assert_ne!(
                a,
                w.pinned_digest(),
                "{w:?}: the seed must change the inputs"
            );
        }
    }

    #[test]
    fn tracing_leaves_outputs_unchanged() {
        for w in ALL {
            let tally = SharedTally::default();
            let trace = Trace {
                tally: &tally,
                clock_ns: 0.0,
            };
            assert_eq!(
                digest(w, HELDOUT_SEED, Some(&trace)),
                digest(w, HELDOUT_SEED, None),
                "{w:?}"
            );
            assert!(tally.lock().unwrap().total_calls() > 0, "{w:?}");
        }
    }

    #[test]
    fn a_broken_conservation_law_fails_the_check() {
        let out = JobOut {
            pkts: 10,
            delivered: 11,
            ..JobOut::default()
        };
        assert!(out.check().is_err());
        let out = JobOut {
            pkts: 10,
            flows: Some((5, 3, 1)),
            ..JobOut::default()
        };
        assert!(out.check().is_err());
    }
}
