//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|churn|fabric> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, at most two threads (the `train` optimizer's two
//! workers). With `--trace 0` it repeats the workload's fixed job until
//! `--seconds` have passed and prints the end-to-end metrics: medians
//! over blocks of jobs, in host time scaled by a speed reference timed
//! between blocks (`src/speed.rs`). With `--trace 1` it alternates plain and traced jobs and
//! prints the per-layer metrics instead. Every job's outputs are checked;
//! the last stdout line is the JSON result. See `perfbench/README.md`.

mod probes;
mod speed;
mod tracecc;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use tracecc::{Family, Method, SharedTally, Tally};
use util::{median, quantile, result_line, secs_since, Metric};
use workloads::{run_job, setup_only, EventKind, JobOut, SetupTimes, Trace, Workload};

/// `train` and `churn` jobs per block of an untraced run (see
/// `untraced`).
const TRAIN_BLOCK: usize = 8;
const CHURN_BLOCK: usize = 10;

/// Specimen draws the evaluator replay times on `train` (4 cells each).
const EVAL_REPLAY_SETS: u64 = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set-up-only repetitions after each job, on top of every job's own
/// set-up: set-up is short, so its median needs many samples, spread over
/// the whole run.
const SETUP_REPS: u64 = 5;

/// Runs `f`, turning a panic into an error so the remaining jobs go on.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Counts attempted and failed operations (jobs, set-ups and checks). A
/// job fails if it errs or panics, if its digest differs from the pinned
/// one (job key 0 only), or if it differs from the first digest this
/// process saw for the same job key (same inputs, so it must repeat).
struct Verdicts {
    pinned: Option<String>,
    first: BTreeMap<u64, String>,
    attempted: u64,
    failed: u64,
}

impl Verdicts {
    fn new(pinned: Option<&str>) -> Verdicts {
        Verdicts {
            pinned: pinned.map(str::to_string),
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn judge(&mut self, key: u64, r: Result<JobOut, String>) -> Option<JobOut> {
        self.attempted += 1;
        let verdict = r.and_then(|out| {
            let d = out.digest();
            if let (0, Some(p)) = (key, &self.pinned) {
                if &d != p {
                    return Err(format!("digest {d} != pinned {p}"));
                }
            }
            match self.first.get(&key) {
                Some(f) if f != &d => Err(format!("digest {d} != first run's {f}")),
                Some(_) => Ok(out),
                None => {
                    self.first.insert(key, d);
                    Ok(out)
                }
            }
        });
        match verdict {
            Ok(out) => Some(out),
            Err(e) => {
                eprintln!("perfbench: job failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// Records an operation other than a job: a set-up or a check.
    fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            eprintln!("perfbench: check failed: {e}");
            self.failed += 1;
        }
    }

    fn line(&self, metrics: &[Metric]) -> String {
        let correct = self.failed == 0 && self.attempted > 0;
        result_line(correct, self.attempted, self.failed, metrics)
    }
}

/// Host seconds of a job's measured work: `design_from` plus every
/// `Simulator::run`.
fn work_s(o: &JobOut) -> f64 {
    o.design_s + o.run_s
}

/// The workload's fixed job, timed: `design_from`'s step budget on
/// `train`, `Simulator::run` of the scenario otherwise.
fn job_s(w: Workload, o: &JobOut) -> f64 {
    match w {
        Workload::Train => o.design_s,
        Workload::Churn | Workload::Fabric => o.run_s,
    }
}

/// [`SETUP_REPS`] set-up-only repetitions, each recorded as an
/// operation; `first` numbers the first one's job.
fn setup_reps(a: &Args, first: u64, verdicts: &mut Verdicts, setups: &mut Vec<SetupTimes>) {
    for i in first..first + SETUP_REPS {
        let r = guarded(|| setup_only(a.workload, a.seed, i));
        verdicts.check(r.map(|s| setups.push(s)));
    }
}

/// Jobs run back to back between two timings of the speed reference,
/// with the set-ups made among them.
struct Block {
    outs: Vec<JobOut>,
    setups: Vec<SetupTimes>,
    /// Mean of the reference's host seconds before and after the block.
    reference_s: f64,
}

impl Block {
    fn total(&self, f: &dyn Fn(&JobOut) -> f64) -> f64 {
        self.outs.iter().map(f).sum()
    }

    fn nominal(&self, host_s: f64) -> f64 {
        speed::nominal_s(host_s, self.reference_s)
    }
}

fn untraced(a: &Args) -> String {
    let start = Instant::now();
    let w = a.workload;
    let mut verdicts = Verdicts::new(w.expected_digest(a.seed, 0));
    // A `fabric` job takes seconds, so a block is one job; `train` and
    // `churn` jobs are short (and `train` jobs of uneven size, each
    // drawing new specimens), so there a block pools several.
    let per_block = match w {
        Workload::Train => TRAIN_BLOCK,
        Workload::Churn => CHURN_BLOCK,
        Workload::Fabric => 1,
    };
    let mut blocks = Vec::new();
    let mut peaks = Vec::new();
    let mut job = 0;
    let mut before = speed::reference_s();
    while blocks.is_empty() || secs_since(start) < a.seconds {
        let mut outs = Vec::new();
        let mut setups = Vec::new();
        for _ in 0..per_block {
            util::reset_peak_rss();
            let r = guarded(|| run_job(w, a.seed, job, None));
            if let Some(o) = verdicts.judge(w.job_key(job), r) {
                peaks.push(util::peak_rss_mb());
                eprintln!(
                    "perfbench: job {job}: job_s {:.4} run_s {:.4} setup_s {:.6} pkts {}",
                    job_s(w, &o),
                    o.run_s,
                    o.setup.total(),
                    o.pkts
                );
                setups.push(o.setup);
                outs.push(o);
            }
            setup_reps(a, job * SETUP_REPS, &mut verdicts, &mut setups);
            job += 1;
        }
        let after = speed::reference_s();
        eprintln!("perfbench: reference_s {after:.4}");
        blocks.push(Block {
            outs,
            setups,
            reference_s: (before + after) / 2.0,
        });
        before = after;
    }
    // A metric is the median over blocks of the block's total work over
    // its total time, the time taken at the nominal host speed. The
    // median discards blocks the reference did not track, such as one
    // hit by a short burst of load.
    blocks.retain(|b| !b.outs.is_empty());
    let over_blocks = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    let run_s = |o: &JobOut| o.run_s;
    let rate = |work: &dyn Fn(&JobOut) -> f64| {
        over_blocks(&|b| b.total(work) / b.nominal(b.total(&run_s)))
    };
    let mean_job = |b: &Block| b.total(&|o| job_s(w, o)) / b.outs.len() as f64;
    let setups: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.setups.iter().map(|s| b.nominal(s.total())))
        .collect();
    let metrics = vec![
        Metric::new("sim_s_per_s", rate(&|o| o.sim_s), "s/s"),
        Metric::new("pkts_per_s", rate(&|o| o.pkts as f64), "1/s"),
        Metric::new("job_s", over_blocks(&|b| b.nominal(mean_job(b))), "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", median(&peaks), "MB"),
    ];
    eprintln!(
        "perfbench: {} blocks; host job_s {:.4}, reference {:.4} s (nominal {} s)",
        blocks.len(),
        over_blocks(&mean_job),
        over_blocks(&|b| b.reference_s),
        speed::NOMINAL_S
    );
    match w {
        Workload::Train => eprintln!(
            "perfbench: train: steps_per_h {:.1}",
            over_blocks(
                &|b| b.total(&|o| o.steps as f64 * 3600.0) / b.nominal(b.total(&|o| o.design_s))
            )
        ),
        Workload::Churn => eprintln!(
            "perfbench: churn: flows_per_s {:.1}",
            rate(&|o| o.flows.map_or(0, |f| f.1) as f64)
        ),
        Workload::Fabric => {}
    }
    verdicts.line(&metrics)
}

/// The traced run: plain and traced runs of job 0 alternate, so both see
/// the same machine state and every traced run must repeat the first's
/// counts exactly.
fn traced(a: &Args) -> String {
    let start = Instant::now();
    let w = a.workload;
    let clock_ns = util::clock_cost_ns();
    let mut verdicts = Verdicts::new(w.expected_digest(a.seed, 0));
    let mut setups = Vec::new();
    let mut plain: Vec<JobOut> = Vec::new();
    let mut traced: Vec<(JobOut, Tally)> = Vec::new();
    // At least two traced runs (so their counts can be compared), but
    // give up after four failed attempts.
    let mut pairs = 0;
    while secs_since(start) < a.seconds || (traced.len() < 2 && pairs < 4) {
        pairs += 1;
        if let Some(o) = verdicts.judge(0, guarded(|| run_job(w, a.seed, 0, None))) {
            setups.push(o.setup);
            plain.push(o);
        }
        let tally = SharedTally::default();
        let tr = Trace {
            tally: &tally,
            clock_ns,
        };
        let out = verdicts.judge(0, guarded(|| run_job(w, a.seed, 0, Some(&tr))));
        let tally = std::mem::take(&mut *tally.lock().expect("tally lock poisoned"));
        if let Some(o) = out {
            traced.push((o, tally));
        }
        setup_reps(a, 0, &mut verdicts, &mut setups);
    }
    for (_, t) in traced.iter().skip(1) {
        let same = t.counts() == traced[0].1.counts();
        verdicts.check(
            same.then_some(())
                .ok_or_else(|| "CC call counts differ between traced runs of one job".to_string()),
        );
    }
    let Some((o, t)) = traced.first() else {
        return verdicts.line(&[]);
    };
    let metrics = per_layer(a, o, t, &setups, &plain, &traced);
    verdicts.line(&metrics)
}

fn per_layer(
    a: &Args,
    o: &JobOut,
    t: &Tally,
    setups: &[SetupTimes],
    plain: &[JobOut],
    traced: &[(JobOut, Tally)],
) -> Vec<Metric> {
    let w = a.workload;
    let run_ns = o.run_s * 1e9;
    let pkts = o.pkts.max(1) as f64;
    let cc_ns = t.estimated_ns();
    let on_ack = |f: Family| t.by[f as usize][Method::OnAck as usize].mean_ns();
    let sent = t.calls(Method::OnPacketSent);
    let acks = t.calls(Method::OnAck) as f64;

    let setup_ms =
        |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;

    let (memory_ns, lookup_ns) = probes::memory_and_lookup_ns(&t.acks, o.table.as_ref());
    let (fwd_up_us, fwd_down_us) = match &o.graph {
        Some(g) => {
            let mut down = vec![false; g.links.len()];
            if let Some(ev) = g.events.first() {
                down[ev.link as usize] = true;
            }
            probes::forwarding_us(g, &down)
        }
        None => (0.0, 0.0),
    };
    let droptail_ns = probes::queue_op_ns(&netsim::queue::QueueSpec::DropTail { capacity: 1000 });
    let sfqcodel_ns = probes::queue_op_ns(&netsim::queue::QueueSpec::SfqCodel {
        capacity: 1000,
        buckets: 64,
    });
    let unlimited_ns = probes::queue_op_ns(&netsim::queue::QueueSpec::Unlimited);
    let sched_small = probes::sched_op_ns(48);
    let sched_large = probes::sched_op_ns(40_000);

    let (cells, imbalance) = if w == Workload::Train {
        let eval = remy::prelude::Evaluator::new(
            remy::prelude::NetworkModel::general(),
            remy::prelude::Objective::proportional(1.0),
            workloads::TRAIN_EVAL,
        );
        probes::evaluator_cells(
            &eval,
            workloads::train_seed(a.seed, 0),
            EVAL_REPLAY_SETS,
            &remy::assets::delta1(),
            2,
        )
    } else {
        (Vec::new(), 0.0)
    };
    let count = |k: EventKind| o.events.iter().filter(|e| e.0 == k).count() as f64;
    let gaps: Vec<f64> = o.events.iter().skip(1).map(|e| e.1 * 1e3).collect();

    // Cost ledger: the layers measured apart (CC by sampling, queue,
    // scheduler and routing by probes) against the run span. Each data
    // packet takes one queue operation per forward hop and each ACK one
    // per ACK-path hop; each of those and each ACK arrival pops at least
    // one event, so the scheduler count is a lower bound.
    let (queue_ns, sched_ns) = match w {
        Workload::Train => (unlimited_ns, sched_small),
        Workload::Churn => (droptail_ns, sched_large),
        Workload::Fabric => (sfqcodel_ns, sched_small),
    };
    let queue_ops = pkts * o.fwd_hops + acks * o.ack_hops;
    let sched_ops = queue_ops + acks;
    let explained = cc_ns
        + queue_ns * queue_ops
        + sched_ns * sched_ops
        + fwd_down_us * 1e3 * o.link_events as f64;

    let plain_s = median(&plain.iter().map(work_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|(o, _)| work_s(o)).collect::<Vec<_>>());
    let (spawned, completed, live) = o.flows.unwrap_or((0, 0, 0));

    vec![
        Metric::new("engine.self_ns_per_pkt", (run_ns - cc_ns) / pkts, "ns"),
        Metric::new("engine.run_ms", o.run_s * 1e3, "ms"),
        Metric::new("engine.pkts", o.pkts as f64, "count"),
        Metric::new("setup.sim_new_ms", setup_ms(&|s| s.sim_new_s), "ms"),
        Metric::new("setup.graph_ms", setup_ms(&|s| s.graph_s), "ms"),
        Metric::new("setup.table_ms", setup_ms(&|s| s.table_s), "ms"),
        Metric::new("cc.calls_per_pkt", t.total_calls() as f64 / pkts, "ratio"),
        Metric::new("cc.on_ack.calls", acks, "count"),
        Metric::new(
            "cc.poll.calls",
            (t.calls(Method::Cwnd) + t.calls(Method::Pacing)) as f64,
            "count",
        ),
        Metric::new("cc.on_packet_sent.calls", sent as f64, "count"),
        Metric::new("cc.on_loss.calls", t.calls(Method::OnLoss) as f64, "count"),
        Metric::new("cc.newreno.on_ack_ns", on_ack(Family::NewReno), "ns"),
        Metric::new("cc.cubic.on_ack_ns", on_ack(Family::Cubic), "ns"),
        Metric::new("cc.remycc.on_ack_ns", on_ack(Family::RemyCc), "ns"),
        Metric::new("cc.share", cc_ns / run_ns, "ratio"),
        Metric::new("whisker.lookups", o.whisker_lookups as f64, "count"),
        Metric::new("memory.update_ns", memory_ns, "ns"),
        Metric::new("whisker.lookup_ns", lookup_ns, "ns"),
        Metric::new("evaluator.cell_ms_p50", quantile(&cells, 0.5), "ms"),
        Metric::new("evaluator.cell_ms_p90", quantile(&cells, 0.9), "ms"),
        Metric::new("evaluator.imbalance", imbalance, "ratio"),
        Metric::new("optimizer.improved", count(EventKind::Improved), "count"),
        Metric::new("optimizer.epochs", count(EventKind::Epoch), "count"),
        Metric::new("optimizer.splits", count(EventKind::Split), "count"),
        Metric::new("optimizer.round_ms", median(&gaps), "ms"),
        Metric::new("graph.link_events", o.link_events as f64, "count"),
        Metric::new("graph.reroutes", o.reroutes as f64, "count"),
        Metric::new("graph.failover_drops", o.failover_drops as f64, "count"),
        Metric::new("graph.forwarding_us", fwd_up_us, "us"),
        Metric::new("graph.forwarding_down_us", fwd_down_us, "us"),
        Metric::new("queue.drops", o.queue_drops as f64, "count"),
        Metric::new(
            "queue.drop_frac",
            o.queue_drops as f64 / sent.max(1) as f64,
            "ratio",
        ),
        Metric::new("queue.droptail.op_ns", droptail_ns, "ns"),
        Metric::new("queue.sfqcodel.op_ns", sfqcodel_ns, "ns"),
        Metric::new("queue.unlimited.op_ns", unlimited_ns, "ns"),
        Metric::new("sched.op_ns_small", sched_small, "ns"),
        Metric::new("sched.op_ns_large", sched_large, "ns"),
        Metric::new("flow.spawned", spawned as f64, "count"),
        Metric::new("flow.completed", completed as f64, "count"),
        Metric::new("flow.live_at_end", live as f64, "count"),
        Metric::new("trace_overhead", traced_s / plain_s - 1.0, "ratio"),
        Metric::new("ledger.residual_share", 1.0 - explained / run_ns, "ratio"),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <train|churn|fabric> \
                 --seed <n> --seconds <s> --trace <0|1>\n\
                 seeds: {} is the tuning seed (digests pinned), {} the held-out seed",
                workloads::DEFAULT_SEED,
                workloads::HELDOUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    let line = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_with(text: &str) -> JobOut {
        JobOut {
            digest_text: text.to_string(),
            ..JobOut::default()
        }
    }

    #[test]
    fn a_digest_mismatch_counts_as_failed() {
        let good = out_with("a").digest();
        let mut v = Verdicts::new(Some(&good));
        assert!(v.judge(0, Ok(out_with("a"))).is_some());
        assert!(v.judge(0, Ok(out_with("b"))).is_none());
        assert_eq!((v.attempted, v.failed), (2, 1));
        assert!(v.line(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_run_that_differs_from_the_first_counts_as_failed() {
        let mut v = Verdicts::new(None);
        assert!(v.judge(0, Ok(out_with("a"))).is_some());
        assert!(v.judge(0, Ok(out_with("a"))).is_some());
        assert!(v.judge(0, Ok(out_with("c"))).is_none());
        assert_eq!((v.attempted, v.failed), (3, 1));
    }

    #[test]
    fn a_panicking_run_is_caught_and_later_runs_go_on() {
        let mut v = Verdicts::new(None);
        assert!(v.judge(0, guarded(|| panic!("boom"))).is_none());
        assert!(v.judge(0, guarded(|| Ok(out_with("a")))).is_some());
        assert_eq!((v.attempted, v.failed), (2, 1));
    }

    #[test]
    fn an_erring_run_counts_as_failed() {
        let mut v = Verdicts::new(None);
        assert!(v.judge(0, Err("broken".to_string())).is_none());
        assert_eq!(v.failed, 1);
        assert!(v.line(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload churn --seed 5 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.trace), (5, 3.0, true));
        assert!(parse_args(&argv("--workload nope --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload churn")).is_err());
        assert!(parse_args(&argv("--workload churn --seconds 0")).is_err());
    }
}
