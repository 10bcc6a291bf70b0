//! The repository's benchmark: repeated, oracle-checked full solves of one
//! workload on a pinned 2-rank × 1-thread in-process machine.
//!
//! ```text
//! perfbench --workload <sssp_rmat|sssp_grid|cc_rmat> --seed <n> --seconds <s>
//!           --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` is the timed pass and reports the end-to-end metrics;
//! `--trace 1` is the traced pass and reports the per-layer metrics (see
//! README.md). The last line of standard output is the JSON result.

mod solve;
mod summary;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dgp_am::MachineError;
use dgp_core::engine::ActionMsg;

use solve::{solve, Checked, Impl, Solve, Tally, Workload, INSTANCES, NAMES, RANKS, SCALE_RANKS};
use summary::{describe, median, percentile, Metrics};
use trace::Trace;

/// Every pass runs at least this many measured rounds, however long they
/// take, so each median has a few samples.
const MIN_ROUNDS: usize = 3;
/// Epoch samples needed before a p99 has ten samples beyond it.
const P99_SAMPLES: usize = 1000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Restart the process's peak-resident-set count (`VmHWM`) from its live
/// resident set. Free heap kept by the allocator from earlier solves is
/// returned to the system first, so each solve's peak is measured from the
/// same baseline as in a fresh process. False where the kernel refuses the
/// restart; the peak then covers the whole process lifetime.
fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` has no preconditions; it only releases free
    // pages of the glibc heap, and no allocation is in progress here.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// [`solve`] from the allocator baseline of a fresh process, with the peak
/// resident set counted from its start.
fn fresh_solve(w: &Workload, imp: Impl, ranks: usize) -> Result<Solve, MachineError> {
    reset_peak_rss();
    solve(w, imp, ranks)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs rounds until `seconds` have passed and at least [`MIN_ROUNDS`] ran.
struct Deadline {
    end: Instant,
    rounds: usize,
}

impl Deadline {
    fn new(seconds: u64) -> Deadline {
        Deadline {
            end: Instant::now() + Duration::from_secs(seconds),
            rounds: 0,
        }
    }

    fn another(&mut self) -> bool {
        let go = self.rounds < MIN_ROUNDS || Instant::now() < self.end;
        self.rounds += usize::from(go);
        go
    }
}

/// One untimed pattern solve per input. On a 2-core host the first solves
/// after the inputs are generated ran up to 1.5× slower (lazy set-up,
/// first touches of the inputs), which would otherwise skew a run's
/// medians.
fn warm_up(inputs: &[Checked], tally: &mut Tally) {
    for c in inputs {
        tally.gate(fresh_solve(&c.w, Impl::Pattern, RANKS), &c.oracle);
    }
}

/// The timed pass: end-to-end metrics over repeated pattern solves.
fn timed(inputs: &[Checked], seconds: u64, tally: &mut Tally) -> Option<Metrics> {
    warm_up(inputs, tally);
    let mut solves: Vec<Solve> = Vec::new();
    // Peak RSS per solve: the message backlog that sets it depends on
    // timing, so one process-lifetime peak would be an extreme value.
    let mut rss_mb = Vec::new();
    let mut deadline = Deadline::new(seconds);
    for c in inputs.iter().cycle() {
        if !deadline.another() {
            break;
        }
        solves.extend(tally.gate(fresh_solve(&c.w, Impl::Pattern, RANKS), &c.oracle));
        rss_mb.push(peak_rss_mb());
    }
    if solves.is_empty() {
        return None;
    }
    let edges = inputs[0].w.num_edges() as f64;
    let kernel_s: Vec<f64> = solves.iter().map(|s| s.kernel_ms() / 1e3).collect();
    let setup_s: Vec<f64> = solves.iter().map(|s| s.setup_ms() / 1e3).collect();
    let mpe: Vec<f64> = solves
        .iter()
        .map(|s| s.am.messages_sent as f64 / edges)
        .collect();
    println!("{}", describe("kernel_s", "s", &kernel_s));
    println!("{}", describe("setup_s", "s", &setup_s));
    println!("{}", describe("messages_per_edge", "msgs/edge", &mpe));
    println!("{}", describe("peak_rss_mb", "MB", &rss_mb));
    let mut m = Metrics::default();
    m.put("kernel_s", median(&kernel_s), "s");
    m.put("teps", edges / median(&kernel_s), "1/s");
    m.put("setup_s", median(&setup_s), "s");
    m.put("messages_per_edge", median(&mpe), "msgs/edge");
    m.put("peak_rss_mb", median(&rss_mb), "MB");
    Some(m)
}

/// Pattern solve with its oracle check timed, for the trace.
fn checked_solve(c: &Checked, tally: &mut Tally) -> Option<(Solve, Instant)> {
    let s = fresh_solve(&c.w, Impl::Pattern, RANKS);
    let check_start = Instant::now();
    tally.gate(s, &c.oracle).map(|s| (s, check_start))
}

/// The traced pass: per-layer metrics, same-run references, the tracing
/// overhead and a counts-only scaling solve.
fn traced(
    inputs: &[Checked],
    seconds: u64,
    tally: &mut Tally,
    trace: &mut Trace,
) -> Option<Metrics> {
    warm_up(inputs, tally);
    let first = &inputs[0];
    tally.gate(
        fresh_solve(&first.w, Impl::Handwritten, RANKS),
        first.ref_oracle(),
    );
    let (mut untraced, mut spanned, mut refs, mut seq_ms) = (vec![], vec![], vec![], vec![]);
    let mut deadline = Deadline::new(seconds);
    for c in inputs.iter().cycle() {
        if !deadline.another() {
            break;
        }
        // Alternate which of the pair goes first, so drift cancels.
        let traced_first = deadline.rounds.is_multiple_of(2);
        for traced_now in [traced_first, !traced_first] {
            if traced_now {
                if let Some((s, check_start)) = checked_solve(c, tally) {
                    trace.record(&s, check_start, Instant::now());
                    spanned.push(s);
                }
            } else {
                untraced.extend(tally.gate(fresh_solve(&c.w, Impl::Pattern, RANKS), &c.oracle));
            }
        }
        refs.extend(tally.gate(fresh_solve(&c.w, Impl::Handwritten, RANKS), c.ref_oracle()));
        seq_ms.push(c.w.oracle().1.as_secs_f64() * 1e3);
    }
    let scale = tally.gate(
        fresh_solve(&first.w, Impl::Pattern, SCALE_RANKS),
        &first.oracle,
    );
    let (Some(scale), false, false, false) = (
        scale,
        untraced.is_empty(),
        spanned.is_empty(),
        refs.is_empty(),
    ) else {
        return None;
    };

    let edges = first.w.num_edges() as f64;
    let per = |f: &dyn Fn(&Solve) -> f64| -> Vec<f64> { spanned.iter().map(f).collect() };
    let kernel_ms = per(&|s| s.kernel_ms());
    let epoch_walls: Vec<f64> = spanned
        .iter()
        .flat_map(|s| s.epoch_walls.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    let ref_kernel_ms: Vec<f64> = refs.iter().map(|s| s.kernel_ms()).collect();
    let untraced_ms: Vec<f64> = untraced.iter().map(|s| s.kernel_ms()).collect();
    println!(
        "traced solves: {}, untraced solves: {}, reference solves: {}, epoch samples: {}",
        spanned.len(),
        untraced.len(),
        refs.len(),
        epoch_walls.len()
    );
    println!("{}", describe("core.kernel_ms (traced)", "ms", &kernel_ms));
    println!(
        "{}",
        describe("core.kernel_ms (untraced)", "ms", &untraced_ms)
    );
    println!("{}", describe("am_ref.kernel_ms", "ms", &ref_kernel_ms));
    if epoch_walls.len() < P99_SAMPLES {
        println!(
            "am.epoch_ms_p99: unresolved, {} epoch samples < {P99_SAMPLES}; read it as a near-max",
            epoch_walls.len()
        );
    }
    println!(
        "diag.kernel_ratio_vs_handwritten_different_algorithm: the reference ({:?}) is a \
         different algorithm than the pattern's ({:?}); a diagnostic, not an abstraction cost",
        first.w.reference, first.w.algo
    );

    let mut m = Metrics::default();
    m.put("graph.build_ms", median(&per(&|s| s.build_ms())), "ms");
    m.put("am.spawn_ms", median(&per(&|s| s.spawn_ms())), "ms");
    m.put("core.install_ms", median(&per(&|s| s.install_ms())), "ms");
    m.put("am.teardown_ms", median(&per(&|s| s.teardown_ms())), "ms");
    m.put(
        "core.items",
        median(&per(&|s| s.engine.items_generated as f64)),
        "count",
    );
    m.put(
        "core.items_per_s",
        median(&per(&|s| {
            s.engine.items_generated as f64 / (s.kernel_ms() / 1e3)
        })),
        "1/s",
    );
    m.put(
        "core.useful_ratio",
        median(&per(&|s| {
            ratio(
                s.engine.conditions_true as f64,
                s.engine.items_generated as f64,
            )
        })),
        "ratio",
    );
    m.put(
        "core.mods_changed_ratio",
        median(&per(&|s| {
            let e = &s.engine;
            ratio(
                e.modifications_changed as f64,
                (e.modifications_changed + e.modifications_unchanged) as f64,
            )
        })),
        "ratio",
    );
    m.put(
        "core.deps_fired",
        median(&per(&|s| s.engine.dependencies_fired as f64)),
        "count",
    );
    m.put(
        "core.strategy_gap_ms",
        median(&per(&|s| s.kernel_ms() - s.epoch_ms_sum())),
        "ms",
    );
    m.put(
        "am.epochs",
        median(&per(&|s| s.epoch_walls.len() as f64)),
        "count",
    );
    m.put("am.epoch_ms_sum", median(&per(&|s| s.epoch_ms_sum())), "ms");
    m.put("am.epoch_ms_p50", percentile(&epoch_walls, 50.0), "ms");
    m.put("am.epoch_ms_p99", percentile(&epoch_walls, 99.0), "ms");
    m.put("am.epoch_samples", epoch_walls.len() as f64, "count");
    let messages = per(&|s| s.am.messages_sent as f64);
    m.put("am.messages", median(&messages), "count");
    m.put(
        "am.envelopes",
        median(&per(&|s| s.am.envelopes_sent as f64)),
        "count",
    );
    m.put(
        "am.coalescing_factor",
        median(&per(&|s| s.am.coalescing_factor())),
        "msgs/env",
    );
    m.put(
        "am.msgs_per_s",
        median(&per(&|s| {
            ratio(s.am.messages_sent as f64, s.epoch_ms_sum() / 1e3)
        })),
        "1/s",
    );
    m.put(
        "am.msg_bytes_computed",
        median(&messages) * std::mem::size_of::<ActionMsg>() as f64,
        "bytes",
    );
    m.put("am_ref.kernel_ms", median(&ref_kernel_ms), "ms");
    m.put(
        "am_ref.messages",
        median(
            &refs
                .iter()
                .map(|s| s.am.messages_sent as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    m.put(
        "diag.kernel_ratio_vs_handwritten_different_algorithm",
        median(&kernel_ms) / median(&ref_kernel_ms),
        "ratio",
    );
    m.put("seq.kernel_ms", median(&seq_ms), "ms");
    m.put(
        "scale8.messages_per_edge",
        scale.am.messages_sent as f64 / edges,
        "msgs/edge",
    );
    m.put(
        "scale8.coalescing_factor",
        scale.am.coalescing_factor(),
        "msgs/env",
    );
    m.put("scale8.epochs", scale.epoch_walls.len() as f64, "count");
    m.put(
        "trace.overhead_ratio",
        median(&kernel_ms) / median(&untraced_ms),
        "ratio",
    );
    Some(m)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t_inputs = Instant::now();
    let Some(inputs) = Checked::generate_all(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {NAMES:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let w = &inputs[0].w;
    let nproc = nproc();
    println!(
        "workload={} seed={} instances={INSTANCES} vertices={} edges={} algo={:?} \
         reference={:?} ranks={RANKS} threads_per_rank=1 transport=inproc nproc={nproc} \
         (inputs and oracles: {:.2} s)",
        w.name,
        args.seed,
        w.edges.num_vertices(),
        w.num_edges(),
        w.algo,
        w.reference,
        t_inputs.elapsed().as_secs_f64()
    );
    if nproc < RANKS {
        println!(
            "WARNING: nproc={nproc} < ranks={RANKS}: ranks share cores, timings are oversubscribed"
        );
    }
    if !reset_peak_rss() {
        println!("peak_rss_mb: VmHWM cannot be restarted here; it covers the whole process");
    }
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let mut trace = Trace::new();
        let m = traced(&inputs, args.seconds, &mut tally, &mut trace);
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, trace.to_json()) {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("trace: {path}");
        }
        m
    } else {
        timed(&inputs, args.seconds, &mut tally)
    };
    let Some(metrics) = metrics else {
        eprintln!(
            "perfbench: every solve of a kind failed ({} of {} operations failed)",
            tally.failed, tally.attempted
        );
        return ExitCode::FAILURE;
    };
    println!(
        "operations: attempted={} failed={} (metrics: {})",
        tally.attempted,
        tally.failed,
        metrics.names().collect::<Vec<_>>().join(" ")
    );
    println!("{}", metrics.result_line(tally.attempted, tally.failed));
    ExitCode::SUCCESS
}
