//! `perfbench` — runs one benchmark workload and reports its metrics.
//!
//! ```text
//! perfbench --workload <soak|volley|paced> --seed <n> --seconds <s> --trace <0|1>
//!           [--record runs.jsonl] [--spans-dir DIR]
//!           [--sessions N] [--prefixes N] [--bursts X] [--flaps N]
//!           [--volley-sessions N] [--volley-prefixes N] [--burst N]
//!           [--rounds N] [--rate EV_PER_S]
//! ```
//!
//! The input is generated from the seed before any clock starts. With
//! `--trace 0` the run alternates inline and sharded passes for about
//! `--seconds` and reports every end-to-end metric of `BENCHMARK.json`; with
//! `--trace 1` it runs the traced passes and reports every per-layer
//! metric. Every run checks the sharded runtime's decisions against the
//! inline reference and its installed rules for unsafe reroutes. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use swift_perfbench::input::{self, SoakParams, VolleyParams};
use swift_perfbench::runs::{self, Load, Prepared, Reference, RuntimeSpans};
use swift_perfbench::spans::Tracer;
use swift_perfbench::spec::Spec;
use swift_perfbench::stats::{highest_supported, median, nearest_rank, tail_supported};
use swift_perfbench::traced::{self, name};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    spans_dir: PathBuf,
    soak: SoakParams,
    volley: VolleyParams,
    rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: None,
        spans_dir: PathBuf::from(".bench_spans"),
        soak: SoakParams::default(),
        volley: VolleyParams::default(),
        rate: 80_000.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag} takes a non-negative number, got {v:?}"))
        };
        let count = |v: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got {value:?}"))?
            }
            "--seconds" => args.seconds = num(value)?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--record" => args.record = Some(PathBuf::from(value)),
            "--spans-dir" => args.spans_dir = PathBuf::from(value),
            "--sessions" => args.soak.sessions = count(value)?,
            "--prefixes" => args.soak.prefixes = count(value)?,
            "--bursts" => args.soak.bursts = num(value)?,
            "--flaps" => args.soak.flaps = count(value)?,
            "--volley-sessions" => args.volley.sessions = count(value)?,
            "--volley-prefixes" => args.volley.prefixes = count(value)?,
            "--burst" => args.volley.burst = count(value)?,
            "--rounds" => args.volley.rounds = count(value)?,
            "--rate" => args.rate = num(value)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.rate <= 0.0 {
        return Err("--rate must be positive".into());
    }
    Ok(args)
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Run-level checks that failed (no reroutes, dropped events, ...).
    problems: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

fn main() {
    let result = parse_args().and_then(|args| {
        let spec = Spec::load(std::path::Path::new("BENCHMARK.json"))?;
        if !spec.workloads.contains(&args.workload) {
            return Err(format!(
                "unknown workload {:?} (BENCHMARK.json declares {:?})",
                args.workload, spec.workloads
            ));
        }
        run(&args, &spec)
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run(args: &Args, spec: &Spec) -> Result<(), String> {
    let started = Instant::now();
    let load = match args.workload.as_str() {
        "paced" => Load::Paced { rate: args.rate },
        _ => Load::Closed,
    };
    let input = match args.workload.as_str() {
        "soak" | "paced" => input::soak(&args.soak, args.seed),
        "volley" => input::volley(&args.volley, args.seed),
        other => return Err(format!("no input for workload {other:?}")),
    };
    println!(
        "perfbench {} seed={} trace={} | {} | {} core(s)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        input.describe,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if let Load::Paced { rate } = load {
        println!("open loop at {rate} ev/s");
    }
    let prep = Prepared::new(input);
    println!(
        "input materialised in {:.2} s",
        started.elapsed().as_secs_f64()
    );

    let out = if args.trace {
        traced_run(args, &prep, load)?
    } else {
        end_to_end_run(args, &prep, load)?
    };
    spec.check(args.trace, &out.metrics)?;

    for (n, v, u) in &out.metrics {
        println!("{n:<36} {v:>16.4} {u}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "outputs {}: {} of {} operations failed ({:.1} s)",
        if correct { "correct" } else { "INCORRECT" },
        out.failed,
        out.attempted,
        started.elapsed().as_secs_f64()
    );
    let metrics = out
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if let Some(path) = &args.record {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        writeln!(
            f,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(())
}

/// Inline and sharded passes a run makes at least, whatever `--seconds`.
const MIN_PASSES: usize = 2;

/// Alternates inline and sharded passes until `--seconds` have been spent
/// measuring (at least [`MIN_PASSES`] of each), then reports medians over
/// passes and percentiles over the pooled latency samples.
fn end_to_end_run(args: &Args, prep: &Prepared, load: Load) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let input = &prep.input;
    let budget = Duration::from_secs_f64(args.seconds);
    let t_measure = Instant::now();
    let mut reference: Option<Reference> = None;
    let (mut inline_rates, mut sharded_rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reroute, mut reaction, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let (mut held_mb, mut runtime_mb) = (0.0f64, 0.0f64);
    let (mut reroute_p50s, mut reaction_p50s) = (Vec::new(), Vec::new());
    let mut passes = 0;
    while passes < MIN_PASSES || t_measure.elapsed() < budget {
        passes += 1;
        let inline = runs::inline_pass(prep);
        out.require(inline.events == input.events as u64, || {
            format!(
                "inline runtime counted {} events of {}",
                inline.events, input.events
            )
        });
        inline_rates.push(input.events as f64 / inline.wall.as_secs_f64());
        let reference = reference.get_or_insert_with(|| Reference::new(prep, &inline.actions));
        if passes > 1 {
            // The inline runtime is deterministic: every pass must agree.
            let diverged = reference.failed_bursts(prep, &inline.actions);
            out.attempted += input.bursts.len() as u64;
            out.failed += diverged.len() as u64;
        }
        drop(inline);

        let pass = runs::sharded_pass(prep, reference, load, None)?;
        let m = &pass.report.metrics;
        out.require(m.dropped == 0, || {
            format!("{} events dropped under Block", m.dropped)
        });
        out.require(m.events == input.events as u64, || {
            format!(
                "sharded runtime counted {} events of {}",
                m.events, input.events
            )
        });
        out.attempted += (input.bursts.len() + reference.unmapped) as u64;
        out.failed += (pass.failed.len() + reference.unmapped) as u64;
        setups.push(pass.setup.as_secs_f64());
        sharded_rates.push(input.events as f64 / pass.wall.as_secs_f64());
        // A reroute never seen installed misses every latency limit.
        let samples = |v: &[Option<f64>]| -> Vec<f64> {
            swift_perfbench::stats::sorted(
                &v.iter()
                    .map(|x| x.unwrap_or(f64::INFINITY))
                    .collect::<Vec<_>>(),
            )
        };
        let (pass_reroute, pass_reaction) = (samples(&pass.reroute_ms), samples(&pass.reaction_ms));
        reroute_p50s.push(nearest_rank(&pass_reroute, 0.5).unwrap_or(f64::NAN));
        reaction_p50s.push(nearest_rank(&pass_reaction, 0.5).unwrap_or(f64::NAN));
        reroute.extend(pass_reroute);
        reaction.extend(pass_reaction);
        lag.extend_from_slice(&pass.lag_ms);
        held_mb = held_mb.max(pass.held_mb);
        runtime_mb = runtime_mb.max(pass.runtime_mb);
        println!(
            "pass {passes}: inline {:.0} ev/s | sharded {:.0} ev/s, setup {:.3} s, reroute p50 {:.3} ms, reaction p50 {:.3} ms, {} reroutes, {} failed, {} of {} installed reroutes checked safe",
            inline_rates[passes - 1],
            sharded_rates[passes - 1],
            pass.setup.as_secs_f64(),
            reroute_p50s[passes - 1],
            reaction_p50s[passes - 1],
            pass.reroute_ms.len(),
            pass.failed.len(),
            pass.safety_checked - pass.unsafe_reroutes,
            pass.safety_checked
        );
    }
    let reference = reference.expect("at least one pass ran");
    out.require(reference.reroutes() > 0, || {
        "the workload rerouted nothing".to_string()
    });
    println!(
        "{} reroutes per pass, {} of them installed no rule (no latency sample)",
        reference.reroutes(),
        reference.unmeasured()
    );
    println!(
        "resident memory: {held_mb:.1} MB held by the benchmark (input) + {runtime_mb:.1} MB peak added by the runtime"
    );
    if let Load::Paced { .. } = load {
        let measured = reference.reroutes() - reference.unmeasured();
        out.require(measured >= 100, || {
            format!("paced run holds {measured} measured reroutes, needs >= 100")
        });
    }
    // Set-up is sampled at least three times, so its median is stable.
    while setups.len() < 3 {
        setups.push(runs::setup_only(input).as_secs_f64());
    }

    let sorted = swift_perfbench::stats::sorted;
    let (reroute, reaction, lag) = (sorted(&reroute), sorted(&reaction), sorted(&lag));
    let pct = |v: &[f64], q: f64| nearest_rank(v, q).unwrap_or(f64::NAN);
    // The p90 tails and the ingest lag are reported but carry no bound: on
    // a shared two-core box they spread wider across seeds than any bound
    // BENCHMARK.json may set (see perfbench/README.md). Only an open loop
    // has a schedule to be late against.
    let mut tails = vec![
        ("reroute_ms", &reroute, 0.9),
        ("reaction_ms", &reaction, 0.9),
    ];
    if let Load::Paced { .. } = load {
        tails.push(("ingest_lag_ms", &lag, 0.99));
    }
    for (label, v, q) in tails {
        let highest = highest_supported(v.len()).map_or("none".to_string(), |h| {
            format!("p{:.3} = {:.4} ms", h * 100.0, pct(v, h))
        });
        println!(
            "{label}: {} samples, p50 = {:.4} ms, p{} = {:.4} ms ({}), highest percentile with 10 beyond: {highest}",
            v.len(),
            pct(v, 0.5),
            q * 100.0,
            pct(v, q),
            if tail_supported(v.len(), q) {
                "supported"
            } else {
                "FEWER than 10 samples beyond it"
            },
        );
    }
    out.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    out.metric(
        "events_per_s",
        median(&sharded_rates).unwrap_or(f64::NAN),
        "ev/s",
    );
    out.metric(
        "inline_events_per_s",
        median(&inline_rates).unwrap_or(f64::NAN),
        "ev/s",
    );
    out.metric("reroute_ms_p50", pct(&reroute, 0.5), "ms");
    out.metric("reaction_ms_p50", pct(&reaction, 0.5), "ms");
    out.metric("peak_rss_mb", runtime_mb, "MB");
    Ok(out)
}

/// Untraced and traced inline passes the traced run alternates:
/// `trace.overhead_pct` is the ratio of their median walls, since one pass
/// of either varies by 10–20 % on its own.
const OVERHEAD_PAIRS: usize = 3;

/// The traced run: untraced inline passes (the first is the reference)
/// alternated with traced inline passes (the first is reported), the
/// fold-only replay and one sharded pass with every public call timed.
fn traced_run(args: &Args, prep: &Prepared, load: Load) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let input = &prep.input;
    let inline = runs::inline_pass(prep);
    let reference = Reference::new(prep, &inline.actions);
    out.require(reference.reroutes() > 0, || {
        "the workload rerouted nothing".to_string()
    });
    let mut untraced_walls = vec![inline.wall.as_secs_f64()];
    drop(inline);

    let tp = traced::traced_pass(prep);
    // The traced composition must decide exactly as the inline runtime.
    let diverged = reference.failed_bursts(prep, &tp.actions);
    out.attempted += (input.bursts.len() + reference.unmapped) as u64;
    out.failed += (diverged.len() + reference.unmapped) as u64 + tp.unsafe_reroutes;
    let mut traced_walls = vec![tp.wall.as_secs_f64()];
    for _ in 1..OVERHEAD_PAIRS {
        untraced_walls.push(runs::inline_pass(prep).wall.as_secs_f64());
        traced_walls.push(traced::traced_pass(prep).wall.as_secs_f64());
    }
    let overhead_pct = 100.0
        * (median(&traced_walls).unwrap_or(f64::NAN) / median(&untraced_walls).unwrap_or(f64::NAN)
            - 1.0);
    let secs = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "inline walls, s: untraced [{}], traced [{}]: overhead of the median {overhead_pct:.1} %",
        secs(&untraced_walls),
        secs(&traced_walls)
    );
    let (sync, folded) = traced::sync_rib_replay(prep);

    let mut rspans = RuntimeSpans::new();
    let pass = runs::sharded_pass(prep, &reference, load, Some(&mut rspans))?;
    let m = &pass.report.metrics;
    out.require(m.dropped == 0, || {
        format!("{} events dropped under Block", m.dropped)
    });
    out.attempted += (input.bursts.len() + reference.unmapped) as u64;
    out.failed += (pass.failed.len() + reference.unmapped) as u64;

    let dir = &args.spans_dir;
    for (file, tracer) in [
        ("inline", &tp.tracer),
        ("sync_rib", &sync),
        ("runtime", &rspans.tracer),
    ] {
        let path = dir.join(format!("{}-{file}.tsv", args.workload));
        tracer
            .write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "spans written to {}/{}-{{inline,sync_rib,runtime}}.tsv ({} + {} + {} spans)",
        dir.display(),
        args.workload,
        tp.tracer.spans().len(),
        sync.spans().len(),
        rspans.tracer.spans().len()
    );

    let totals = tp.tracer.totals();
    let root_ns = totals.get(name::PASS).map_or(0, |t| t.total_ns);
    // Set-up spans run before the root span opens; everything else nests in
    // it, so those self times sum to the traced wall.
    let setup = |n: &&str| *n == name::SEED || *n == name::BUILD;
    println!("traced inline pass: self time by layer");
    let mut rows: Vec<_> = totals.iter().filter(|(n, _)| !setup(n)).collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (n, t) in &rows {
        println!(
            "  {n:<22} {:>9} calls {:>10.2} ms self {:>6.2} %",
            t.calls,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / root_ns.max(1) as f64
        );
    }
    let accounted: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
    println!(
        "  sum of self times {:.2} ms = traced wall {:.2} ms ({:.2} ms of it the benchmark's own checks)",
        accounted as f64 / 1e6,
        root_ns as f64 / 1e6,
        totals.get(name::CHECK).map_or(0, |t| t.total_ns) as f64 / 1e6
    );
    for (n, t) in totals.iter().filter(|(n, _)| setup(n)) {
        println!("  set-up: {n:<14} {:>10.2} ms", t.total_ns as f64 / 1e6);
    }

    layer_metrics(&mut out, &tp, &totals, overhead_pct, &sync, folded);
    runtime_metrics(&mut out, &pass, &rspans);
    Ok(out)
}

/// `swift-core` layer metrics from the traced inline pass.
fn layer_metrics(
    out: &mut Outcome,
    tp: &traced::TracedPass,
    totals: &std::collections::BTreeMap<&'static str, swift_perfbench::spans::SpanTotals>,
    overhead_pct: f64,
    sync: &Tracer,
    folded: u64,
) {
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let durations = |n: &str| -> Vec<f64> {
        let id = tp.tracer.names().iter().position(|x| *x == n);
        let mut v: Vec<f64> = id
            .map(|i| tp.tracer.durations(i as u16))
            .unwrap_or_default()
            .into_iter()
            .map(|d| d as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let p50 = |v: &[f64]| nearest_rank(v, 0.5).unwrap_or(0.0);
    let max = |v: &[f64]| v.last().copied().unwrap_or(0.0);

    for (metric, span) in [
        ("inference.idle", name::IDLE),
        ("inference.wait", name::WAIT),
        ("inference.after", name::AFTER),
    ] {
        out.metric(&format!("{metric}.calls"), get(span).calls as f64, "count");
        out.metric(&format!("{metric}.busy_ms"), ms(get(span).self_ns), "ms");
    }
    let attempt = durations(name::ATTEMPT);
    out.metric(
        "inference.attempt.calls",
        get(name::ATTEMPT).calls as f64,
        "count",
    );
    out.metric(
        "inference.attempt.busy_ms",
        ms(get(name::ATTEMPT).self_ns),
        "ms",
    );
    out.metric("inference.attempt.p50_us", p50(&attempt), "us");
    out.metric("inference.attempt.max_us", max(&attempt), "us");
    out.metric(
        "inference.accept_ratio",
        tp.accepted as f64 / tp.attempts.max(1) as f64,
        "ratio",
    );
    out.metric(
        "inference.evidence_withdrawals_p50",
        nearest_rank(&swift_perfbench::stats::sorted(&tp.evidence), 0.5).unwrap_or(0.0),
        "count",
    );
    out.metric("inference.kernel.dense", tp.kernels.dense as f64, "count");
    out.metric("inference.kernel.sparse", tp.kernels.sparse as f64, "count");
    out.metric("inference.kernel.mixed", tp.kernels.mixed as f64, "count");
    out.metric(
        "inference.scratch.growth",
        tp.kernels.scratch_growth as f64,
        "count",
    );
    out.metric("inference.seed_ms", ms(get(name::SEED).total_ns), "ms");

    out.metric(
        "pipeline.note_event.calls",
        get(name::NOTE).calls as f64,
        "count",
    );
    out.metric(
        "pipeline.note_event.busy_ms",
        ms(get(name::NOTE).self_ns),
        "ms",
    );
    let sync_totals = sync.totals();
    out.metric(
        "pipeline.sync_rib.busy_ms",
        ms(sync_totals.get(name::SYNC_RIB).map_or(0, |t| t.self_ns)),
        "ms",
    );
    out.metric("pipeline.sync_rib.events", folded as f64, "count");
    let resync = durations(name::RESYNC);
    out.metric(
        "pipeline.resync.calls",
        get(name::RESYNC).calls as f64,
        "count",
    );
    out.metric(
        "pipeline.resync.busy_ms",
        ms(get(name::RESYNC).self_ns),
        "ms",
    );
    out.metric("pipeline.resync.p50_us", p50(&resync), "us");
    out.metric("pipeline.rules_removed", tp.rules_removed as f64, "count");
    out.metric(
        "pipeline.session.busy_ms",
        ms(get(name::SESSION).self_ns),
        "ms",
    );
    let install = durations(name::INSTALL);
    out.metric(
        "pipeline.install.calls",
        get(name::INSTALL).calls as f64,
        "count",
    );
    out.metric(
        "pipeline.install.busy_ms",
        ms(get(name::INSTALL).self_ns),
        "ms",
    );
    out.metric("pipeline.install.p50_us", p50(&install), "us");
    out.metric("pipeline.install.max_us", max(&install), "us");
    out.metric(
        "pipeline.rules_installed",
        tp.rules_installed as f64,
        "count",
    );

    out.metric("encoding.build_ms", ms(get(name::BUILD).total_ns), "ms");
    out.metric("encoding.stage1_len", tp.stage1_len as f64, "count");
    out.metric("encoding.swift_rules_hw", tp.swift_rules_hw as f64, "count");
    out.metric("encoding.coverage", mean(&tp.coverage), "ratio");

    out.metric("trace.overhead_pct", overhead_pct, "%");
    out.metric("trace.event_self_ms", ms(get(name::EVENT).self_ns), "ms");
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// `swift-runtime` layer metrics from the traced sharded pass.
fn runtime_metrics(out: &mut Outcome, pass: &runs::ShardedPass, rs: &RuntimeSpans) {
    let m = &pass.report.metrics;
    let totals = rs.tracer.totals();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let batch = runs::sharded_config().batch_size as f64;
    let shard = m.per_shard.first();
    let applier = m.per_applier.first();
    out.metric("runtime.ingest.busy_ms", ms(rs.ingest_ns), "ms");
    out.metric("runtime.ingest.max_us", rs.ingest_max_ns as f64 / 1e3, "us");
    out.metric(
        "runtime.flush.wait_ms",
        ms(get(RuntimeSpans::FLUSH).total_ns),
        "ms",
    );
    out.metric(
        "runtime.resync.calls",
        get(RuntimeSpans::RESYNC).calls as f64,
        "count",
    );
    out.metric(
        "runtime.resync.busy_ms",
        ms(get(RuntimeSpans::RESYNC).total_ns),
        "ms",
    );
    out.metric(
        "runtime.session.busy_ms",
        ms(get(RuntimeSpans::SESSION).total_ns),
        "ms",
    );
    out.metric(
        "runtime.batch_fill",
        m.events as f64 / (shard.map_or(0, |s| s.batches) as f64 * batch).max(1.0),
        "ratio",
    );
    out.metric(
        "runtime.shard.queue_hw",
        shard.map_or(0, |s| s.max_queue_depth) as f64,
        "batches",
    );
    out.metric(
        "runtime.applier.queue_hw",
        applier.map_or(0, |a| a.max_queue_depth) as f64,
        "batches",
    );
    out.metric(
        "runtime.applier.busy_ms",
        applier.map_or(0.0, |a| a.busy.as_secs_f64() * 1e3),
        "ms",
    );
    out.metric(
        "runtime.applier.pending_hw",
        applier.map_or(0, |a| a.pending_high_water) as f64,
        "events",
    );
    out.metric("runtime.dropped", m.dropped as f64, "count");
}
